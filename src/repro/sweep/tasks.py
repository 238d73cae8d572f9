"""The registry of task functions a sweep may execute.

Tasks are addressed by *name*, not by function object: the name is part
of the cache key, and it is what travels to worker processes (which
re-resolve it locally), so no callable ever needs to be pickled.
Registered targets are ``"module:qualname"`` strings resolved lazily —
this keeps :mod:`repro.sweep` importable from the experiment drivers it
orchestrates without import cycles.

Every task function must be a module-level callable whose keyword
parameters are canonicalizable (see :mod:`repro.sweep.canonical`) and
whose return value pickles cleanly.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Optional

from repro.errors import SweepError

#: task name -> "module:qualname" of the callable to invoke.
_TASKS: dict[str, str] = {
    "experiment": "repro.experiments.runner:run_experiment",
    "psm-baseline": "repro.experiments.baselines:_run_one",
    "dummynet-transfer": "repro.experiments.tables:_dummynet_transfer",
    "replay-early": "repro.sweep.tasks:_replay_early",
    "policy-model": "repro.sweep.tasks:_policy_model",
}


def register_task(name: str, target: str, replace: bool = False) -> None:
    """Register ``name`` -> ``"module:qualname"`` (tests, extensions)."""
    if ":" not in target:
        raise SweepError(
            f"task target {target!r} must be 'module:qualname'"
        )
    if name in _TASKS and not replace:
        raise SweepError(f"task {name!r} already registered")
    _TASKS[name] = target


def task_targets(names: Any) -> dict[str, str]:
    """The ``name -> "module:qualname"`` entries behind ``names``.

    Shipped with every warm-pool chunk so long-lived workers resolve
    tasks registered after they spawned (per-worker registry sync).
    Unknown names fail here, in the parent, before any dispatch.
    """
    targets = {}
    for name in sorted(names):
        try:
            targets[name] = _TASKS[name]
        except KeyError:
            raise SweepError(
                f"unknown sweep task {name!r}; "
                f"known: {', '.join(sorted(_TASKS))}"
            ) from None
    return targets


def resolve_task(name: str) -> Callable[..., Any]:
    """The callable behind a task name; raises on unknown names."""
    try:
        target = _TASKS[name]
    except KeyError:
        raise SweepError(
            f"unknown sweep task {name!r}; known: {', '.join(sorted(_TASKS))}"
        ) from None
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    fn = module
    for part in qualname.split("."):
        fn = getattr(fn, part)
    if not callable(fn):
        raise SweepError(f"task {name!r} target {target!r} is not callable")
    return fn


def sanitize_result(result: Any) -> Any:
    """Make a task result cache/IPC-safe.

    ``ExperimentResult`` carries the run's live :class:`~repro.obs`
    recorder for postmortem timeline export; that stream is neither
    needed by any driver row nor cheap to pickle, so transported
    results carry the shared ``NULL_RECORDER`` instead (the metrics
    snapshot dict — plain data — stays). Everything else passes
    through untouched.
    """
    import dataclasses

    from repro.experiments.runner import ExperimentResult
    from repro.obs import NULL_RECORDER

    if isinstance(result, ExperimentResult):
        return dataclasses.replace(result, obs=NULL_RECORDER)
    return result


def _policy_model(
    policy: str,
    seed: int = 0,
    n_instances: int = 32,
    n_clients: int = 3,
    horizon: int = 8,
) -> dict:
    """Average one policy over random discrete (queue, channel) instances.

    ``policy`` is a :data:`~repro.core.policy.POLICY_NAMES` member run
    online via :func:`~repro.core.policy.rollout`, or ``"optimal"`` for
    the clairvoyant DP oracle of :func:`~repro.energy.optimal.dp_optimal`
    — the model-side rows of the Pareto figure, each policy with
    :func:`~repro.core.policy.make_policy`'s defaults. Instances are seeded
    ``seed .. seed + n_instances - 1``, so the same parameters always
    average the same instance population.
    """
    from repro.core.policy import make_policy, random_instance, rollout
    from repro.energy.optimal import dp_optimal

    total = energy = delay = 0.0
    served = arrived = 0
    for i in range(n_instances):
        instance = random_instance(
            seed + i, n_clients=n_clients, horizon=horizon
        )
        if policy == "optimal":
            outcome = dp_optimal(instance).outcome
        else:
            outcome = rollout(instance, make_policy(policy))
        total += outcome.total_cost
        energy += outcome.energy_cost
        delay += outcome.mean_delay_slots
        served += outcome.served
        arrived += outcome.arrived
    n = float(n_instances)
    return {
        "policy": policy,
        "n_instances": n_instances,
        "mean_total_cost": total / n,
        "mean_energy_cost": energy / n,
        "mean_delay_slots": delay / n,
        "served": served,
        "arrived": arrived,
    }


def _replay_early(
    frames: Any,
    client_ip: str,
    power: Any,
    early_s: float,
    duration_s: Optional[float] = None,
) -> Any:
    """Replay one early-transition amount over a recorded capture.

    The adaptive compensator is built *inside* the task so the sweep
    parameters stay declarative (no callables in the cache key).
    """
    from repro.core.delay_comp import AdaptiveCompensator
    from repro.energy.replay import replay_policy

    return replay_policy(
        frames,
        client_ip,
        AdaptiveCompensator(early_s=early_s),
        power,
        duration_s=duration_s,
    )
