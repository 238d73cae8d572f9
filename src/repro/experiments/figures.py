"""Drivers regenerating every figure of the paper's evaluation.

Each function expands its experiment grid into a
:class:`~repro.sweep.SweepSpec`, hands it to a
:class:`~repro.sweep.SweepEngine` (serial and cache-less by default;
callers pass an engine for parallelism and warm-cache reruns), and
shapes the results into plain data rows that the benchmark harness
prints in the paper's format. ``quick=True`` shrinks client counts and
durations for CI; the benchmarks run full scale.

Simulations are never invoked directly here — the ``SWP001`` analysis
rule pins every figure/table driver to the sweep engine, which is what
makes caching and fan-out apply to all of them uniformly.
"""

from __future__ import annotations

from typing import Optional

from repro.core.policy import (
    POLICY_NAMES,
    make_policy,
    random_instance,
    rollout,
)
from repro.energy.optimal import dp_optimal
from repro.errors import ConfigurationError
from repro.experiments.runner import (
    ClientSpec,
    ExperimentConfig,
    mixed,
    video_only,
)
from repro.net.channel import ChannelPlan
from repro.sweep import SweepEngine, SweepSpec
from repro.wnic.power import WAVELAN_2_4GHZ

#: Figure 4/5 access patterns (10 clients in the paper).
FIGURE4_PATTERNS = {
    "56K": [56] * 10,
    "256K": [256] * 10,
    "512K": [512] * 10,
    "56K_512K": [56] * 5 + [512] * 5,
    "All": [56] * 5 + [56, 128, 256, 512, 128],
}
#: Figure 5: seven video clients + three web clients.
FIGURE5_PATTERNS = {
    "56K/TCP": [56] * 7,
    "256K/TCP": [256] * 7,
    "512K/TCP": [512] * 7,
    "All/TCP": [56, 56, 128, 128, 256, 256, 512],
}
#: The three burst-interval policies every experiment sweeps.
INTERVALS = {"100ms": 0.1, "500ms": 0.5, "variable": None}
#: Figure 6: the early-transition amounts swept (ms).
FIGURE6_EARLY_MS = (0, 2, 4, 6, 8, 10)
#: Figure 7: the static schedule's TCP slot weights.
FIGURE7_TCP_WEIGHTS = (0.10, 0.33, 0.56)


def _scale(pattern: list[int], quick: bool) -> list[int]:
    return pattern[:: 3] if quick else pattern


def _duration(quick: bool) -> float:
    return 30.0 if quick else 119.0


def _engine(engine: Optional[SweepEngine]) -> SweepEngine:
    return engine if engine is not None else SweepEngine()


def figure4(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """Figure 4: ten UDP video clients, five access patterns, three
    burst intervals; rows carry avg/min/max savings and loss."""
    configs: list[ExperimentConfig] = []
    labels: list[dict] = []
    for interval_label, interval in INTERVALS.items():
        for pattern_label, pattern in FIGURE4_PATTERNS.items():
            configs.append(
                video_only(
                    _scale(pattern, quick),
                    burst_interval_s=interval,
                    duration_s=_duration(quick),
                    seed=seed,
                )
            )
            labels.append({"interval": interval_label, "pattern": pattern_label})
    outcome = _engine(engine).run(
        SweepSpec.experiments("figure4", configs)
    )
    rows = []
    for label, result in zip(labels, outcome.results):
        summary = result.video_summary
        rows.append(
            {
                "figure": "4",
                "interval": label["interval"],
                "pattern": label["pattern"],
                "avg_saved_pct": summary.avg_saved_pct,
                "min_saved_pct": summary.min_saved_pct,
                "max_saved_pct": summary.max_saved_pct,
                "avg_loss_pct": summary.avg_loss_pct,
                "max_loss_pct": summary.max_loss_pct,
                "downshifts": result.downshifts,
            }
        )
    return rows


def figure5(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """Figure 5: mixed video + web clients; separate UDP and TCP bars."""
    n_web = 1 if quick else 3
    configs = []
    labels = []
    for interval_label, interval in INTERVALS.items():
        for pattern_label, pattern in FIGURE5_PATTERNS.items():
            configs.append(
                mixed(
                    _scale(pattern, quick),
                    n_web=n_web,
                    burst_interval_s=interval,
                    duration_s=_duration(quick),
                    seed=seed,
                )
            )
            labels.append({"interval": interval_label, "pattern": pattern_label})
    outcome = _engine(engine).run(
        SweepSpec.experiments("figure5", configs)
    )
    rows = []
    for label, result in zip(labels, outcome.results):
        rows.append(
            {
                "figure": "5",
                "interval": label["interval"],
                "pattern": label["pattern"],
                "udp_avg_saved_pct": result.video_summary.avg_saved_pct,
                "udp_min_saved_pct": result.video_summary.min_saved_pct,
                "udp_max_saved_pct": result.video_summary.max_saved_pct,
                "tcp_avg_saved_pct": result.tcp_summary.avg_saved_pct,
                "tcp_min_saved_pct": result.tcp_summary.min_saved_pct,
                "tcp_max_saved_pct": result.tcp_summary.max_saved_pct,
                "avg_loss_pct": result.summary.avg_loss_pct,
            }
        )
    return rows


def figure6(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """Figure 6: early-transition sweep on a 100 ms interval.

    Wasted energy is split, as in the paper, into the early-wake
    component and the missed-schedule component (both charged at the
    awake-vs-sleep power difference). Missed-packet percentages come
    along for the §4.3 companion numbers (0.97-1.83 %).
    """
    waste_rate_w = WAVELAN_2_4GHZ.idle_w - WAVELAN_2_4GHZ.sleep_w
    n_clients = 2 if quick else 4
    configs = [
        video_only(
            [56] * n_clients,
            burst_interval_s=0.1,
            duration_s=_duration(quick),
            seed=seed,
            early_s=early_ms / 1000.0,
        )
        for early_ms in FIGURE6_EARLY_MS
    ]
    labels = [{"early_ms": early_ms} for early_ms in FIGURE6_EARLY_MS]
    outcome = _engine(engine).run(
        SweepSpec.experiments("figure6", configs)
    )
    rows = []
    for label, result in zip(labels, outcome.results):
        early_j = sum(r.early_wait_s for r in result.reports) * waste_rate_w
        miss_j = sum(r.miss_recovery_s for r in result.reports) * waste_rate_w
        missed_schedules = sum(r.missed_schedules for r in result.reports)
        heard = sum(r.schedules_heard for r in result.reports)
        rows.append(
            {
                "figure": "6",
                "early_ms": label["early_ms"],
                "early_waste_j": early_j,
                "missed_schedule_waste_j": miss_j,
                "total_waste_j": early_j + miss_j,
                "missed_schedules": missed_schedules,
                "schedules_heard": heard,
                "missed_pct": result.summary.avg_loss_pct,
                "avg_saved_pct": result.summary.avg_saved_pct,
            }
        )
    return rows


def figure7(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """Figure 7: static schedule with fixed TCP/UDP slots at 500 ms.

    Left panel: per-fidelity video energy *used* (the paper plots
    percentage used, not saved). Right panel: the TCP client's energy
    used and its end-to-end object latency.
    """
    fidelities = [56, 128, 256, 512]
    video_specs = [
        ClientSpec("video", video_kbps=rate)
        for rate in (fidelities if quick else fidelities * 2)
    ]
    configs = [
        ExperimentConfig(
            clients=video_specs + [ClientSpec("web")],
            burst_interval_s=0.5,
            scheduler="static",
            static_tcp_weight=weight,
            duration_s=_duration(quick),
            seed=seed,
        )
        for weight in FIGURE7_TCP_WEIGHTS
    ]
    labels = [{"tcp_weight": weight} for weight in FIGURE7_TCP_WEIGHTS]
    outcome = _engine(engine).run(
        SweepSpec.experiments("figure7", configs)
    )
    rows = []
    for config, label, result in zip(configs, labels, outcome.results):
        weight = label["tcp_weight"]
        per_fidelity: dict[int, list[float]] = {f: [] for f in fidelities}
        for report, spec in zip(result.reports, config.clients):
            if spec.kind == "video":
                per_fidelity[spec.video_kbps].append(
                    100.0 - report.energy_saved_pct
                )
        tcp_report = result.reports[-1]
        rows.append(
            {
                "figure": "7",
                "tcp_weight_pct": round(weight * 100),
                "video_energy_used_pct": {
                    f: sum(v) / len(v) for f, v in per_fidelity.items() if v
                },
                "tcp_energy_used_pct": 100.0 - tcp_report.energy_saved_pct,
                "tcp_latency_ms": tcp_report.extra.get(
                    "mean_object_latency_s", 0.0
                )
                * 1000.0,
                "tcp_objects": tcp_report.extra.get("objects_loaded", 0),
            }
        )
    return rows


#: Channel plan the Pareto sweep runs its simulations under: bursty
#: per-client fading deep enough that channel awareness matters.
PARETO_CHANNEL = ChannelPlan(
    p_good_bad=0.15, p_bad_good=0.35, loss_bad=0.85, epoch_s=0.25
)


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


def pareto(
    seed: int = 0,
    quick: bool = False,
    policies: tuple = POLICY_NAMES,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """Energy × delay Pareto front of the scheduling-policy family.

    Two engine-routed sweeps share one result set:

    * **sim rows** — full testbed runs under :data:`PARETO_CHANNEL`,
      one per policy; energy is the paper's savings percentage, delay
      is the proxy's byte-weighted mean queueing delay.
    * **model rows** — the discrete (queue, channel) model of
      :mod:`repro.core.policy` averaged over random instances, one row
      per policy **plus the clairvoyant DP optimum** — the lower-bound
      anchor no online policy can beat.
    """
    unknown = sorted(set(policies) - set(POLICY_NAMES))
    if unknown:
        raise ConfigurationError(
            f"unknown pareto policies: {', '.join(unknown)}"
        )
    n_clients = 3 if quick else 6
    # 56 kbps video queues ~700 B per 100 ms interval, so this backlog
    # threshold lets the joint policy ride out ~4 bad intervals before
    # pushing through the fade — distinct from both "always send"
    # (dynamic) and "wait for max_defer" (channel).
    joint_threshold = 3000
    configs = [
        video_only(
            [56] * n_clients,
            burst_interval_s=0.1,
            duration_s=_duration(quick),
            seed=seed,
            policy=policy,
            policy_threshold_bytes=joint_threshold,
            channel=PARETO_CHANNEL,
        )
        for policy in policies
    ]
    labels = [{"policy": policy} for policy in policies]
    outcome = _engine(engine).run(
        SweepSpec.experiments("pareto", configs)
    )
    rows = []
    for label, result in zip(labels, outcome.results):
        rows.append(
            {
                "figure": "pareto",
                "source": "sim",
                "policy": label["policy"],
                "avg_saved_pct": result.summary.avg_saved_pct,
                "mean_queue_delay_ms": result.mean_queue_delay_s * 1000.0,
                "avg_loss_pct": result.summary.avg_loss_pct,
                "policy_grants": result.policy_grants,
                "policy_defers": result.policy_defers,
            }
        )

    n_instances = 12 if quick else 48
    model_policies = list(policies) + ["optimal"]
    params = [
        {
            "policy": policy,
            "seed": seed,
            "n_instances": n_instances,
            "n_clients": 3,
            "horizon": 8,
        }
        for policy in model_policies
    ]
    model_outcome = _engine(engine).run(
        SweepSpec.from_tasks("pareto-model", _policy_model, params)
    )
    for policy, result in zip(model_policies, model_outcome.results):
        rows.append(
            {
                "figure": "pareto",
                "source": "model",
                "policy": policy,
                "mean_total_cost": result["mean_total_cost"],
                "mean_energy_cost": result["mean_energy_cost"],
                "mean_delay_slots": result["mean_delay_slots"],
            }
        )
    return rows


#: Campus grid axes: cell counts × per-epoch roam probabilities.
CAMPUS_CELLS = (1, 2, 4)
CAMPUS_ROAM_RATES = (0.0, 0.02, 0.1)


def campus_grid(
    seed: int = 0, quick: bool = False,
    engine: Optional[SweepEngine] = None,
) -> list[dict]:
    """Campus extension: energy saved × handoff count over a cell-count
    × roam-rate grid (sharded proxies, roaming video clients)."""
    from repro.campus import CampusTopology, MobilityPlan

    n_clients = 6 if quick else 16
    configs: list[ExperimentConfig] = []
    labels: list[dict] = []
    for n_cells in CAMPUS_CELLS:
        for roam_rate in CAMPUS_ROAM_RATES:
            if n_cells == 1 and roam_rate > 0:
                continue  # nowhere to roam
            campus = None
            if n_cells > 1:
                campus = CampusTopology(
                    n_cells=n_cells,
                    mobility=(
                        MobilityPlan(roam_rate=roam_rate)
                        if roam_rate > 0
                        else None
                    ),
                )
            configs.append(
                ExperimentConfig(
                    clients=[ClientSpec("video", video_kbps=56)] * n_clients,
                    burst_interval_s=0.5,
                    duration_s=_duration(quick),
                    start_stagger_s=0.25,
                    seed=seed,
                    campus=campus,
                )
            )
            labels.append({"cells": n_cells, "roam_rate": roam_rate})
    outcome = _engine(engine).run(
        SweepSpec.experiments("campus", configs)
    )
    rows = []
    for label, result in zip(labels, outcome.results):
        summary = result.video_summary
        rows.append(
            {
                "figure": "campus",
                "cells": label["cells"],
                "roam_rate": label["roam_rate"],
                "avg_saved_pct": summary.avg_saved_pct,
                "min_saved_pct": summary.min_saved_pct,
                "avg_loss_pct": summary.avg_loss_pct,
                "handoffs": result.handoffs,
                "handoff_bytes": result.handoff_bytes_transferred
                + result.handoff_bytes_dropped,
            }
        )
    return rows
