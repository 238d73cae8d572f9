"""Shared pytest wiring: golden re-blessing and test tiers.

Tiers:

* ``tier1`` (implicit) — the fast suite CI gates every commit on.
* ``slow`` — golden-trace and simulation-level property suites.
* ``bench`` — timing benchmarks under ``benchmarks/``.

Anything not explicitly marked ``slow`` or ``bench`` is auto-marked
``tier1``, so ``pytest -m tier1`` and the default ``addopts``
deselection stay in sync without per-test annotations.
"""

import pathlib

import pytest

TESTS_DIR = pathlib.Path(__file__).parent


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/obs/goldens from the current run "
        "instead of comparing against it",
    )


def pytest_collection_modifyitems(config, items):
    for item in items:
        if TESTS_DIR not in pathlib.Path(str(item.fspath)).parents:
            continue
        marks = {mark.name for mark in item.iter_markers()}
        if not marks & {"slow", "bench"}:
            item.add_marker(pytest.mark.tier1)


@pytest.fixture
def quiet_testbed(monkeypatch):
    """The testbed without AP forwarding spikes or channel loss, for the
    whole test: the AP reads its spike probability as it forwards."""
    from repro.experiments import scenarios
    from repro.net import access_point

    monkeypatch.setattr(access_point, "SPIKE_PROB", 0.0)
    monkeypatch.setattr(scenarios, "MEDIUM_LOSS_RATE", 0.0)
