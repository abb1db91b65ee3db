"""The perf-suite registry: deterministic, scenario-scoped bench records."""

from __future__ import annotations

import json

import pytest

from repro.bench import BenchRecord, strip_wall_clock
from repro.perfsuite import SCENARIOS, run_suite


@pytest.fixture(scope="module")
def quick_runs() -> tuple[list[BenchRecord], list[BenchRecord]]:
    """Two quick runs of the whole registry at one seed, in one process."""

    def records() -> list[BenchRecord]:
        return [record for record, _ in run_suite(seed=2026, quick=True)]

    return records(), records()


def test_quick_registry_is_deterministic_record_for_record(quick_runs):
    first, second = quick_runs
    assert [record.scenario for record in first] == [s.id for s in SCENARIOS]
    for a, b in zip(first, second):
        assert json.dumps(strip_wall_clock(a.to_dict()), sort_keys=True) == (
            json.dumps(strip_wall_clock(b.to_dict()), sort_keys=True)
        ), f"{a.scenario}: deterministic side drifted between runs"


def test_each_record_holds_only_its_own_metric_family(quick_runs):
    families = {scenario.id.split(".")[0] for scenario in SCENARIOS}
    assert families == {"mc", "markov", "netsim"}
    for record in quick_runs[0]:
        own = record.scenario.split(".")[0]
        leaked = sorted(
            key for key in record.metrics
            if key.split(".")[0] in families - {own}
        )
        assert not leaked, f"{record.scenario} carries foreign metrics {leaked}"
