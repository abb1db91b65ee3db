"""Extension experiment: transient availability and endurance.

The paper evaluates the steady state only; these measurements extend the
comparison to finite horizons using the same chains:

* the availability ramp ``A(t)`` from a healthy start (how quickly each
  protocol's advantage materialises);
* the mean time to first blocking (how long a fresh deployment runs
  before its first denied update) -- where a structural fact emerges: the
  hybrid's available states form *exactly* dynamic voting's birth-death
  ladder, so the two protocols block for the first time at the same
  expected moment; the hybrid's entire steady-state advantage comes from
  recovering better, not from enduring longer.
"""

from repro.analysis import render_series, render_table
from repro.markov import (
    availability,
    mean_time_to_blocking,
    transient_availability,
)
from repro.markov.availability import _chain

PROTOCOLS = ("voting", "dynamic", "dynamic-linear", "hybrid")
TIMES = (0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
RATIO = 1.0
N = 5


def ramps():
    return {
        name: transient_availability(_chain(name, N), RATIO, TIMES)
        for name in PROTOCOLS
    }


def test_transient_ramp(benchmark):
    curves = benchmark(ramps)
    print()
    print(
        render_series(
            "t", TIMES, curves,
            title=f"A(t) from all-up, n={N}, mu/lambda={RATIO}",
        )
    )
    for name, curve in curves.items():
        assert curve[0] == 1.0
        assert curve == sorted(curve, reverse=True)
        assert abs(curve[-1] - availability(name, N, RATIO)) < 1e-6


def endurance():
    return {
        name: mean_time_to_blocking(_chain(name, N), RATIO)
        for name in PROTOCOLS
    }


def test_mean_time_to_blocking(benchmark):
    values = benchmark(endurance)
    print()
    print(
        render_table(
            ["protocol", "mean time to first blocking (1/lambda)"],
            [[k, v] for k, v in values.items()],
            title=f"Endurance from all-up, n={N}, mu/lambda={RATIO}",
        )
    )
    # The structural identity: hybrid == dynamic exactly.
    assert abs(values["hybrid"] - values["dynamic"]) < 1e-9
    # dynamic-linear endures the longest, static voting the shortest.
    assert values["dynamic-linear"] > values["hybrid"] > values["voting"]
