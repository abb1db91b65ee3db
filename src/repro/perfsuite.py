"""The perf-suite registry: every ``repro bench run`` scenario, defined once.

Each :class:`Scenario` measures one fast path ROADMAP protects -- scalar
and vectorized Monte-Carlo, the batched Markov grid, the Horner symbolic
sweep, the n=25 lump-then-solve pipeline (a cold build, then a
sparse-forced solve) and the netsim causal-tracing overhead.  An entry
holds its workload params at the quick and full sizes, its untimed
setup, its timed body and the timing table it reports.  :func:`measure`
runs one scenario under a fresh metrics registry and profiler and
returns its :class:`~repro.bench.BenchRecord` together with the
workload's result; :func:`run_suite` runs every scenario in order.

``repro bench run`` records the suite, and the perf benchmark
(``benchmarks/bench_perf_scaling.py``) asserts its correctness
contracts against the same results, so a pytest record and a CLI record
of one scenario at one seed agree on their whole deterministic side
(docs/BENCHMARKING.md).  ``quick`` shrinks the workloads to test size
without changing the ids; the params then differ, which disables the
determinism-drift check between a quick and a full record.

Like the CLI this module orchestrates from above: it imports the layers
it measures, and ``bench/`` (which may read only ``obs``/``perf``) stays
below it (replint REP008).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from .bench import BenchRecord
from .markov import (
    availability,
    availability_grid,
    availability_symbolic,
    clear_symbolic_cache,
)
from .markov.availability import _chain
from .netsim import scripted_workload
from .obs import MetricsRegistry, SpanProfiler, Stopwatch, profiling, use
from .sim import estimate_availability

__all__ = ["SUITE", "SCENARIOS", "Scenario", "measure", "ratio_grid", "run_suite"]

#: The suite every registry record is filed under.
SUITE = "perf"

Params = Mapping[str, object]


@dataclass(frozen=True)
class Scenario:
    """One perf-suite scenario (see the module docstring).

    ``body(params, seed, registry)`` is the timed workload; ``timings(
    params, result, seconds)`` maps its result and wall time to the
    record's timing table; ``setup(params)`` runs untimed, outside the
    scenario's registry.  Only ``seeded`` scenarios stamp the seed on
    their record.
    """

    id: str
    quick: Params
    full: Params
    body: Callable[[Params, int, MetricsRegistry | None], object]
    timings: Callable[[Params, object, float], dict[str, float]]
    setup: Callable[[Params], None] = lambda params: None
    seeded: bool = False

    def params(self, quick: bool) -> dict[str, object]:
        """The workload params at the quick or the full size."""
        return dict(self.quick if quick else self.full)


def ratio_grid(points: int) -> list[float]:
    """``points`` evenly spaced repair/failure ratios over [0.1, 20]."""
    return [0.1 + 19.9 * i / (points - 1) for i in range(points)]


def _monte_carlo(params, seed, registry):
    return estimate_availability(
        params["protocol"], params["n_sites"], params["ratio"],
        replicates=params["replicates"], events=params["events"],
        burn_in_events=params["burn_in_events"], seed=seed,
        metrics=registry, workers=params["workers"],
        backend=params["backend"],
    )


def _mc_timings(params, result, seconds):
    events = params["replicates"] * (params["events"] + params["burn_in_events"])
    return {"wall_s": seconds, "events_per_sec": events / seconds}


def _mc_scenario(backend: str, quick: tuple, full: tuple) -> Scenario:
    """A hybrid n=5 Monte-Carlo scenario; sizes are (replicates, events, burn-in)."""

    def params(replicates: int, events: int, burn_in: int) -> dict:
        return {
            "protocol": "hybrid",
            "n_sites": 5,
            "ratio": 1.0,
            "replicates": replicates,
            "events": events,
            "burn_in_events": burn_in,
            "workers": 1,
            "backend": backend,
        }

    return Scenario(
        f"mc.{backend}.hybrid.n5",
        quick=params(*quick),
        full=params(*full),
        body=_monte_carlo,
        timings=_mc_timings,
        seeded=True,
    )


def _sweep(params, seed, registry):
    """One numeric grid solve per protocol (symbolic shortcut off)."""
    grid = ratio_grid(params["grid_points"])
    return [
        availability_grid(
            name, params["n_sites"], grid,
            prefer_symbolic=False, solver=params.get("solver", "auto"),
        )
        for name in params["protocols"]
    ]


def _horner(params, seed, registry):
    grid = ratio_grid(params["grid_points"])
    return [
        availability_grid(
            params["protocol"], params["n_sites"], grid, prefer_symbolic=True
        )
    ]


def _per_point(key: str):
    """Timings of a grid scenario: its wall time under ``key`` plus points/s."""

    def timings(params, curves, seconds):
        points = sum(len(curve) for curve in curves)
        return {key: seconds, "points_per_sec": points / seconds}

    return timings


def _cold_chains(params) -> None:
    """Drop cached symbolic solves and chains, so the build is measured."""
    clear_symbolic_cache()
    _chain.cache_clear()


def _warm_symbolic(params) -> None:
    availability_symbolic(params["protocol"], params["n_sites"])


def _prebuild(params) -> None:
    """Build every protocol's chain so only the solves are timed."""
    for name in params["protocols"]:
        availability(name, params["n_sites"], 1.0)


def _causal_overhead(params, seed, registry):
    """Min-of-reps wall time of the scripted netsim workload per mode."""

    def batch(trace: bool, causal: bool) -> float:
        best = math.inf
        for _ in range(params["reps"]):
            stopwatch = Stopwatch()
            for _ in range(params["rounds"]):
                scripted_workload(
                    params["protocol"], params["n_sites"],
                    trace=trace, causal=causal, seed=seed,
                )
            best = min(best, stopwatch.seconds)
        return best

    return {
        "off": batch(False, False),
        "trace": batch(True, False),
        "causal": batch(True, True),
    }


def _causal_timings(params, result, seconds):
    return {
        "netsim_off_s": result["off"],
        "netsim_trace_s": result["trace"],
        "netsim_causal_s": result["causal"],
        "causal_overhead_ratio": result["causal"] / result["trace"],
    }


_N5_PROTOCOLS = ["dynamic", "dynamic-linear", "hybrid"]
_N25_PROTOCOLS = ["dynamic", "hybrid", "optimal-candidate"]

#: The suite, in run order: each setup assumes the caches its
#: predecessors left behind, so the metric snapshots stay reproducible.
SCENARIOS: tuple[Scenario, ...] = (
    _mc_scenario("scalar", quick=(4, 400, 100), full=(6, 4_000, 1_000)),
    _mc_scenario("vectorized", quick=(32, 250, 100), full=(256, 2_000, 1_000)),
    Scenario(
        "markov.grid.batched.n5",
        quick={"protocols": _N5_PROTOCOLS, "n_sites": 5, "grid_points": 50},
        full={"protocols": _N5_PROTOCOLS, "n_sites": 5, "grid_points": 200},
        setup=_cold_chains,
        body=_sweep,
        timings=_per_point("solve_batch_s"),
    ),
    Scenario(
        "markov.grid.horner.n5",
        quick={"protocol": "hybrid", "n_sites": 5, "grid_points": 50},
        full={"protocol": "hybrid", "n_sites": 5, "grid_points": 200},
        setup=_warm_symbolic,
        body=_horner,
        timings=_per_point("horner_sweep_s"),
    ),
    Scenario(
        "markov.lumped.n25",
        quick={"protocols": _N25_PROTOCOLS, "n_sites": 25, "grid_points": 10},
        full={"protocols": _N25_PROTOCOLS, "n_sites": 25, "grid_points": 60},
        setup=_cold_chains,
        body=_sweep,
        timings=_per_point("lumped_wall_s"),
    ),
    Scenario(
        "markov.sparse.n25",
        quick={"protocols": _N25_PROTOCOLS, "n_sites": 25, "grid_points": 10,
               "solver": "sparse"},
        full={"protocols": _N25_PROTOCOLS, "n_sites": 25, "grid_points": 60,
              "solver": "sparse"},
        setup=_prebuild,
        body=_sweep,
        timings=_per_point("sparse_wall_s"),
    ),
    Scenario(
        "netsim.causal.overhead.n5",
        quick={"protocol": "hybrid", "n_sites": 5, "rounds": 6, "reps": 2},
        full={"protocol": "hybrid", "n_sites": 5, "rounds": 30, "reps": 3},
        body=_causal_overhead,
        timings=_causal_timings,
        seeded=True,
    ),
)


def measure(
    scenario: Scenario, *, seed: int, quick: bool
) -> tuple[BenchRecord, object]:
    """Run one scenario; return its bench record and the workload's result.

    The body runs under a fresh metrics registry (so the record's
    snapshot holds only this scenario's metrics) and a profiler whose
    hot-path wall attributions ride along as soft ``profile.<name>_s``
    timings, linking the profile to the record.
    """
    params = scenario.params(quick)
    scenario.setup(params)
    registry = MetricsRegistry()
    profiler = SpanProfiler()
    stopwatch = Stopwatch()
    with use(registry), profiling(profiler):
        result = scenario.body(params, seed, registry)
    seconds = max(stopwatch.seconds, 1e-9)
    timings = scenario.timings(params, result, seconds)
    for name, entry in profiler.wall_table().items():
        timings[f"profile.{name}_s"] = entry["seconds"]
    record = BenchRecord.collect(
        SUITE,
        scenario.id,
        seed=seed if scenario.seeded else None,
        params=params,
        registry=registry,
        timings=timings,
        manifest=f"bench:{scenario.id}",
    )
    return record, result


def run_suite(*, seed: int, quick: bool) -> list[tuple[BenchRecord, object]]:
    """Measure every scenario in :data:`SCENARIOS` order."""
    return [measure(scenario, seed=seed, quick=quick) for scenario in SCENARIOS]
