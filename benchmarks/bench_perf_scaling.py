"""Perf smoke benchmark: backends, parallel replicates, batched solves.

Runs the full-size perf suite of :mod:`repro.perfsuite` -- the very
scenarios ``repro bench run`` records -- and asserts the correctness
contracts of docs/PERFORMANCE.md against the results the registry
returns: the 2-worker Monte-Carlo run is *bitwise identical* to the
serial one, the batched / Horner grid sweeps agree with the per-point
reference to 1e-12 / 1e-9, and the vectorized backend's estimate sits
inside the wide-CI band of both the analytic value and the scalar
oracle.  Only the comparison sides that are not suite scenarios run
here: the 2-worker replicates, the per-point solves and the n=7
dense-vs-lumped race.  Process-pool speedups are printed (and captured
in the ``perf_smoke`` manifest under ``REPRO_BENCH_MANIFEST_DIR``) but
never asserted: CI machines may expose a single core, where the pool
legitimately wins nothing.  The vectorized backend's throughput *is*
asserted (>= 10x events/sec over scalar at n = 5): its win is per-core
numpy batching, not parallelism, so it does not depend on the machine's
core count.

The suite's bench records are appended to the JSONL history that
``REPRO_BENCH_HISTORY`` names -- the time axis the ``repro bench
compare`` regression gate and the ``BENCH_perf.json`` trajectory are
built from (docs/BENCHMARKING.md).  They are the registry's records, so
their deterministic side matches a ``repro bench run`` at the same
seed.  With the variable unset nothing is appended, so a plain run never
rewrites the committed ``benchmarks/manifests/bench_history.jsonl``.

Unlike the figure benchmarks this module does not use the
pytest-benchmark fixture, so the telemetry-smoke CI job can run it with
plain pytest.
"""

from __future__ import annotations

import math
from pathlib import Path

import repro.sim
from repro.analysis import render_table
from repro.core import make_protocol
from repro.markov import (
    availability,
    derive_chain,
    derive_lumped_chain,
    signature_for,
)
from repro.markov.availability import _chain
from repro.netsim import ReplicaCluster
from repro.obs import Stopwatch, use
from repro.obs.causal import NULL_CAUSAL
from repro.perfsuite import SCENARIOS, ratio_grid, run_suite
from repro.types import site_names

SEED = 2026
#: Floor asserted on vectorized-over-scalar events/sec at n = 5.
VECTOR_MIN_SPEEDUP = 10.0
#: Largest n where the site-labelled dense pipeline is still tractable
#: (dynamic at n=7 is 2136 states; n=8 would cross the dense
#: materialization limit).  The lump-then-solve comparison runs here.
DENSE_CEILING_N = 7
#: Spot ratios for the dense-vs-lumped pipeline race (per-point dense
#: solves at 2136 states are ~0.25s each, so the dense side stays small).
DENSE_RACE_RATIOS = (0.5, 1.0, 2.0, 5.0)
#: Floor asserted on the lump-then-solve pipeline speedup over the dense
#: site-labelled pipeline at DENSE_CEILING_N (measured ~400x; the floor
#: is a deliberately loose contract, not the observed win).
LUMP_MIN_SPEEDUP = 5.0
#: Ceiling on the *enabled* causal-tracing tax over a trace-only netsim
#: run.  Full-fidelity DAG emission (one causal event per send, deliver,
#: timer, vote, commit, install) measures ~2.1-2.6x on this op-dense
#: micro-workload -- the workload is nothing but traced protocol steps,
#: so this is the worst case, and the bound is a blowup guard, not a
#: cost-free claim.  The ≤5% contract belongs to the *disabled* default:
#: ``causal=False`` shares the NULL_CAUSAL null object (asserted below),
#: and the sim layer (both Monte-Carlo backends) has no causal seam at
#: all (also asserted below), so those paths pay one attribute check at
#: most.
CAUSAL_ENABLED_CEILING = 4.0


def _timed(fn):
    stopwatch = Stopwatch()
    result = fn()
    return result, stopwatch.seconds


def test_perf_scaling_smoke(bench_manifest):
    # The registry runs first, in a process state matching a fresh
    # `repro bench run`, so the records' deterministic sides agree.
    measured = run_suite(seed=SEED, quick=False)
    bench_manifest.append([record for record, _ in measured])
    records = {record.scenario: record for record, _ in measured}
    results = {record.scenario: result for record, result in measured}
    scenarios = {scenario.id: scenario for scenario in SCENARIOS}
    rows = []

    # -- Parallel Monte-Carlo: serial vs two workers, bitwise identical.
    scalar = records["mc.scalar.hybrid.n5"]
    serial = results[scalar.scenario]
    serial_s = scalar.timings["wall_s"]
    with use(bench_manifest.registry):
        parallel, parallel_s = _timed(
            lambda: scenarios[scalar.scenario].body(
                {**scalar.params, "workers": 2}, SEED, bench_manifest.registry
            )
        )
    assert parallel == serial, "parallel Monte-Carlo must be bitwise serial"
    rows.append(["montecarlo replicates", serial_s, parallel_s, serial_s / parallel_s])

    # -- Vectorized backend: events/sec against the scalar oracle, plus
    #    the statistical-agreement contract of docs/PERFORMANCE.md.
    vectorized = results["mc.vectorized.hybrid.n5"]
    scalar_eps = scalar.timings["events_per_sec"]
    vector_eps = records["mc.vectorized.hybrid.n5"].timings["events_per_sec"]
    throughput = vector_eps / scalar_eps
    analytic = availability("hybrid", 5, 1.0)
    assert vectorized.agrees_with(analytic), "vectorized drifted from analytic"
    assert serial.agrees_with(analytic), "scalar drifted from analytic"
    two_sample = 4.4 * math.sqrt(serial.stderr**2 + vectorized.stderr**2)
    assert abs(vectorized.mean - serial.mean) <= two_sample, (
        "vectorized and scalar backends disagree beyond Monte-Carlo noise"
    )
    assert throughput >= VECTOR_MIN_SPEEDUP, (
        f"vectorized backend managed only {throughput:.1f}x events/sec over "
        f"scalar at n=5 (contract: >= {VECTOR_MIN_SPEEDUP:.0f}x)"
    )
    # Per-event cost columns (microseconds, else the table rounds them to
    # zero), so speedup keeps the base/fast convention.
    rows.append(
        ["vectorized us/event", 1e6 / scalar_eps, 1e6 / vector_eps, throughput]
    )
    gauges = bench_manifest.registry.scope("bench.perf.vectorized")
    gauges.gauge("events_per_sec", wall_clock=True).set(vector_eps)
    gauges.gauge("scalar_events_per_sec", wall_clock=True).set(scalar_eps)

    # -- Grid solves: per-point reference vs one stacked solve per protocol.
    batched = records["markov.grid.batched.n5"]
    grid = ratio_grid(batched.params["grid_points"])
    per_point_s = {}
    for protocol, curve in zip(
        batched.params["protocols"], results[batched.scenario]
    ):
        chain = _chain(protocol, 5)
        per_point, per_point_s[protocol] = _timed(
            lambda: [chain.availability(ratio) for ratio in grid]
        )
        assert max(
            abs(a - b) for a, b in zip(per_point, curve)
        ) <= 1e-12, f"batched grid drifted from per-point for {protocol}"
    batched_s = batched.timings["solve_batch_s"]
    rows.append(
        [f"n=5 grids ({len(per_point_s)}x{len(grid)} pts)",
         sum(per_point_s.values()), batched_s,
         sum(per_point_s.values()) / batched_s]
    )

    # -- Symbolic Horner fast path against the batched hybrid solve.
    horner = records["markov.grid.horner.n5"]
    (horner_curve,) = results[horner.scenario]
    numeric = results[batched.scenario][batched.params["protocols"].index("hybrid")]
    assert max(abs(a - b) for a, b in zip(horner_curve, numeric)) <= 1e-9
    horner_s = horner.timings["horner_sweep_s"]
    rows.append(
        [f"hybrid horner ({len(grid)} pts)", per_point_s["hybrid"], horner_s,
         per_point_s["hybrid"] / horner_s]
    )

    # -- Lump-then-solve vs the dense site-labelled pipeline, raced at
    #    the largest n where dense is still tractable.  Both sides pay
    #    their full cost: chain construction plus every spot-ratio solve.
    protocol_obj = make_protocol("dynamic", site_names(DENSE_CEILING_N))
    with use(bench_manifest.registry):
        dense_vals, dense_s = _timed(
            lambda: [
                derive_chain(protocol_obj).availability(ratio, solver="dense")
                for ratio in DENSE_RACE_RATIOS
            ]
        )
    signature = signature_for("dynamic")
    assert signature is not None
    with use(bench_manifest.registry):
        lumped_vals, lumped_s = _timed(
            lambda: [
                derive_lumped_chain(protocol_obj, signature).availability(
                    ratio, solver="sparse"
                )
                for ratio in DENSE_RACE_RATIOS
            ]
        )
    assert max(
        abs(a - b) for a, b in zip(dense_vals, lumped_vals)
    ) <= 1e-9, "lumped-sparse pipeline drifted from the dense site-labelled one"
    lump_speedup = dense_s / lumped_s
    assert lump_speedup >= LUMP_MIN_SPEEDUP, (
        f"lump-then-solve managed only {lump_speedup:.1f}x over the dense "
        f"site-labelled pipeline at n={DENSE_CEILING_N} "
        f"(contract: >= {LUMP_MIN_SPEEDUP:.0f}x)"
    )
    rows.append(
        [f"lump+sparse n={DENSE_CEILING_N} ({len(DENSE_RACE_RATIOS)} pts)",
         dense_s, lumped_s, lump_speedup]
    )
    gauges = bench_manifest.registry.scope("bench.perf.lumped")
    gauges.gauge("pipeline_speedup", wall_clock=True).set(lump_speedup)

    # -- The n=25 scenarios: a cold lumped build+solve sweep, then a warm
    #    sparse-forced sweep.
    lumped25 = records["markov.lumped.n25"]
    lumped25_s = lumped25.timings["lumped_wall_s"]
    sparse25_s = records["markov.sparse.n25"].timings["sparse_wall_s"]
    rows.append(
        [f"n=25 grid cold/warm ({lumped25.params['grid_points']} pts)",
         lumped25_s, sparse25_s, lumped25_s / sparse25_s]
    )

    # -- Causal tracing: the disabled default must be the null object and
    #    the sim layer causal-free (the "~0% when disabled / no MC seam"
    #    contract); the enabled mode is gated against pathological blowup.
    causal = records["netsim.causal.overhead.n5"]
    trace_s = causal.timings["netsim_trace_s"]
    causal_s = causal.timings["netsim_causal_s"]
    causal_ratio = causal.timings["causal_overhead_ratio"]
    disabled = ReplicaCluster(make_protocol("hybrid", site_names(3)))
    assert disabled.causal is NULL_CAUSAL, (
        "causal=False must share the NULL_CAUSAL null object (per-cluster "
        "tracer state would be silent disabled-path overhead)"
    )
    assert disabled.trace_log is None, "causal=False must not allocate a log"
    for source in Path(repro.sim.__file__).parent.glob("*.py"):
        assert "causal" not in source.read_text(encoding="utf-8"), (
            f"{source.name}: the sim layer (both Monte-Carlo backends) must "
            "stay causal-free -- tracing enabled or not, MC pays nothing"
        )
    assert causal_ratio <= CAUSAL_ENABLED_CEILING, (
        f"enabled causal tracing costs {causal_ratio:.2f}x over trace-only "
        f"netsim (blowup guard: <= {CAUSAL_ENABLED_CEILING:.1f}x)"
    )
    rows.append(
        [f"netsim causal trace ({causal.params['rounds']} rounds)",
         trace_s, causal_s, trace_s / causal_s]
    )
    gauges = bench_manifest.registry.scope("bench.perf.causal")
    gauges.gauge("overhead_ratio", wall_clock=True).set(causal_ratio)

    gauges = bench_manifest.registry.scope("bench.perf")
    for label, base_s, fast_s, speedup in rows:
        key = label.split(" ")[0].replace("-", "_")
        gauges.gauge(f"{key}.speedup", wall_clock=True).set(speedup)
    bench_manifest.write(
        "perf_smoke",
        protocol={"name": "all", "protocols": ["hybrid", *batched.params["protocols"]],
                  "n_sites": 5},
        params={"workers": 2, **{r.scenario: dict(r.params) for r in records.values()}},
        seed=SEED,
    )

    print()
    print(
        render_table(
            ["path", "baseline s", "optimised s", "speedup"],
            [[label, base, fast, speed] for label, base, fast, speed in rows],
            title="perf scaling smoke (baselines are serial / per-point)",
        )
    )
