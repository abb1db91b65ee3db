#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload large-n-curves --seed 7 --seconds 20 --trace 0

The workloads are defined in ``workloads.py`` and listed in
``BENCHMARK.json``.  A run:

1. records the environment (CPU count, BLAS threads pinned to 1, Python,
   numpy and scipy versions, git revision and dirty flag, a digest of
   ``src/``) and prints it as a JSON line;
2. times set-up -- interpreter start, ``import repro`` and input
   generation -- in ``SETUP_SAMPLES`` fresh processes (``setup_s`` is the
   median);
3. repeats the workload's fixed unit of work from cold caches, each under
   a private metrics registry, while another unit fits in ``--seconds``
   (at least one unit), checking every output after each unit;
4. with ``--trace 1``, spends half the time on untraced units and half on
   units run with every layer entry point wrapped in a span recorder
   (``tracing.py``), and reports per-layer metrics instead of end-to-end
   ones;
5. asserts that the run changed no file of the checkout outside
   ``.bench_out/`` (where it writes its detailed result and, when traced,
   every span) and the bytecode caches.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
checked outputs and ``failed`` those that failed their check, so
``failed / attempted`` is the run's ``failed_frac``.  A step that raises
aborts the run with exit code 1 and no result line, as does a checkout
without the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

#: Fresh processes timed per run for ``setup_s``.
SETUP_SAMPLES = 5

#: One process, one BLAS thread: the measuring machine has 2 CPUs, and
#: results from runs with other thread counts are not comparable.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_WORKERS": "1",
}

#: Directories the no-side-effect check ignores: version control, the
#: interpreter's bytecode cache and the benchmark's own output.
UNTRACKED_DIRS = {".git", "__pycache__", ".bench_out", ".bench_build"}

#: Program counters reported per layer (from the private registry).
COUNTERS = (
    "markov.build.fallback",
    "markov.solve.gmres_fallback",
    "markov.solve.dense_oversize",
    "markov.solve.sparse",
    "markov.solve.batched",
    "mc.vectorized.steps",
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Pin thread counts and make ``repro`` and the workloads importable."""
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def setup_probe(args: argparse.Namespace) -> None:
    """Body of one set-up sample: import, generate inputs, say ready."""
    import workloads

    workloads.WORKLOADS[args.workload].inputs(args.seed)
    print("ready", flush=True)


def time_setup(args: argparse.Namespace) -> list[float]:
    """Seconds from process spawn to ready, for ``SETUP_SAMPLES`` probes."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"set-up probe failed (exit {code}); is the program here?")
        samples.append(elapsed)
    return samples


def tree_state() -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file of the checkout the run must not touch."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in UNTRACKED_DIRS]
        for name in filenames:
            path = os.path.join(dirpath, name)
            info = os.lstat(path)
            state[os.path.relpath(path, ROOT)] = (info.st_size, info.st_mtime_ns)
    return state


def changed_files(before: dict, after: dict) -> list[str]:
    """Files the run modified, deleted or created below the root.

    New files directly at the root are not counted: the program writes
    none there, and a caller may keep its own logs there.
    """
    changed = [path for path, state in before.items() if after.get(path) != state]
    changed += [path for path in after if path not in before and os.sep in path]
    return sorted(changed)


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def fingerprint() -> dict:
    """The environment a result was measured in."""
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    status = _git("status", "--porcelain")
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    # Runs are comparable only when this id matches.
    env["env_id"] = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:12]
    env["git_rev"] = _git("rev-parse", "HEAD")
    env["git_dirty"] = None if status is None else bool(status)
    env["src_sha256"] = digest.hexdigest()[:16]
    return env


class Runner:
    """Repeats a workload's unit of work and checks every output."""

    def __init__(self, workload, inputs: dict, reference: dict) -> None:
        from workloads import Checked

        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.checked = Checked()
        self.work: dict[str, int] = {}

    def unit(self, recorder=None):
        """One cold unit of work: ``(wall seconds, registry)``."""
        from repro.obs.metrics import MetricsRegistry, use
        from workloads import cold_caches

        cold_caches()
        registry = MetricsRegistry()
        outputs = {}
        with use(registry):
            steps = self.workload.steps(self.inputs)
            start = time.perf_counter()
            for name, step in steps:
                if recorder is None:
                    outputs[name] = step()
                else:
                    with recorder.span(f"step:{name}"):
                        outputs[name] = step()
            wall = time.perf_counter() - start
        self.workload.check(outputs, self.inputs, self.reference, self.checked)
        self.work = self.workload.work(outputs)
        return wall, registry

    def repeat(self, seconds: float, recorder=None) -> tuple[list[float], list]:
        """Units while the next one is expected to fit in ``seconds``."""
        walls, registries = [], []
        start = time.perf_counter()
        while True:
            wall, registry = self.unit(recorder)
            walls.append(wall)
            registries.append(registry)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > seconds:
                return walls, registries


def layer_metrics(
    summary: dict, extra: dict, registries: list, work: dict, untraced_wall: float,
    traced_wall: float, failed_frac: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per unit of work, with its unit."""
    units = len(registries)

    def get(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0) / units

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for span in (
        "markov.build", "markov.solve", "core.attempt_update", "ratfunc.exact",
        "ratfunc.symbolic", "ratfunc.roots", "sim.vectorized", "sim.scalar",
        "check.replay", "check.apply", "check.snapshot", "check.oracles",
        "check.enabled", "sim.topology.partitions", "netsim.deliver",
    ):
        out[f"{span}.busy_s"] = (get(span, "self_s"), "s")
    for span in (
        "markov.build", "core.attempt_update", "ratfunc.exact", "check.replay",
        "check.apply", "sim.topology.partitions", "netsim.deliver",
    ):
        out[f"{span}.calls"] = (get(span, "calls"), "count")
    for span in ("analysis.crossover", "sim.montecarlo", "check.explorer"):
        out[f"{span}.self_s"] = (get(span, "self_s"), "s")
    build_s = get("markov.build", "inclusive_s")
    solve_s = get("markov.solve", "inclusive_s")
    blocks = get("markov.build", "work")
    out["markov.build.blocks"] = (blocks, "count")
    out["markov.build.blocks_per_s"] = (ratio(blocks, build_s), "1/s")
    out["markov.build.share"] = (ratio(build_s, build_s + solve_s), "ratio")
    out["markov.solve.points"] = (get("markov.solve", "work"), "count")
    out["sim.vectorized.batches"] = (get("sim.vectorized", "calls"), "count")
    transitions = work.get("transitions", 0)
    reapplied = extra.get("check.replay.reapplied", 0) / units
    out["check.replay.useful_ratio"] = (ratio(transitions, transitions + reapplied), "ratio")
    for key in ("states", "transitions", "cache_pruned", "sleep_pruned"):
        out[f"check.{key}"] = (work.get(key, 0), "count")
    for name in COUNTERS:
        value = sum(r.counter(name).value for r in registries) / units
        out[name] = (value, "count")
    out["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    out["points_per_s"] = (work.get("points", 0) / untraced_wall, "1/s")
    out["mc_events_per_s"] = (work.get("events", 0) / untraced_wall, "1/s")
    out["states_per_s"] = (work.get("states", 0) / untraced_wall, "1/s")
    out["failed_frac"] = (failed_frac, "ratio")
    return out


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    pin_environment()
    if args.setup_probe:
        setup_probe(args)
        return 0
    before = tree_state()
    setup = time_setup(args)
    env = fingerprint()
    print(json.dumps({"env": env}), flush=True)

    import workloads
    from tracing import SpanRecorder, Tracing

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, workload.inputs(args.seed), workloads.load_reference())

    budget = args.seconds / 2 if args.trace else args.seconds
    walls, registries = runner.repeat(budget)
    detail: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_s": setup,
        "wall_s": walls,
    }
    if args.trace:
        recorder = SpanRecorder()
        with Tracing(recorder):
            traced_walls, traced_registries = runner.repeat(budget, recorder)
        detail["traced_wall_s"] = traced_walls
        detail["spans"] = len(recorder)
        detail["layers"] = recorder.summary()
    OUT_DIR.mkdir(exist_ok=True)
    changed = changed_files(before, tree_state())
    runner.checked.expect(not changed, f"run changed files of the checkout: {changed[:10]}")
    checked = runner.checked
    failed_frac = checked.failed / checked.attempted

    if args.trace:
        metrics = layer_metrics(
            detail["layers"], recorder.extra, traced_registries, runner.work,
            statistics.median(walls), statistics.median(traced_walls), failed_frac,
        )
        recorder.write(str(OUT_DIR / f"{args.workload}.spans.npz"), {"seed": args.seed})
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    detail["failures"] = checked.notes
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    name = f"{args.workload}.trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(detail, indent=1) + "\n")
    for note in checked.notes[:20]:
        print(f"check failed: {note}", file=sys.stderr)
    result = {
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
