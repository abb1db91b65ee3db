"""Shared helpers for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper
(experiment ids E1-E10 in DESIGN.md), asserts the *shape* the paper
reports, and prints the regenerated rows so ``pytest benchmarks/
--benchmark-only -s`` doubles as the artifact generator used by
EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import BenchRecord, append_records
from repro.obs import MetricsRegistry, RunManifest, Stopwatch

class BenchManifest:
    """Telemetry capture for one benchmark: metrics, manifest, record.

    Every benchmark gets a live :attr:`registry`, and :meth:`record`
    builds a lightweight :class:`~repro.bench.BenchRecord` -- revision
    (``git describe``), workload params including backend/workers, metric
    snapshot, timings.  Appending it to a JSONL history is **opt-in**:
    only when ``REPRO_BENCH_HISTORY`` names a path, so a plain
    ``pytest benchmarks`` never touches the committed
    ``benchmarks/manifests/bench_history.jsonl`` (that file changes
    through ``repro bench run`` only).

    Full run-manifest files remain opted into with
    ``REPRO_BENCH_MANIFEST_DIR=/some/dir``: :meth:`write` persists a
    manifest there so performance trajectories can be scraped from
    manifests instead of parsing pytest output (docs/OBSERVABILITY.md,
    docs/BENCHMARKING.md).  With the variable unset :meth:`write`
    no-ops, but :attr:`registry` stays live either way.
    """

    def __init__(self, directory: str | None, history: str | None = None) -> None:
        self._directory = directory
        if history is None:
            history = os.environ.get("REPRO_BENCH_HISTORY", "")
        self._history = None if history in ("-", "") else Path(history)
        self.registry = MetricsRegistry()
        self.stopwatch = Stopwatch()

    def record(
        self,
        scenario: str,
        *,
        params: dict,
        timings: dict,
        suite: str = "perf",
        seed: int | None = None,
    ) -> BenchRecord:
        """Build one scenario's bench record; append it if history is on.

        Every record carries ``git describe`` and its ``created_at``
        stamp via :meth:`BenchRecord.collect`; callers put the backend /
        workers configuration in ``params`` so records stay comparable
        across machine shapes.  Returns the record either way; appending
        happens only when ``REPRO_BENCH_HISTORY`` names a path.
        """
        record = BenchRecord.collect(
            suite,
            scenario,
            seed=seed,
            params=params,
            registry=self.registry,
            timings=timings,
            manifest=f"bench:{scenario}",
        )
        if self._history is not None:
            append_records(self._history, [record])
        return record

    def write(
        self,
        name: str,
        *,
        protocol: dict,
        params: dict,
        seed: int | None = None,
    ) -> Path | None:
        """Persist this benchmark's full manifest when capture is on."""
        if self._directory is None:
            return None
        target = Path(self._directory)
        target.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest.collect(
            f"bench:{name}",
            seed=seed,
            protocol=protocol,
            params=params,
            registry=self.registry,
            wall_time_s=self.stopwatch.seconds,
        )
        return manifest.write(target / f"{name}.json")


@pytest.fixture
def bench_manifest() -> BenchManifest:
    """Per-test telemetry capture: manifests gated by
    ``REPRO_BENCH_MANIFEST_DIR``, history appends by ``REPRO_BENCH_HISTORY``
    (both off when unset)."""
    return BenchManifest(os.environ.get("REPRO_BENCH_MANIFEST_DIR"))
