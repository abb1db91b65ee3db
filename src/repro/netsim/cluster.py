"""The replicated cluster: nodes, network, failures, and consistency checks.

:class:`ReplicaCluster` wires one :class:`~repro.netsim.node.Node` per site
to a :class:`~repro.netsim.network.MessageNetwork` over a failing
:class:`~repro.sim.topology.Topology`, and exposes the operations a test or
example drives: submit updates/reads, fail and repair sites and links,
advance simulated time, and audit the resulting histories.

The audit (:meth:`check_consistency`) asserts the one-copy guarantees the
paper proves in Theorem 1: committed versions form a single linear chain
(no version is ever produced twice), and every site's history is a
subsequence of that chain.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

from ..core.base import ReplicaControlProtocol
from ..core.registry import make_protocol
from ..errors import SimulationError
from ..obs.causal import (
    NULL_CAUSAL,
    TIMER_PHASES,
    CausalTracer,
    NullCausalTracer,
)
from ..obs.metrics import NULL_REGISTRY, MetricsRegistry
from ..obs.spans import NULL_TRACKER, SpanTracker
from ..obs.trace import TraceLog
from ..sim.engine import EventHandle, Simulator
from ..sim.topology import Topology
from ..types import SiteId, site_names
from .coordinator import ProtocolRun, RunKind, RunStatus
from .messages import Message
from .network import MessageNetwork
from .node import Node

__all__ = ["ReplicaCluster", "scripted_workload"]


class ReplicaCluster:
    """A running replicated-file system under one replica control protocol.

    Parameters
    ----------
    protocol:
        Any protocol from :mod:`repro.core`; its site set defines the
        cluster membership.
    initial_value:
        Contents of every copy at time zero.
    latency:
        One-way message latency.  The control windows default to multiples
        of it: voting closes after ``4 * latency``, catch-up waits
        ``4 * latency``, the local-lock (deadlock) timeout is
        ``20 * latency`` and in-doubt subordinates probe the coordinator
        every ``30 * latency``.
    links:
        Optional explicit link set (defaults to a complete graph).
    metrics:
        An optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        given, the cluster records message counts by type, run outcomes,
        vote replies, lock waits, and phase-span durations under the
        ``netsim.*`` names documented in docs/OBSERVABILITY.md.  When
        omitted the shared disabled registry is used and the hot paths
        skip recording entirely.
    causal:
        When True, every submitted operation mints a causal trace context
        and the cluster emits the causally-parented ``causal`` events of
        :mod:`repro.obs.causal` into the trace log (created on demand if
        ``trace`` is off), keyed by ``causal_seed`` for deterministic
        trace ids.  When False the shared null tracer is used and the hot
        paths pay a single attribute check.
    """

    def __init__(
        self,
        protocol: ReplicaControlProtocol,
        initial_value: Any = None,
        *,
        latency: float = 0.01,
        vote_window: float | None = None,
        catch_up_window: float | None = None,
        lock_timeout: float | None = None,
        termination_timeout: float | None = None,
        links: Iterable[tuple[SiteId, SiteId]] | None = None,
        trace: bool = False,
        metrics: MetricsRegistry | None = None,
        transport: Callable[[SiteId, SiteId, Message], None] | None = None,
        scheduler: Callable[..., EventHandle] | None = None,
        causal: bool = False,
        causal_seed: int = 0,
    ) -> None:
        self.protocol = protocol
        self.simulator = Simulator()
        self.topology = Topology(sorted(protocol.sites), links)
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.trace_log: TraceLog | None = TraceLog() if (trace or causal) else None
        if trace or self.metrics.enabled:
            self.spans = SpanTracker(self.trace_log, self.metrics)
        else:
            self.spans = NULL_TRACKER
        self.causal: CausalTracer | NullCausalTracer
        if causal:
            assert self.trace_log is not None
            self.causal = CausalTracer(self.trace_log, causal_seed)
        else:
            self.causal = NULL_CAUSAL
        self.network = MessageNetwork(
            self.simulator,
            self.topology,
            latency,
            observer=self.trace_log.record if trace else None,
            metrics=self.metrics,
            transport=transport,
            causal=self.causal,
        )
        self._scheduler = scheduler
        # Test/model-checking seam: when True, subordinates skip the
        # participants-only guard on CommitMessage/DecisionReply installs,
        # re-opening the PR-1 fork bug so the checker can rediscover it.
        self.unsafe_disable_participants_guard = False
        self.vote_window = vote_window if vote_window is not None else 4 * latency
        self.catch_up_window = (
            catch_up_window if catch_up_window is not None else 4 * latency
        )
        self.lock_timeout = lock_timeout if lock_timeout is not None else 20 * latency
        self.termination_timeout = (
            termination_timeout if termination_timeout is not None else 30 * latency
        )
        self._nodes: dict[SiteId, Node] = {}
        for site in sorted(protocol.sites):
            node = Node(site, self, initial_value)
            self._nodes[site] = node
            self.network.register(site, node.receive)
        self._runs: dict[int, ProtocolRun] = {}
        self._finished_runs: list[ProtocolRun] = []

    # ------------------------------------------------------------------ #
    # Topology control
    # ------------------------------------------------------------------ #

    def node(self, site: SiteId) -> Node:
        """The node object at a site."""
        return self._nodes[site]

    def _record(self, category: str, description: str, **fields: object) -> None:
        if self.trace_log is not None:
            self.trace_log.record(self.simulator.now, category, description, **fields)

    def fail_site(self, site: SiteId) -> None:
        """Fail a site: volatile state is wiped, its runs die."""
        self.topology.fail_site(site)
        self._record("topology", f"site {site} failed", event="site-failure", site=site)
        if self.metrics.enabled:
            self.metrics.counter("netsim.topology.site-failures").inc()
        self._nodes[site].on_failure()
        for run in list(self._runs.values()):
            if run.site == site and not run.finished:
                run.on_coordinator_failure()
                self._runs.pop(run.run_id, None)
                self._finished_runs.append(run)

    def repair_site(self, site: SiteId, run_restart: bool = True) -> ProtocolRun | None:
        """Repair a site; by default immediately run Make_Current there."""
        self.topology.repair_site(site)
        self._record("topology", f"site {site} repaired", event="site-repair", site=site)
        if self.metrics.enabled:
            self.metrics.counter("netsim.topology.site-repairs").inc()
        if run_restart:
            return self.make_current(site)
        return None

    def fail_link(self, a: SiteId, b: SiteId) -> None:
        """Fail a communication link."""
        self.topology.fail_link(a, b)
        self._record(
            "topology", f"link {a}-{b} failed", event="link-failure", link=[a, b]
        )

    def repair_link(self, a: SiteId, b: SiteId) -> None:
        """Repair a communication link."""
        self.topology.repair_link(a, b)
        self._record(
            "topology", f"link {a}-{b} repaired", event="link-repair", link=[a, b]
        )

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def submit_update(
        self, site: SiteId, value: Any, *, run_id: int | None = None
    ) -> ProtocolRun:
        """Start an update run coordinated at ``site`` (async).

        ``run_id`` (checker seam) pins the identifier instead of drawing
        from the process-wide counter, so replayed schedules produce
        identical state fingerprints.
        """
        return self._submit(ProtocolRun(self, site, RunKind.UPDATE, value, run_id))

    def submit_read(self, site: SiteId, *, run_id: int | None = None) -> ProtocolRun:
        """Start a read run coordinated at ``site`` (async)."""
        return self._submit(ProtocolRun(self, site, RunKind.READ, None, run_id))

    def make_current(self, site: SiteId, *, run_id: int | None = None) -> ProtocolRun:
        """Start the Make_Current restart protocol at a recovered site."""
        return self._submit(ProtocolRun(self, site, RunKind.MAKE_CURRENT, None, run_id))

    def _submit(self, run: ProtocolRun) -> ProtocolRun:
        self._runs[run.run_id] = run
        self._record(
            "run",
            f"run {run.run_id} [{run.kind.value}] submitted at {run.site}",
            run_id=run.run_id,
            kind=run.kind.value,
            site=run.site,
        )
        if self.metrics.enabled:
            self.metrics.counter(f"netsim.run.submitted.{run.kind.value}").inc()
        start = run.start
        if self.causal.enabled:
            run.ctx = self.causal.begin(
                f"op:{run.run_id}",
                "submit",
                self.simulator.now,
                site=run.site,
                run_id=run.run_id,
                op=run.kind.value,
                phase="submit",
            )
            start = self.causal.scoped(run.start, run.ctx)
        self.schedule_timer(0.0, start, kind="start", run_id=run.run_id, site=run.site)
        return run

    # ------------------------------------------------------------------ #
    # Engine plumbing
    # ------------------------------------------------------------------ #

    def schedule_timer(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        kind: str,
        run_id: int | None = None,
        site: SiteId | None = None,
    ) -> EventHandle:
        """Schedule a protocol timer (the checker's injection seam).

        All control-flow timers (run start, lock timeout, vote window,
        catch-up window, termination probe) go through here instead of
        calling :meth:`Simulator.schedule` directly.  In stochastic runs
        this simply forwards to the simulator; a controlled ``scheduler``
        (see the constructor) instead records the timer as an explorable
        action, keyed by ``kind``/``run_id``/``site`` so commuting firings
        can be identified.

        With causal tracing on, arming a (non-``start``) timer emits a
        ``timer-set`` event parented on the current context, and the
        action is wrapped so its firing emits ``timer-fire`` parented on
        the set -- timer-driven transitions (vote window closing, probes)
        stay connected to the operation's DAG.  ``start`` timers need no
        wrapping: :meth:`_submit` scopes them to the root context.
        """
        if self.causal.enabled and kind != "start":
            set_ctx = self.causal.emit(
                "timer-set",
                self.simulator.now,
                parents=(self.causal.current,),
                site=site,
                run_id=run_id,
                timer=kind,
                phase=TIMER_PHASES.get(kind, "timer"),
            )
            inner = action

            def fire_traced() -> None:
                fire_ctx = self.causal.emit(
                    "timer-fire",
                    self.simulator.now,
                    parents=(set_ctx,),
                    site=site,
                    run_id=run_id,
                    timer=kind,
                    phase=TIMER_PHASES.get(kind, "timer"),
                )
                with self.causal.scope(fire_ctx):
                    inner()

            action = fire_traced
        if self._scheduler is not None:
            return self._scheduler(delay, action, kind=kind, run_id=run_id, site=site)
        return self.simulator.schedule(delay, action)

    def deliver_to_coordinator(
        self, destination: SiteId, sender: SiteId, message: Message
    ) -> None:
        """Route replies addressed to a coordinator run.

        A VoteReply for a run that has already terminated is answered
        immediately with the logged decision: the sender just acquired its
        lock for a dead run (it was queued behind other work) and would
        otherwise block in doubt until its first termination-protocol
        probe.  Presumed abort applies to unlogged runs.
        """
        run = self._runs.get(message.run_id)
        if run is not None and run.site == destination and not run.finished:
            run.on_reply(sender, message)
            return
        from .messages import DecisionReply, VoteReply

        if isinstance(message, VoteReply) and self.topology.is_up(destination):
            commit = self._nodes[destination].decision_log.get(message.run_id)
            if commit is not None:
                reply = DecisionReply(
                    message.run_id,
                    destination,
                    True,
                    commit.metadata,
                    commit.value,
                    commit.participants,
                )
            else:
                reply = DecisionReply(message.run_id, destination, False)
            self.network.send(destination, sender, reply)

    def is_run_active(self, run_id: int) -> bool:
        """Whether a run is still deciding (termination protocol support)."""
        run = self._runs.get(run_id)
        return run is not None and not run.finished

    def run_finished(self, run: ProtocolRun) -> None:
        """Callback from a run reaching a terminal status."""
        self._runs.pop(run.run_id, None)
        self._finished_runs.append(run)
        self._record(
            "run",
            run.describe(),
            run_id=run.run_id,
            kind=run.kind.value,
            site=run.site,
            status=run.status.value,
        )
        if self.metrics.enabled:
            self.metrics.counter(f"netsim.run.{run.status.value}").inc()
            if run.latency is not None:
                self.metrics.histogram("netsim.run.latency").observe(run.latency)
            if run.kind is RunKind.UPDATE:
                # Operation-level SLO accounting: update submissions either
                # commit (op.commit.latency) or count against the abort
                # rate -- the distributions the availability-planner SLOs
                # consume (docs/OBSERVABILITY.md).
                if run.status is RunStatus.COMMITTED:
                    self.metrics.counter("op.committed").inc()
                    if run.latency is not None:
                        self.metrics.histogram("op.commit.latency").observe(
                            run.latency
                        )
                else:
                    self.metrics.counter("op.aborted").inc()
                committed = self.metrics.counter("op.committed").value
                aborted = self.metrics.counter("op.aborted").value
                self.metrics.gauge("op.abort.rate").set(
                    aborted / (committed + aborted)
                )

    def run_for(self, duration: float) -> None:
        """Advance simulated time by ``duration``."""
        if duration < 0:
            raise SimulationError(f"duration must be nonnegative: {duration}")
        self.simulator.run(until=self.simulator.now + duration)

    def settle(self, max_rounds: int = 200) -> None:
        """Advance until all submitted runs reach a terminal status.

        In-doubt subordinates keep probing a dead coordinator forever, so
        this waits for *runs* (not the event queue) with a round cap.
        """
        for _ in range(max_rounds):
            if not self._runs:
                return
            self.run_for(self.termination_timeout)
        raise SimulationError(
            f"runs still pending after {max_rounds} rounds: "
            f"{[r.describe() for r in self._runs.values()]}"
        )

    @property
    def finished_runs(self) -> tuple[ProtocolRun, ...]:
        """All terminal runs, in completion order."""
        return tuple(self._finished_runs)

    def latency_summary(self) -> dict[str, float]:
        """Latency statistics over committed runs (empty dict if none).

        Keys: ``count``, ``mean``, ``min``, ``max`` -- in simulated time
        units, submission to commit.  Healthy commits take one vote round
        plus one commit round (about ``2-3 x latency`` plus any lock
        queueing); catch-up adds a round trip.
        """
        latencies = [
            run.latency
            for run in self._finished_runs
            if run.status is RunStatus.COMMITTED and run.latency is not None
        ]
        if not latencies:
            return {}
        return {
            "count": float(len(latencies)),
            "mean": sum(latencies) / len(latencies),
            "min": min(latencies),
            "max": max(latencies),
        }

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.simulator.now

    # ------------------------------------------------------------------ #
    # Auditing
    # ------------------------------------------------------------------ #

    def committed_versions(self) -> dict[int, tuple[int, Any]]:
        """Map version -> (run id, value) across all site histories.

        Raises ``AssertionError`` if two sites ever applied different
        payloads (or different runs) for one version -- a forked history.
        """
        seen: dict[int, tuple[int, Any]] = {}
        for node in self._nodes.values():
            for applied in node.history:
                key = applied.version
                entry = (applied.run_id, applied.value)
                if key in seen and seen[key] != entry:
                    raise AssertionError(
                        f"forked history at version {key}: "
                        f"{seen[key]!r} vs {entry!r}"
                    )
                seen.setdefault(key, entry)
        return seen

    def check_consistency(self) -> dict[str, int]:
        """Assert one-copy semantics; return summary counters.

        Checks: no forked versions (two commits of one version); every
        site's history has strictly increasing versions; the set of
        committed versions has no duplicates by construction of the two
        previous checks.
        """
        versions = self.committed_versions()
        for node in self._nodes.values():
            site_versions = [a.version for a in node.history]
            assert site_versions == sorted(set(site_versions)), (
                f"history at {node.site} is not strictly increasing: "
                f"{site_versions}"
            )
        return {
            "versions_committed": len(versions) - 1,  # excluding version 0
            "sites": len(self._nodes),
            "runs_finished": len(self._finished_runs),
        }


def scripted_workload(
    protocol: str,
    n_sites: int,
    *,
    trace: bool = False,
    causal: bool = False,
    seed: int = 0,
) -> ReplicaCluster:
    """Run the fixed ``repro trace`` workload; returns the settled cluster.

    Deterministic by construction (the message network is driven by
    simulated time only): update; fail the highest-named site; update
    under failure; repair and restart; read.  The tracing knobs are
    passed through so the same workload serves the rendered trace, the
    causal-trace modes, and the causal-overhead perf scenario.
    """
    sites = site_names(n_sites)
    cluster = ReplicaCluster(
        make_protocol(protocol, sites),
        initial_value="v0",
        trace=trace,
        causal=causal,
        causal_seed=seed,
    )
    cluster.submit_update(sites[0], "v1")
    cluster.settle()
    cluster.fail_site(sites[-1])
    cluster.submit_update(sites[0], "v2")
    cluster.settle()
    cluster.repair_site(sites[-1])
    cluster.settle()
    cluster.submit_read(sites[min(1, n_sites - 1)])
    cluster.settle()
    return cluster
