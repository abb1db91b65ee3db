"""Deterministic harness: one netsim cluster under schedule control.

The harness builds a :class:`~repro.netsim.cluster.ReplicaCluster` with the
two injection seams engaged:

* a **transport hook** -- messages never enter the event queue; they join
  an in-flight multiset (kept canonically sorted) and are delivered only
  when the schedule says so, via
  :meth:`~repro.netsim.network.MessageNetwork.deliver_now` (which applies
  the exact same loss rule as stochastic runs: endpoints must be up and
  mutually reachable *at delivery time*);
* a **controlled scheduler** -- protocol timers (lock timeout, vote
  window, catch-up window, termination probe) become armed-timer records
  that fire only as explicit schedule actions, modelling arbitrary
  timeout/latency races.  ``start`` timers (delay zero in the simulator)
  execute inline so a submission is one atomic step.

The harness restores a state by **replay**: rebuilding from the initial
configuration and re-applying a schedule prefix, which is deterministic
because every source of nondeterminism (delivery order, timer firing,
failures, run identifiers) is a function of the schedule.  Copying live
state would also be correct with causal tracing off (armed timers and
lock waiters are bound methods or ``functools.partial`` objects, which
copy cleanly), but a ``deepcopy`` or pickle round-trip of a mid-run
harness costs 2.5-4.5x a complete replay at the depths explored, so
replay is the only restore path (docs/CHECKING.md has the numbers).
:meth:`snapshot` produces the canonical value encoding used for
visited-state deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.registry import make_protocol, protocol_names
from ..errors import CheckError
from ..netsim.cluster import ReplicaCluster
from ..netsim.messages import Message, reset_run_ids
from ..types import SiteId, site_names
from .actions import (
    Action,
    CrashSite,
    CutLink,
    Deliver,
    FireTimer,
    HealLink,
    RecoverSite,
    SubmitOp,
)
from .state import ClusterSnapshot, message_key, metadata_key, value_key

__all__ = ["CheckConfig", "CheckHarness"]

#: Run ids drawn by recovery (Make_Current) runs start here; workload
#: updates use 1..len(updates).  Keeping the two ranges disjoint makes
#: fingerprints schedule-deterministic.
_RECOVERY_RUN_ID_BASE = 1000


@dataclass(frozen=True)
class CheckConfig:
    """One checking problem: protocol, scale, workload, fault budgets."""

    protocol: str = "dynamic"
    n_sites: int = 3
    updates: int = 2
    crashes: int = 0
    recoveries: int = 0
    link_cuts: int = 0
    link_heals: int = 0
    disable_participants_guard: bool = False
    initial_value: str = "v0"

    def __post_init__(self) -> None:
        if self.protocol not in protocol_names():
            known = ", ".join(protocol_names())
            raise CheckError(
                f"unknown protocol {self.protocol!r} (known: {known})"
            )
        if self.n_sites < 2:
            raise CheckError(f"need at least 2 sites, got {self.n_sites}")
        if self.updates < 0 or min(
            self.crashes, self.recoveries, self.link_cuts, self.link_heals
        ) < 0:
            raise CheckError("workload and fault budgets must be nonnegative")

    @property
    def sites(self) -> tuple[SiteId, ...]:
        return site_names(self.n_sites)

    def workload(self) -> tuple[tuple[SiteId, str], ...]:
        """Update operations: op *i* writes ``u{i+1}`` at site ``i mod n``."""
        names = self.sites
        return tuple(
            (names[i % len(names)], f"u{i + 1}") for i in range(self.updates)
        )


class _TimerHandle:
    """Stand-in for :class:`~repro.sim.engine.EventHandle` for armed timers."""

    __slots__ = ("_harness", "_key", "cancelled")

    def __init__(self, harness: "CheckHarness", key: tuple[str, int, SiteId]) -> None:
        self._harness = harness
        self._key = key
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        self._harness._timers.pop(self._key, None)


class _InlineHandle:
    """Handle for ``start`` timers, which already ran inline."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


@dataclass
class _Pending:
    """One in-flight message with its canonical identity key."""

    source: SiteId
    destination: SiteId
    message: Message
    key: tuple = field(init=False)

    def __post_init__(self) -> None:
        self.key = message_key(self.source, self.destination, self.message)


class CheckHarness:
    """A cluster plus schedule controls; applies actions atomically.

    ``causal=True`` turns on causal tracing in the underlying cluster so a
    replayed schedule leaves a full causal DAG in ``cluster.trace_log``
    (used by counterexample export -- model-checker output and telemetry
    share one trace format).  Tracing never affects snapshots: the ``ctx``
    stamped on messages is excluded from :func:`~repro.check.state.message_key`.
    """

    def __init__(self, config: CheckConfig, *, causal: bool = False) -> None:
        self.config = config
        self._causal = causal
        self._sites = config.sites
        self._workload = config.workload()
        self.reset()

    # ------------------------------------------------------------------ #
    # Construction / replay
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Rebuild the initial configuration from scratch."""
        reset_run_ids(_RECOVERY_RUN_ID_BASE)
        self._pending: list[_Pending] = []
        self._timers: dict[tuple[str, int, SiteId], Callable[[], None]] = {}
        self._submitted: set[int] = set()
        self._crashes_left = self.config.crashes
        self._recoveries_left = self.config.recoveries
        self._cuts_left = self.config.link_cuts
        self._heals_left = self.config.link_heals
        protocol = make_protocol(self.config.protocol, self._sites)
        self.cluster = ReplicaCluster(
            protocol,
            initial_value=self.config.initial_value,
            transport=self._transport,
            scheduler=self._schedule,
            causal=self._causal,
        )
        self.cluster.unsafe_disable_participants_guard = (
            self.config.disable_participants_guard
        )

    def replay(self, schedule: list[Action] | tuple[Action, ...]) -> bool:
        """Reset and re-apply a schedule; True iff every step applied."""
        self.reset()
        for action in schedule:
            if not self.apply(action):
                return False
        return True

    # ------------------------------------------------------------------ #
    # Injection seams (called by the cluster)
    # ------------------------------------------------------------------ #

    def _transport(
        self, source: SiteId, destination: SiteId, message: Message
    ) -> None:
        self._pending.append(_Pending(source, destination, message))

    def _schedule(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        kind: str,
        run_id: int | None = None,
        site: SiteId | None = None,
    ) -> Any:
        if kind == "start":
            # Submissions are atomic steps: the run starts (and takes its
            # local lock, possibly sending vote requests) inline.
            action()
            return _InlineHandle()
        if run_id is None or site is None:
            raise CheckError(f"timer kind {kind!r} needs run_id and site")
        key = (kind, run_id, site)
        if key in self._timers:
            raise CheckError(f"duplicate armed timer {key!r}")
        self._timers[key] = action
        return _TimerHandle(self, key)

    # ------------------------------------------------------------------ #
    # Enabled actions
    # ------------------------------------------------------------------ #

    def enabled_actions(self) -> list[Action]:
        """All actions applicable in the current state, in canonical order."""
        topology = self.cluster.topology
        actions: list[Action] = []
        for index, (site, _value) in enumerate(self._workload):
            if index not in self._submitted and topology.is_up(site):
                actions.append(SubmitOp(index, site))
        deliveries = sorted({p.key for p in self._pending})
        actions.extend(
            Deliver(src, dst, mtype, run_id, payload)
            for (mtype, run_id, src, dst, payload) in deliveries
        )
        actions.extend(
            FireTimer(kind, run_id, site)
            for (kind, run_id, site) in sorted(self._timers)
        )
        if self._crashes_left > 0:
            actions.extend(
                CrashSite(s) for s in sorted(topology.sites) if topology.is_up(s)
            )
        if self._recoveries_left > 0:
            actions.extend(
                RecoverSite(s)
                for s in sorted(topology.sites)
                if not topology.is_up(s)
            )
        if self._cuts_left > 0:
            actions.extend(
                CutLink(a, b)
                for (a, b) in sorted(topology.links)
                if topology.link_is_up(a, b)
            )
        if self._heals_left > 0:
            actions.extend(
                HealLink(a, b)
                for (a, b) in sorted(topology.links)
                if not topology.link_is_up(a, b)
            )
        return actions

    # ------------------------------------------------------------------ #
    # Applying actions
    # ------------------------------------------------------------------ #

    def apply(self, action: Action) -> bool:
        """Apply one action; False (state unchanged) if it is not enabled."""
        topology = self.cluster.topology
        if isinstance(action, SubmitOp):
            workload = self._workload
            if (
                action.index in self._submitted
                or action.index >= len(workload)
                or workload[action.index][0] != action.site
                or not topology.is_up(action.site)
            ):
                return False
            site, value = workload[action.index]
            self._submitted.add(action.index)
            self.cluster.submit_update(site, value, run_id=action.index + 1)
            return True
        if isinstance(action, Deliver):
            key = (
                action.message_type,
                action.run_id,
                action.source,
                action.destination,
                action.payload,
            )
            for position, pending in enumerate(self._pending):
                if pending.key == key:
                    entry = self._pending.pop(position)
                    self.cluster.network.deliver_now(
                        entry.source, entry.destination, entry.message
                    )
                    return True
            return False
        if isinstance(action, FireTimer):
            fire = self._timers.pop((action.kind, action.run_id, action.site), None)
            if fire is None:
                return False
            fire()
            return True
        if isinstance(action, CrashSite):
            if self._crashes_left <= 0 or not topology.is_up(action.site):
                return False
            self._crashes_left -= 1
            self.cluster.fail_site(action.site)
            return True
        if isinstance(action, RecoverSite):
            if self._recoveries_left <= 0 or topology.is_up(action.site):
                return False
            self._recoveries_left -= 1
            self.cluster.repair_site(action.site, run_restart=True)
            return True
        if isinstance(action, CutLink):
            edge = (action.a, action.b)
            if (
                self._cuts_left <= 0
                or edge not in topology.links
                or not topology.link_is_up(action.a, action.b)
            ):
                return False
            self._cuts_left -= 1
            self.cluster.fail_link(action.a, action.b)
            return True
        if isinstance(action, HealLink):
            edge = (action.a, action.b)
            if (
                self._heals_left <= 0
                or edge not in topology.links
                or topology.link_is_up(action.a, action.b)
            ):
                return False
            self._heals_left -= 1
            self.cluster.repair_link(action.a, action.b)
            return True
        raise CheckError(f"unhandled action {action!r}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # Canonical snapshot
    # ------------------------------------------------------------------ #

    def snapshot(self) -> ClusterSnapshot:
        """Canonical, hashable encoding of the current state."""
        cluster = self.cluster
        topology = cluster.topology
        sites = sorted(topology.sites)
        sites_up = tuple((s, topology.is_up(s)) for s in sites)
        links_up = tuple(
            ((a, b), topology.link_is_up(a, b)) for (a, b) in sorted(topology.links)
        )
        site_state = []
        for s in sites:
            node = cluster.node(s)
            decisions = []
            for run_id in sorted(node.decision_log):
                commit = node.decision_log[run_id]
                if commit is None:
                    decisions.append((run_id, False, None, None, ()))
                else:
                    decisions.append(
                        (
                            run_id,
                            True,
                            metadata_key(commit.metadata),
                            value_key(commit.value),
                            tuple(sorted(commit.participants)),
                        )
                    )
            site_state.append(
                (
                    s,
                    metadata_key(node.metadata),
                    value_key(node.value),
                    tuple(
                        (a.version, value_key(a.value), a.run_id)
                        for a in node.history
                    ),
                    tuple(decisions),
                    node.locks.holder,
                    node.locks.waiting_runs(),
                    tuple(
                        (run_id, record.coordinator)
                        for run_id, record in sorted(node._in_doubt.items())
                    ),
                )
            )
        active_runs = []
        for run_id in sorted(cluster._runs):
            run = cluster._runs[run_id]
            active_runs.append(
                (
                    run.run_id,
                    run.site,
                    run.kind.value,
                    run._phase.value,
                    tuple(
                        (voter, metadata_key(md))
                        for voter, md in sorted(run._votes.items())
                    ),
                    metadata_key(run._pending_metadata),
                    value_key(run.value),
                )
            )
        finished = tuple(
            sorted((run.run_id, run.status.value) for run in cluster.finished_runs)
        )
        return ClusterSnapshot(
            sites_up=sites_up,
            links_up=links_up,
            site_state=tuple(site_state),
            active_runs=tuple(active_runs),
            finished_runs=finished,
            pending_messages=tuple(sorted(p.key for p in self._pending)),
            pending_timers=tuple(sorted(self._timers)),
            budgets=(
                self._crashes_left,
                self._recoveries_left,
                self._cuts_left,
                self._heals_left,
            ),
            ops_remaining=tuple(
                i
                for i in range(len(self._workload))
                if i not in self._submitted
            ),
        )
