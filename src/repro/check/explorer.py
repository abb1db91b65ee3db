"""Depth-bounded exhaustive exploration with sleep sets and state caching.

The explorer walks every schedule (sequence of
:mod:`~repro.check.actions`) up to a depth bound, depth-first and in
canonical action order, so state and transition counts are deterministic.
Two reductions keep the walk tractable without losing any reachable
violation within the bound:

* **Sleep sets** (Godefroid): after exploring action *a* from a state,
  the siblings explored later put *a* to sleep in their subtrees as long
  as it stays independent -- the commuted interleaving ``b;a`` reaches the
  same state as the already-explored ``a;b`` and is pruned.  Independence
  is the conservative relation of :func:`~repro.check.actions.independent`
  (local steps at different home sites).
* **State caching**: visited states are deduplicated by their canonical
  snapshot (:class:`~repro.check.state.ClusterSnapshot` -- an exact
  encoding, not a truncated digest).  Because a cached visit is only as
  good as the depth budget and sleep set it was explored with, each state
  stores the *set* of ``(depth, sleep)`` visits made; a new visit is
  pruned only if some prior visit had at least as much remaining depth
  **and** a sleep set no larger (explored at least as much).  Merging
  visits into a single pair would be unsound, so dominated pairs are kept
  pruned but incomparable ones accumulate.

Backtracking restores states by replaying the schedule prefix on a fresh
harness (see :mod:`~repro.check.harness` for why replay beats copying),
and the explorer replays only what it does not already know:

* **Transition memo**: each visited state's record maps an action's
  index in that state's canonical enabled list to the child's record,
  filled in once the child passed its oracles.  A sibling whose known
  child is covered by a prior visit is counted as one transition and one
  cache prune with no replay, apply, snapshot or oracle pass -- exactly
  what the replayed arrival would have concluded, since a snapshot fixes
  the future.
* **Dirty-only replay**: a sibling replays only if an earlier sibling
  actually applied an action.

Neither changes the walk order or any pruning decision, so every count
and the first counterexample found are the same as without them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CheckError
from .actions import Action, independent
from .harness import CheckConfig, CheckHarness
from .oracles import Violation, check_oracles, default_oracle_names
from .state import ClusterSnapshot

__all__ = ["CheckResult", "Explorer"]


@dataclass
class CheckResult:
    """Outcome of one exploration: counts, bound status, any violation."""

    config: CheckConfig
    depth: int
    states: int = 0
    transitions: int = 0
    sleep_pruned: int = 0
    cache_pruned: int = 0
    frontier_cutoffs: int = 0
    quiescent_states: int = 0
    truncated: bool = False
    violation: Violation | None = None
    schedule: tuple[Action, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no oracle reported a violation."""
        return self.violation is None and not self.truncated

    def to_dict(self) -> dict:
        """JSON-ready summary (stable key set)."""
        return {
            "protocol": self.config.protocol,
            "sites": self.config.n_sites,
            "depth": self.depth,
            "states": self.states,
            "transitions": self.transitions,
            "sleep_pruned": self.sleep_pruned,
            "cache_pruned": self.cache_pruned,
            "frontier_cutoffs": self.frontier_cutoffs,
            "quiescent_states": self.quiescent_states,
            "truncated": self.truncated,
            "violation": (
                None
                if self.violation is None
                else {
                    "oracle": self.violation.oracle,
                    "detail": self.violation.detail,
                }
            ),
            "schedule_length": len(self.schedule),
        }


@dataclass(slots=True)
class _Visit:
    """One exploration of a state: remaining budget and sleep set."""

    depth: int
    sleep: frozenset[Action]

    def covers(self, depth: int, sleep: frozenset[Action]) -> bool:
        """Whether this prior visit already explored at least as much."""
        return depth >= self.depth and sleep >= self.sleep


@dataclass(eq=False, slots=True)
class _State:
    """Everything the explorer knows about one visited state.

    ``snapshot`` is the interned visited-set key.  ``children`` maps the
    index of an action in this state's canonical
    :meth:`~repro.check.harness.CheckHarness.enabled_actions` list to the
    record of the state it leads to, filled in once that child passed its
    oracles.  Indices and records (not actions and snapshots) keep the
    memo from holding duplicate snapshot tuples alive.
    """

    snapshot: ClusterSnapshot
    visits: list[_Visit] = field(default_factory=list)
    children: dict[int, _State] = field(default_factory=dict)

    def covered(self, depth: int, sleep: frozenset[Action]) -> bool:
        """Whether a prior visit makes a visit at ``(depth, sleep)`` moot."""
        return any(v.covers(depth, sleep) for v in self.visits)

    def record(self, depth: int, sleep: frozenset[Action]) -> None:
        """Add a visit, dropping the prior ones it dominates."""
        self.visits[:] = [
            v for v in self.visits if not (depth <= v.depth and sleep <= v.sleep)
        ]
        self.visits.append(_Visit(depth, sleep))


@dataclass
class Explorer:
    """One depth-bounded exhaustive run over a :class:`CheckConfig`."""

    config: CheckConfig
    depth: int
    oracles: tuple[str, ...] = field(default_factory=default_oracle_names)
    max_states: int | None = None

    def run(self) -> CheckResult:
        """Explore and return the (deterministic) result."""
        self._harness = CheckHarness(self.config)
        self._visited: dict[ClusterSnapshot, _State] = {}
        self._result = CheckResult(config=self.config, depth=self.depth)
        self._dfs([], 0, frozenset(), None, 0)
        self._result.states = len(self._visited)
        return self._result

    # ------------------------------------------------------------------ #
    # DFS
    # ------------------------------------------------------------------ #

    def _dfs(
        self,
        schedule: list[Action],
        depth: int,
        sleep: frozenset[Action],
        parent: _State | None,
        index: int,
    ) -> bool:
        """Explore from the harness's current state; True aborts the walk.

        ``parent`` is the state the last action left (None at the root)
        and ``index`` that action's position in the parent's enabled list.
        """
        result = self._result
        snapshot = self._harness.snapshot()
        previous = None if parent is None else parent.snapshot
        violation = check_oracles(self.oracles, self._harness, snapshot, previous)
        if violation is not None:
            result.violation = violation
            result.schedule = tuple(schedule)
            return True
        state = self._visited.get(snapshot)
        if state is None:
            state = self._visited[snapshot] = _State(snapshot)
        if parent is not None:
            parent.children[index] = state
        if state.covered(depth, sleep):
            result.cache_pruned += 1
            return False
        state.record(depth, sleep)
        if self.max_states is not None and len(self._visited) > self.max_states:
            result.truncated = True
            return True
        enabled = self._harness.enabled_actions()
        if not enabled:
            result.quiescent_states += 1
            return False
        if depth >= self.depth:
            result.frontier_cutoffs += 1
            return False
        explore = [(i, a) for i, a in enumerate(enabled) if a not in sleep]
        result.sleep_pruned += len(enabled) - len(explore)
        explored: list[Action] = []
        dirty = False
        for position, action in explore:
            child_sleep = frozenset(
                {b for b in sleep if independent(action, b)}
                | {b for b in explored if independent(action, b)}
            )
            explored.append(action)
            child = state.children.get(position)
            if child is not None and child.covered(depth + 1, child_sleep):
                # The replay, apply, snapshot and oracle pass would only
                # rediscover that this child is already explored.
                result.transitions += 1
                result.cache_pruned += 1
                continue
            if dirty:
                self._harness.replay(schedule)
            if not self._harness.apply(action):  # pragma: no cover - invariant
                raise CheckError(f"enabled action failed to apply: {action!r}")
            dirty = True
            result.transitions += 1
            schedule.append(action)
            stop = self._dfs(schedule, depth + 1, child_sleep, state, position)
            schedule.pop()
            if stop:
                return True
        return False
