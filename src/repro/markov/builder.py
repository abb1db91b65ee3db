"""Automatic derivation of a protocol's Markov chain from its code.

Every chain the package solves at runtime comes from here.  The module
*executes* the actual protocol implementation against every reachable
configuration of the Section VI model and assembles the resulting exact
Markov chain; the hand-built chains in :mod:`repro.markov.chains` stay as
the test oracle and the paper's Fig. 2 drawing.

A configuration is ``(up, current, metadata)`` -- which sites are up,
which sites hold the current version, and the metadata those copies share
(any hashable metadata type with a ``version`` and ``with_version``, so
vote-ledger protocols derive chains through the same machinery).  Under
the frequent-update assumption this is a complete state description:
stale copies can never influence a decision (a partition
whose freshest copy is stale is never distinguished -- the paper's Theorem
1 invariant, verified exhaustively by
:func:`verify_stale_partitions_blocked`), so their metadata is irrelevant.

Every site fails at rate lambda and is repaired at rate mu, so each
failure/repair of a specific site is an arc with multiplicity one; arcs
between the same pair of states merge by summation.  One breadth-first
exploration serves every consumer: :func:`derive_lumped_chain` keeps one
representative configuration per block of a lumping signature (the
default availability pipeline), and :func:`derive_chain` is the same
derivation with every configuration its own block -- the exact
site-labelled chain that the heterogeneous-rate analysis and the Theorem
1 check walk.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from fractions import Fraction
from typing import cast

from ..core.base import ReplicaControlProtocol
from ..core.decision import UpdateContext
from ..core.metadata import ReplicaMetadata
from ..errors import ChainError
from ..obs.metrics import global_registry
from ..types import SiteId
from .ctmc import ChainSpec

__all__ = [
    "Configuration",
    "derive_chain",
    "derive_lumped_chain",
    "verify_stale_partitions_blocked",
]

#: A concrete model state: (up sites, current sites, shared metadata
#: normalised to version 1).
Configuration = tuple[frozenset[SiteId], frozenset[SiteId], object]

#: Stale copies only contribute their (lower) version to any decision, so
#: their metadata shape is irrelevant; version 0 against the current 1.
_STALE_VERSION = 0
_CURRENT_VERSION = 1


def _initial_configuration(protocol: ReplicaControlProtocol) -> Configuration:
    meta = protocol.initial_metadata().with_version(_CURRENT_VERSION)
    sites = frozenset(protocol.sites)
    return (sites, sites, meta)


def _copies_for(
    protocol: ReplicaControlProtocol, config: Configuration
) -> dict[SiteId, ReplicaMetadata]:
    up, current, meta = config
    stale_meta = protocol.stale_placeholder()
    return {
        site: (meta if site in current else stale_meta)
        for site in protocol.sites
    }


def _successor(
    protocol: ReplicaControlProtocol,
    config: Configuration,
    new_up: frozenset[SiteId],
    recent_failure: SiteId | None,
) -> Configuration:
    """Apply the frequent-update normalisation after an up-set change."""
    _, current, meta = config
    if not new_up or not (new_up & current):
        # No functioning site holds the current version: the freshest copy
        # in the partition is stale and the attempt is necessarily denied
        # (see verify_stale_partitions_blocked).
        return (new_up, current, meta)
    copies = _copies_for(protocol, (new_up, current, meta))
    outcome = protocol.attempt_update(
        new_up, copies, UpdateContext(recent_failure=recent_failure)
    )
    if not outcome.accepted:
        return (new_up, current, meta)
    assert outcome.metadata is not None
    return (new_up, new_up, outcome.metadata.with_version(_CURRENT_VERSION))


def _observe_build(kind: str, *, states: int, arcs: int, expansions: int) -> None:
    """Build telemetry: legacy ``markov.builder.*`` totals plus the
    per-path ``markov.build.<kind>.*`` series (docs/OBSERVABILITY.md)."""
    registry = global_registry()
    if not registry.enabled:
        return
    registry.counter("markov.builder.chains").inc()
    registry.counter("markov.builder.configurations").inc(states)
    registry.counter("markov.builder.arcs").inc(arcs)
    scope = registry.scope(f"markov.build.{kind}")
    scope.counter("chains").inc()
    scope.counter("states").inc(states)
    scope.counter("arcs").inc(arcs)
    scope.counter("expansions").inc(expansions)


def derive_chain(
    protocol: ReplicaControlProtocol, max_states: int = 50_000
) -> ChainSpec:
    """The exact site-labelled chain: every configuration its own block.

    The same exploration as :func:`derive_lumped_chain` under the
    identity signature, so the two constructions can only differ by the
    lumping map.  Its availability must agree with the protocol's lumped
    chain; :func:`repro.markov.lumping.lump_chain` checks the
    aggregation exactly and the tests pin both.
    """
    return ChainSpec.from_indexed_arcs(
        f"derived:{protocol.name}[n={protocol.n_sites}]",
        *_derive(protocol, None, max_states),
    )


def derive_lumped_chain(
    protocol: ReplicaControlProtocol,
    signature: Callable[[Configuration], Hashable],
    *,
    max_blocks: int = 50_000,
    name: str | None = None,
) -> ChainSpec:
    """Derive the *lumped* chain directly, one representative per block.

    Explores a single representative configuration per ``signature``
    label; each representative's n site failure/repair moves supply its
    block's aggregated outgoing rates.  That is sound exactly when the
    signature is strongly lumpable for the protocol -- every state of a
    block shares the same aggregated block rates, which is the property
    :func:`repro.markov.lumping.lump_chain` verifies exhaustively and the
    tests pin by comparing the two constructions at small n.

    The payoff is the pipeline's scaling law: O(blocks * n) protocol
    calls instead of the site-labelled 2^n explosion, which is what makes
    n=25-50 availability tractable (docs/PERFORMANCE.md).
    """
    if name is None:
        name = f"lumped:{protocol.name}[n={protocol.n_sites}]"
    return ChainSpec.from_indexed_arcs(
        name, *_derive(protocol, signature, max_blocks)
    )


def _derive(
    protocol: ReplicaControlProtocol,
    signature: Callable[[Configuration], Hashable] | None,
    limit: int,
) -> tuple[
    list[Hashable],
    dict[tuple[int, int], tuple[int, int]],
    dict[Hashable, Fraction],
]:
    """The one breadth-first exploration of the model's configurations.

    Returns ``(states, arcs, weights)`` in the form of
    :meth:`ChainSpec.from_indexed_arcs`.  ``signature=None`` keeps every
    configuration as its own state (the site-labelled chain); otherwise
    states are signature labels, each expanded from the first
    configuration that reached it.  Arcs stream into an indexed
    ``(source, target) -> (failures, repairs)`` table as the frontier
    advances -- memory is O(states + distinct arcs), never a
    per-transition list.
    """
    kind, unit = ("derived", "states") if signature is None else ("lumped", "blocks")
    initial = _initial_configuration(protocol)
    sites = sorted(protocol.sites)
    n = protocol.n_sites
    first: Hashable = initial if signature is None else signature(initial)
    index: dict[Hashable, int] = {first: 0}
    order: list[Hashable] = [first]
    representatives: list[Configuration] = [initial]
    weights: dict[Hashable, Fraction] = {}
    arcs: dict[tuple[int, int], tuple[int, int]] = {}
    cursor = 0
    while cursor < len(representatives):
        config = representatives[cursor]
        label = order[cursor]
        source = cursor
        cursor += 1
        up, current, _ = config
        if up and up == current:
            weights[label] = Fraction(len(up), n)
        outgoing: dict[int, list[int]] = {}
        for site in sites:
            if site in up:
                successor = _successor(protocol, config, up - {site}, site)
                slot = 0
            else:
                successor = _successor(protocol, config, up | {site}, None)
                slot = 1
            target_label: Hashable = (
                successor if signature is None else signature(successor)
            )
            if target_label == label:
                continue  # internal moves vanish in the lumped chain
            target = index.get(target_label)
            if target is None:
                if len(index) >= limit:
                    raise ChainError(
                        f"{kind} chain for {protocol.name} exceeds {limit} "
                        f"{unit}; raise max_{unit} if intended"
                    )
                target = len(order)
                index[target_label] = target
                order.append(target_label)
                representatives.append(successor)
            entry = outgoing.setdefault(target, [0, 0])
            entry[slot] += 1
        for target, (fails, repairs) in outgoing.items():
            arcs[(source, target)] = (fails, repairs)
    _observe_build(
        "site_labelled" if signature is None else "lumped",
        states=len(order),
        arcs=len(arcs),
        expansions=len(order),
    )
    return order, arcs, weights


def verify_stale_partitions_blocked(
    protocol: ReplicaControlProtocol,
    max_states: int = 50_000,
) -> None:
    """Check the Theorem 1 invariant the builder relies on, exhaustively.

    For every *accepted* transition reachable in the model -- an update
    from version M (current set ``cur1`` with metadata ``(card1, ds1)``)
    to version M+1 (committed by the new up set) -- the sites left behind
    at version M are ``L = cur1 - up2`` and they keep the version-M
    metadata.  The Theorem 1 argument demands that no future partition
    whose freshest copy is version M can be distinguished; such a
    partition is any ``S | T`` with nonempty ``S`` a subset of *L* (the
    version-M copies) and ``T`` a subset of the even-staler sites.  We
    enumerate all of them and assert denial.

    Every accepted transition is an arc of the site-labelled chain
    (:func:`derive_chain`), so the check walks that chain's arcs.

    Raises ``AssertionError`` on a violation.
    """
    try:
        states, arcs, _ = _derive(protocol, None, max_states)
    except ChainError as exc:
        raise AssertionError(str(exc)) from exc
    for i, j in sorted(arcs):
        before = cast(Configuration, states[i])
        after = cast(Configuration, states[j])
        if after[0] and after[1] == after[0]:  # the update was accepted
            _check_leftovers(protocol, before, after)


def _check_leftovers(
    protocol: ReplicaControlProtocol,
    before: Configuration,
    after: Configuration,
) -> None:
    """No subset of the version-M leftovers (plus older sites) may win."""
    import itertools

    _, cur1, meta1 = before
    up2 = after[0]
    leftovers = cur1 - up2
    if not leftovers:
        return
    older = frozenset(protocol.sites) - up2 - leftovers
    version_m_meta = meta1.with_version(1)
    older_meta = protocol.stale_placeholder()
    copies = {site: version_m_meta for site in leftovers}
    copies.update({site: older_meta for site in older})
    for s_size in range(1, len(leftovers) + 1):
        for s_combo in itertools.combinations(sorted(leftovers), s_size):
            for t_size in range(len(older) + 1):
                for t_combo in itertools.combinations(sorted(older), t_size):
                    partition = frozenset(s_combo) | frozenset(t_combo)
                    decision = protocol.is_distinguished(partition, copies)
                    assert not decision.granted, (
                        f"{protocol.name}: partition {sorted(partition)} of "
                        f"version-M leftovers {s_combo} plus stale {t_combo} "
                        f"granted after the update {before} -> {after}"
                    )
