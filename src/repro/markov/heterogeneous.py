"""Heterogeneous-rate analysis (the paper's closing challenge).

Section VII ends by asking for the optimal *dynamic* vote assignment "in
models which lack symmetry in communication links and uniformity in
repair/failure ratios".  This module supplies the analysis half of that
challenge for site asymmetry: every protocol's exact Markov chain under
**per-site** failure and repair rates, derived directly from the protocol
implementation (the homogeneous lumping of Fig. 2 is no longer sound, so
the site-labelled exploration behind
:func:`repro.markov.builder.derive_chain` is the right object, with each
arc's rate read off the one site it toggles).

The availability measure generalises unchanged: an update arriving at a
uniformly random site succeeds iff that site is up inside a distinguished
partition, so the weight of an available state is ``k/n`` with *k* its up
count.

Per-site rates are not ``a*lambda + b*mu``, so these chains are not
:class:`repro.markov.ChainSpec` objects; their rates go to the same
float solve as every other steady state
(:func:`repro.markov.ctmc._solve_balance`, as a one-point grid) through
the same routing and guards: sparse above the threshold, and forced
dense solves counted past it and refused past the materialise limit.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import cast

import numpy as np

from ..core.base import ReplicaControlProtocol
from ..errors import ChainError
from ..types import SiteId
from .builder import Configuration, _derive
from .ctmc import _route, _solve_balance

__all__ = ["heterogeneous_availability", "heterogeneous_steady_state"]


def _validate_rates(
    protocol: ReplicaControlProtocol,
    failure_rates: Mapping[SiteId, float],
    repair_rates: Mapping[SiteId, float],
) -> None:
    for table, kind in ((failure_rates, "failure"), (repair_rates, "repair")):
        missing = protocol.sites - set(table)
        if missing:
            raise ChainError(f"missing {kind} rates for {sorted(missing)}")
        for site in protocol.sites:
            if table[site] <= 0:
                raise ChainError(
                    f"{kind} rate for {site} must be positive, got {table[site]}"
                )


def _rated_arcs(
    states: list[Configuration],
    arcs: Mapping[tuple[int, int], tuple[int, int]],
    failure_rates: Mapping[SiteId, float],
    repair_rates: Mapping[SiteId, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, rates)`` arrays over the arcs of the site-labelled chain.

    Each arc toggles exactly one site, ``up_i ^ up_j``: a failure when
    that site was up in the source, a repair otherwise.
    """
    rates = np.empty(len(arcs))
    for e, ((i, j), (failures, _)) in enumerate(arcs.items()):
        (site,) = states[i][0] ^ states[j][0]
        rates[e] = failure_rates[site] if failures else repair_rates[site]
    index = np.array(list(arcs), dtype=np.intp).reshape(-1, 2)
    return index[:, 0], index[:, 1], rates


def heterogeneous_steady_state(
    protocol: ReplicaControlProtocol,
    failure_rates: Mapping[SiteId, float],
    repair_rates: Mapping[SiteId, float],
    max_states: int = 50_000,
    *,
    solver: str = "auto",
) -> dict[Configuration, float]:
    """Exact (site-labelled) stationary distribution under per-site rates.

    Site-labelled state spaces grow exponentially; the solve goes through
    the same routing and guards as every :class:`ChainSpec` solve
    (``auto`` goes sparse above
    :data:`repro.markov.ctmc.SPARSE_THRESHOLD` states, forced ``dense``
    is capped and counted), with the per-site rates as a one-point grid.
    """
    _validate_rates(protocol, failure_rates, repair_rates)
    labels, indexed_arcs, _ = _derive(protocol, None, max_states)
    order = cast(list[Configuration], labels)
    size = len(order)
    name = f"heterogeneous:{protocol.name}[n={protocol.n_sites}]"
    backend = _route(solver, size, 1, name)
    rows, cols, rates = _rated_arcs(order, indexed_arcs, failure_rates, repair_rates)
    pi = _solve_balance(rows, cols, rates[None, :], size, backend, one_point=True)
    return dict(zip(order, pi[0]))


def heterogeneous_availability(
    protocol: ReplicaControlProtocol,
    failure_rates: Mapping[SiteId, float],
    repair_rates: Mapping[SiteId, float],
    max_states: int = 50_000,
) -> float:
    """Site availability under per-site Poisson rates, exactly (float LA).

    Reduces to :func:`repro.markov.availability` when all rates agree
    (validated in the tests).
    """
    pi = heterogeneous_steady_state(
        protocol, failure_rates, repair_rates, max_states
    )
    n = protocol.n_sites
    total = 0.0
    for config, probability in pi.items():
        up, current = config[0], config[1]
        if up and up == current:
            total += probability * len(up) / n
    return total
