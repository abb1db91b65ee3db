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
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import cast

import numpy as np

from ..core.base import ReplicaControlProtocol
from ..errors import ChainError
from ..obs.metrics import global_registry
from ..types import SiteId
from .builder import Configuration, _derive
from .ctmc import SPARSE_THRESHOLD

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
) -> list[tuple[int, int, float]]:
    """``(source, target, rate)`` per arc of the site-labelled chain.

    Each arc toggles exactly one site, ``up_i ^ up_j``: a failure when
    that site was up in the source, a repair otherwise.
    """
    rated: list[tuple[int, int, float]] = []
    for (i, j), (failures, _) in arcs.items():
        (site,) = states[i][0] ^ states[j][0]
        rate = failure_rates[site] if failures else repair_rates[site]
        rated.append((i, j, rate))
    return rated


def heterogeneous_steady_state(
    protocol: ReplicaControlProtocol,
    failure_rates: Mapping[SiteId, float],
    repair_rates: Mapping[SiteId, float],
    max_states: int = 50_000,
    *,
    solver: str = "auto",
) -> dict[Configuration, float]:
    """Exact (site-labelled) stationary distribution under per-site rates.

    Site-labelled state spaces grow exponentially, so ``auto`` routes
    chains above :data:`repro.markov.ctmc.SPARSE_THRESHOLD` states
    through a scipy.sparse assembly + LU instead of materialising the
    dense generator (same normalised balance system either way).
    """
    if solver not in ("auto", "dense", "sparse"):
        raise ChainError(f"unknown solver {solver!r}")
    _validate_rates(protocol, failure_rates, repair_rates)
    labels, indexed_arcs, _ = _derive(protocol, None, max_states)
    order = cast(list[Configuration], labels)
    size = len(order)
    arcs = _rated_arcs(order, indexed_arcs, failure_rates, repair_rates)
    if solver == "sparse" or (solver == "auto" and size > SPARSE_THRESHOLD):
        pi = _sparse_solve(arcs, size)
        return dict(zip(order, pi))
    q = np.zeros((size, size))
    for i, j, rate in arcs:
        q[i, j] += rate
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(size)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    return dict(zip(order, pi))


def _sparse_solve(arcs: list[tuple[int, int, float]], size: int) -> np.ndarray:
    """Assemble the normalised balance system sparsely and LU-solve it."""
    import scipy.sparse
    import scipy.sparse.linalg

    outflow = np.zeros(size)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i, j, rate in arcs:
        outflow[i] += rate
        if j != size - 1:
            rows.append(j)
            cols.append(i)
            data.append(rate)
    for i in range(size - 1):
        rows.append(i)
        cols.append(i)
        data.append(-outflow[i])
    rows.extend([size - 1] * size)
    cols.extend(range(size))
    data.extend([1.0] * size)
    registry = global_registry()
    if registry.enabled:
        registry.counter("markov.solve.sparse").inc()
        registry.histogram("markov.solve.dimension").observe(size)
    matrix = scipy.sparse.csc_matrix(
        (np.asarray(data), (rows, cols)), shape=(size, size)
    )
    b = np.zeros(size)
    b[-1] = 1.0
    # Minimum degree on A + A^T: every failure arc has a repair arc back
    # to a neighbouring configuration, so the pattern is nearly symmetric
    # and this ordering fills in far less than COLAMD (n=7-8 site-labelled
    # chains factor 1.5-12x faster, whatever order the states come in).
    return scipy.sparse.linalg.spsolve(matrix, b, permc_spec="MMD_AT_PLUS_A")


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
