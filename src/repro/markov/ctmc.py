"""Continuous-time Markov chains with (lambda, mu)-linear rates.

Every chain in Section VI has transition rates of the form
``a*lambda + b*mu`` with small nonnegative integers *a* and *b* (the number
of sites whose failure/repair triggers the move).  :class:`ChainSpec`
captures exactly that structure, which buys three solution modes from one
description:

* **numeric** -- float steady states (fast; used for curves);
* **exact**   -- ``Fraction`` steady state at a rational ratio ``r=mu/lambda``
  (the paper's "computed exactly using rational arithmetic");
* **symbolic** -- steady state as :class:`RationalFunction` of *r* via
  fraction-free elimination (the paper's Maple ``solve``).

Every float steady state in :mod:`repro.markov` -- one point or a whole
ratio grid, lumped or site-labelled (:mod:`repro.markov.heterogeneous`)
-- is one call of :func:`_solve_balance` on the normalised balance system
``Q^T pi = 0`` with its last row replaced by ``sum(pi) = 1``.  One routing
rule (:func:`_route`) picks the backend: the stacked dense LAPACK solve
for small systems, a SuperLU factorisation per point for large ones.
The exact and symbolic modes assemble the same rows over their own
number types.

The *availability* of a chain is ``sum_s w(s) * pi(s)`` for per-state
weights *w* -- ``k/n`` for the available states with *k* sites up, zero
otherwise (the paper's site measure).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import TypeVar

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from ..errors import ChainError
from ..obs.metrics import global_registry
from ..obs.profile import hotpath
from ..ratfunc import Polynomial, RationalFunction, bareiss_solve, fraction_solve

__all__ = ["Arc", "ChainSpec", "SPARSE_THRESHOLD"]

State = Hashable

#: States above which ``solver="auto"`` routes steady-state solves to the
#: sparse LU backend instead of dense LAPACK (docs/PERFORMANCE.md,
#: "Large-n solvers").
SPARSE_THRESHOLD = 128

#: Dense-work budget for batched grids, in float64 cells of the stacked
#: ``(K, n, n)`` generator tensor.  An "auto" grid goes sparse above this
#: even when the chain itself is under :data:`SPARSE_THRESHOLD`.
_DENSE_GRID_BUDGET = 8_000_000

#: Hard ceiling for materialising a dense generator at all; beyond it the
#: allocation alone is a mistake and only the sparse path makes sense.
_DENSE_MATERIALIZE_LIMIT = 4_096

_SOLVERS = ("auto", "dense", "sparse")

#: Entry type of the exact (``Fraction``) and symbolic (``Polynomial``)
#: balance systems.
_Exact = TypeVar("_Exact", Fraction, Polynomial)


def _route(
    solver: str, size: int, points: int, name: str, *, report_oversize: bool = True
) -> str:
    """The backend (``"dense"`` or ``"sparse"``) for ``points`` solves.

    ``auto`` goes sparse above :data:`SPARSE_THRESHOLD` states, or when
    the stacked dense tensor would exceed the :data:`_DENSE_GRID_BUDGET`
    work budget.  Forcing ``dense`` above the threshold is honoured but
    counted on the ``markov.solve.dense_oversize`` warning counter (when
    ``report_oversize``); past :data:`_DENSE_MATERIALIZE_LIMIT` states it
    raises before anything is allocated.
    """
    if solver not in _SOLVERS:
        raise ChainError(f"unknown solver {solver!r}; expected one of {_SOLVERS}")
    if solver == "auto":
        if size > SPARSE_THRESHOLD or points * size * size > _DENSE_GRID_BUDGET:
            return "sparse"
        return "dense"
    if solver == "dense" and size > SPARSE_THRESHOLD:
        if size > _DENSE_MATERIALIZE_LIMIT:
            raise ChainError(
                f"chain {name!r} has {size} states; dense solves are capped at "
                f"{_DENSE_MATERIALIZE_LIMIT} -- use solver='sparse'"
            )
        registry = global_registry()
        if report_oversize and registry.enabled:
            registry.counter("markov.solve.dense_oversize").inc()
    return solver


def _count_solve(mode: str, size: int, grid_size: int | None = None) -> None:
    """Report one steady-state solve to the global metrics registry.

    ``grid_size`` is the number of ratios solved in one call; it feeds
    the ``markov.solve.grid_size`` histogram, which lets manifests tell
    one 20-point batch from 20 per-point solves.
    """
    registry = global_registry()
    if not registry.enabled:
        return
    registry.counter(f"markov.solve.{mode}").inc()
    if grid_size is not None:
        registry.histogram("markov.solve.grid_size").observe(grid_size)
    registry.histogram("markov.solve.dimension").observe(size)


def _dense_generators(
    rows: np.ndarray, cols: np.ndarray, rates: np.ndarray, size: int
) -> np.ndarray:
    """Stacked ``(K, size, size)`` generators (rows sum to zero).

    Generator *k* carries ``rates[k, e]`` on arc ``rows[e] -> cols[e]``.
    """
    q = np.zeros((rates.shape[0], size, size))
    q[:, rows, cols] = rates
    diagonal = np.arange(size)
    q[:, diagonal, diagonal] = -q.sum(axis=2)
    return q


def _solve_balance(
    rows: np.ndarray,
    cols: np.ndarray,
    rates: np.ndarray,
    size: int,
    solver: str,
    *,
    one_point: bool = False,
) -> np.ndarray:
    """Stationary distributions of K generators sharing one arc pattern.

    ``rates`` is ``(K, E)``: row *k* holds the rate of every arc
    ``rows[e] -> cols[e]`` at point *k*.  Returns ``(K, size)``, row *k*
    solving ``Q_k^T pi = 0`` with the last equation replaced by
    ``sum(pi) = 1``.  ``solver`` is a backend chosen by :func:`_route`:

    * ``"dense"`` -- all K systems in one stacked ``np.linalg.solve``;
    * ``"sparse"`` -- one CSC assembly and SuperLU factorisation per
      point, ordered by minimum degree on ``A + A^T``: every failure arc
      has a repair arc back to a neighbouring configuration, so the
      pattern is nearly symmetric and this ordering fills in less than
      the default COLAMD (up to ~12x faster on site-labelled chains,
      never slower on lumped ones).

    Counts the solve as ``markov.solve.sparse``, or for the dense
    backend ``markov.solve.numeric`` (a ``one_point`` entry) or
    ``markov.solve.batched``, and times it on the hot path of that name.
    """
    points = rates.shape[0]
    mode = "sparse" if solver == "sparse" else "numeric" if one_point else "batched"
    _count_solve(mode, size, None if mode == "numeric" else points)
    if solver == "dense":
        a = _dense_generators(rows, cols, rates, size).transpose(0, 2, 1).copy()
        a[:, -1, :] = 1.0
        b = np.zeros((points, size))
        b[:, -1] = 1.0
        with hotpath(f"markov.solve.{mode}"):
            return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    keep = cols != size - 1
    diagonal = np.arange(size - 1)
    pattern = (
        np.concatenate([cols[keep], diagonal, np.full(size, size - 1)]),
        np.concatenate([rows[keep], diagonal, np.arange(size)]),
    )
    b = np.zeros(size)
    b[-1] = 1.0
    out = np.empty((points, size))
    with hotpath("markov.solve.sparse"):
        for k, arc_rates in enumerate(rates):
            outflow = np.bincount(rows, weights=arc_rates, minlength=size)
            data = np.concatenate([arc_rates[keep], -outflow[:-1], np.ones(size)])
            matrix = scipy.sparse.csc_matrix((data, pattern), shape=(size, size))
            out[k] = scipy.sparse.linalg.spsolve(matrix, b, permc_spec="MMD_AT_PLUS_A")
    return out


@dataclass(frozen=True, slots=True)
class Arc:
    """One transition: rate = ``failures * lambda + repairs * mu``."""

    source: State
    target: State
    failures: int = 0
    repairs: int = 0

    def __post_init__(self) -> None:
        if self.failures < 0 or self.repairs < 0:
            raise ChainError(f"negative rate multiplicity in {self!r}")
        if self.failures == 0 and self.repairs == 0:
            raise ChainError(f"zero-rate arc {self.source!r} -> {self.target!r}")
        if self.source == self.target:
            raise ChainError(f"self-loop at {self.source!r}")


class ChainSpec:
    """A validated CTMC over named states with linear (lambda, mu) rates.

    Arcs sharing (source, target) are merged by summing multiplicities.
    ``weights`` maps each state to its availability weight (a
    :class:`Fraction`); missing states weigh zero.
    """

    def __init__(
        self,
        name: str,
        states: Iterable[State],
        arcs: Iterable[Arc],
        weights: Mapping[State, Fraction],
    ) -> None:
        ordered = tuple(states)
        index = {state: i for i, state in enumerate(ordered)}
        merged: dict[tuple[int, int], tuple[int, int]] = {}
        for arc in arcs:
            if arc.source not in index or arc.target not in index:
                raise ChainError(
                    f"arc {arc.source!r} -> {arc.target!r} references unknown states"
                )
            key = (index[arc.source], index[arc.target])
            failures, repairs = merged.get(key, (0, 0))
            merged[key] = (failures + arc.failures, repairs + arc.repairs)
        self._init(name, ordered, merged, weights)

    @classmethod
    def from_indexed_arcs(
        cls,
        name: str,
        states: Iterable[State],
        indexed_arcs: Mapping[tuple[int, int], tuple[int, int]],
        weights: Mapping[State, Fraction],
    ) -> "ChainSpec":
        """Construct from positionally indexed arcs, no :class:`Arc` objects.

        ``indexed_arcs`` maps ``(source, target)`` state *positions* to
        already-merged ``(failures, repairs)`` multiplicities.  This is the
        streaming build path: :func:`repro.markov.builder.derive_chain`
        accumulates one small integer pair per distinct transition while
        exploring, so n=25-50 chains assemble without ever holding a
        per-transition arc list (docs/PERFORMANCE.md).
        """
        self = cls.__new__(cls)
        self._init(name, tuple(states), indexed_arcs, weights)
        return self

    def _init(
        self,
        name: str,
        states: tuple[State, ...],
        indexed_arcs: Mapping[tuple[int, int], tuple[int, int]],
        weights: Mapping[State, Fraction],
    ) -> None:
        """Validate and store; both constructors end here."""
        self.name = name
        self._states = states
        if len(set(states)) != len(states):
            raise ChainError(f"duplicate states in chain {name!r}")
        if not states:
            raise ChainError(f"chain {name!r} has no states")
        size = len(states)
        arcs: dict[tuple[int, int], tuple[int, int]] = {}
        for (i, j), (f, r) in indexed_arcs.items():
            if not (0 <= i < size and 0 <= j < size):
                raise ChainError(
                    f"arc index ({i}, {j}) out of range for chain {name!r}"
                )
            if i == j:
                raise ChainError(f"self-loop at {states[i]!r}")
            if f < 0 or r < 0:
                raise ChainError(f"negative rate multiplicity on arc ({i}, {j})")
            if f == 0 and r == 0:
                raise ChainError(f"zero-rate arc {states[i]!r} -> {states[j]!r}")
            arcs[(i, j)] = (int(f), int(r))
        self._arcs = arcs
        self._index = {state: i for i, state in enumerate(states)}
        self._weights = {
            state: Fraction(weights.get(state, 0)) for state in self._states
        }
        for state, weight in self._weights.items():
            if weight < 0 or weight > 1:
                raise ChainError(f"weight for {state!r} out of [0, 1]: {weight}")
        self._arc_vectors: tuple[np.ndarray, ...] | None = None
        self._out_adjacency: tuple[tuple[tuple[State, int, int], ...], ...] | None = (
            None
        )
        self._dense_oversize_reported = False
        self._check_connected()

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def states(self) -> tuple[State, ...]:
        """All states, in declaration order."""
        return self._states

    @property
    def size(self) -> int:
        """Number of states."""
        return len(self._states)

    def arcs(self) -> tuple[Arc, ...]:
        """The merged arcs."""
        inverse = {i: s for s, i in self._index.items()}
        return tuple(
            Arc(inverse[i], inverse[j], f, r)
            for (i, j), (f, r) in sorted(self._arcs.items())
        )

    def weight(self, state: State) -> Fraction:
        """Availability weight of a state."""
        return self._weights[state]

    def rate(self, source: State, target: State) -> tuple[int, int]:
        """(failures, repairs) multiplicities of an arc; (0, 0) if absent."""
        key = (self._index[source], self._index[target])
        return self._arcs.get(key, (0, 0))

    def transitions_from(
        self, source: State
    ) -> tuple[tuple[State, int, int], ...]:
        """Outgoing ``(target, failures, repairs)`` arcs of one state.

        Backed by a per-chain adjacency index built once in O(V + E);
        consumers that walk neighbourhoods (the lumping verifier above
        all) iterate this instead of probing :meth:`rate` against every
        state, which was an O(V^2) scan.
        """
        if self._out_adjacency is None:
            adjacency: list[list[tuple[State, int, int]]] = [
                [] for _ in self._states
            ]
            for (i, j), (f, r) in sorted(self._arcs.items()):
                adjacency[i].append((self._states[j], f, r))
            self._out_adjacency = tuple(tuple(out) for out in adjacency)
        return self._out_adjacency[self._index[source]]

    def _check_connected(self) -> None:
        """Verify the digraph is strongly connected (irreducible chain).

        Irreducibility guarantees a unique steady state; the chains of the
        paper are all irreducible for mu > 0.
        """
        size = len(self._states)
        forward: dict[int, set[int]] = {i: set() for i in range(size)}
        backward: dict[int, set[int]] = {i: set() for i in range(size)}
        for (i, j) in self._arcs:
            forward[i].add(j)
            backward[j].add(i)
        for adjacency in (forward, backward):
            seen = {0}
            frontier = [0]
            while frontier:
                node = frontier.pop()
                for nxt in adjacency[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            if len(seen) != size:
                missing = [s for s, i in self._index.items() if i not in seen]
                raise ChainError(
                    f"chain {self.name!r} is not irreducible; unreachable "
                    f"states (one direction): {missing[:5]}"
                )

    # ------------------------------------------------------------------ #
    # Numeric solution
    # ------------------------------------------------------------------ #

    def _arc_index_arrays(self) -> tuple[np.ndarray, ...]:
        """Vectorized arc index: (rows, cols, failures, repairs, weights).

        Built once per chain and cached; the arrays are what lets a whole
        ratio grid's generators be assembled without re-walking the arc
        dictionary per point (docs/PERFORMANCE.md).
        """
        if self._arc_vectors is None:
            keys = sorted(self._arcs)
            rows = np.array([i for i, _ in keys], dtype=np.intp)
            cols = np.array([j for _, j in keys], dtype=np.intp)
            fails = np.array([self._arcs[k][0] for k in keys], dtype=np.float64)
            reps = np.array([self._arcs[k][1] for k in keys], dtype=np.float64)
            weights = np.array(
                [float(self._weights[s]) for s in self._states], dtype=np.float64
            )
            self._arc_vectors = (rows, cols, fails, reps, weights)
        return self._arc_vectors

    def _observe_chain(self) -> None:
        """Record this chain's size gauges on the global metrics registry.

        Chain sizes are recorded at solve time (not at build time) so the
        series do not depend on whether a chain came out of an
        ``lru_cache`` -- solves happen every call, builds do not, and
        manifest determinism relies on that.
        """
        registry = global_registry()
        if registry.enabled:
            scope = registry.scope(f"markov.chain.{self.name}")
            scope.gauge("states").set(self.size)
            scope.gauge("arcs").set(len(self._arcs))

    def generator_matrix(self, lam: float, mu: float) -> np.ndarray:
        """The generator Q (rows sum to zero) at concrete rates."""
        size = len(self._states)
        if size > _DENSE_MATERIALIZE_LIMIT:
            raise ChainError(
                f"chain {self.name!r} has {size} states; a dense generator "
                f"would allocate {size}x{size} floats.  Route through the "
                "sparse backend instead (solver='sparse')."
            )
        rows, cols, fails, reps, _ = self._arc_index_arrays()
        rates = (fails * lam + reps * mu)[None, :]
        return _dense_generators(rows, cols, rates, size)[0]

    def _steady_states(
        self,
        ratios: "np.typing.ArrayLike",
        lam: float,
        solver: str,
        *,
        one_point: bool = False,
    ) -> np.ndarray:
        """``(K, size)`` stationary distributions at ``mu = ratios[k] * lam``.

        The one float entry point: validates the grid, routes it
        (:func:`_route`) and solves it (:func:`_solve_balance`).
        ``one_point`` marks the per-point API, counted as
        ``markov.solve.numeric`` rather than ``markov.solve.batched``.
        """
        grid = np.asarray(ratios, dtype=np.float64)
        if grid.ndim != 1:
            raise ChainError(f"ratio grid must be one-dimensional: {grid.shape}")
        if grid.size == 0:
            raise ChainError("ratio grid is empty")
        if np.any(grid <= 0):
            raise ChainError(f"repair/failure ratios must be positive: {grid.min()}")
        backend = _route(
            solver,
            self.size,
            int(grid.size),
            self.name,
            report_oversize=not self._dense_oversize_reported,
        )
        if solver == "dense":
            # The chain's size never changes, so one oversize report (or
            # none, below the threshold) covers every later forced solve.
            self._dense_oversize_reported = True
        rows, cols, fails, reps, _ = self._arc_index_arrays()
        # rates[k, a] = failures_a * lambda + repairs_a * mu_k
        rates = fails * lam + np.outer(grid * lam, reps)
        pi = _solve_balance(rows, cols, rates, self.size, backend, one_point=one_point)
        self._observe_chain()
        return pi

    def steady_state(
        self, ratio: float, lam: float = 1.0, *, solver: str = "auto"
    ) -> dict[State, float]:
        """Stationary distribution at ``mu = ratio * lam`` (floats).

        The one-point case of :meth:`steady_state_grid`.  ``solver`` is
        ``"dense"`` (LAPACK on the materialised generator), ``"sparse"``
        (sparse LU) or ``"auto"`` (dense below :data:`SPARSE_THRESHOLD`
        states, sparse above -- both solve the identical normalised
        balance system).
        """
        pi = self._steady_states([ratio], lam, solver, one_point=True)[0]
        return dict(zip(self._states, pi))

    def availability(self, ratio: float, *, solver: str = "auto") -> float:
        """Site availability ``sum w(s) pi(s)`` at a float ratio."""
        _, _, _, _, weights = self._arc_index_arrays()
        pi = self._steady_states([ratio], 1.0, solver, one_point=True)[0]
        return float(pi @ weights)

    def steady_state_grid(
        self,
        ratios: "np.typing.ArrayLike",
        lam: float = 1.0,
        *,
        solver: str = "auto",
    ) -> np.ndarray:
        """Stationary distributions at every ratio, one batched solve.

        Returns a ``(K, n)`` array whose row *k* is the stationary
        distribution at ``mu = ratios[k] * lam`` (state order =
        :attr:`states`).  Below the sparse threshold all K balance
        systems go to a single stacked ``np.linalg.solve`` call; each
        slice is the same linear system :meth:`steady_state` solves, so
        the results agree to machine precision.  The paper's Section VI
        curves only need the solves, not the Python loop around them.
        """
        return self._steady_states(ratios, lam, solver)

    def availability_grid(
        self, ratios: "np.typing.ArrayLike", *, solver: str = "auto"
    ) -> np.ndarray:
        """Site availabilities across a ratio grid, one batched solve.

        ``(K,)`` array: the batched counterpart of calling
        :meth:`availability` per point (Section VI's figure curves).
        Large chains (``size > SPARSE_THRESHOLD``) route through the
        sparse backend automatically; ``solver`` forces a backend.
        """
        _, _, _, _, weights = self._arc_index_arrays()
        return self.steady_state_grid(ratios, solver=solver) @ weights

    # ------------------------------------------------------------------ #
    # Exact and symbolic solution
    # ------------------------------------------------------------------ #

    def _balance_system(
        self, rate: Callable[[int, int], _Exact], zero: _Exact, one: _Exact
    ) -> tuple[list[list[_Exact]], list[_Exact]]:
        """The normalised balance system ``(A, b)`` over an exact ring.

        ``rate(failures, repairs)`` builds one arc's rate; ``A`` is the
        transposed generator (column balance equations) with its last row
        replaced by ones, ``b`` the matching unit vector -- the system
        :func:`_solve_balance` solves in floats.
        """
        size = len(self._states)
        a = [[zero] * size for _ in range(size)]
        for (i, j), (f, r) in self._arcs.items():
            value = rate(f, r)
            a[j][i] = a[j][i] + value
            a[i][i] = a[i][i] - value
        a[size - 1] = [one] * size
        b = [zero] * size
        b[-1] = one
        return a, b

    def steady_state_exact(self, ratio: Fraction) -> dict[State, Fraction]:
        """Stationary distribution at a rational ratio, exactly."""
        ratio = Fraction(ratio)
        if ratio <= 0:
            raise ChainError(f"repair/failure ratio must be positive: {ratio}")
        _count_solve("exact", self.size)
        self._observe_chain()
        a, b = self._balance_system(
            lambda f, r: Fraction(f) + Fraction(r) * ratio, Fraction(0), Fraction(1)
        )
        return dict(zip(self._states, fraction_solve(a, b)))

    def availability_exact(self, ratio: Fraction) -> Fraction:
        """Site availability at a rational ratio, exactly."""
        pi = self.steady_state_exact(Fraction(ratio))
        return sum(
            (self._weights[s] * p for s, p in pi.items()), start=Fraction(0)
        )

    def steady_state_symbolic(self) -> dict[State, RationalFunction]:
        """Stationary distribution as rational functions of r = mu/lambda.

        The balance equations are assembled with lambda = 1 and mu = r
        (availability depends on the rates only through their ratio) and
        solved by fraction-free elimination.
        """
        _count_solve("symbolic", self.size)
        self._observe_chain()
        a, b = self._balance_system(
            Polynomial.linear, Polynomial(), Polynomial.constant(1)
        )
        return dict(zip(self._states, bareiss_solve(a, b)))

    def availability_symbolic(self) -> RationalFunction:
        """Site availability as an exact rational function of r."""
        pi = self.steady_state_symbolic()
        total = RationalFunction(Polynomial())
        for state, probability in pi.items():
            weight = self._weights[state]
            if weight:
                total = total + probability * RationalFunction.constant(weight)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChainSpec {self.name!r}: {self.size} states, {len(self._arcs)} arcs>"
