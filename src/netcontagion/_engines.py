"""The exact incentive engine behind the contagion algorithms.

``ExactEngine`` maintains an evolving deviating set and answers, for the
current set, which outsiders have the incentive at a given q and what the
exact largest outsider switch threshold is.  It holds the deviation
condition of every player ``i``,

    c * s_i  >=  q * (c * w_i - phi_i(o_i / pool_i)),

as one pair of integers ``num_i / den_i`` equal to the switch threshold
``c*s_i / (c*w_i - phi_i)``.  Here ``o_i`` counts the infected
non-neighbours of ``i`` and ``pool_i`` its non-neighbours (the share is 0
on an empty pool, where ``o_i`` is 0 too; ``pe_i = max(pool_i, 1)``).
Row ``i`` of the weights is scaled by the LCM ``L_i`` of its denominators,
giving integer weights, their sum ``W_i = L_i*w_i`` and the support
``S_i = L_i*s_i``; then

    num_i = M_i * S_i,        den_i = M_i * W_i - a_i * g_i

with, for a parametric effect ``phi = alpha*c*d_i*p`` (``alpha = an/ad``),
``M_i = ad*pe_i`` (1 when alpha is 0), ``a_i = an*L_i*d_i`` and
``g_i = o_i``; and for a tabular effect (``c = cn/cd``, table values over
their common denominator ``D_i``) ``M_i = D_i*cn``, ``a_i = L_i*cd`` and
``g_i`` the numerator of the current step value.  The step is found from integer breakpoints
``ceil(bp*pe_i)`` on ``o_i``; as ``o_i`` never decreases within a search, a
per-player step pointer only moves forward.

A player deviates at ``q = qn/qd`` iff ``num_i*qd >= qn*den_i``.  Both
``num_i`` and ``den_i`` lie in ``[0, B]`` with ``B = max_i M_i*W_i``, a
static bound, so each comparison is decided in int64 when its products fit
and otherwise in Python ints (object arrays, the same expressions), which
is logged once per engine at DEBUG.  The integer tables are built lazily,
once per (network, weights, global effect, c).
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvariantViolationError
from .game import GameConfig, InfluenceWeights, ParametricGlobalEffect
from .graphs import Network

_log = logging.getLogger(__name__)

_INT64_LIMIT = 2**63

# Tables built from immutable inputs, keyed by the identity of those inputs
# and dropped when any of them is garbage collected.
_CACHE: dict[tuple, object] = {}


def _memo(build, objs: tuple, extra: tuple = ()):
    key = (build, *map(id, objs), *extra)
    value = _CACHE.get(key)
    if value is None:
        value = _CACHE[key] = build(*objs, *extra)
        for obj in objs:
            weakref.finalize(obj, _CACHE.pop, key, None)
    return value


@dataclass(frozen=True)
class _WeightTables:
    L: np.ndarray           # row LCMs (object)
    W: np.ndarray           # scaled row sums (object)
    in_weights: np.ndarray | None  # per CSR slot (j, nb): L_nb * w[nb][j]; None if unit


def _weight_tables(net: Network, weights: InfluenceWeights) -> _WeightTables:
    deg = np.diff(net.csr[0])
    if weights.is_unit:
        return _WeightTables(np.ones(len(deg), dtype=object), deg.astype(object), None)
    L = [math.lcm(*(w.denominator for w in weights.row(i).values()))
         for i in range(net.node_count)]
    W = [int(weights.row_sum(i) * L[i]) for i in range(net.node_count)]
    in_weights = []
    for j, nbrs in enumerate(net.adjacency):
        for nb in nbrs:
            w = weights.weight(nb, j)
            in_weights.append(w.numerator * (L[nb] // w.denominator))
    # Supports accumulate up to W_i, so W decides the dtype of the weights.
    dtype = np.int64 if max(W) < _INT64_LIMIT else object
    return _WeightTables(np.array(L, dtype=object), np.array(W, dtype=object),
                         np.array(in_weights, dtype=dtype))


@dataclass(frozen=True)
class _Steps:
    thresholds: np.ndarray  # o_i at which each step starts; n+1 ends a table
    values: np.ndarray      # step value numerators g over D_i
    first: np.ndarray       # index of each player's first step


@dataclass(frozen=True)
class _Tables:
    indptr: np.ndarray
    indices: np.ndarray
    in_weights: np.ndarray | None
    M: np.ndarray
    MW: np.ndarray
    a: np.ndarray
    steps: _Steps | None    # None for a parametric effect
    bound: int              # max M_i*W_i, bounding every num_i and den_i


def _tables(net: Network, weights: InfluenceWeights, effect, c: Fraction) -> _Tables:
    n = net.node_count
    indptr, indices = net.csr
    deg = np.diff(indptr)
    pe = np.maximum(n - 1 - deg, 1).astype(object)
    wt = _memo(_weight_tables, (net, weights))
    steps = None
    if isinstance(effect, ParametricGlobalEffect):
        an, ad = effect.alpha.numerator, effect.alpha.denominator
        M = ad * pe if an else np.ones(n, dtype=object)
        a = an * wt.L * deg.astype(object)
    else:
        D, thresholds, values, first = [], [], [], []
        for i, table in enumerate(effect.tables):
            D.append(math.lcm(*(v.denominator for _, v in table)))
            first.append(len(thresholds))
            thresholds.extend(math.ceil(bp * pe[i]) for bp, _ in table)
            values.extend(int(v * D[i]) for _, v in table)
            thresholds.append(n + 1)
            values.append(0)
        M = np.array(D, dtype=object) * c.numerator
        a = wt.L * c.denominator
        steps = _Steps(np.array(thresholds, dtype=np.int64), np.array(values, dtype=object),
                       np.array(first, dtype=np.int64))
    MW = M * wt.W
    bound = int(MW.max())
    if bound < _INT64_LIMIT:
        M, MW, a = M.astype(np.int64), MW.astype(np.int64), a.astype(np.int64)
        if steps is not None:
            steps = _Steps(steps.thresholds, steps.values.astype(np.int64), steps.first)
    return _Tables(indptr, indices, wt.in_weights, M, MW, a, steps, bound)


class ExactEngine:
    """Vectorized exact engine for every configuration (see module docstring)."""

    def __init__(self, cfg: GameConfig):
        self.n = cfg.network.node_count
        self.tables = _memo(_tables, (cfg.network, cfg.weights, cfg.global_effect), (cfg.c,))
        self._logged_python_ints = False

    def start(self, initial: frozenset[int]):
        t = self.tables
        self.outside = np.ones(self.n, dtype=bool)
        self.K = 0
        self.k = np.zeros(self.n, dtype=np.int64)
        self.S = self.k if t.in_weights is None else np.zeros(self.n, dtype=t.in_weights.dtype)
        if t.steps is not None:
            self.ptr = t.steps.first.copy()
        self._add(np.fromiter(initial, dtype=np.int64, count=len(initial)))

    def uninfected_count(self) -> int:
        return self.n - self.K

    def infected_set(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(~self.outside).tolist())

    def _add(self, players: np.ndarray) -> None:
        t = self.tables
        self.outside[players] = False
        self.K += len(players)
        # CSR slots of every neighbour of every added player.
        starts = t.indptr[players]
        lens = t.indptr[players + 1] - starts
        slots = np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())
        nbrs = t.indices[slots]
        self.k += np.bincount(nbrs, minlength=self.n)
        if self.S is not self.k:
            np.add.at(self.S, nbrs, t.in_weights[slots])
        if t.steps is not None:
            o = self._outside_counts()
            while True:
                move = t.steps.thresholds[self.ptr + 1] <= o
                if not move.any():
                    break
                self.ptr += move

    def _outside_counts(self) -> np.ndarray:
        # Infected non-neighbours; an infected player does not count itself.
        return (self.K - 1) - self.k + self.outside

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        t = self.tables
        g = self._outside_counts() if t.steps is None else t.steps.values[self.ptr]
        return t.M * self.S, t.MW - t.a * g

    def _python_ints(self, *arrays: np.ndarray) -> list[np.ndarray]:
        if not self._logged_python_ints:
            self._logged_python_ints = True
            _log.debug("products exceed int64 (bound %d, n=%d); deciding in Python ints",
                       self.tables.bound, self.n)
        return [arr.astype(object) for arr in arrays]

    def flip_candidates(self, q: Fraction) -> np.ndarray:
        qn, qd = q.numerator, q.denominator
        num, den = self._pairs()
        if max(qn, qd) * self.tables.bound >= _INT64_LIMIT:
            num, den = self._python_ints(num, den)
        return np.flatnonzero((num * qd >= qn * den) & self.outside)

    def apply(self, flips: np.ndarray) -> None:
        self._add(np.asarray(flips, dtype=np.int64))

    def max_threshold(self) -> tuple[Fraction, list[int]]:
        """Exact max of num_i/den_i over outsiders, with attainers ascending."""
        rows = np.flatnonzero(self.outside)
        if len(rows) == 0:
            raise InvariantViolationError("no outsiders left to compute a threshold")
        num, den = self._pairs()
        num, den = num[rows], den[rows]
        if (den <= 0).any():
            bad = int(rows[int(np.argmax(den <= 0))])
            raise InvariantViolationError(
                f"player {bad} has nonpositive threshold denominator while "
                f"still outside the set")
        if self.tables.bound**2 >= _INT64_LIMIT:
            num, den = self._python_ints(num, den)
        # Float argmax only seeds the search; ordering is settled exactly.
        best = int(np.argmax(num / den))
        for j in np.flatnonzero(num * den[best] > num[best] * den).tolist():
            if num[j] * den[best] > num[best] * den[j]:
                best = j
        ties = num * den[best] == num[best] * den
        return Fraction(int(num[best]), int(den[best])), rows[ties].tolist()
