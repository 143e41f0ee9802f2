"""The exact incentive engine behind the contagion algorithms.

``ExactEngine`` advances a batch of deviating sets in one game.  Each batch
row is one starting set; every row shares the game's integer tables, and
the rows' states (who is outside, supports, infected non-neighbours, step
pointers) are ``(rows, n)`` arrays.  For each live row the engine answers
which players deviate at that row's q, and what the exact largest outsider
switch threshold is.  It holds the deviation condition of every player ``i``,

    c * s_i  >=  q * (c * w_i - phi_i(o_i / pool_i)),

as one pair of integers ``num_i / den_i`` equal to the switch threshold
``c*s_i / (c*w_i - phi_i)``.  Here ``o_i`` counts the other infected
non-neighbours of ``i`` and ``pool_i`` its non-neighbours (the share is 0
on an empty pool, where ``o_i`` is 0 too; ``pe_i = max(pool_i, 1)``).
The weights of player ``i`` are scaled by the LCM ``L_i`` of their
denominators, giving integer weights, their sum ``W_i = L_i*w_i`` and the
support ``S_i = L_i*s_i``; then

    num_i = M_i * S_i,        den_i = M_i * W_i - a_i * g_i

with, for a parametric effect ``phi = alpha*c*d_i*p`` (``alpha = an/ad``),
``M_i = ad*pe_i`` (1 when alpha is 0), ``a_i = an*L_i*d_i`` and
``g_i = o_i``; and for a tabular effect (``c = cn/cd``, table values over
their common denominator ``D_i``) ``M_i = D_i*cn``, ``a_i = L_i*cd`` and
``g_i`` the numerator of the current step value.  The step is found from
integer breakpoints ``ceil(bp*pe_i)`` on ``o_i``; as ``o_i`` never
decreases within a search, a per-player step pointer only moves forward.

The rows advance together.  ``deviating`` evaluates every player of every
live row at that row's q; ``flip_candidates`` keeps its deviating outsiders
as flat ids ``position * n + player``, which ``apply`` infects.  A row
whose set fills the network is retired: its state is dropped, so later
waves do not scan it, and the live rows after it move up one position.
``max_threshold`` serves the rows that end a stage: a float argmax per row
only seeds the search, and exact comparisons, vectorized across the rows,
settle each row's max and its lowest-indexed attainer, returned as integer
arrays.  A single row is the case that ``cascade``,
``full_contagion_threshold`` and ``is_nash`` run.

A player deviates at ``q = qn/qd`` iff ``num_i*qd >= qn*den_i``.  Both
``num_i`` and ``den_i`` lie in ``[0, B]`` with ``B = max_i M_i*W_i``, a
static bound (building the tables enforces ``phi_i <= c*w_i`` as
``den_i >= 0`` at the largest ``g_i``: ``pe_i``, even on an empty pool, or
the last table value), so a call is decided in int64 when its products fit for
every live row (``max(qn, qd)*B < 2^63``; ``B^2 < 2^63`` for the max) and
otherwise in Python ints (object arrays, the same expressions), which is
logged once per engine at DEBUG.  The integer tables are built lazily,
once per (network, weights, global effect, c).
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantViolationError, ParameterError
from .game import GameConfig, InfluenceWeights, ParametricGlobalEffect
from .graphs import Network

_log = logging.getLogger(__name__)

_INT64_LIMIT = 2**63
# CSR slots that one piece of ``ExactEngine._add`` expands at most, which
# bounds its scratch arrays whatever the batch size.
_SLOTS = 2**14

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
    degree: np.ndarray
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
        top = pe
    else:
        D, thresholds, values, first, top = [], [], [], [], []
        for i, table in enumerate(effect.tables):
            D.append(math.lcm(*(v.denominator for _, v in table)))
            first.append(len(thresholds))
            thresholds.extend(math.ceil(bp * pe[i]) for bp, _ in table)
            values.extend(int(v * D[i]) for _, v in table)
            top.append(values[-1])
            thresholds.append(n + 1)
            values.append(0)
        M = np.array(D, dtype=object) * c.numerator
        a = wt.L * c.denominator
        steps = _Steps(np.array(thresholds, dtype=np.int64), np.array(values, dtype=object),
                       np.array(first, dtype=np.int64))
    MW = M * wt.W
    over = np.flatnonzero(MW < a * np.array(top, dtype=object))  # den_i < 0 at the largest g_i
    if len(over):
        raise ParameterError(f"global effect of player {over[0]} exceeds "
                             f"c*w_i = {c * weights.row_sum(over[0])}")
    bound = int(MW.max())
    if bound < _INT64_LIMIT:
        M, MW, a = M.astype(np.int64), MW.astype(np.int64), a.astype(np.int64)
        if steps is not None:
            steps = _Steps(steps.thresholds, steps.values.astype(np.int64), steps.first)
    # Shaped as one row, so one-row states combine with them without broadcasting.
    M, MW, a = M.reshape(1, n), MW.reshape(1, n), a.reshape(1, n)
    return _Tables(indptr, deg, indices, wt.in_weights, M, MW, a, steps, bound)


class ExactEngine:
    """Row-batched exact engine for every configuration (see module docstring).

    ``start`` numbers its initial sets as batch rows ``0..R-1``.  ``live``
    lists the batch rows that still have outsiders, ascending, and ``K``
    their infected counts; a live row's index in ``live`` is its position,
    which indexes the rows of ``deviating``'s answer and the flat ids
    ``position * n + player`` of flips, until ``apply`` retires rows.  A
    batch may hold a hundred rows or more (the Monte Carlo sweep batches
    several set sizes), so the per-row bookkeeping is in arrays too, and
    ``_add`` expands the added players' CSR slots in pieces of at most ``_SLOTS``.
    """

    def __init__(self, cfg: GameConfig):
        self.n = cfg.network.node_count
        self.tables = _memo(_tables, (cfg.network, cfg.weights, cfg.global_effect), (cfg.c,))
        self._logged_python_ints = False

    def start(self, initials: Sequence[Iterable[int]]) -> list[int]:
        """One batch row per initial set (a collection of players, or an
        int64 array of distinct players); return the rows that start full."""
        t, n, rows = self.tables, self.n, len(initials)
        self.live = np.arange(rows)
        self.K = np.zeros(rows, dtype=np.int64)
        self.outside = np.ones((rows, n), dtype=bool)
        # Supports: infected neighbours, or their integer weights.
        self.S = np.zeros((rows, n), dtype=np.int64 if t.in_weights is None
                          else t.in_weights.dtype)
        # K minus infected neighbours and self: the infected non-neighbours.
        self.o = np.zeros((rows, n), dtype=np.int64)
        if t.steps is not None:
            self.ptr = np.tile(t.steps.first, (rows, 1))
        # deviating's pairs and products, for int64 tables: allocated
        # once per search, as arrays this large allocated anew on every step
        # cost more in page faults than in arithmetic.
        self._work = np.empty((4, rows, n), dtype=np.int64) if t.bound < _INT64_LIMIT else None
        return self._add(np.concatenate([
            r * n + (initial if isinstance(initial, np.ndarray)
                     else np.fromiter(initial, dtype=np.int64, count=len(initial)))
            for r, initial in enumerate(initials)]))

    def uninfected_count(self) -> int:
        """Outsiders summed over the live rows."""
        return int(self.n * len(self.K) - self.K.sum())

    def infected_set(self, row: int = 0) -> frozenset[int]:
        at = np.flatnonzero(self.live == row)
        if not len(at):  # retired rows are full
            return frozenset(range(self.n))
        return frozenset(np.flatnonzero(~self.outside[at[0]]).tolist())

    def _add(self, flips: np.ndarray) -> list[int]:
        """Infect the flat ids; return the batch rows this filled, now retired."""
        t, n = self.tables, self.n
        self._evaluated = None
        if len(self.K) == 1:  # one live row: the flat ids are its players
            players, base, added = flips, None, len(flips)
        else:
            pos, players = np.divmod(flips, n)
            base, added = flips - players, np.bincount(pos, minlength=len(self.K))
        self.K += added
        self.outside.reshape(-1)[flips] = False
        self.o += added if base is None else added[:, None]
        S, o = self.S.reshape(-1), self.o.reshape(-1)
        o[flips] -= 1
        # The CSR slots of the added players' neighbours, in pieces of at
        # most _SLOTS; the updates are sums, so pieces may go in any order.
        starts, lens = t.indptr[players], t.degree[players]
        ends = np.cumsum(lens)
        begins = ends - lens
        total = int(ends[-1]) if len(ends) else 0
        for lo in range(0, total, _SLOTS):
            hi = min(lo + _SLOTS, total)
            if hi - lo == total:
                a, b, counts = 0, len(players), lens
            else:  # the players whose slots overlap [lo, hi), clipped to it
                a, b = np.searchsorted(ends, lo, "right"), np.searchsorted(begins, hi)
                counts = np.minimum(ends[a:b], hi) - np.maximum(begins[a:b], lo)
            slots = np.repeat(starts[a:b] - begins[a:b], counts) + np.arange(lo, hi)
            # Each neighbour's index in the window of state rows the piece
            # touches: flips come row by row, so rows first..last.
            targets, window = t.indices[slots], slice(0, n)
            if base is not None:
                first, last = int(base[a]), int(base[b - 1])
                targets += np.repeat(base[a:b] - first, counts)
                window = slice(first, last + n)
            gained = np.bincount(targets, minlength=window.stop - window.start)
            if t.in_weights is None:
                S[window] += gained
            else:
                np.add.at(S[window], targets, t.in_weights[slots])
            o[window] -= gained
        if t.steps is not None:
            while True:
                move = t.steps.thresholds[self.ptr + 1] <= self.o
                if not move.any():
                    break
                self.ptr += move
        return self._retire() if (self.K == n).any() else []

    def _retire(self) -> list[int]:
        """Drop the full rows, so later waves do not scan them."""
        keep = self.K < self.n
        filled = self.live[~keep].tolist()
        self.live, self.K = self.live[keep], self.K[keep]
        self.outside, self.S, self.o = self.outside[keep], self.S[keep], self.o[keep]
        if self.tables.steps is not None:
            self.ptr = self.ptr[keep]
        return filled

    def _pairs(self, pos=slice(None), out=None) -> tuple[np.ndarray, np.ndarray]:
        t = self.tables
        g = self.o[pos] if t.steps is None else t.steps.values[self.ptr[pos]]
        if out is None:
            return t.M * self.S[pos], t.MW - t.a * g
        num, den = out
        np.multiply(t.M, self.S[pos], out=num)
        np.subtract(t.MW, np.multiply(t.a, g, out=den), out=den)
        return num, den

    def _python_ints(self, *arrays: np.ndarray) -> list[np.ndarray]:
        if not self._logged_python_ints:
            self._logged_python_ints = True
            _log.debug("products exceed int64 (bound %d, n=%d); deciding in Python ints",
                       self.tables.bound, self.n)
        return [arr.astype(object) for arr in arrays]

    def deviating(self, q: Sequence[Fraction] | np.ndarray) -> np.ndarray:
        """A ``(live rows, n)`` bool array: whether each player deviates at ``q[row]``.

        ``q`` holds a Fraction per batch row, or is the ``(rows, 2)`` array
        of their numerators and denominators, which a caller that evaluates
        many rows keeps to skip the per-row conversion: int64 while they fit,
        as they do for any q of tables with ``B < 2^63``, else objects.
        """
        rows = len(self.live)
        if rows == 1:  # plain ints: array calls would cost more than the row
            row = q[self.live[0]]
            qn, qd = row.as_integer_ratio() if isinstance(row, Fraction) else map(int, row)
            top = max(qn, qd)
        else:
            qs = q[self.live] if isinstance(q, np.ndarray) else np.array(
                [(q[r].numerator, q[r].denominator) for r in self.live], dtype=object)
            qs = qs.reshape(-1, 2)
            top = int(qs.max(initial=0))
        # Tables beyond int64 (no work arrays) make every call Python ints.
        work = None if self._work is None else self._work[:, :rows]
        python_ints = work is None or top * self.tables.bound >= _INT64_LIMIT
        num, den = self._evaluated = self._pairs(out=None if work is None else work[:2])
        if rows != 1:
            qs = qs.astype(object if python_ints else np.int64, copy=False)
            qn, qd = qs[:, :1], qs[:, 1:]
        if python_ints:
            num, den = self._python_ints(num, den)
            lhs, rhs = num * qd, qn * den
        else:
            lhs = np.multiply(num, qd, out=work[2])
            rhs = np.multiply(den, qn, out=work[3])
        return lhs >= rhs

    def flip_candidates(self, q: Sequence[Fraction] | np.ndarray) -> np.ndarray:
        """Flat ids of the outsiders that deviate, at ``q[row]`` in each live row."""
        return np.flatnonzero(self.deviating(q) & self.outside)

    def apply(self, flips: np.ndarray) -> list[int]:
        """Infect the flips, row by row as ``flip_candidates`` gives them;
        return the batch rows they filled."""
        return self._add(np.asarray(flips, dtype=np.int64))

    def max_threshold(self, positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray,
                                                               np.ndarray]:
        """Exact max of num_i/den_i over the outsiders of each live row at
        the given ascending positions, with its lowest-indexed attainer.

        Returns three arrays over the positions: the max's numerator and
        denominator as the engine holds them (not reduced; int64 when
        ``B^2 < 2^63``, else Python ints) and the attainer.
        """
        pos = slice(None) if len(positions) == len(self.K) else positions
        # The pairs of the last deviating call hold until the next _add.
        num, den = (self._pairs(pos) if self._evaluated is None
                    else (self._evaluated[0][pos], self._evaluated[1][pos]))
        # Insiders become -1/1, below every outsider's num/den >= 0.
        outside = self.outside[pos]
        num, den = np.where(outside, num, -1), np.where(outside, den, 1)
        if (den <= 0).any():
            raise InvariantViolationError(
                f"player {int(np.argmax(den <= 0) % self.n)} has nonpositive threshold "
                f"denominator while still outside the set")
        if self.tables.bound**2 >= _INT64_LIMIT:
            num, den = self._python_ints(num, den)
        # The float argmax only seeds each row; the order is settled exactly,
        # moving to a strictly larger player until none is left.
        at = np.arange(len(positions))
        best = np.argmax(num / den, axis=1)
        while True:
            nb, db = num[at, best], den[at, best]
            lhs, rhs = num * db[:, None], nb[:, None] * den
            beaten = lhs > rhs
            if not beaten.any():
                break
            best = np.where(beaten.any(axis=1), np.argmax(beaten, axis=1), best)
        return nb, db, np.argmax(lhs == rhs, axis=1)
