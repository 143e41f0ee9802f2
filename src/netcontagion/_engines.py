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

The rows advance together.  ``start`` builds each row from its smaller
side: a set of at most n/2 players expands its own CSR slots, and a larger
one starts full and subtracts its complement's (``k_i = d_i - k'_i`` and
``S_i = W_i - S'_i``, with ``k`` the infected-neighbour counts), so a start
touches at most half of each row's slots.  ``o_i = K - k_i - [i inside]``
then follows in one array pass, and tabular step pointers advance once.
The start state depends only on the network, the weights and the sets, so
searches that differ only in their global effect or c can share it through a
``StartSnapshot``, which every start fills or copies.  q enters as integer
pairs only.  ``deviating`` evaluates every player of every live row at
that row's q; ``flip_candidates`` keeps its deviating outsiders as flat ids
``position * n + player``, which ``apply`` infects.  A row whose set fills
the network is retired: its state is dropped, so later waves do not scan it,
and the live rows after it move up one position.  Without a global term
(a parametric effect with alpha 0, where every ``a_i`` is 0 and ``M_i`` is
1) the engine holds no ``o``: ``num`` is ``S`` itself and ``den`` the
constant ``MW``, so each step compares the state against one row of
constants.  ``max_threshold`` serves the rows that end a stage, with each
row's max and its lowest-indexed attainer returned as integer arrays,
from the pairs of the last ``deviating`` call.  ``is_nash`` runs a single
row, as does the staged search of ``cascade`` and ``full_contagion_threshold``.

A player deviates at ``q = qn/qd`` iff ``num_i*qd >= qn*den_i``.  Both
``num_i`` and ``den_i`` lie in ``[0, B]`` with ``B = max_i M_i*W_i``, a
static bound (building the tables enforces ``phi_i <= c*w_i`` as
``den_i >= 0`` at the largest ``g_i``: ``pe_i``, even on an empty pool, or
the last table value).  The engine works in one of three tiers:

- int32 when ``B^2 < 2^31`` (and ``n < 2^31``): ``M``, ``MW``, ``a``, the
  step values, ``W``, the degrees, the supports ``S``, the counts ``k`` and
  ``o`` and the work arrays are int32.  Every value they hold lies in
  ``[0, B]`` or in ``[0, n]``, so none can wrap; products are formed in
  the tier each call picks (below).
- int64 when ``B < 2^63``: the same arrays are int64.
- Python ints (object arrays) beyond that.

A call to ``deviating`` is decided in the tables' dtype when its products
fit it (``max(qn, qd)*B < 2^31`` for int32 tables), else in int64 when
``max(qn, qd)*B < 2^63``, else in Python ints (object arrays, the same
expressions), which is logged once per engine at DEBUG.  The staged search's
q pairs are stage maxima, pairs of at most B, so its calls never leave the
tables' tier; a cascade's fixed q or ``is_nash``'s q with large terms may.
Every mixed-dtype step casts explicitly, since a value cast into a
narrower ``out=`` array wraps silently on numpy versions before 2.
The weights and a tabular effect arrive in integer form (the weights'
``L_i``, ``W_i`` and cached mirrored in-weights, the effect's ``steps``);
``GameConfig`` builds the rest of the tables once and holds them, computing
them in int64 where their factors' maxima allow and in Python ints beyond.

The max is exact in floats when ``B^2 < 2^50``.  Two distinct ratios
``a/b > c/d`` of integers in ``[0, B]`` differ by a relative
``(ad - bc)/(ad) >= 1/(ad) >= 1/B^2 > 2^-50``, while the float quotient of
integers below ``2^53`` is off by a relative ``2^-53`` at most; so the
quotients keep every strict order, equal ratios give equal quotients, and
``np.argmax`` returns the max and its lowest attainer.  Larger bounds seed
each row with the float argmax and settle it by exact cross products (int64
while ``B^2 < 2^63``, else Python ints), moving to a strictly larger player
until none is left.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvariantViolationError, ParameterError
from .game import GameConfig, ParametricGlobalEffect

_log = logging.getLogger(__name__)

_INT32_LIMIT = 2**31
_INT64_LIMIT = 2**63
# Tables with B^2 below this take max_threshold's float argmax as exact.
_FLOAT_EXACT = 2**50
# CSR slots that one piece of ``ExactEngine._pieces`` expands at most, which
# bounds the scratch arrays of a start or an apply whatever the batch size.
_SLOTS = 2**14

@dataclass(frozen=True)
class _Tables:
    indptr: np.ndarray
    degree: np.ndarray      # in the dtype of the counts k and o
    indices: np.ndarray
    in_weights: np.ndarray | None
    W: np.ndarray           # row sums W_i, in the supports' dtype
    M: np.ndarray           # M, MW, a and values in the tier's dtype
    MW: np.ndarray
    a: np.ndarray | None    # None without a global term (alpha = 0), where M_i = 1
    thresholds: np.ndarray | None  # o_i at which each step starts; n+1 ends a table
    values: np.ndarray | None      # step value numerators g over D_i
    first: np.ndarray | None       # each player's first step (all three None: parametric)
    bound: int              # max M_i*W_i, bounding every num_i and den_i


def _product(*factors) -> np.ndarray:
    """The elementwise product of nonnegative integer arrays and ints: in
    int64 when the product of the factors' maxima fits, else in Python ints."""
    tops = [int(f.max(initial=0)) if isinstance(f, np.ndarray) else f for f in factors]
    dtype = np.int64 if math.prod(max(top, 1) for top in tops) < _INT64_LIMIT else object
    out = 1
    for f in factors:
        out = out * (f.astype(dtype, copy=False) if isinstance(f, np.ndarray) else f)
    return out


def _tables(cfg: GameConfig) -> _Tables:
    n, weights, effect, c = cfg.network.node_count, cfg.weights, cfg.global_effect, cfg.c
    indptr, indices = cfg.network.csr
    deg = np.diff(indptr)
    pe = np.maximum(n - 1 - deg, 1)
    L = np.ones(n, dtype=np.int64) if weights.is_unit else weights.L  # objects: Python ints
    thresholds, values, first = None, None, None
    if isinstance(effect, ParametricGlobalEffect):
        an, ad = effect.alpha.numerator, effect.alpha.denominator
        M = _product(ad, pe) if an else np.ones(n, dtype=np.int64)
        a = _product(an, L, deg) if an else None
        top = pe
    else:
        st = effect.steps
        if len(st.count) != n:
            raise ParameterError("one global-effect table per player is required")
        last = np.cumsum(st.count + 1) - 1  # each player's steps, then its sentinel
        first = last - st.count
        step = np.repeat(st.first - first, st.count + 1) + np.arange(last[-1] + 1)
        step[last] = 0  # a (0, 0) step, so a sentinel's value is 0
        # ceil(bp * pe_i), in int64 where the effect holds its breakpoints so.
        thresholds = -(-st.bp_num[step] * np.repeat(pe, st.count + 1) // st.bp_den[step])
        thresholds = thresholds.astype(np.int64)
        thresholds[last] = n + 1
        values = st.values[step]  # int64 whenever B is: every g is at most B
        M = _product(st.D, c.numerator)
        a = _product(L, c.denominator)
        top = values[last - 1]
    MW = _product(M, weights.W)
    if a is not None:
        over = np.flatnonzero(MW < _product(a, top))  # den_i < 0 at the largest g_i
        if len(over):
            raise ParameterError(f"global effect of player {over[0]} exceeds "
                                 f"c*w_i = {c * weights.row_sum(over[0])}")
    bound = int(MW.max())
    W = weights.W
    if bound**2 < _INT32_LIMIT and n < _INT32_LIMIT:
        deg, W = deg.astype(np.int32), W.astype(np.int32)
        dtype = np.int32
    else:
        dtype = np.int64 if bound < _INT64_LIMIT else object
    # Shaped as one row, so one-row states combine with them without broadcasting.
    M, MW = M.astype(dtype).reshape(1, n), MW.astype(dtype).reshape(1, n)
    if a is not None:
        a = a.astype(dtype).reshape(1, n)
    if values is not None and dtype is not object:
        values = values.astype(dtype)
    return _Tables(indptr, deg, indices, weights.in_weights, W, M, MW, a,
                   thresholds, values, first, bound)


class StartSnapshot:
    """The part of a batch's start that depends only on the network, the
    weights and the sets: ``K``, ``outside``, ``S`` and, where the weights are
    not unit, the infected-neighbour counts.  ``ExactEngine.start`` fills an
    empty snapshot and copies a filled one, cast to its own tier's dtypes,
    so games that differ only in their global effect or c start the same
    sets from one CSR expansion, whatever their tiers."""

    def __init__(self):
        self.game: tuple | None = None   # the (network, weights) it belongs to
        self.state: tuple | None = None


class ExactEngine:
    """Row-batched exact engine for every configuration (see module docstring).

    ``start`` numbers its initial sets as batch rows ``0..R-1``.  ``live``
    lists the batch rows that still have outsiders, ascending, and ``K``
    their infected counts; a live row's index in ``live`` is its position,
    which indexes the rows of ``deviating``'s answer and the flat ids
    ``position * n + player`` of flips, until ``apply`` retires rows.  A
    batch may hold a hundred rows or more (the Monte Carlo sweep batches
    several set sizes), so the per-row bookkeeping is in arrays too, and
    CSR slots are expanded in pieces of at most ``_SLOTS``.
    """

    def __init__(self, cfg: GameConfig):
        self.n = cfg.network.node_count
        self.tables = cfg.engine_tables
        self._game = (cfg.network, cfg.weights)
        self._logged_python_ints = False

    def start(self, initials: Sequence[Iterable[int]],
              snapshot: StartSnapshot | None = None) -> list[int]:
        """One batch row per initial set (a collection of players, or an
        int64 array of distinct players); return the rows that start full.
        A filled ``snapshot`` of the same network and weights stands in for
        ``initials``' expansion (see :class:`StartSnapshot`)."""
        t, n = self.tables, self.n
        snapshot = StartSnapshot() if snapshot is None else snapshot
        if snapshot.state is None:
            snapshot.game, snapshot.state = self._game, self._begin(initials)
        elif not all(a is b for a, b in zip(snapshot.game, self._game)):
            raise InvariantViolationError("a start snapshot serves one network and weights")
        # The snapshot keeps its arrays; the search changes its own copies,
        # in its own dtypes, as the snapshot may come from another tier.
        K, outside, S, k = snapshot.state
        self.K, self.outside, self.S = K.copy(), outside.copy(), S.astype(t.W.dtype)
        k = None if k is None else k.astype(t.degree.dtype)
        rows = len(self.K)
        self.live = np.arange(rows)
        self._evaluated = None
        # K minus infected neighbours and self: the infected non-neighbours,
        # which only a global term reads.
        self.o = None
        if t.a is not None:
            self.o = (self.K - 1).astype(t.degree.dtype)[:, None] - (self.S if k is None else k)
            self.o += self.outside
        if t.thresholds is not None:
            self.ptr = np.tile(t.first, (rows, 1))
            self._advance_steps()
        # deviating's pairs and products in the tables' dtype, for int32 and
        # int64 tables: allocated once per search, as arrays this large
        # allocated anew on every step cost more in page faults than in
        # arithmetic.  Without a global term the pairs are the state itself,
        # and only the products remain.
        self._work = (np.empty((2 if t.a is None else 4, rows, n), dtype=t.M.dtype)
                      if t.bound < _INT64_LIMIT else None)
        return self._retire() if (self.K == n).any() else []

    def _begin(self, initials: Sequence[Iterable[int]]) -> tuple:
        """``K``, ``outside``, ``S`` and (weights not unit, else None) the
        infected-neighbour counts ``k`` of the initial sets.  A row holding
        more than half the network expands its complement's CSR slots and
        subtracts them from a full row: ``k = degree - k'``, ``S = W - S'``."""
        t, n, rows = self.tables, self.n, len(initials)
        outside = np.ones((rows, n), dtype=bool)
        outside.reshape(-1)[np.concatenate([
            r * n + (initial if isinstance(initial, np.ndarray)
                     else np.fromiter(initial, dtype=np.int64, count=len(initial)))
            for r, initial in enumerate(initials)])] = False
        K = n - np.count_nonzero(outside, axis=1)
        wide = 2 * K > n
        flips = np.flatnonzero(outside ^ ~wide[:, None])  # each row's smaller side
        players = flips % n
        k = np.zeros((rows, n), dtype=t.degree.dtype)
        S = k if t.in_weights is None else np.zeros((rows, n), dtype=t.W.dtype)
        for window, targets, slots in self._pieces(players, flips - players):
            k.reshape(-1)[window] += np.bincount(
                targets, minlength=window.stop - window.start).astype(k.dtype, copy=False)
            if S is not k:
                np.add.at(S.reshape(-1)[window], targets,
                          t.in_weights[slots].astype(S.dtype, copy=False))
        if wide.any():
            k[wide] = t.degree - k[wide]
            if S is not k:
                S[wide] = t.W - S[wide]
        return K, outside, S, None if S is k else k

    def uninfected_count(self) -> int:
        """Outsiders summed over the live rows."""
        return int(self.n * len(self.K) - self.K.sum())

    def _pieces(self, players: np.ndarray, base: np.ndarray | None):
        """The CSR slots of the players' neighbours, in pieces of at most
        ``_SLOTS``: yields ``(window, targets, slots)``, with ``targets`` each
        neighbour's index in the ``window`` of the flat state that the piece
        touches.  ``base`` holds each player's row offset ``position * n``
        (None for one row); players come row by row, so a piece's window
        spans its rows first..last.  Updates are sums, so pieces may go in
        any order."""
        t, n = self.tables, self.n
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
            targets, window = t.indices[slots], slice(0, n)
            if base is not None:
                first, last = int(base[a]), int(base[b - 1])
                targets += np.repeat(base[a:b] - first, counts)
                window = slice(first, last + n)
            yield window, targets, slots

    def apply(self, flips: np.ndarray) -> list[int]:
        """Infect the flips (flat ids), row by row as ``flip_candidates``
        gives them; return the batch rows they filled, now retired."""
        t, n = self.tables, self.n
        flips = np.asarray(flips, dtype=np.int64)
        self._evaluated = None
        if len(self.K) == 1:  # one live row: the flat ids are its players
            players, base, added = flips, None, len(flips)
        else:
            pos, players = np.divmod(flips, n)
            base, added = flips - players, np.bincount(pos, minlength=len(self.K))
        self.K += added
        self.outside.reshape(-1)[flips] = False
        S, o = self.S.reshape(-1), None
        if self.o is not None:
            self.o += added if base is None else added.astype(self.o.dtype)[:, None]
            o = self.o.reshape(-1)
            o[flips] -= 1
        for window, targets, slots in self._pieces(players, base):
            # Counts in the state's dtype: adding int64 into int32 would cast
            # in a slower mixed loop.
            gained = np.bincount(targets, minlength=window.stop - window.start).astype(
                t.degree.dtype, copy=False)
            if t.in_weights is None:
                S[window] += gained
            else:
                np.add.at(S[window], targets, t.in_weights[slots].astype(S.dtype, copy=False))
            if o is not None:
                o[window] -= gained
        if t.thresholds is not None:
            self._advance_steps()
        return self._retire() if (self.K == n).any() else []

    def _advance_steps(self) -> None:
        """Move each tabular step pointer to the last step its ``o`` reaches."""
        while True:
            move = self.tables.thresholds[self.ptr + 1] <= self.o
            if not move.any():
                break
            self.ptr += move

    def _retire(self) -> list[int]:
        """Drop the full rows, so later waves do not scan them."""
        keep = self.K < self.n
        filled = self.live[~keep].tolist()
        self.live, self.K = self.live[keep], self.K[keep]
        self.outside, self.S = self.outside[keep], self.S[keep]
        if self.o is not None:
            self.o = self.o[keep]
        if self.tables.thresholds is not None:
            self.ptr = self.ptr[keep]
        return filled

    def _pairs(self, out=None) -> tuple[np.ndarray, np.ndarray]:
        """``num`` and ``den`` of the live rows; without a global term they
        are ``S`` itself and the constant one-row ``MW``."""
        t = self.tables
        if t.a is None:
            return self.S, t.MW
        g = self.o if t.values is None else t.values[self.ptr]
        if out is None:
            return t.M * self.S, t.MW - t.a * g
        num, den = out
        np.multiply(t.M, self.S, out=num)
        np.subtract(t.MW, np.multiply(t.a, g, out=den), out=den)
        return num, den

    def _python_ints(self, *arrays: np.ndarray) -> list[np.ndarray]:
        if not self._logged_python_ints:
            self._logged_python_ints = True
            _log.debug("products exceed int64 (bound %d, n=%d); deciding in Python ints",
                       self.tables.bound, self.n)
        return [arr.astype(object) for arr in arrays]

    def deviating(self, q: np.ndarray) -> np.ndarray:
        """A ``(live rows, n)`` bool array: whether each player deviates at ``q[row]``.

        ``q`` is the ``(rows, 2)`` array of each batch row's numerator and
        denominator: int64 while they fit, as they do for any q of tables
        with ``B < 2^63``, else objects.
        """
        rows = len(self.live)
        if rows == 1:  # plain ints: array calls would cost more than the row
            qn, qd = map(int, q[self.live[0]])
            top = max(qn, qd)
        else:
            qs = q[self.live]
            top = int(qs.max(initial=0))
        # Tables beyond int64 (no work arrays) make every call Python ints.
        work = None if self._work is None else self._work[:, :rows]
        num, den = self._evaluated = self._pairs(out=None if work is None else work[:2])
        # The call's tier: the tables' own while its products fit it.
        products = top * self.tables.bound
        dtype = (object if work is None or products >= _INT64_LIMIT else
                 np.int64 if products >= _INT32_LIMIT else work.dtype.type)
        in_work = work is not None and dtype is work.dtype.type
        if dtype is object:
            num, den = self._python_ints(num, den)
        elif not in_work:  # int32 tables at a q whose products need int64
            num, den = num.astype(dtype), den.astype(dtype)
        if rows == 1:
            qn, qd = (qn, qd) if dtype is object else (dtype(qn), dtype(qd))
        else:
            qs = qs.astype(dtype, copy=False)
            qn, qd = qs[:, :1], qs[:, 1:]
        if in_work:
            lhs = np.multiply(num, qd, out=work[-2])
            rhs = np.multiply(den, qn, out=work[-1])
        else:
            lhs, rhs = num * qd, qn * den
        return lhs >= rhs

    def flip_candidates(self, q: np.ndarray) -> np.ndarray:
        """Flat ids of the outsiders that deviate, at ``q[row]`` in each live row."""
        return np.flatnonzero(self.deviating(q) & self.outside)

    def max_threshold(self, positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray,
                                                               np.ndarray]:
        """Exact max of num_i/den_i over the outsiders of each live row at
        the given ascending positions, with its lowest-indexed attainer.

        Reads the pairs of the last ``deviating`` call, which hold until the
        next ``start`` or ``apply``.  Returns three arrays over the
        positions: the max's numerator and denominator as the engine holds
        them (not reduced; in the tables' int32 or int64 when
        ``B^2 < 2^63``, else Python ints) and the attainer.
        """
        if self._evaluated is None:
            raise InvariantViolationError(
                "max_threshold reads the last deviating call's pairs, and a start "
                "or an apply came after it")
        pos = slice(None) if len(positions) == len(self.K) else positions
        num, den = self._evaluated
        num = num[pos]
        if len(den) > 1:  # else the constant MW, or the one live row
            den = den[pos]
        outside = self.outside[pos]
        bad = (den <= 0) & outside
        if bad.any():
            raise InvariantViolationError(
                f"player {int(np.argmax(bad) % self.n)} has nonpositive threshold "
                f"denominator while still outside the set")
        if self.tables.bound**2 >= _INT64_LIMIT:
            num, den = self._python_ints(num, den)
        return _row_max(num, den, outside, self.tables.bound)


def _row_max(num: np.ndarray, den: np.ndarray, outside: np.ndarray,
             bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's max of ``num/den`` over its outsiders, as its pair and its
    lowest-indexed attainer, for pairs in ``[0, bound]`` with ``den > 0`` on
    outsiders and every row holding one; ``den`` may be one row for all.
    Exact in floats when ``bound^2 < 2^50`` (see the module docstring),
    else settled by cross products, which need Python ints from
    ``bound^2 >= 2^63`` on."""
    at = np.arange(len(outside))
    if bound**2 < _FLOAT_EXACT:
        # Insiders get -1/max(den, 1), below every outsider's ratio >= 0, by
        # arithmetic rather than a masked write; np.argmax takes the first
        # of equal maxima.
        inside = ~outside
        ratio = np.multiply(num, outside, dtype=np.float64)
        ratio -= inside
        ratio /= np.maximum(den, inside)
        best = np.argmax(ratio, axis=1)
        return num[at, best], den[at if len(den) > 1 else 0, best], best
    # Insiders become -1/1, below every outsider's num/den >= 0.
    num, den = np.where(outside, num, -1), np.where(outside, den, 1)
    # The float argmax only seeds each row; the order is settled exactly,
    # moving to a strictly larger player until none is left.
    best = np.argmax(num / den, axis=1)
    while True:
        nb, db = num[at, best], den[at, best]
        lhs, rhs = num * db[:, None], nb[:, None] * den
        beaten = lhs > rhs
        if not beaten.any():
            break
        best = np.where(beaten.any(axis=1), np.argmax(beaten, axis=1), best)
    return nb, db, np.argmax(lhs == rhs, axis=1)
