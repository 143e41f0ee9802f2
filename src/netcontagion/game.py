"""Payoff parameters and exact incentive arithmetic.

A configuration binds a network to influence weights built for that
network (held as the engine's integers, read here as Fractions), a
miscoordination cost ``c``, a global-effect rule, and a set of exogenously
infected players.  Every comparison here is carried out in exact rational
arithmetic: a player deviates exactly when

    c * s_i(E)  >=  q * (c * w_i - phi_i(p_i(E)))

which is the tie-inclusive deviation condition after clearing denominators
(ties deviate).  ``q`` is the relative miscoordination cost c/(b+c); ``b``
is derived only for reporting.  The functions here are the Fraction spec of
this condition; production decisions (searches, cascades, ``is_nash``, the
start check, the effect bound) use ``_engines.ExactEngine``'s integer form.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConnectivityError,
    InvariantViolationError,
    ParameterError,
)
from .graphs import Network, is_connected
from .rational import as_integer, as_rational, as_unit_rational

PlayerSet = frozenset[int]


class InfluenceWeights:
    """Nonnegative directed weights ``w[i][j]`` for each neighbor pair.

    Asymmetry is allowed (``w[i][j] != w[j][i]``), as are zero weights on
    one direction of an edge (unidirectional influence).  Every row sum
    ``w_i`` must be positive.  They are held in the engine's integer form,
    aligned with the CSR of ``network``, the network they were built for:
    per row the LCM ``L_i`` of the denominators (Python ints), per CSR slot
    ``(i, j)`` the integer ``scaled = L_i*w_ij``, and per row ``W_i =
    L_i*w_i``, int64 while every ``W_i`` fits.  Unit weights hold no
    ``scaled`` (None), ``L_i = 1`` and ``W_i = d_i``.  ``row``, ``weight``
    and ``==`` read Fraction rows, built on first read.
    """

    def __init__(self, network: Network, rows: Sequence[Mapping[int, Fraction]]):
        if len(rows) != network.node_count:
            raise ParameterError("one weight row per node is required")
        flat: list[Fraction] = []
        for i, nbrs in enumerate(network.adjacency):
            row = rows[i]
            if set(row) != set(nbrs):
                raise ParameterError(
                    f"weights of node {i} must be defined exactly on its "
                    f"neighbors {list(nbrs)}")
            first = len(flat)
            for j in nbrs:
                w = as_rational(row[j], f"w[{i}][{j}]")
                if w.numerator < 0:
                    raise ParameterError(f"w[{i}][{j}] is negative")
                flat.append(w)
            if not any(flat[first:]):
                raise ParameterError(f"row sum w_{i} must be positive")
        self._store(network, *(np.array(list(map(attrgetter(part), flat)), dtype=object)
                               for part in ("numerator", "denominator")))

    @classmethod
    def unit(cls, network: Network) -> "InfluenceWeights":
        """Uniform unit weights: w[i][j] = 1, so w_i = d_i."""
        degrees = np.diff(network.csr[0])
        if not degrees.all():
            i = int(np.argmin(degrees))
            raise ParameterError(f"node {i} is isolated, so w_{i} would be 0")
        return cls.__new__(cls)._store(network)

    @classmethod
    def from_pairs(cls, network: Network, pairs: Mapping[tuple[int, int], object],
                   default=1) -> "InfluenceWeights":
        """``default`` on every neighbor pair but the listed ``(i, j) -> w``."""
        default = as_rational(default, "default weight")
        n = network.node_count
        indptr, indices = network.csr
        row = np.repeat(np.arange(n), np.diff(indptr))
        # The pairs' keys i*n + j (-1 out of range) among the CSR's increasing
        # ones, which the sentinel n*n ends: the first miss is not a pair.
        keys = list(pairs)
        ij = np.array([(as_integer(i, "player"), as_integer(j, "player"))
                       for i, j in keys], dtype=object).reshape(-1, 2)
        packed = np.where(((ij >= 0) & (ij < n)).all(axis=1), ij[:, 0] * n + ij[:, 1], -1)
        csr_keys = np.append(row * n + indices, n * n)
        slot = np.searchsorted(csr_keys, packed.astype(np.int64))
        stop = int(np.argmin(np.append(csr_keys[slot] == packed, False)))
        values = [as_rational(w, f"w[{i}][{j}]") for (i, j), w in islice(pairs.items(), stop)]
        if stop < len(keys):
            raise ParameterError(f"({keys[stop][0]}, {keys[stop][1]}) is not a neighbor pair")
        num = np.full(len(indices), default.numerator, dtype=object)
        den = np.full(len(indices), default.denominator, dtype=object)
        num[slot[:stop]] = [w.numerator for w in values]
        den[slot[:stop]] = [w.denominator for w in values]
        # In row order, as the general constructor checks: a row's negative
        # weights, then its sum.
        negative = np.flatnonzero(num < 0)
        empty = np.flatnonzero(np.bincount(row[num > 0], minlength=n) == 0)
        if len(negative) and not (len(empty) and empty[0] < row[negative[0]]):
            raise ParameterError(f"w[{row[negative[0]]}][{indices[negative[0]]}] is negative")
        if len(empty):
            raise ParameterError(f"row sum w_{empty[0]} must be positive")
        return cls.__new__(cls)._store(network, num, den)

    def _store(self, network: Network, num=None, den=None) -> "InfluenceWeights":
        """Store CSR-aligned numerators and denominators (object arrays; every
        row sum positive), or unit weights when they are None; return self."""
        indptr = network.csr[0]
        L, scaled, W = np.ones(network.node_count, dtype=object), None, np.diff(indptr)
        if num is not None and not ((num == 1) & (den == 1)).all():
            L = np.lcm.reduceat(den, indptr[:-1])
            scaled = num * (np.repeat(L, np.diff(indptr)) // den)
            W = np.add.reduceat(scaled, indptr[:-1])
            # Supports accumulate up to W_i, so W decides the dtype of the weights.
            dtype = np.int64 if W.max() <= np.iinfo(np.int64).max else object
            scaled, W = scaled.astype(dtype), W.astype(dtype)
        self.network, self.L, self.scaled, self.W = network, L, scaled, W
        self.is_unit = scaled is None
        return self

    @cached_property
    def in_weights(self) -> np.ndarray | None:
        """``L_i*w[i][j]`` at each CSR slot ``(j, i)``, what ``j`` adds to
        ``i``'s support (None for unit weights): ``scaled`` in the order of
        the mirrored slots' keys."""
        if self.scaled is None:
            return None
        n, (indptr, indices) = self.network.node_count, self.network.csr
        return self.scaled[np.argsort(indices * n + np.repeat(np.arange(n), np.diff(indptr)))]

    @cached_property
    def _rows(self) -> tuple[dict[int, Fraction], ...]:
        bounds = self.network.csr[0].tolist()
        values = [Fraction(1)] * bounds[-1] if self.scaled is None else list(
            map(Fraction, self.scaled.tolist(), np.repeat(self.L, np.diff(bounds)).tolist()))
        return tuple(dict(zip(nbrs, values[a:b]))
                     for nbrs, a, b in zip(self.network.adjacency, bounds, bounds[1:]))

    def weight(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def row(self, i: int) -> Mapping[int, Fraction]:
        return self._rows[i]

    def row_sum(self, i: int) -> Fraction:
        return Fraction(int(self.W[i]), int(self.L[i]))

    def __eq__(self, other):
        return (isinstance(other, InfluenceWeights)
                and self._rows == other._rows)

    def __repr__(self):
        kind = "unit" if self.is_unit else "general"
        return f"InfluenceWeights({kind}, nodes={self.network.node_count})"


@dataclass(frozen=True)
class ParametricGlobalEffect:
    """phi_i(p) = alpha * c * d_i * p with intensity alpha in [0, 1]."""

    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_unit_rational(self.alpha, "alpha"))

    def value(self, i: int, p: Fraction, c: Fraction, degree: int) -> Fraction:
        return self.alpha * c * degree * p

    @property
    def is_zero(self) -> bool:
        return self.alpha == 0


TableSteps = namedtuple("TableSteps", "bp_num bp_den values D first count")


@dataclass(frozen=True)
class TabularGlobalEffect:
    """Per-player weakly increasing step tables ``p -> phi_i(p)``.

    Each table is a tuple of ``(p, value)`` breakpoints with rational
    entries; the effect at ``p`` is the value of the largest breakpoint
    ``<= p``.  The first breakpoint must be ``(0, 0)``.  A table object that
    players share, as ``uniform``'s do, is checked and stored once.
    ``steps`` holds the distinct tables as integers: per step the breakpoint
    as a reduced ``bp_num / bp_den`` (int64 while ``bp_den`` times the node
    count fits) and the value's numerator over ``D``, the LCM of its table's
    value denominators (int64 while all fit); per player ``D`` (Python ints),
    the index ``first`` of its table's first step and the step ``count``.
    """

    tables: tuple[tuple[tuple[Fraction, Fraction], ...], ...]

    def __post_init__(self):
        tables = tuple(self.tables)  # holds every input table, so their ids stay distinct
        number: dict[int, int] = {}  # the id of each distinct table -> its index in clean_tables
        clean_tables = []
        for idx, table in enumerate(tables):
            if number.setdefault(id(table), len(clean_tables)) == len(clean_tables):
                clean = tuple((as_unit_rational(p, f"table[{idx}] breakpoint"),
                               as_rational(v, f"table[{idx}] value"))
                              for p, v in table)
                if not clean or clean[0] != (Fraction(0), Fraction(0)):
                    raise ParameterError(
                        f"table[{idx}] must start with the (0, 0) breakpoint")
                for (p0, v0), (p1, v1) in zip(clean, clean[1:]):
                    if p1 <= p0:
                        raise ParameterError(f"table[{idx}] breakpoints must increase")
                    if v1 < v0:
                        raise ParameterError(f"table[{idx}] values must not decrease")
                clean_tables.append(clean)
        which = [number[id(table)] for table in tables]
        object.__setattr__(self, "tables", tuple(map(clean_tables.__getitem__, which)))
        flat = [x for table in clean_tables for step in table for x in step]  # p0, v0, p1, ...
        num, den = (np.array(list(map(attrgetter(part), flat)), dtype=object)
                    for part in ("numerator", "denominator"))
        sizes = np.array(list(map(len, clean_tables)), dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        D = np.lcm.reduceat(den[1::2], starts)
        values = num[1::2] * (np.repeat(D, sizes) // den[1::2])
        dtype = np.int64 if den[::2].max(initial=0) * len(tables) < 2**63 else object
        values = values.astype(np.int64 if values.max(initial=0) < 2**63 else object)
        object.__setattr__(self, "steps", TableSteps(
            num[::2].astype(dtype), den[::2].astype(dtype), values, D[which], starts[which],
            sizes[which]))

    @classmethod
    def uniform(cls, table, node_count: int) -> "TabularGlobalEffect":
        return cls((tuple(table),) * node_count)

    def value(self, i: int, p: Fraction, c: Fraction, degree: int) -> Fraction:
        result = Fraction(0)
        for bp, v in self.tables[i]:
            if bp <= p:
                result = v
            else:
                break
        return result

    @property
    def is_zero(self) -> bool:
        return all(table[-1][1] == 0 for table in self.tables)


GlobalEffect = ParametricGlobalEffect | TabularGlobalEffect


def benefit_for_resilience(c: Fraction, q: Fraction) -> Fraction:
    """Coordination benefit b with q = c/(b+c); requires q > 0."""
    if q <= 0:
        raise ParameterError("b is only defined for q > 0")
    return c * (1 - q) / q


@dataclass(frozen=True, eq=False)
class GameConfig:
    """Immutable description of one coordination game.

    ``infected`` is the set of players for whom deviation is strictly
    dominant.  A disconnected network triggers a warning (the dynamics
    remain well defined componentwise) unless ``strict_connectivity`` asks
    for an error.  ``engine_tables`` holds the integer tables its engines read.
    """

    network: Network
    weights: InfluenceWeights | None = None
    c: Fraction = Fraction(1)
    global_effect: GlobalEffect = field(default_factory=lambda: ParametricGlobalEffect(Fraction(0)))
    infected: PlayerSet = frozenset()
    strict_connectivity: bool = False

    def __post_init__(self):
        n = self.network.node_count
        if self.weights is None:
            object.__setattr__(self, "weights", InfluenceWeights.unit(self.network))
        if self.weights.network != self.network:
            raise ParameterError("weights were built for a different network")
        object.__setattr__(self, "c", as_rational(self.c, "c"))
        if self.c <= 0:
            raise ParameterError(f"c must be positive; got {self.c}")
        object.__setattr__(self, "infected", _players(self.infected, n, "infected player"))
        # Global effects must never make deviation dominant on their own:
        # phi_i(p) <= c * w_i for all p, which building the engine's tables checks.
        from ._engines import _tables
        object.__setattr__(self, "engine_tables", _tables(self))
        if not is_connected(self.network):
            if self.strict_connectivity:
                raise ConnectivityError("network is disconnected")
            warnings.warn("network is disconnected; results apply componentwise",
                          stacklevel=2)

    @property
    def node_count(self) -> int:
        return self.network.node_count

    def player_set(self, members: Iterable[int]) -> PlayerSet:
        """``members`` as a set of players, each one an id of this game by
        :func:`_player`'s rule; the first id that fails it is named."""
        return _players(members, self.network.node_count)


def _player(i, n: int, what: str = "player") -> int:
    """Player id ``i`` of an n-player game, an integer by ``as_integer``'s rule."""
    i = as_integer(i, what)
    if not 0 <= i < n:
        raise ParameterError(f"{what} {i} out of range")
    return i


def _players(members: Iterable[int], n: int, what: str = "player") -> PlayerSet:
    """The set of ``members``, each a player id by :func:`_player`'s rule.

    Plain ``int`` ids are range-checked in one array pass.  Any other type,
    an id beyond int64 or one out of range sends every id through
    :func:`_player` in iteration order, which names the first that fails.
    """
    ids = members if isinstance(members, (frozenset, set, list, tuple)) else list(members)
    if set(map(type, ids)) <= {int}:
        try:
            flat = np.fromiter(ids, dtype=np.int64, count=len(ids))
        except OverflowError:  # an id beyond int64: out of range
            pass
        else:
            if flat.min(initial=0) >= 0 and flat.max(initial=0) < n:
                return ids if type(ids) is frozenset else frozenset(ids)
    return frozenset(_player(i, n, what) for i in ids)


def local_support(cfg: GameConfig, i: int, members: Iterable[int]) -> Fraction:
    """Weighted count s_i(E) of i's neighbors inside E."""
    i = _player(i, cfg.network.node_count)
    return _local_support(cfg, i, cfg.player_set(members))


def _local_support(cfg: GameConfig, i: int, E: PlayerSet) -> Fraction:
    row = cfg.weights.row(i)
    return sum((row[j] for j in cfg.network.adjacency[i] if j in E), Fraction(0))


def global_share(cfg: GameConfig, i: int, members: Iterable[int]) -> Fraction:
    """Fraction p_i(E) of the non-neighbor rest of the network inside E.

    When the aggregate is over an empty pool (d_i = I - 1) the share is 0.
    """
    i = _player(i, cfg.network.node_count)
    return _global_share(cfg, i, cfg.player_set(members))


def _global_share(cfg: GameConfig, i: int, E: PlayerSet) -> Fraction:
    nbrs = cfg.network.adjacency[i]
    pool = cfg.network.node_count - len(nbrs) - 1
    if pool == 0:
        return Fraction(0)
    inside_nbrs = sum(1 for j in nbrs if j in E)
    return Fraction(len(E) - inside_nbrs - (i in E), pool)


def _phi_at(cfg: GameConfig, i: int, E: PlayerSet) -> Fraction:
    return cfg.global_effect.value(i, _global_share(cfg, i, E), cfg.c,
                                   cfg.network.degree(i))


def has_incentive(cfg: GameConfig, i: int, members: Iterable[int], q) -> bool:
    """True iff player i would (weakly) prefer deviating given play E.

    Exogenously infected players always have the incentive; at q = 0 every
    player does.  Indifference counts as incentive.
    """
    i = _player(i, cfg.network.node_count)
    q = as_unit_rational(q, "q")
    if i in cfg.infected or q == 0:
        return True
    E = cfg.player_set(members)
    s = _local_support(cfg, i, E)
    return cfg.c * s >= q * (cfg.c * cfg.weights.row_sum(i) - _phi_at(cfg, i, E))


def switch_threshold(cfg: GameConfig, i: int, members: Iterable[int]) -> Fraction:
    """Largest q at which i has the incentive given E: c*s_i / (c*w_i - phi_i).

    Requires ``i`` outside both E and the exogenously infected set (for the
    latter there is no finite boundary).  A nonpositive denominator means
    the global effect alone is dominant, which the configuration bound
    excludes; seeing it indicates a broken invariant.
    """
    i = _player(i, cfg.network.node_count)
    E = cfg.player_set(members)
    if i in E:
        raise ParameterError(f"player {i} is already in the set")
    if i in cfg.infected:
        raise ParameterError(
            f"player {i} is exogenously infected and has the incentive at every q")
    s = _local_support(cfg, i, E)
    den = cfg.c * cfg.weights.row_sum(i) - _phi_at(cfg, i, E)
    if den <= 0:
        raise InvariantViolationError(
            f"threshold denominator for player {i} is {den}; the global-effect "
            f"bound phi_i <= c*w_i should have prevented this")
    return cfg.c * s / den
