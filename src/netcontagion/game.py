"""Payoff parameters and exact incentive arithmetic.

A configuration binds a network to per-edge influence weights, a
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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConnectivityError,
    InvariantViolationError,
    ParameterError,
)
from .graphs import Network, is_connected
from .rational import as_rational, as_unit_rational

PlayerSet = frozenset[int]


class InfluenceWeights:
    """Nonnegative directed weights ``w[i][j]`` for each neighbor pair.

    Asymmetry is allowed (``w[i][j] != w[j][i]``), as are zero weights on
    one direction of an edge (unidirectional influence).  Every row sum
    ``w_i`` must be positive.
    """

    def __init__(self, network: Network, rows: Sequence[Mapping[int, Fraction]]):
        n = network.node_count
        if len(rows) != n:
            raise ParameterError("one weight row per node is required")
        frozen_rows: list[dict[int, Fraction]] = []
        row_sums: list[Fraction] = []
        unit = True
        for i in range(n):
            nbrs = network.adjacency[i]
            row = rows[i]
            if set(row) != set(nbrs):
                raise ParameterError(
                    f"weights of node {i} must be defined exactly on its "
                    f"neighbors {list(nbrs)}")
            clean: dict[int, Fraction] = {}
            total = Fraction(0)
            for j in nbrs:
                w = as_rational(row[j], f"w[{i}][{j}]")
                if w < 0:
                    raise ParameterError(f"w[{i}][{j}] is negative")
                if w != 1:
                    unit = False
                clean[j] = w
                total += w
            if total <= 0:
                raise ParameterError(f"row sum w_{i} must be positive")
            frozen_rows.append(clean)
            row_sums.append(total)
        self._rows = tuple(frozen_rows)
        self._row_sums = tuple(row_sums)
        self.is_unit = unit
        self.node_count = n

    @classmethod
    def unit(cls, network: Network) -> "InfluenceWeights":
        """Uniform unit weights: w[i][j] = 1, so w_i = d_i.

        Built from the network's degrees alone; the engine reads only
        ``is_unit`` and those degrees.  The per-node rows are built from
        ``network.adjacency`` on the first ``row``, ``weight`` or ``==``.
        """
        degrees = np.diff(network.csr[0]).tolist()
        if 0 in degrees:
            i = degrees.index(0)
            raise ParameterError(f"node {i} is isolated, so w_{i} would be 0")
        row_sum = {d: Fraction(d) for d in set(degrees)}
        self = cls.__new__(cls)
        self._network = network
        self._row_sums = tuple(map(row_sum.__getitem__, degrees))
        self.is_unit = True
        self.node_count = network.node_count
        return self

    @cached_property
    def _rows(self) -> tuple[dict[int, Fraction], ...]:
        # Only unit weights get here; the general constructor stores its rows.
        one = Fraction(1)
        return tuple(dict.fromkeys(nbrs, one) for nbrs in self._network.adjacency)

    @classmethod
    def from_pairs(cls, network: Network, pairs: Mapping[tuple[int, int], object],
                   default=1) -> "InfluenceWeights":
        """Unit-like weights with the listed ``(i, j) -> w`` overrides."""
        default = as_rational(default, "default weight")
        rows = [{j: default for j in nbrs} for nbrs in network.adjacency]
        for (i, j), w in pairs.items():
            if not (0 <= i < network.node_count) or j not in network.adjacency[i]:
                raise ParameterError(f"({i}, {j}) is not a neighbor pair")
            rows[i][j] = as_rational(w, f"w[{i}][{j}]")
        return cls(network, rows)

    def weight(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def row(self, i: int) -> Mapping[int, Fraction]:
        return self._rows[i]

    def row_sum(self, i: int) -> Fraction:
        return self._row_sums[i]

    def __eq__(self, other):
        return (isinstance(other, InfluenceWeights)
                and self._rows == other._rows)

    def __repr__(self):
        kind = "unit" if self.is_unit else "general"
        return f"InfluenceWeights({kind}, nodes={self.node_count})"


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


@dataclass(frozen=True)
class TabularGlobalEffect:
    """Per-player weakly increasing step tables ``p -> phi_i(p)``.

    Each table is a tuple of ``(p, value)`` breakpoints with rational
    entries; the effect at ``p`` is the value of the largest breakpoint
    ``<= p``.  The first breakpoint must be ``(0, 0)``.
    """

    tables: tuple[tuple[tuple[Fraction, Fraction], ...], ...]

    def __post_init__(self):
        clean_tables = []
        for idx, table in enumerate(self.tables):
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
        object.__setattr__(self, "tables", tuple(clean_tables))

    @classmethod
    def uniform(cls, table, node_count: int) -> "TabularGlobalEffect":
        return cls(tuple(tuple(table) for _ in range(node_count)))

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
    for an error.
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
        if self.weights.node_count != n:
            raise ParameterError("weights were built for a different network")
        object.__setattr__(self, "c", as_rational(self.c, "c"))
        if self.c <= 0:
            raise ParameterError(f"c must be positive; got {self.c}")
        infected = frozenset(int(i) for i in self.infected)
        for i in infected:
            if not 0 <= i < n:
                raise ParameterError(f"infected player {i} out of range")
        object.__setattr__(self, "infected", infected)
        self._check_effect_bound()
        if not is_connected(self.network):
            if self.strict_connectivity:
                raise ConnectivityError("network is disconnected")
            warnings.warn("network is disconnected; results apply componentwise",
                          stacklevel=2)

    def _check_effect_bound(self):
        # Global effects must never make deviation dominant on their own:
        # phi_i(p) <= c * w_i for all p, which building the engine's tables checks.
        from ._engines import ExactEngine
        ge = self.global_effect
        if isinstance(ge, TabularGlobalEffect) and len(ge.tables) != self.network.node_count:
            raise ParameterError("one global-effect table per player is required")
        ExactEngine(self)

    @property
    def node_count(self) -> int:
        return self.network.node_count

    def player_set(self, members: Iterable[int]) -> PlayerSet:
        out = frozenset(int(i) for i in members)
        for i in out:
            if not 0 <= i < self.network.node_count:
                raise ParameterError(f"player {i} out of range")
        return out


def _check_player(cfg: GameConfig, i: int):
    if not 0 <= i < cfg.network.node_count:
        raise ParameterError(f"player {i} out of range")


def local_support(cfg: GameConfig, i: int, members: Iterable[int]) -> Fraction:
    """Weighted count s_i(E) of i's neighbors inside E."""
    _check_player(cfg, i)
    return _local_support(cfg, i, cfg.player_set(members))


def _local_support(cfg: GameConfig, i: int, E: PlayerSet) -> Fraction:
    row = cfg.weights.row(i)
    return sum((row[j] for j in cfg.network.adjacency[i] if j in E), Fraction(0))


def global_share(cfg: GameConfig, i: int, members: Iterable[int]) -> Fraction:
    """Fraction p_i(E) of the non-neighbor rest of the network inside E.

    When the aggregate is over an empty pool (d_i = I - 1) the share is 0.
    """
    _check_player(cfg, i)
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
    _check_player(cfg, i)
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
    _check_player(cfg, i)
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
