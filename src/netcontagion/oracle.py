"""Brute-force ground truth for small instances.

One bitmask table per game decides every answer here: its ``willing`` is
the oracle's only copy of the incentive condition, which the exhaustive
subset sweeps, the synchronous best-response fixpoint and the threshold
candidates all read.  The results are thus independent of the engine
bookkeeping in :mod:`netcontagion.contagion` and of the Fraction spec in
:mod:`netcontagion.game`, and serve as their oracle in tests.  Size guards
refuse instances whose sweeps would not finish promptly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .contagion import cohesiveness
from .errors import InvariantViolationError, SizeGuardError
from .game import GameConfig, PlayerSet
from .graphs import Network
from .rational import as_integer, as_rational, as_unit_rational

SIZE_GUARD = 20


def _guard(count: int, what: str):
    if count > SIZE_GUARD:
        raise SizeGuardError(
            f"{what} would sweep 2^{count} subsets; the guard is {SIZE_GUARD}")


def _mask(players: Iterable[int]) -> int:
    return sum(1 << i for i in players)


class _MaskTable:
    """One game's per-player data for subset sweeps over bitmasks, and the
    incentive condition over them (``willing``)."""

    def __init__(self, cfg: GameConfig):
        net, c = cfg.network, cfg.c
        n = net.node_count
        self.n, self.c = n, c
        self.infected_mask = _mask(cfg.infected)
        self.nbr_mask = [_mask(nbrs) for nbrs in net.adjacency]
        # c*w_i - phi_i(outside/pool_i), indexed by outside count.
        self.rhs: list[list[Fraction]] = []
        for i, nbrs in enumerate(net.adjacency):
            pool = n - len(nbrs) - 1
            cw = c * cfg.weights.row_sum(i)
            self.rhs.append([cw - cfg.global_effect.value(i, Fraction(outside, pool or 1), c,
                                                          len(nbrs))
                             for outside in range(pool + 1)])
        # Weighted support for every subset of each neighborhood, keyed by
        # the raw restricted bitmask; unit weights count its bits instead.
        self.support: list[dict[int, Fraction]] | None = None
        if not cfg.weights.is_unit:
            self.support = []
            for i, nbrs in enumerate(net.adjacency):
                sums = {0: Fraction(0)}
                for j in nbrs:
                    w, bit = cfg.weights.weight(i, j), 1 << j
                    sums.update({mask | bit: val + w for mask, val in sums.items()})
                self.support.append(sums)

    def willing(self, i: int, mask: int, q: Fraction) -> bool:
        """Whether i (weakly) prefers deviating while ``mask`` deviates, at q.

        Infected players always do, and at q = 0 every player does (c*s >= 0).
        """
        if self.infected_mask >> i & 1:
            return True
        nbrs = mask & self.nbr_mask[i]
        k = nbrs.bit_count()
        s = k if self.support is None else self.support[i][nbrs]
        outside = mask.bit_count() - k - (mask >> i & 1)
        return self.c * s >= q * self.rhs[i][outside]

    def is_nash_mask(self, mask: int, q: Fraction) -> bool:
        """Whether exactly the members of ``mask`` are willing at q."""
        # Infected players are always willing, so a mask missing one fails at once.
        return (mask & self.infected_mask == self.infected_mask
                and all(self.willing(i, mask, q) == (mask >> i & 1) for i in range(self.n)))

    def limit(self, mask: int, q: Fraction) -> int:
        """Synchronous best-response fixpoint from ``mask`` plus the infected."""
        mask |= self.infected_mask
        while flips := _mask(i for i in range(self.n)
                             if not mask >> i & 1 and self.willing(i, mask, q)):
            mask |= flips
        return mask


def enumerate_nash(cfg: GameConfig, q) -> list[PlayerSet]:
    """All Nash equilibria at q, by direct check of every subset.

    Sorted by cardinality, then lexicographically by member list.
    """
    q = as_unit_rational(q, "q")
    n = cfg.network.node_count
    _guard(n, "equilibrium enumeration")
    table = _MaskTable(cfg)
    found = [frozenset(i for i in range(n) if mask >> i & 1)
             for mask in range(1 << n) if table.is_nash_mask(mask, q)]
    found.sort(key=lambda E: (len(E), tuple(sorted(E))))
    return found


def smallest_nash_containing(cfg: GameConfig, start: Iterable[int], q) -> PlayerSet:
    """Minimum-cardinality equilibrium containing ``start``.

    The full set always qualifies, so one exists.  Minimality should be
    attained uniquely; a tie is reported as an invariant violation.
    """
    q = as_unit_rational(q, "q")
    n = cfg.network.node_count
    start = cfg.player_set(start)
    _guard(n, "containing-equilibrium search")
    table = _MaskTable(cfg)
    start_mask = _mask(start)
    free = ((1 << n) - 1) & ~start_mask
    best_mask = None
    best_size = n + 1
    tie = False
    sub = free
    while True:
        mask = start_mask | sub
        if table.is_nash_mask(mask, q):
            size = mask.bit_count()
            if size < best_size:
                best_mask, best_size, tie = mask, size, False
            elif size == best_size and mask != best_mask:
                tie = True
        if sub == 0:
            break
        sub = (sub - 1) & free
    if best_mask is None:
        raise InvariantViolationError("no containing equilibrium; the full set "
                                      "should always qualify")
    if tie:
        raise InvariantViolationError(
            f"minimal containing equilibrium at q={q} is not unique")
    return frozenset(i for i in range(n) if best_mask >> i & 1)


def brute_threshold(cfg: GameConfig, start: Iterable[int]) -> Fraction:
    """Largest q in [0, 1] whose best-response limit is the full set.

    Candidate q values are every attainable switch boundary c*s / rhs over
    all players, attainable weighted supports s and positive rhs rows of the
    table, plus 0 and 1; the limit is evaluated at each candidate from the
    top down.
    """
    n = cfg.network.node_count
    _guard(n, "threshold candidate sweep")
    start = cfg.player_set(start)
    table = _MaskTable(cfg)
    candidates = {Fraction(0), Fraction(1)}
    for i in range(n):
        supports = (range(table.nbr_mask[i].bit_count() + 1) if table.support is None
                    else set(table.support[i].values()))
        for rhs in table.rhs[i]:
            if rhs > 0:
                candidates.update(t for t in (table.c * s / rhs for s in supports) if t <= 1)
    start_mask, full = _mask(start), (1 << n) - 1
    for t in sorted(candidates, reverse=True):
        if table.limit(start_mask, t) == full:
            return t
    raise InvariantViolationError("the limit at q = 0 must be the full set")


def brute_uniform_cohesion(net: Network, members: Iterable[int], r) -> bool:
    """Whether every nonempty subset of ``members`` is at most r-cohesive."""
    r = as_rational(r, "r")
    A = sorted(frozenset(as_integer(i, "player") for i in members))
    _guard(len(A), "uniform-cohesion sweep")
    for sub_bits in range(1, 1 << len(A)):
        subset = [A[pos] for pos in range(len(A)) if sub_bits >> pos & 1]
        if cohesiveness(net, subset) > r:
            return False
    return True
