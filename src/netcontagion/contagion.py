"""Best-response contagion algorithms and equilibrium objects.

One loop, the staged search, runs synchronized best-response waves:
at a fixed q they reach the smallest Nash equilibrium containing the
starting set, where ``cascade`` stops.  ``full_contagion_threshold`` goes
on, lowering q by the smallest amount that lets the waves resume
(bootstrapping from the previous equilibrium, never from scratch) until
the whole network deviates; the final q is the contagion threshold q*:
the cascade fills the network exactly for q <= q*.  The stagewise
equilibria also determine the depth step function and the virality of a
starting set.

The staged search runs many starting sets at once, one engine row each,
and keeps its stages as a :class:`StageLog` of integer columns (row, q as
a reduced num/den pair, equilibrium size, marginal player) appended once
per step for every row that closes a stage.  The search's invariants are
checked over those arrays; the Monte Carlo sweep reads the log directly,
and ``full_contagion_threshold`` builds its one result from it, from which
``depth_function`` takes its breakpoints.  The engine takes every q as an
integer pair, ``cascade``'s too.  The log also keeps each step's flips:
the stage equilibria nest, so a row's join order (its initial set, then
its flips step by step) lists every stage's members as a prefix.

Waves are synchronous: each flip wave is computed against the frozen
current set, so flips within a wave do not see each other.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ._engines import _INT64_LIMIT, ExactEngine, StartSnapshot
from .errors import (
    InvariantViolationError,
    ParameterError,
    PreconditionError,
    UnsupportedHypothesisError,
)
from .game import GameConfig, PlayerSet, _player
from .graphs import Network
from .rational import as_integer, as_unit_rational, rational_json, rational_str


def _count(value, what: str, least: int = 0) -> int:
    """A count of a result, an integer by ``as_integer``'s rule, at least ``least``."""
    value = as_integer(value, what)
    if value < least:
        raise InvariantViolationError(f"{what} must be at least {least}; got {value}")
    return value


@dataclass(frozen=True)
class CascadeResult:
    """Trace of one cascade: C_0, the flip waves, and the reached
    equilibrium ``final``, which is C_0 plus the waves.  ``subsets_checked``
    is a nonnegative integer."""

    final: PlayerSet = field(init=False)
    waves: tuple[PlayerSet, ...]
    initial: PlayerSet
    subsets_checked: int

    @property
    def steps(self) -> int:
        return len(self.waves)

    def __post_init__(self):
        object.__setattr__(self, "subsets_checked", _count(self.subsets_checked, "subsets_checked"))
        union = set(self.initial)
        for wave in self.waves:
            if not wave or union & wave:
                raise InvariantViolationError("waves must be nonempty and disjoint")
            union |= wave
        object.__setattr__(self, "final", frozenset(union))


@dataclass(frozen=True)
class ThresholdStage:
    """One stage of the full-contagion search: equilibrium A_{n+1} = C(S, q_n)."""

    q: Fraction
    size: int

    def to_dict(self) -> dict:
        return {"q": rational_json(self.q), "equilibrium_size": self.size}


class _JoinOrder:
    """``ThresholdResult.order``, a dataclass field without a default: held
    as the int64 array that ``__post_init__`` checks, read as a tuple of
    ints, which is built on first read."""

    def __get__(self, result, owner=None):
        if result is None:
            raise AttributeError("order")  # no class-level default
        state = result.__dict__
        if "_order_tuple" not in state:
            state["_order_tuple"] = tuple(state["_order"].tolist())
        return state["_order_tuple"]

    def __set__(self, result, value):  # __init__'s and __post_init__'s writes, before any read
        result.__dict__["_order"] = value


def _join_order(order) -> np.ndarray:
    """``order`` as an int64 array of the result's own, each entry an integer
    by ``as_integer``'s rule; an integer array is copied in one pass."""
    if isinstance(order, np.ndarray) and order.dtype.kind in "iu" and order.ndim == 1:
        return order.astype(np.int64)
    ids = [as_integer(i, "order entry") for i in order]
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:  # past int64, so no player
        raise InvariantViolationError("the join order must list every player once") from None


@dataclass(frozen=True)
class ThresholdResult:
    """Output of the full-network contagion search.

    ``stages[n]`` pairs q_n with the equilibrium reached by cascading at
    q_n; the q's strictly decrease from 1 to q* >= 0 (``q_star``, the last q)
    while the equilibria strictly grow to the full set.  ``marginal_players[n]`` is the
    lowest-indexed player attaining the max that produced ``stages[n+1].q``.
    ``order`` lists the players as they joined, the initial set and then
    each step's flips ascending: stage n's members are its first ``stages[n].size``.
    ``node_count`` (at least 1), ``subsets_checked`` (nonnegative) and every
    player id are integers by ``as_integer``'s rule.  ``order`` may be given
    as an int64 array, as the stage log gives it: the result keeps a copy
    and reads it as a tuple of ints, built when ``order``, ``members``,
    ``==``, ``hash`` or ``to_dict(include_members=True)`` first needs it.
    """

    stages: tuple[ThresholdStage, ...]
    subsets_checked: int
    marginal_players: tuple[int, ...]
    node_count: int
    order: tuple[int, ...] = _JoinOrder()

    def __post_init__(self):
        if not self.stages:
            raise InvariantViolationError("stage sequence must start at q_0 = 1")
        if len(self.marginal_players) != len(self.stages) - 1:
            raise InvariantViolationError("one marginal player per stage descent")
        object.__setattr__(self, "subsets_checked", _count(self.subsets_checked, "subsets_checked"))
        n = _count(self.node_count, "node_count", least=1)
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "marginal_players", tuple(
            as_integer(i, "marginal player") for i in self.marginal_players))
        _check_stages(np.array([0, len(self.stages)]),
                      np.array([st.q.as_integer_ratio() for st in self.stages], dtype=object),
                      np.array([st.size for st in self.stages]),
                      np.array([*self.marginal_players, -1]), n)
        order = _join_order(self.__dict__["_order"])
        # n ids in range, each counted once: a permutation, in one bincount pass.
        if (len(order) != n or not 0 <= order.min() <= order.max() < n
                or not np.bincount(order, minlength=n).all()):
            raise InvariantViolationError("the join order must list every player once")
        object.__setattr__(self, "order", order)

    @property
    def q_star(self) -> Fraction:
        return self.stages[-1].q

    def members(self, k: int) -> PlayerSet:
        """The equilibrium of stage ``k``."""
        return frozenset(self.order[:self.stages[k].size])

    def to_dict(self, include_members: bool = False) -> dict:
        return {
            "q_star": rational_json(self.q_star),
            "stages": [{**st.to_dict(), "equilibrium_members": sorted(self.members(k))}
                       if include_members else st.to_dict() for k, st in enumerate(self.stages)],
            "subsets_checked": self.subsets_checked,
            "marginal_players": list(self.marginal_players),
        }


@dataclass(frozen=True)
class DepthFunction:
    """Step function q -> reached fraction, stored by breakpoints.

    ``breakpoints`` are q_0 = 1 > q_1 > ... > q_N = q* >= 0; on the half-open
    interval (q_{n+1}, q_n] the value is ``interval_sizes[n] / node_count``,
    and on [0, q*] it is 1.  ``node_count`` is an integer of at least 1;
    the sizes lie in [0, node_count) and do not fall as q does (a step
    function built by hand may repeat one).
    """

    breakpoints: tuple[Fraction, ...]
    interval_sizes: tuple[int, ...]
    node_count: int

    def __post_init__(self):
        object.__setattr__(self, "node_count", _count(self.node_count, "node_count", least=1))
        if len(self.interval_sizes) != len(self.breakpoints) - 1:
            raise InvariantViolationError("one interval value per breakpoint gap")
        qs, sizes = self.breakpoints, self.interval_sizes
        if qs[0] != 1 or qs[-1] < 0 or any(a <= b for a, b in zip(qs, qs[1:])):
            raise InvariantViolationError("breakpoints must fall strictly from 1 to a q* >= 0")
        if any(not 0 <= k < self.node_count for k in sizes) or any(
                a > b for a, b in zip(sizes, sizes[1:])):
            raise InvariantViolationError(
                "interval sizes must lie in [0, node_count) and must not fall")

    @classmethod
    def from_threshold(cls, result: ThresholdResult) -> "DepthFunction":
        return cls(
            breakpoints=tuple(st.q for st in result.stages),
            interval_sizes=tuple(st.size for st in result.stages[:-1]),
            node_count=result.node_count,
        )

    @property
    def q_star(self) -> Fraction:
        return self.breakpoints[-1]

    def to_dict(self) -> dict:
        return {
            "q_star": {"num": self.q_star.numerator, "den": self.q_star.denominator},
            "steps": [{"q_num": q.numerator, "q_den": q.denominator, "size": size}
                      for q, size in zip(self.breakpoints, self.interval_sizes)],
            "node_count": self.node_count,
        }


def depth_at(df: DepthFunction, q) -> Fraction:
    """Evaluate the depth step function, honoring (q_{n+1}, q_n] intervals."""
    q = as_unit_rational(q, "q")
    if q <= df.q_star:
        return Fraction(1)
    # q is in some (q_{n+1}, q_n]: n + 1 breakpoints are >= q.
    n = bisect_right(df.breakpoints, -q, key=operator.neg) - 1
    return Fraction(df.interval_sizes[n], df.node_count)


def _deviators(cfg: GameConfig, members: PlayerSet, q: Fraction) -> np.ndarray:
    """Whether each player deviates when ``members`` deviate, at q."""
    engine = ExactEngine(cfg)
    if engine.start([members]):  # full: s_i = w_i, so all deviate at any q <= 1
        return np.ones(cfg.network.node_count, dtype=bool)
    deviates = engine.deviating(np.array([q.as_integer_ratio()], dtype=object))[0]
    deviates[list(cfg.infected)] = True
    return deviates


def _check_start_incentive(cfg: GameConfig, start: PlayerSet, q: Fraction):
    # Infected players always deviate, so only the others are evaluated.
    others = sorted(start - cfg.infected)
    if not others:
        return
    deviates = _deviators(cfg, start, q)
    for i in others:
        if not deviates[i]:
            raise PreconditionError(
                f"player {i} has no incentive to deviate at q={rational_str(q)} "
                f"in the starting configuration", i)


def _initial(cfg: GameConfig, start: Iterable[int], q: Fraction) -> PlayerSet:
    """The players a search starts from: ``start``, once each member is
    checked to deviate at q, and the infected players.  The configuration's
    own infected set, a seeded start, is checked already and is returned as
    it is."""
    if start is cfg.infected:
        return start
    start = cfg.player_set(start)
    _check_start_incentive(cfg, start, q)
    return start | cfg.infected


def _ids(players: PlayerSet) -> np.ndarray:
    """The players as an int64 array, the engine's form of a starting set."""
    return np.fromiter(players, dtype=np.int64, count=len(players))


def cascade(cfg: GameConfig, start: Iterable[int], q) -> CascadeResult:
    """Run best-response waves from ``start`` at resilience q.

    Every starting player must already have the incentive at q in the
    starting configuration (exogenously infected players always do); the
    result is then the smallest Nash equilibrium at q containing the start.
    """
    q = as_unit_rational(q, "q")
    initial = _initial(cfg, start, q)
    log = _staged_search(cfg, [_ids(initial)], fixed_q=q)
    # One row: its flat ids are its players, and only its last step may be empty.
    waves = tuple(frozenset(flips.tolist()) for _, flips in log.steps if len(flips))
    return CascadeResult(waves=waves, initial=initial, subsets_checked=int(log.subsets_checked[0]))


def full_contagion_threshold(cfg: GameConfig, start: Iterable[int]) -> ThresholdResult:
    """Find the contagion threshold q* and the stagewise equilibria.

    Every starting player must have the incentive at q = 1 (as exogenously
    infected players do).  Each stage resumes the cascade from the previous
    equilibrium at the largest q that switches some outsider; by the
    bootstrap property the resumed cascade reaches exactly C(start, q).
    """
    return _staged_search(cfg, [_ids(_initial(cfg, start, Fraction(1)))]).result(0)


@dataclass(frozen=True, eq=False)
class StageLog:
    """The stages of a batch of staged searches, as integer columns.

    Stage ``k`` of the log reached an equilibrium of ``size[k]`` players by
    cascading at ``q_num[k] / q_den[k]`` (a reduced pair); ``marginal[k]``
    is the attainer of the max that gave the row's next q, -1 on its last
    stage.  The stages of row ``r`` are ``start[r]:start[r + 1]``, in search
    order.  ``steps`` holds each step's live rows before it and its flips:
    row ``r``'s are the flat ids ``f`` with ``live[f // n] == r``.  Building
    the log checks :class:`ThresholdResult`'s invariants over the arrays, so
    a search needs no per-stage object; ``result`` builds those of one row.
    """

    start: np.ndarray
    q_num: np.ndarray
    q_den: np.ndarray
    size: np.ndarray
    marginal: np.ndarray
    subsets_checked: np.ndarray  # per row
    node_count: int
    initials: Sequence[Iterable[int]]
    steps: list[tuple[np.ndarray, np.ndarray]]

    def result(self, row: int) -> ThresholdResult:
        lo, hi = self.start[row], self.start[row + 1]
        qs = [Fraction(a, b) for a, b in zip(self.q_num[lo:hi].tolist(),
                                             self.q_den[lo:hi].tolist())]
        n, initial = self.node_count, self.initials[row]
        order = [np.sort(initial if isinstance(initial, np.ndarray) else _ids(initial))]
        if len(self.initials) == 1:  # one row: its flat ids are its players
            order += [flips for _, flips in self.steps]
        else:
            order += [flips[live[flips // n] == row] % n for live, flips in self.steps]
        return ThresholdResult(
            stages=tuple([ThresholdStage(q, size) for q, size in
                          zip(qs, self.size[lo:hi].tolist())]),
            subsets_checked=int(self.subsets_checked[row]),
            marginal_players=tuple(self.marginal[lo:hi - 1].tolist()),
            node_count=n, order=np.concatenate(order))


def _staged_search(cfg: GameConfig, initials: Sequence[Iterable[int]],
                   snapshot: StartSnapshot | None = None,
                   fixed_q: Fraction | None = None) -> StageLog:
    """The staged search from every initial set at once, one engine row each.

    ``initials`` are the engine's starting sets (start plus infected); the
    caller has checked that every member deviates at q = 1, or at the
    ``fixed_q`` of a one-row cascade, which stops at its first stage, below
    q = 1 and so not held to the search's invariants.  Rows advance in
    lockstep: each step evaluates every live row at its own q, applies the
    rows that flip, and closes a stage on each row that does not.
    Each step appends its closed stages and its flips to the log as arrays.
    Searches of the same sets on one network and weights may share a
    ``snapshot`` of their start (see ``ExactEngine.start``).
    """
    n = cfg.network.node_count
    engine = ExactEngine(cfg)
    filled = engine.start(initials, snapshot)
    # Each row's q as max_threshold gives it, a pair of at most B: int64
    # when B fits, for int32 tables too (deviating casts them to its tier,
    # and the log's columns stay int64); the log reduces the pairs once.
    pairs = np.ones((len(initials), 2), dtype=object if engine.tables.bound >= _INT64_LIMIT
                    else np.int64)
    if fixed_q is not None:  # a one-row cascade's q, of any terms: Python ints
        pairs = np.array([fixed_q.as_integer_ratio()], dtype=object)
    # Log pieces: (rows, q pairs, sizes, marginals), one per closing event.
    pieces: list[tuple[np.ndarray, ...]] = []
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    while True:
        if filled:
            done = np.array(filled)
            pieces.append((done, pairs[done], np.full(len(done), n), np.full(len(done), -1)))
        live = engine.live
        if not len(live):
            break
        flips = engine.flip_candidates(pairs)
        steps.append((live, flips))
        # Positions of the rows without flips; a lone row owns every flip.
        if len(live) == 1:
            ended = np.arange(0 if len(flips) else 1)
        else:
            moving = np.zeros(len(live), dtype=bool)
            moving[flips // n] = True
            ended = np.flatnonzero(~moving)
        if len(ended):
            closed = live[ended]
            if fixed_q is not None:
                pieces.append((closed, pairs[closed], engine.K[ended], np.full(len(ended), -1)))
                break
            num, den, marginal = engine.max_threshold(ended)
            q = pairs[closed]
            # Exact in int64: q and the threshold are pairs of at most B,
            # and max_threshold gives Python ints when B^2 does not fit.
            stuck = num * q[:, 1] >= q[:, 0] * den
            if stuck.any():
                k = int(np.argmax(stuck))
                raise InvariantViolationError(
                    f"stage threshold {Fraction(int(num[k]), int(den[k]))} did not "
                    f"decrease below {Fraction(int(q[k, 0]), int(q[k, 1]))}")
            pieces.append((closed, q, engine.K[ended], marginal))
            pairs[closed, 0], pairs[closed, 1] = num, den
        filled = engine.apply(flips) if len(flips) else []
    return _stage_log(pieces, n, initials, steps, checked=fixed_q is None)


def _check_stages(start, q, size, marginal, n: int):
    """Check :class:`ThresholdResult`'s invariants on the stages of each row
    ``r``, ``start[r]:start[r + 1]`` (nonempty) of the columns: q as
    reduced pairs, equilibrium sizes and marginal players (-1 on a row's
    last stage).  Products of two q terms are taken in Python ints where
    they may exceed int64."""
    first, last = start[:-1], start[1:] - 1
    qn, qd = (q[:, 0], q[:, 1]) if int(q.max()) ** 2 < _INT64_LIMIT else (
        q[:, 0].astype(object), q[:, 1].astype(object))
    descent = np.ones(len(size), dtype=bool)
    descent[last] = False
    if not ((qn[first] == 1) & (qd[first] == 1)).all():
        raise InvariantViolationError("stage sequence must start at q_0 = 1")
    # Stages k and k + 1 belong to one row where k is a descent.
    if not ((qn[1:] * qd[:-1] < qn[:-1] * qd[1:]) & (size[1:] > size[:-1]))[descent[:-1]].all():
        raise InvariantViolationError("q must strictly decrease and equilibria strictly grow")
    if (qn[last] < 0).any():
        raise InvariantViolationError("q* must be nonnegative")
    if (size[first] < 0).any():
        raise InvariantViolationError("equilibrium sizes must be nonnegative")
    if (size[last] != n).any():
        raise InvariantViolationError("last equilibrium must be the full set")
    if ((marginal >= 0) != descent).any():
        raise InvariantViolationError("one marginal player per stage descent")
    if (marginal >= n).any():
        raise InvariantViolationError("marginal players must be players of the network")


def _stage_log(pieces, n: int, initials, steps, checked: bool = True) -> StageLog:
    """Group the logged stages by row, reduce their q pairs, check the
    search's invariants on them if ``checked``, and count each row's evaluations."""
    row, q, size, marginal = (np.concatenate(col) for col in zip(*pieces))
    order = np.argsort(row, kind="stable")
    row, q, size, marginal = row[order], q[order], size[order], marginal[order]
    q = q // np.gcd(q[:, :1], q[:, 1:])
    evaluations = np.zeros(len(initials), dtype=np.int64)
    for live, _ in steps:  # every live row is evaluated once per step
        evaluations[live] += 1
    counts = np.bincount(row, minlength=len(initials))
    start = np.concatenate([[0], np.cumsum(counts)])
    if checked:
        _check_stages(start, q, size, marginal, n)
    # Each resumed stage re-examines the set whose evaluation ended the
    # previous stage; it is counted once, not twice.
    return StageLog(start=start, q_num=q[:, 0], q_den=q[:, 1], size=size,
                    marginal=marginal, subsets_checked=evaluations - (counts - 1),
                    node_count=n, initials=initials, steps=steps)


def depth_function(cfg: GameConfig, start: Iterable[int]) -> DepthFunction:
    """Depth of contagion from ``start`` as a step function of q."""
    return DepthFunction.from_threshold(full_contagion_threshold(cfg, start))


def virality(cfg: GameConfig, start: Iterable[int], q) -> Fraction:
    """Equilibrium spread beyond the starting set: depth minus |start|/I."""
    start = cfg.player_set(start)
    result = cascade(cfg, start, q)
    n = cfg.network.node_count
    return Fraction(len(result.final), n) - Fraction(len(start), n)


def is_nash(cfg: GameConfig, members: Iterable[int], q) -> bool:
    """Direct equilibrium check: exactly the members deviate at q (infected players always do)."""
    q = as_unit_rational(q, "q")
    E = cfg.player_set(members)
    return np.flatnonzero(_deviators(cfg, E, q)).tolist() == sorted(E)


def coexisting_conventions(cfg: GameConfig, start: Iterable[int], q) -> PlayerSet | None:
    """Smallest equilibrium strictly between empty and full containing ``start``.

    Returns None when the cascade from ``start`` fills the network (no
    coexistence extending this set).
    """
    start = cfg.player_set(start)
    if not start:
        raise ParameterError("starting set must be nonempty")
    final = cascade(cfg, start, q).final
    return final if len(final) < cfg.network.node_count else None


def cohesiveness(net: Network, members: Iterable[int]) -> Fraction:
    """Largest r such that every member has at least fraction r of its
    neighbors inside the set (unit-weight notion)."""
    S = frozenset(_player(i, net.node_count) for i in members)
    if not S:
        raise ParameterError("cohesiveness of the empty set is undefined")
    adjacency = net.adjacency
    # A member without neighbors is vacuously as cohesive as anything.
    return min((Fraction(sum(j in S for j in adjacency[i]), len(adjacency[i]))
                for i in S if adjacency[i]), default=Fraction(1))


def is_uniformly_at_most_cohesive(cfg: GameConfig, members: Iterable[int], r) -> bool:
    """Whether every nonempty subset of ``members`` is at most r-cohesive.

    Only supported for local-effects-only unit-weight games, where the
    answer equals the contagion test: seed the complement exogenously, and
    compare 1 - r with the resulting contagion threshold.  The
    configuration's own infected set plays no role here; the question is a
    property of the network alone.
    """
    r = as_unit_rational(r, "r")
    if not cfg.weights.is_unit or not cfg.global_effect.is_zero:
        raise UnsupportedHypothesisError(
            "uniform cohesion via the threshold route requires unit weights "
            "and no global effects")
    A = cfg.player_set(members)
    complement = frozenset(range(cfg.network.node_count)) - A
    seeded = replace(cfg, infected=complement)
    result = full_contagion_threshold(seeded, complement)
    return 1 - r <= result.q_star
