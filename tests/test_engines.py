"""The integer engine must be indistinguishable from a Fraction reference."""

import logging
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netcontagion import _engines
from netcontagion._engines import ExactEngine, StartSnapshot, _row_max
from netcontagion.contagion import (
    DepthFunction,
    ThresholdResult,
    ThresholdStage,
    _stage_log,
    _staged_search,
    cascade,
    depth_function,
    full_contagion_threshold,
    is_nash,
)
from netcontagion.errors import InvariantViolationError
from netcontagion.game import (
    GameConfig,
    InfluenceWeights,
    ParametricGlobalEffect,
    TabularGlobalEffect,
    has_incentive,
)
from netcontagion.graphs import Network, generate_ba

F = Fraction


class FractionEngine:
    """Reference engine: the deviation condition per player in Fractions."""

    def __init__(self, cfg: GameConfig):
        self.cfg = cfg
        net = cfg.network
        self.n = net.node_count
        self.adj = net.adjacency
        self.rows = [cfg.weights.row(i) for i in range(self.n)]
        self.c = cfg.c
        self.cw = [cfg.c * cfg.weights.row_sum(i) for i in range(self.n)]
        self.pool = [self.n - net.degree(i) - 1 for i in range(self.n)]

    def start(self, initial):
        self.infected = bytearray(self.n)
        self.s = [Fraction(0)] * self.n
        self.K = 0
        self.k = [0] * self.n
        self.uninf = set(range(self.n))
        self.apply(sorted(initial))

    def uninfected_count(self):
        return len(self.uninf)

    def infected_set(self):
        return frozenset(i for i in range(self.n) if self.infected[i])

    def _rhs(self, i):
        # c*w_i - phi_i(p_i) with p_i = outside / pool_i (0 on empty pool).
        pool = self.pool[i]
        p = Fraction(0) if pool == 0 else Fraction(self.K - self.k[i], pool)
        return self.cw[i] - self.cfg.global_effect.value(i, p, self.c, len(self.adj[i]))

    def flip_candidates(self, q):
        return [i for i in sorted(self.uninf)
                if q == 0 or self.c * self.s[i] >= q * self._rhs(i)]

    def apply(self, flips):
        for j in flips:
            self.infected[j] = 1
            self.uninf.discard(j)
        self.K += len(flips)
        for j in flips:
            for nb in self.adj[j]:
                self.s[nb] += self.rows[nb][j]
                self.k[nb] += 1

    def max_threshold(self):
        """The largest switch threshold and its lowest-indexed attainer."""
        best, first = None, None
        for i in sorted(self.uninf):
            rhs = self._rhs(i)
            if rhs <= 0:
                raise InvariantViolationError(f"player {i} has rhs {rhs}")
            t = self.c * self.s[i] / rhs
            if best is None or t > best:
                best, first = t, i
        if best is None:
            raise InvariantViolationError("no outsiders left to compute a threshold")
        return best, first


class OneRow:
    """``ExactEngine`` with a single batch row, in the reference's interface."""

    def __init__(self, cfg: GameConfig):
        self.engine = ExactEngine(cfg)

    def start(self, initial):
        self.engine.start([initial])

    def uninfected_count(self):
        return self.engine.uninfected_count()

    def infected_set(self):
        if not len(self.engine.live):  # a full row is retired
            return frozenset(range(self.engine.n))
        return frozenset(np.flatnonzero(~self.engine.outside[0]).tolist())

    def flip_candidates(self, q):
        return self.engine.flip_candidates(pairs([q]))

    def apply(self, flips):
        self.engine.apply(flips)

    def max_threshold(self):
        [(t, first)] = thresholds(self.engine, [0])
        return t, first


def pairs(qs):
    """The engine's form of one q per batch row: a ``(rows, 2)`` array of
    numerators and denominators, as Python ints."""
    return np.array([F(q).as_integer_ratio() for q in qs], dtype=object).reshape(-1, 2)


def thresholds(engine, positions):
    """``max_threshold``'s arrays as one (Fraction(num, den), attainer) per position."""
    num, den, first = engine.max_threshold(positions)
    return [(F(a, b), i) for a, b, i in zip(num.tolist(), den.tolist(), first.tolist())]


def run_threshold_trace(engine, initial):
    """Drive the stage loop on a raw engine, logging waves and thresholds."""
    trace = []
    q = F(1)
    engine.start(initial)
    while True:
        while engine.uninfected_count() > 0:
            flips = engine.flip_candidates(q)
            if len(flips) == 0:
                break
            engine.apply(flips)
            trace.append(("wave", frozenset(int(i) for i in flips)))
        if engine.uninfected_count() == 0:
            return trace
        t, first = engine.max_threshold()
        trace.append(("q", t, first))
        if t == 0:
            assert len(engine.flip_candidates(F(0))) == engine.uninfected_count()
            return trace
        q = t


def run_fixed_q(engine, initial, q):
    """Waves of a cascade at one q, as sorted lists."""
    engine.start(initial)
    waves = []
    while True:
        flips = sorted(int(i) for i in engine.flip_candidates(q))
        if not flips:
            return waves, engine.infected_set()
        engine.apply(np.asarray(flips, dtype=np.int64))
        waves.append(flips)


def fraction_search(cfg, initial):
    """The staged search over the reference engine, one start at a time; its
    join order is the initial set, then each wave, each ascending."""
    engine = FractionEngine(cfg)
    engine.start(initial)
    n = cfg.network.node_count
    q, stages, marginals, checked, order = F(1), [], [], 0, sorted(initial)
    while True:
        first_evaluation = True
        while engine.uninfected_count() > 0:
            flips = engine.flip_candidates(q)
            if not (first_evaluation and stages):
                checked += 1
            first_evaluation = False
            if not flips:
                break
            engine.apply(flips)
            order += flips
        # The reference's stage set is the order so far.
        assert engine.infected_set() == frozenset(order)
        stages.append(ThresholdStage(q=q, size=n - engine.uninfected_count()))
        if engine.uninfected_count() == 0:
            return ThresholdResult(stages=tuple(stages), subsets_checked=checked,
                                   marginal_players=tuple(marginals), node_count=n,
                                   order=tuple(order))
        q, first = engine.max_threshold()
        marginals.append(first)


def results(log):
    """Every row's ThresholdResult from a stage log."""
    return [log.result(row) for row in range(len(log.start) - 1)]


def assert_engines_agree(cfg, initial, qs=()):
    assert run_threshold_trace(OneRow(cfg), initial) == \
        run_threshold_trace(FractionEngine(cfg), initial)
    for q in qs:
        assert run_fixed_q(OneRow(cfg), initial, q) == \
            run_fixed_q(FractionEngine(cfg), initial, q)


def random_weights(rng, net, zero_directions=False):
    # Values >= 1 keep the parametric bound alpha*d_i <= w_i automatic.
    palette = [F(1), F(3, 2), F(2), F(7, 4), F(5, 3), F(7, 6)]
    rows = []
    for i, nbrs in enumerate(net.adjacency):
        row = {j: palette[int(rng.integers(0, len(palette)))] for j in nbrs}
        if zero_directions and len(nbrs) > 1:
            row[nbrs[int(rng.integers(0, len(nbrs)))]] = F(0)
        rows.append(row)
    return InfluenceWeights(net, rows)


def random_tables(rng, net, c, weights):
    """Step tables rising to at most c*w_i, with assorted breakpoints."""
    tables = []
    for i in range(net.node_count):
        cap = c * weights.row_sum(i)
        cuts = sorted({F(int(rng.integers(1, 8)), 7) for _ in range(3)})
        values = sorted(cap * F(int(rng.integers(0, 5)), 4) for _ in cuts)
        tables.append(((F(0), F(0)),) + tuple(zip(cuts, values)))
    return TabularGlobalEffect(tuple(tables))


@pytest.mark.parametrize("seed", range(12))
def test_fast_matches_exact_trace(seed):
    # Unit, weighted, weighted with zero directions and tabular games, each
    # against the Fraction reference, staged search and fixed-q cascades.
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.integers(10, 60))
    net = generate_ba(n, int(rng.integers(1, 4)), seed)
    c = [F(1), F(3, 2), F(2, 5)][seed % 3]
    kind = ("unit", "weighted", "zero-weight", "tabular")[seed % 4]
    weights = (InfluenceWeights.unit(net) if kind == "unit"
               else random_weights(rng, net, zero_directions=kind == "zero-weight"))
    if kind == "tabular":
        effect = random_tables(rng, net, c, weights)
    elif kind == "zero-weight":
        effect = ParametricGlobalEffect(F(0))
    else:
        effect = ParametricGlobalEffect(F(int(rng.integers(0, 5)), 4))
    start = frozenset(int(i) for i in range(n) if rng.random() < 0.2) or frozenset({0})
    cfg = GameConfig(network=net, weights=weights, c=c, global_effect=effect,
                     infected=start)
    assert_engines_agree(cfg, start, qs=[F(0), F(1, 3), F(1, 2), F(5, 7)])


@pytest.mark.parametrize("seed", range(12))
def test_fast_matches_exact_single_q(seed):
    rng = np.random.Generator(np.random.PCG64(100 + seed))
    n = int(rng.integers(8, 40))
    if seed % 3 == 0:
        # Star: the hub's non-neighbor pool is empty, hitting the engines'
        # degenerate-share branch directly.
        net = Network.from_edges(n, [(0, i) for i in range(1, n)])
    else:
        net = generate_ba(n, 2, seed)
    weights = InfluenceWeights.unit(net) if seed % 2 else random_weights(rng, net)
    alpha = F(int(rng.integers(0, 3)), 2)
    effect = (random_tables(rng, net, F(1), weights) if seed % 4 == 1
              else ParametricGlobalEffect(alpha))
    cfg = GameConfig(network=net, weights=weights, global_effect=effect,
                     infected=frozenset({0, n - 1}))
    den = int(rng.integers(1, 30))
    q = F(int(rng.integers(0, den + 1)), den)
    assert run_fixed_q(OneRow(cfg), cfg.infected, q) == \
        run_fixed_q(FractionEngine(cfg), cfg.infected, q)


def test_fast_engine_flags_empty_pool():
    star = Network.from_edges(6, [(0, i) for i in range(1, 6)])
    cfg = GameConfig(network=star, infected=frozenset({1}))
    engine = ExactEngine(cfg)
    engine.start([cfg.infected])
    # At q=1 the hub needs every neighbor (its share pool is empty), while a
    # leaf needs only its single neighbor.
    assert list(engine.flip_candidates(pairs([F(1)]))) == []
    engine2 = ExactEngine(GameConfig(network=star, infected=frozenset({0})))
    engine2.start([frozenset({0})])
    flips = engine2.flip_candidates(pairs([F(1)]))
    assert sorted(int(i) for i in flips) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("alpha", [F(0), F(1, 2), F(1)])
def test_star_and_q_zero_match_reference(alpha):
    star = Network.from_edges(7, [(0, i) for i in range(1, 7)])
    weights = InfluenceWeights.from_pairs(star, {(0, 3): F(5, 2), (4, 0): F(3)})
    for tabular in (False, True):
        effect = (random_tables(np.random.Generator(np.random.PCG64(3)), star, F(1), weights)
                  if tabular else ParametricGlobalEffect(alpha))
        for start in (frozenset({0}), frozenset({2, 5}), frozenset()):
            cfg = GameConfig(network=star, weights=weights, global_effect=effect,
                             infected=start)
            assert run_fixed_q(OneRow(cfg), start, F(0)) == \
                run_fixed_q(FractionEngine(cfg), start, F(0))
            if start:
                assert_engines_agree(cfg, start, qs=[F(1, 2), F(1)])


def test_fast_engine_oversized_q_falls_back_to_bigint(caplog):
    net = generate_ba(30, 2, 0)
    cfg = GameConfig(network=net, infected=frozenset({0, 1, 2}))
    huge_den = 10**30
    q = F(huge_den - 12345, huge_den * 3)
    engine = OneRow(cfg)
    with caplog.at_level(logging.DEBUG, logger="netcontagion._engines"):
        assert run_fixed_q(engine, cfg.infected, q) == \
            run_fixed_q(FractionEngine(cfg), cfg.infected, q)
    # Logged once for the engine, however many calls took the slow path.
    assert len([r for r in caplog.records if "Python ints" in r.getMessage()]) == 1


def test_int64_path_is_silent(caplog):
    net = generate_ba(30, 2, 0)
    cfg = GameConfig(network=net, global_effect=ParametricGlobalEffect(F(1, 2)),
                     infected=frozenset({0, 1, 2}))
    with caplog.at_level(logging.DEBUG, logger="netcontagion._engines"):
        run_threshold_trace(OneRow(cfg), cfg.infected)
    assert not caplog.records


@pytest.mark.parametrize("side", ["below", "above"])
def test_weighted_products_around_int64_limit(side, caplog):
    # On a 4-cycle with alpha = 0, num_i = S_i = L_i * s_i.  Weight 1/L on
    # one direction makes player 0's row LCM L, so with both neighbours
    # infected num_0 = L + 1 = B, and num_0 * qd lands just below or just
    # above 2^63.
    net = Network.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    L = 2**40 + 15
    weights = InfluenceWeights.from_pairs(net, {(0, 1): F(1, L)})
    cfg = GameConfig(network=net, weights=weights, infected=frozenset({1, 3}))
    engine = ExactEngine(cfg)
    assert engine.tables.bound == L + 1
    qd = (2**63 - 1) // engine.tables.bound + (1 if side == "above" else 0)
    with caplog.at_level(logging.DEBUG, logger="netcontagion._engines"):
        for qn in (1, qd // 3, qd - 1, qd):
            q = F(qn, qd)
            assert run_fixed_q(OneRow(cfg), cfg.infected, q) == \
                run_fixed_q(FractionEngine(cfg), cfg.infected, q)
    slow = [r for r in caplog.records if "Python ints" in r.getMessage()]
    assert bool(slow) == (side == "above")
    assert_engines_agree(cfg, cfg.infected)


def test_tables_beyond_int64_stay_exact():
    # Row LCMs above 2^63 put every table in Python ints from the start.
    net = generate_ba(12, 2, 5)
    rng = np.random.Generator(np.random.PCG64(9))
    pairs = {(i, j): F(int(rng.integers(1, 9)), 10**20 + int(rng.integers(0, 7)))
             for i, nbrs in enumerate(net.adjacency) for j in nbrs[:1]}
    weights = InfluenceWeights.from_pairs(net, pairs)
    for effect in (ParametricGlobalEffect(F(0)),
                   random_tables(rng, net, F(1), weights)):
        cfg = GameConfig(network=net, weights=weights, global_effect=effect,
                         infected=frozenset({0, 5}))
        assert ExactEngine(cfg).tables.bound >= 2**63
        assert_engines_agree(cfg, cfg.infected, qs=[F(1, 3), F(10**30 - 1, 10**30)])


@pytest.mark.parametrize("big", [2**31, 10**17])
def test_max_threshold_settles_float_ties_exactly(big):
    # Outsiders 0 and 2 of a 4-cycle seeded at 1 have switch thresholds
    # big/(big+1) < (big+1)/(big+2), which round to the same float; the
    # larger one belongs to the higher index.  2**31 keeps the cross
    # products in int64, 10**17 does not.
    net = Network.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    weights = InfluenceWeights.from_pairs(net, {(0, 1): F(big), (2, 1): F(big + 1)})
    cfg = GameConfig(network=net, weights=weights, infected=frozenset({1}))
    engine = ExactEngine(cfg)
    engine.start([cfg.infected])
    assert len(engine.flip_candidates(pairs([F(1)]))) == 0
    assert thresholds(engine, [0]) == [(F(big + 1, big + 2), 2)]
    assert_engines_agree(cfg, cfg.infected)
    # Across rows, the settling moves only the rows whose float argmax was
    # wrong; the row seeded at 3 has a float-distinct max 1/(big+1) at 0.
    engine.start([frozenset({1}), frozenset({3}), frozenset({1})])
    assert len(engine.flip_candidates(pairs([F(1)] * 3))) == 0
    assert thresholds(engine, [0, 1, 2]) == [
        (F(big + 1, big + 2), 2), (F(1, big + 1), 0), (F(big + 1, big + 2), 2)]
    assert thresholds(engine, [1, 2]) == [(F(1, big + 1), 0), (F(big + 1, big + 2), 2)]


def test_max_threshold_after_apply_sees_the_new_set():
    # max_threshold reads the pairs of the last deviating call, so after an
    # apply it refuses until the grown set is evaluated again.  At alpha =
    # 1/2 every outsider's denominator stays positive, so the max is
    # defined mid-stage too.
    net = generate_ba(30, 2, 4)
    rng = np.random.Generator(np.random.PCG64(2))
    for weights in (InfluenceWeights.unit(net), random_weights(rng, net)):
        cfg = GameConfig(network=net, weights=weights,
                         global_effect=ParametricGlobalEffect(F(1, 2)))
        engine, reference = ExactEngine(cfg), FractionEngine(cfg)
        engine.start([frozenset({0, 1, 2})])
        reference.start(frozenset({0, 1, 2}))
        with pytest.raises(InvariantViolationError, match="last deviating call"):
            engine.max_threshold([0])  # nothing evaluated since the start
        flips = engine.flip_candidates(pairs([F(1, 3)]))
        assert len(flips)
        engine.apply(flips)
        reference.apply(flips.tolist())
        with pytest.raises(InvariantViolationError, match="last deviating call"):
            engine.max_threshold([0])
        engine.deviating(pairs([F(1, 3)]))
        [(t, first)] = thresholds(engine, [0])
        assert (t, first) == reference.max_threshold()


@pytest.mark.parametrize("seed", range(4))
def test_tabular_matching_parametric_gives_identical_dynamics(seed):
    # A per-player step table sampled from alpha*c*d_i*p at every attainable
    # share must reproduce the parametric run exactly.
    rng = np.random.Generator(np.random.PCG64(40 + seed))
    n = int(rng.integers(8, 16))
    net = generate_ba(n, 2, seed)
    alpha, c = F(1, 2), F(3, 2)
    tables = []
    for i in range(n):
        pool = n - net.degree(i) - 1
        points = [(F(k, pool), alpha * c * net.degree(i) * F(k, pool))
                  for k in range(pool + 1)] if pool else [(F(0), F(0))]
        tables.append(tuple(points))
    start = frozenset(int(i) for i in range(n) if rng.random() < 0.3) or frozenset({0})
    parametric = GameConfig(network=net, c=c,
                            global_effect=ParametricGlobalEffect(alpha),
                            infected=start)
    tabular = GameConfig(network=net, c=c,
                         global_effect=TabularGlobalEffect(tuple(tables)),
                         infected=start)
    a = full_contagion_threshold(parametric, start)
    b = full_contagion_threshold(tabular, start)
    assert a.q_star == b.q_star
    assert (a.stages, a.order) == (b.stages, b.order)
    assert a.subsets_checked == b.subsets_checked


def test_tables_are_built_once_per_game():
    # Each config builds its tables once, and all its engines read them; a
    # config that differs only in its infected set builds equal ones.
    net = generate_ba(20, 2, 3)
    weights = InfluenceWeights.from_pairs(net, {(0, net.adjacency[0][0]): F(3, 2)})
    rng = np.random.Generator(np.random.PCG64(4))
    for effect in (ParametricGlobalEffect(F(1, 3)), random_tables(rng, net, F(1), weights)):
        cfg = GameConfig(network=net, weights=weights, global_effect=effect)
        first, again = ExactEngine(cfg), ExactEngine(cfg)
        assert first.tables is again.tables is cfg.engine_tables
        seeded = replace(cfg, infected=frozenset({4})).engine_tables
        assert seeded is not first.tables
        for name in first.tables.__dataclass_fields__:
            mine, theirs = getattr(first.tables, name), getattr(seeded, name)
            assert type(mine) is type(theirs)
            if isinstance(mine, np.ndarray):
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
            else:
                assert mine == theirs


def row_axis_game(kind):
    """A game and batch rows: a whole-network row, duplicates, and starts
    that need very different numbers of stages."""
    if kind == "python-ints":
        # The row LCM of test_weighted_products_around_int64_limit: every
        # stage threshold has a denominator near 2^40, so both phases
        # decide in Python ints.
        net = Network.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        weights = InfluenceWeights.from_pairs(net, {(0, 1): F(1, 2**40 + 15)})
        rows = [frozenset({1, 3}), frozenset({0}), frozenset(range(4)),
                frozenset({1, 3}), frozenset({2}), frozenset()]
        return GameConfig(network=net, weights=weights), rows
    if kind == "beyond-int64":
        # The weights of test_tables_beyond_int64_stay_exact: tables, supports
        # and every stage q exceed int64.
        net = generate_ba(12, 2, 5)
        rng = np.random.Generator(np.random.PCG64(9))
        pairs = {(i, j): F(int(rng.integers(1, 9)), 10**20 + int(rng.integers(0, 7)))
                 for i, nbrs in enumerate(net.adjacency) for j in nbrs[:1]}
        rows = [frozenset({0, 5}), frozenset(range(12)), frozenset({3}),
                frozenset({0, 5}), frozenset(range(1, 12, 2))]
        return GameConfig(network=net, weights=InfluenceWeights.from_pairs(net, pairs)), rows
    rng = np.random.Generator(np.random.PCG64(77))
    net = generate_ba(40, 2, 8)
    if kind in ("int32", "int64"):
        return tier_limit_game(net, TIER_BOUNDS[kind]), [
            frozenset({39}), frozenset(range(40)), frozenset(range(0, 40, 2)),
            frozenset({39}), frozenset(range(3, 40)), frozenset({0, 1, 2}), frozenset({5})]
    weights = (InfluenceWeights.unit(net) if kind in ("unit", "alpha-0")
               else random_weights(rng, net))
    effect = (random_tables(rng, net, F(1), weights) if kind == "tabular"
              else ParametricGlobalEffect(F(0) if kind == "alpha-0" else F(1, 2)))
    rows = [frozenset({39}), frozenset(range(40)), frozenset(range(0, 40, 2)),
            frozenset({39}), frozenset(range(3, 40)),
            frozenset(int(i) for i in rng.choice(40, 6, replace=False))]
    return GameConfig(network=net, weights=weights, global_effect=effect), rows


# The bounds on either side of the int32 tier's limit: 46340^2 < 2^31 <= 46341^2.
TIER_BOUNDS = {"int32": 46340, "int64": 46341}


def tier_limit_game(net, bound):
    """A tabular game whose B is ``bound``: each player's row sum lifted to
    ``bound`` minus a multiple of 4099 by one integer weight, and integer
    step values at c = 1, so that every M_i and a_i is 1 and B the largest
    row sum.  Its stage thresholds have denominators up to B."""
    weights = InfluenceWeights.from_pairs(net, {
        (i, net.neighbors(i)[i % net.degree(i)]): bound - net.degree(i) + 1 - 4099 * (i % 9)
        for i in range(net.node_count)})
    tables = tuple(((F(0), F(0)), (F(1, 3), F(int(weights.W[i]) // 6)),
                    (F(2, 3), F(int(weights.W[i]) // 4))) for i in range(net.node_count))
    return GameConfig(network=net, weights=weights, global_effect=TabularGlobalEffect(tables))


ROW_AXIS_KINDS = ["unit", "weighted", "tabular", "alpha-0", "python-ints", "beyond-int64",
                  "int32", "int64"]


@pytest.mark.parametrize("kind", ROW_AXIS_KINDS)
def test_row_batch_matches_single_rows_and_reference(kind, caplog):
    check_row_batch(kind, caplog)


@pytest.mark.parametrize("slots", [1, 7])
@pytest.mark.parametrize("kind", ROW_AXIS_KINDS)
def test_row_batch_in_slot_pieces_matches_reference(kind, slots, caplog, monkeypatch):
    monkeypatch.setattr(_engines, "_SLOTS", slots)
    check_row_batch(kind, caplog)


def test_start_pieces_span_rows_and_players(monkeypatch):
    """A start whose slots split inside a hub's list and whose pieces cover
    several rows builds the state of one unsplit expansion."""
    rng = np.random.Generator(np.random.PCG64(3))
    net = generate_ba(40, 2, 8)
    hub = int(np.argmax(net.degrees))
    assert net.degree(hub) > 5
    rows = [frozenset({hub}), frozenset({1, 2}), frozenset(), frozenset({hub, 0, 39}),
            frozenset(int(i) for i in rng.choice(40, 9, replace=False)), frozenset({7})]
    for weights in (InfluenceWeights.unit(net), random_weights(rng, net)):
        cfg = GameConfig(network=net, weights=weights,
                         global_effect=ParametricGlobalEffect(F(1, 3)))
        whole = ExactEngine(cfg)
        whole.start(rows)
        monkeypatch.setattr(_engines, "_SLOTS", 5)
        pieces = ExactEngine(cfg)
        pieces.start(rows)
        for name in ("K", "outside", "S", "o"):
            assert np.array_equal(getattr(pieces, name), getattr(whole, name)), name
        assert results(_staged_search(cfg, rows)) == [fraction_search(cfg, row) for row in rows]
        monkeypatch.undo()


def check_row_batch(kind, caplog):
    cfg, rows = row_axis_game(kind)
    with caplog.at_level(logging.DEBUG, logger="netcontagion._engines"):
        batch = results(_staged_search(cfg, rows))
        single = [_staged_search(cfg, [row]).result(0) for row in rows]
        reference = [fraction_search(cfg, row) for row in rows]
        # Equal results compare q*, every stage, subsets_checked, the
        # marginal players and the join order, whose prefixes are the stages.
        assert batch == single == reference
        for row, result in zip(rows, batch):
            seeded = replace(cfg, infected=row)
            for k, stage in enumerate(result.stages):
                assert result.members(k) == cascade(seeded, row, stage.q).final
    stages = [len(result.stages) for result in batch]
    assert stages[rows.index(frozenset(range(cfg.network.node_count)))] == 1
    if kind in ("unit", "weighted", "tabular", "alpha-0", "int32", "int64"):
        # Rows retire while others still have several stages to go.
        assert max(stages) - min(stages) >= 3
    slow = [r for r in caplog.records if "Python ints" in r.getMessage()]
    assert bool(slow) == (kind in ("python-ints", "beyond-int64"))


def test_staged_search_rejects_a_row_whose_threshold_does_not_fall(monkeypatch):
    # One row of a multi-row closing step gets threshold 1, which lies below
    # no stage q; the vectorized decrease check must still catch it.
    cfg, rows = row_axis_game("unit")
    original = ExactEngine.max_threshold
    patched = []

    def stuck(self, positions):
        num, den, first = original(self, positions)
        if len(positions) > 1:
            patched.append(len(positions))
            num, den = num.copy(), den.copy()
            num[1] = den[1] = 1
        return num, den, first

    monkeypatch.setattr(ExactEngine, "max_threshold", stuck)
    with pytest.raises(InvariantViolationError, match="did not decrease"):
        _staged_search(cfg, rows)
    assert patched


def test_staged_search_beyond_int64_matches_one_row_searches():
    # Tables beyond int64: the q pairs and the stage log are Python ints.
    cfg, rows = row_axis_game("beyond-int64")
    log = _staged_search(cfg, rows)
    assert log.q_num.dtype == log.q_den.dtype == object
    assert max(log.q_den.tolist()) >= 2**63
    assert results(log) == [full_contagion_threshold(replace(cfg, infected=row), row)
                             for row in rows]


def log_pieces(qs, sizes, marginals):
    """A two-row stage log, as the search appends it: row 0 has three
    stages, closed one per step, and row 1 fills at once."""
    return [(np.array([1]), np.array([[1, 1]]), np.array([4]), np.array([-1]))] + [
        (np.array([0]), np.array([q]), np.array([size]), np.array([marginal]))
        for q, size, marginal in zip(qs, sizes, marginals)]


# Row 0 of ``log_pieces`` starts from {0} and is evaluated five times (two
# of them close a stage); row 1 starts full.
LOG_INITIALS = [frozenset({0}), frozenset(range(4))]
LOG_STEPS = [(np.array([0]), np.array(flips, dtype=np.int64))
             for flips in ([], [1], [2], [], [3])]


GOOD_LOG = ([(1, 1), (1, 2), (1, 3)], [1, 3, 4], [2, 3, -1])


def big(q, K=2**32):
    """A q with terms past 2^32, whose products leave int64, in the same
    order against every q of a log: a/b -> (aK + 1)/(bK + 1), 1 kept."""
    a, b = q
    return (a * K + 1, b * K + 1)


@pytest.mark.parametrize("big_terms", [False, True])
@pytest.mark.parametrize("changes, message", [
    ({0: [(9, 10), (1, 2), (1, 3)]}, "must start at q_0 = 1"),
    ({0: [(1, 1), (1, 2), (1, 2)]}, "q must strictly decrease"),
    ({0: [(1, 1), (2, 3), (5, 7)]}, "q must strictly decrease"),
    ({1: [1, 1, 4]}, "equilibria strictly grow"),
    ({1: [1, 3, 3]}, "equilibria strictly grow"),
    ({2: [2, 3, 0]}, "one marginal player per stage descent"),
    ({2: [2, -1, -1]}, "one marginal player per stage descent"),
], ids=["first-q", "q-flat", "q-rising", "size-flat", "last-not-full",
        "marginals-long", "marginals-short"])
def test_stage_log_checks_the_threshold_invariants(changes, message, big_terms):
    # With big terms the log compares its q pairs in Python ints.
    n = 4

    def pieces(qs, sizes, marginals):
        return log_pieces([big(q) for q in qs] if big_terms else qs, sizes, marginals)

    log = _stage_log(pieces(*GOOD_LOG), n, LOG_INITIALS, LOG_STEPS)
    assert log.start.tolist() == [0, 3, 4]
    assert log.subsets_checked.tolist() == [3, 0]
    qs = [F(*big(q)) if big_terms else F(*q) for q in GOOD_LOG[0]]
    assert (max(log.q_den.tolist()) >= 2**32) == big_terms
    assert log.result(0) == ThresholdResult(
        stages=tuple(ThresholdStage(q, size) for q, size in zip(qs, [1, 3, 4])),
        subsets_checked=3, marginal_players=(2, 3), node_count=n, order=(0, 1, 2, 3))
    bad = [changes.get(k, column) for k, column in enumerate(GOOD_LOG)]
    with pytest.raises(InvariantViolationError, match=message):
        _stage_log(pieces(*bad), n, LOG_INITIALS, LOG_STEPS)


def state(engine):
    """An engine's live state, for comparing starts."""
    return {"live": engine.live, "K": engine.K, "outside": engine.outside, "S": engine.S,
            "o": engine.o, "ptr": getattr(engine, "ptr", None)}


def assert_states_equal(a, b):
    for name, value in state(a).items():
        other = state(b)[name]
        assert (value is None) == (other is None), name
        if value is not None:
            assert value.dtype == other.dtype and np.array_equal(value, other), name


@pytest.mark.parametrize("slots", [None, 3])
@pytest.mark.parametrize("kind", ROW_AXIS_KINDS)
def test_complement_start_matches_direct_start(kind, slots, monkeypatch):
    # Sets of more than n/2 players start full and remove their complement;
    # adding the same sets to empty rows expands every player's own slots.
    # Both must build the same state, for one row and for a batch of both
    # sides, in one piece and in pieces of a few slots.
    if slots is not None:
        monkeypatch.setattr(_engines, "_SLOTS", slots)
    cfg, _ = row_axis_game(kind)
    n = cfg.network.node_count
    rng = np.random.Generator(np.random.PCG64(11))
    sizes = [n // 2 - 1, n // 2, n // 2 + 1, n - 1, n]
    rows = [np.sort(rng.choice(n, size, replace=False)) for size in sizes]
    for batch in [[row] for row in rows] + [rows]:
        direct = ExactEngine(cfg)
        assert direct.start([frozenset()] * len(batch)) == []
        filled = direct.apply(np.concatenate([r * n + row for r, row in enumerate(batch)]))
        engine = ExactEngine(cfg)
        assert engine.start(batch) == filled
        assert_states_equal(engine, direct)
        assert (engine.o is None) == (kind in ("alpha-0", "python-ints", "beyond-int64"))


def assert_logs_equal(a, b):
    for name in ("start", "q_num", "q_den", "size", "marginal", "subsets_checked"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert results(a) == results(b)


def test_shared_start_snapshot_gives_each_game_a_fresh_search():
    # The sweep starts its alphas from one snapshot; each must log the
    # stages of a search that started on its own, whatever the order, and
    # no search may change the snapshot the next one copies (a batch with
    # no full row keeps its start arrays, as no row retires at the start).
    rng = np.random.Generator(np.random.PCG64(5))
    net = generate_ba(40, 2, 8)
    rows = [frozenset({39}), frozenset(range(3, 40)),
            frozenset(int(i) for i in rng.choice(40, 25, replace=False)), frozenset({0, 1})]
    for weights in (InfluenceWeights.unit(net), random_weights(rng, net)):
        effects = [ParametricGlobalEffect(F(1)), ParametricGlobalEffect(F(0)),
                   random_tables(rng, net, F(1), weights), ParametricGlobalEffect(F(1, 2))]
        for batch in (rows, rows + [frozenset(range(40))]):
            snapshot = StartSnapshot()
            for effect in effects:
                cfg = GameConfig(network=net, weights=weights, global_effect=effect)
                assert_logs_equal(_staged_search(cfg, batch, snapshot),
                                  _staged_search(cfg, batch))
        other = GameConfig(network=net, weights=InfluenceWeights.from_pairs(
            net, {(0, net.adjacency[0][0]): F(3, 2)}))
        with pytest.raises(InvariantViolationError, match="one network and weights"):
            ExactEngine(other).start(rows, snapshot)


@st.composite
def threshold_rows(draw):
    """Pairs within a bound whose square is below 2^50, rows with exact ties
    (multiples of one ratio) and the closest distinct ratios the bound
    allows, the Farey neighbours (B-2)/(B-1) < (B-1)/B."""
    bound = draw(st.integers(2, 2**25 - 1))
    ratios = [(bound - 1, bound), (bound - 2, bound - 1), (0, 1)] + draw(st.lists(
        st.tuples(st.integers(0, bound), st.integers(1, bound)), max_size=2))
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    num, den = np.zeros((rows, n), dtype=np.int64), np.zeros((rows, n), dtype=np.int64)
    for r in range(rows):
        for i in range(n):
            a, b = draw(st.sampled_from(ratios))
            a, b = a // math.gcd(a, b), b // math.gcd(a, b)
            k = draw(st.integers(1, bound // max(a, b)))
            num[r, i], den[r, i] = a * k, b * k
    outside = np.array(draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                     min_size=rows, max_size=rows)))
    outside[:, draw(st.integers(0, n - 1))] = True
    # Insiders may hold any pair in range, den 0 included.
    den = np.where(outside, den, draw(st.sampled_from([0, 1, bound])))
    if draw(st.booleans()):  # one den row for all, as without a global term
        den = den[:1].copy()
        mixed = ~outside.all(axis=0)  # outside in some row: den must be positive
        den[0, mixed] = np.maximum(den[0, mixed], 1)
    return num, den, outside, bound


@settings(max_examples=300, deadline=None)
@given(threshold_rows())
def test_row_max_in_floats_matches_fractions(case):
    num, den, outside, bound = case
    best_num, best_den, first = _row_max(num, den, outside, bound)
    for r in range(len(num)):
        d = den[r if len(den) > 1 else 0]
        values = [F(int(a), int(b)) if o else None for a, b, o in zip(num[r], d, outside[r])]
        best = max(v for v in values if v is not None)
        assert int(first[r]) == values.index(best)
        assert (int(best_num[r]), int(best_den[r])) == (num[r, first[r]], d[first[r]])


@pytest.mark.parametrize("bound, floats", [(2**25 - 1, True), (2**25, False), (2**25 + 1, False)])
def test_row_max_takes_floats_below_two_to_the_fifty(bound, floats):
    # The nearest squares on either side of 2^50.
    assert (bound**2 < 2**50) == floats
    outside = np.ones((1, 3), dtype=bool)
    # Either path finds the larger of the closest ratios within the bound.
    num, den = np.array([[bound - 2, bound - 1, 0]]), np.array([[bound - 1, bound, 1]])
    assert _row_max(num, den, outside, bound)[2].tolist() == [1]
    # Pairs beyond the bound given, whose float quotients tie, tell the paths
    # apart: the float argmax takes the first, the exact settle the larger.
    big = 2**31
    num, den = np.array([[big, big + 1, 0]]), np.array([[big + 1, big + 2, 1]])
    assert num[0, 0] / den[0, 0] == num[0, 1] / den[0, 1]
    assert _row_max(num, den, outside, bound)[2].tolist() == [0 if floats else 1]


@pytest.mark.parametrize("kind", ["int32", "int64"])
def test_tables_either_side_of_the_int32_limit_match_the_reference(kind, monkeypatch):
    cfg, rows = row_axis_game(kind)
    t = cfg.engine_tables
    assert t.bound == TIER_BOUNDS[kind]
    for arr in (t.M, t.MW, t.a, t.values, t.W, t.degree):
        assert arr.dtype == kind
    log = _staged_search(cfg, rows)
    assert results(log) == [fraction_search(cfg, row) for row in rows]
    # With the int32 tier switched off the same game runs in int64 and logs
    # the same stages.
    monkeypatch.setattr(_engines, "_INT32_LIMIT", 0)
    wide = replace(cfg)
    assert wide.engine_tables.M.dtype == np.int64
    assert_logs_equal(_staged_search(wide, rows), log)


@pytest.mark.parametrize("alpha", [F(0), F(1, 2)])
def test_int32_games_at_q_beyond_the_tier_match_the_reference(alpha, caplog):
    # Products max(qn, qd) * B reach 2^40 * B here, past int32 but within
    # int64, so a call leaves the tables' tier; at q = 1/10^6 the alpha = 0
    # game stays int32 (B is the largest degree) and the alpha = 1/2 one does
    # not.  Neither needs Python ints.
    net = generate_ba(300, 5, 1)
    cfg = GameConfig(network=net, global_effect=ParametricGlobalEffect(alpha))
    assert cfg.engine_tables.M.dtype == np.int32
    assert (10**6 * cfg.engine_tables.bound < 2**31) == (alpha == 0)
    rng = np.random.Generator(np.random.PCG64(6))
    start = frozenset(int(i) for i in rng.choice(300, 60, replace=False))
    seeded = replace(cfg, infected=start)
    with caplog.at_level(logging.DEBUG, logger="netcontagion._engines"):
        for q in (F(2**40 - 1, 2**40), F(1, 10**6)):
            result = cascade(seeded, start, q)
            waves, final = run_fixed_q(FractionEngine(seeded), start, q)
            assert [sorted(wave) for wave in result.waves] == waves
            assert result.final == final
            # One evaluation per wave, and one more, empty, unless the waves filled the network.
            assert result.subsets_checked == result.steps + (len(result.final) < 300)
            assert is_nash(seeded, final, q)
            for members in (final, start):
                assert is_nash(seeded, members, q) == (
                    [i for i in range(300) if has_incentive(seeded, i, members, q)]
                    == sorted(members))
        df = depth_function(seeded, start)
        assert df == DepthFunction.from_threshold(fraction_search(seeded, start))
    assert not [r for r in caplog.records if "Python ints" in r.getMessage()]


def test_a_snapshot_serves_games_of_both_tiers():
    # On a 1000-node network the alpha = 0 game is int32 and the alpha = 1
    # game int64; whichever fills the snapshot, each search from it logs the
    # stages of its own start.
    net = generate_ba(1000, 5, 3)
    weights = InfluenceWeights.unit(net)
    games = [GameConfig(network=net, weights=weights, global_effect=ParametricGlobalEffect(alpha))
             for alpha in (F(0), F(1))]
    assert [cfg.engine_tables.M.dtype for cfg in games] == [np.int32, np.int64]
    rng = np.random.Generator(np.random.PCG64(12))
    rows = [rng.choice(1000, size, replace=False) for size in (10, 200, 600, 990)]
    alone = [_staged_search(cfg, rows) for cfg in games]
    for order in ([0, 1], [1, 0]):
        snapshot = StartSnapshot()
        for k in order:
            assert_logs_equal(_staged_search(games[k], rows, snapshot), alone[k])
            engine = ExactEngine(games[k])
            engine.start(rows, snapshot)
            assert engine.S.dtype == games[k].engine_tables.M.dtype
