"""TabularGlobalEffect's integer form, and the engine tables each GameConfig
builds from it, must agree with the per-player reference."""

from fractions import Fraction

import numpy as np
import pytest
from tables_reference import reference_check, reference_tables
from test_engines import assert_engines_agree, random_weights
from test_weights import outcome

from netcontagion import game
from netcontagion.game import GameConfig, InfluenceWeights, TabularGlobalEffect
from netcontagion.graphs import Network, generate_ba
from netcontagion.rational import as_unit_rational

F = Fraction
# small: denominators below 10; huge-breakpoints: 2^65; huge-values: 2^70,
# which stays above 2^63 once scaled by a cap below 2^7; near-limit:
# breakpoint denominators 2^62, below 2^63 but not once multiplied by the
# node count.
KINDS = ("small", "huge-breakpoints", "huge-values", "near-limit")


def random_network(rng, seed):
    n = int(rng.integers(2, 25))
    if seed % 4 == 3:  # complete: every pe_i is 1
        return Network.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if seed % 4 == 2:  # star: the hub's pe is 1
        return Network.from_edges(n, [(0, i) for i in range(1, n)])
    return generate_ba(n, int(rng.integers(1, min(4, n))), seed)


def ratio(rng, den, low):
    """A random ``k / den`` in ``[low / den, 1]``; odd ``k`` for the large
    powers of two, which keeps them the denominator."""
    if den >= 2**62:
        return F(2 * int(rng.integers(0, 2**61)) + 1, den)
    return F(int(rng.integers(low, den + 1)), den)


def spelled(rng, x):
    """``x`` as a Fraction, a string or, when whole, an int."""
    pick = int(rng.integers(0, 3))
    return str(x) if pick == 1 else int(x) if pick == 2 and x.denominator == 1 else x


def random_table(rng, kind, cap):
    """A valid table rising to at most ``cap``, with 0 to 3 steps after (0, 0)."""
    bp_den = {"huge-breakpoints": 2**65, "near-limit": 2**62}.get(kind, int(rng.integers(1, 9)))
    v_den = 2**70 if kind == "huge-values" else int(rng.integers(1, 6))
    cuts = sorted({ratio(rng, bp_den, 1) for _ in range(int(rng.integers(0, 4)))})
    values = sorted(cap * ratio(rng, v_den, 0) for _ in cuts)
    return ((0, 0),) + tuple((spelled(rng, p), spelled(rng, v)) for p, v in zip(cuts, values))


def random_game(rng, seed):
    """A network, weights, c and per-player tables drawn from a pool of
    shared table objects and fresh ones."""
    net = random_network(rng, seed)
    weights = InfluenceWeights.unit(net) if seed % 2 else random_weights(rng, net)
    c = [F(1), F(3, 2), F(2, 5)][seed % 3]
    kind = KINDS[seed // 4 % 4]
    cap = c * min(map(weights.row_sum, range(net.node_count)))
    pool = [random_table(rng, kind, cap) for _ in range(3)]
    tables = [pool[k] if k < 3 else random_table(rng, kind, cap)
              for k in rng.integers(0, 5, net.node_count)]
    return net, weights, c, kind, pool, tables


def assert_same(net, weights, c, effect, tables):
    clean = reference_check(tables)
    assert effect.tables == clean and repr(effect) == f"TabularGlobalEffect(tables={clean!r})"
    unshared = TabularGlobalEffect(tuple(map(tuple, clean)))
    assert effect == unshared and hash(effect) == hash(unshared)
    assert effect.is_zero == all(table[-1][1] == 0 for table in clean)
    # Each distinct input table is stored once.
    distinct = {id(table): len(table) for table in tables}
    assert len(effect.steps.bp_num) == sum(distinct.values())
    assert len({id(table) for table in effect.tables}) == len(distinct)
    want = reference_tables(net, weights, clean, c)
    t = GameConfig(network=net, weights=weights, c=c, global_effect=effect).engine_tables
    assert t.thresholds.tolist() == want["thresholds"] and t.thresholds.dtype == np.int64
    assert t.values.tolist() == want["values"] and t.first.tolist() == want["first"]
    assert t.M.ravel().tolist() == want["M"] and t.a.ravel().tolist() == want["a"]
    assert t.bound == want["bound"]
    # Three tiers: int32 while B^2 < 2^31, int64 while B < 2^63, else Python ints.
    dtype = np.int32 if t.bound**2 < 2**31 else np.int64 if t.bound < 2**63 else object
    assert t.M.dtype == t.a.dtype == dtype
    if dtype is not object:
        assert t.values.dtype == dtype


@pytest.mark.parametrize("seed", range(16))
def test_tables_match_the_reference(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    net, weights, c, kind, pool, tables = random_game(rng, seed)
    effect = TabularGlobalEffect(tables)
    assert_same(net, weights, c, effect, tables)
    # Each kind reaches the Python ints it is named for.
    cut = any(len(table) > 1 for table in effect.tables)
    assert (effect.steps.bp_den.dtype == object) == (cut and kind in ("huge-breakpoints",
                                                                     "near-limit"))
    assert (effect.steps.D.max() >= 2**63) == (cut and kind == "huge-values")
    uniform = TabularGlobalEffect.uniform(pool[0], net.node_count)
    assert_same(net, weights, c, uniform, [pool[0]] * net.node_count)
    start = frozenset(int(i) for i in rng.choice(net.node_count, 1 + net.node_count // 4,
                                                 replace=False))
    for effect in (effect, uniform):
        cfg = GameConfig(network=net, weights=weights, c=c, global_effect=effect, infected=start)
        assert_engines_agree(cfg, start, qs=[F(1, 3), F(2, 3)])


def test_a_shared_table_is_checked_once(monkeypatch):
    calls = []
    monkeypatch.setattr(game, "as_unit_rational",
                        lambda value, name: calls.append(name) or as_unit_rational(value, name))
    effect = TabularGlobalEffect.uniform([(0, 0), ("1/2", 1), (1, 2)], 1000)
    assert len(calls) == 3
    assert all(table is effect.tables[0] for table in effect.tables)
    assert effect.steps.first.tolist() == [0] * 1000 and effect.steps.count.tolist() == [3] * 1000
    assert effect.steps.bp_num.tolist() == [0, 1, 1] and effect.steps.bp_den.tolist() == [1, 2, 1]
    assert effect.steps.values.tolist() == [0, 1, 2] and effect.steps.D.tolist() == [1] * 1000


def break_table(rng, table):
    """``table`` with one fault."""
    steps = list(table)
    k = int(rng.integers(0, len(steps)))
    fault = int(rng.integers(0, 9))
    if fault == 0:
        steps[0] = ("1/4", 0)
    elif fault == 1:
        steps = []
    elif fault == 2:
        steps.insert(k + 1, steps[k])  # a repeated breakpoint
    elif fault == 3:
        steps.append((1, -1))  # a falling value, or a repeated breakpoint 1
    elif fault == 4:
        steps[k] = (steps[k][0], 0.5)
    elif fault == 5:
        steps[k] = (True, steps[k][1])
    elif fault == 6:
        steps[k] = ("x", steps[k][1])
    elif fault == 7:
        steps.append(("3/2", 5))
    else:
        steps[k] = (steps[k][0],)
    return tuple(steps)


@pytest.mark.parametrize("seed", range(8))
def test_malformed_tables_fail_as_the_reference_does(seed):
    rng = np.random.Generator(np.random.PCG64(100 + seed))
    net, weights, c, _, pool, tables = random_game(rng, seed)
    n = net.node_count
    for _ in range(20):
        bad = {id(table): break_table(rng, table) for table in pool if rng.random() < 0.4}
        broken = [bad.get(id(table), table) for table in tables]
        for i in rng.integers(0, n, int(rng.integers(0, 3))):
            broken[i] = break_table(rng, tables[i])
        want = outcome(lambda: reference_check(broken))
        assert outcome(lambda: TabularGlobalEffect(broken)) == want, broken
        if rng.random() < 0.5:
            assert outcome(lambda: TabularGlobalEffect.uniform(broken[0], n)) == \
                outcome(lambda: reference_check([broken[0]] * n))
    # The effect bound and the table count name the same first offender.
    for _ in range(10):
        over = [pool[0] if rng.random() < 0.5 else ((0, 0), (1, c * weights.row_sum(i)
                                                            + F(1, int(rng.integers(1, 10**6)))))
                for i in range(n)]
        for tables in (over, over[:-1], over + over[:1]):
            want = outcome(lambda: reference_tables(net, weights, reference_check(tables), c))
            assert outcome(lambda: GameConfig(network=net, weights=weights, c=c,
                                              global_effect=TabularGlobalEffect(tables))) == want
