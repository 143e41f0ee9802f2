from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from netcontagion import _engines, game, oracle
from netcontagion.contagion import cascade, full_contagion_threshold
from netcontagion.errors import SizeGuardError
from netcontagion.game import (
    GameConfig,
    InfluenceWeights,
    ParametricGlobalEffect,
    TabularGlobalEffect,
    has_incentive,
)
from netcontagion.graphs import Network, generate_ba, load_edge_list

F = Fraction


@pytest.fixture
def cycle4():
    return Network.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_enumerate_contains_empty_and_full():
    net = generate_ba(8, 2, 1)
    cfg = GameConfig(network=net)
    for q in (F(1, 3), F(1, 2), F(1)):
        found = oracle.enumerate_nash(cfg, q)
        assert frozenset() in found
        assert frozenset(range(8)) in found


def test_enumerate_q_zero_only_full(cycle4):
    cfg = GameConfig(network=cycle4)
    assert oracle.enumerate_nash(cfg, 0) == [frozenset(range(4))]


def test_enumerate_respects_exogenous(cycle4):
    plain = GameConfig(network=cycle4)
    assert frozenset({0}) not in oracle.enumerate_nash(plain, F(3, 4))
    seeded = GameConfig(network=cycle4, infected=frozenset({0}))
    found = oracle.enumerate_nash(seeded, F(3, 4))
    assert frozenset({0}) in found
    assert frozenset() not in found  # infected players always deviate


def test_enumerate_sorted_by_size_then_members(cycle4):
    seeded = GameConfig(network=cycle4, infected=frozenset({0}))
    found = oracle.enumerate_nash(seeded, F(2, 3))
    sizes = [len(E) for E in found]
    assert sizes == sorted(sizes)
    for a, b in zip(found, found[1:]):
        assert (len(a), tuple(sorted(a))) < (len(b), tuple(sorted(b)))


def test_enumerate_with_weights_and_global_effect():
    net = load_edge_list("0 1\n1 2\n2 0\n2 3")
    weights = InfluenceWeights.from_pairs(net, {(0, 1): F(3), (1, 0): F(1, 2)},
                                          default=F(3, 2))
    cfg = GameConfig(network=net, weights=weights,
                     global_effect=ParametricGlobalEffect(F(1, 4)),
                     infected=frozenset({3}))
    # Brute equilibria are fixed points of the one-step flip map and conversely.
    from netcontagion.contagion import is_nash
    for q in (F(1, 5), F(2, 5), F(7, 10)):
        found = set(oracle.enumerate_nash(cfg, q))
        for mask in range(16):
            E = frozenset(i for i in range(4) if mask >> i & 1)
            assert (E in found) == is_nash(cfg, E, q)


def test_smallest_containing(cycle4):
    seeded = GameConfig(network=cycle4, infected=frozenset({1}))
    path3 = GameConfig(network=load_edge_list("0 1\n1 2"),
                       infected=frozenset({1}))
    assert oracle.smallest_nash_containing(path3, {1}, F(3, 4)) == frozenset({0, 1, 2})
    full = frozenset(range(4))
    assert oracle.smallest_nash_containing(seeded, full, F(1, 2)) == full
    plain = GameConfig(network=cycle4)
    assert oracle.smallest_nash_containing(plain, set(), F(1, 2)) == frozenset()


def test_brute_threshold_values(cycle4):
    star = Network.from_edges(5, [(0, i) for i in range(1, 5)])
    cfg_star = GameConfig(network=star, infected=frozenset({0}))
    assert oracle.brute_threshold(cfg_star, {0}) == 1
    cfg_cycle = GameConfig(network=cycle4, infected=frozenset({0}))
    assert oracle.brute_threshold(cfg_cycle, {0}) == F(1, 2)
    # c scales both sides of the incentive, here with every rhs row at most 1.
    assert oracle.brute_threshold(replace(cfg_cycle, c=F(1, 4)), {0}) == F(1, 2)
    everyone = frozenset(range(4))
    cfg_full = GameConfig(network=cycle4, infected=everyone)
    assert oracle.brute_threshold(cfg_full, everyone) == 1


@pytest.mark.parametrize("kind", ["unit", "weighted", "tabular"])
def test_oracle_needs_neither_the_fraction_spec_nor_the_engine(kind, monkeypatch):
    # The oracle's table is its only incentive rule: with game's Fraction spec
    # and the engine's evaluation refusing every call, its answers stand.
    assert not hasattr(oracle, "has_incentive")
    net = generate_ba(9, 2, 4)
    weights = InfluenceWeights.unit(net) if kind == "unit" else InfluenceWeights(net, [
        {j: F(1 + (i + j) % 3, 2) for j in nbrs} for i, nbrs in enumerate(net.adjacency)])
    effect = (TabularGlobalEffect.uniform(((0, 0), (F(1, 3), F(1, 2))), 9) if kind == "tabular"
              else ParametricGlobalEffect(F(1, 2)))
    cfg = GameConfig(network=net, weights=weights, global_effect=effect,
                     infected=frozenset({0}))

    def answers():
        return (oracle.enumerate_nash(cfg, F(2, 5)),
                oracle.smallest_nash_containing(cfg, {0, 3}, F(2, 5)),
                oracle.brute_threshold(cfg, {0}))

    expected = answers()
    assert expected[2] == full_contagion_threshold(cfg, {0}).q_star

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle decides incentives on its own")

    for owner, name in [(game, "has_incentive"), (game, "switch_threshold"),
                        (_engines.ExactEngine, "deviating")]:
        monkeypatch.setattr(owner, name, refuse)
    assert answers() == expected


def test_unit_weight_table_holds_no_supports():
    # A unit star at the size guard would need 2^19 supports for its hub.
    hub = Network.from_edges(20, [(0, i) for i in range(1, 20)])
    assert oracle._MaskTable(GameConfig(network=hub)).support is None
    small = Network.from_edges(5, [(0, i) for i in range(1, 5)])
    weighted = InfluenceWeights.from_pairs(small, {(0, 1): 2})
    table = oracle._MaskTable(GameConfig(network=small, weights=weighted))
    assert len(table.support[0]) == 2**4 and table.support[0][0b110] == 3


def test_brute_uniform_cohesion(cycle4):
    assert oracle.brute_uniform_cohesion(cycle4, {1}, 0)
    assert not oracle.brute_uniform_cohesion(cycle4, range(4), F(99, 100))
    assert oracle.brute_uniform_cohesion(cycle4, range(4), 1)
    assert oracle.brute_uniform_cohesion(cycle4, {1, 2, 3}, F(1, 2))
    assert not oracle.brute_uniform_cohesion(cycle4, {1, 2, 3}, F(49, 100))


def test_size_guards():
    net = generate_ba(21, 2, 0)
    cfg = GameConfig(network=net)
    with pytest.raises(SizeGuardError):
        oracle.enumerate_nash(cfg, F(1, 2))
    with pytest.raises(SizeGuardError):
        oracle.smallest_nash_containing(cfg, {0}, F(1, 2))
    with pytest.raises(SizeGuardError):
        oracle.brute_threshold(cfg, {0})
    with pytest.raises(SizeGuardError):
        oracle.brute_uniform_cohesion(net, range(21), F(1, 2))


@pytest.mark.parametrize("seed", range(16))
def test_tabular_games_match_oracle(seed):
    # Random step-table games (the verify battery draws only parametric
    # effects): the cascade must reach the smallest containing equilibrium
    # and the staged search must find the brute-force threshold.
    rng = np.random.Generator(np.random.PCG64(700 + seed))
    n = int(rng.integers(4, 13))
    if seed % 4 == 3:
        net = Network.from_edges(n, [(0, i) for i in range(1, n)])
    else:
        net = generate_ba(n, int(rng.integers(1, 3)), seed)
    if seed % 2:
        weights = InfluenceWeights.unit(net)
    else:
        weights = InfluenceWeights(net, [
            {j: F(int(rng.integers(0, 4)), int(rng.integers(1, 4))) or F(1) for j in nbrs}
            for nbrs in net.adjacency])
    c = [F(1), F(2, 3), F(5, 2)][seed % 3]
    tables = []
    for i in range(n):
        cap = c * weights.row_sum(i)
        cuts = sorted({F(int(rng.integers(1, 7)), int(rng.integers(1, 7))) for _ in range(3)}
                      - {F(0)})
        cuts = [p for p in cuts if p <= 1]
        values = sorted(cap * F(int(rng.integers(0, 6)), 5) for _ in cuts)
        tables.append(((F(0), F(0)),) + tuple(zip(cuts, values)))
    infected = frozenset(int(i) for i in range(n) if rng.random() < 0.15)
    cfg = GameConfig(network=net, weights=weights, c=c,
                     global_effect=TabularGlobalEffect(tuple(tables)), infected=infected)
    den = int(rng.integers(1, 10))
    q = F(int(rng.integers(0, den + 1)), den)
    # Drop members without the incentive until the start is valid at q.
    start = set(infected) | {int(i) for i in range(n) if rng.random() < 0.3}
    while bad := {i for i in start if not has_incentive(cfg, i, start, q)}:
        start -= bad
    assert cascade(cfg, start, q).final == oracle.smallest_nash_containing(cfg, start, q)
    seeded = frozenset(start | infected) or frozenset({int(rng.integers(0, n))})
    cfg_thr = replace(cfg, infected=seeded)
    assert full_contagion_threshold(cfg_thr, seeded).q_star == \
        oracle.brute_threshold(cfg_thr, seeded)
