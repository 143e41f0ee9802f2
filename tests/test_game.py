from fractions import Fraction

import numpy as np
import pytest

from netcontagion.errors import (
    ConnectivityError,
    InvariantViolationError,
    ParameterError,
)
from netcontagion.game import (
    GameConfig,
    InfluenceWeights,
    ParametricGlobalEffect,
    TabularGlobalEffect,
    benefit_for_resilience,
    global_share,
    has_incentive,
    local_support,
    switch_threshold,
)
from netcontagion.graphs import Network, generate_ba, load_edge_list

F = Fraction


def star(n):
    return Network.from_edges(n, [(0, i) for i in range(1, n)])


@pytest.fixture
def wheelish():
    # Node 0 with neighbors 1,2,3 on a 6-node connected graph.
    return Network.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5), (2, 5)])


def test_local_support_unit_weights(wheelish):
    cfg = GameConfig(network=wheelish)
    assert local_support(cfg, 0, {1, 2}) == 2
    assert local_support(cfg, 0, set()) == 0
    assert local_support(cfg, 0, {1, 2, 3, 4, 5}) == cfg.weights.row_sum(0)


def test_local_support_weighted(wheelish):
    weights = InfluenceWeights.from_pairs(
        wheelish, {(0, 1): F(2), (0, 2): F(1, 2)})
    cfg = GameConfig(network=wheelish, weights=weights)
    assert local_support(cfg, 0, {1}) == 2
    assert local_support(cfg, 0, {2}) == F(1, 2)
    assert local_support(cfg, 0, {1, 2}) == F(5, 2)


def test_global_share_counts_non_neighbors(wheelish):
    cfg = GameConfig(network=wheelish)
    # I=6, d_0=3: the outside pool is {4, 5}.
    assert global_share(cfg, 0, {4, 5}) == 1
    assert global_share(cfg, 0, {4}) == F(1, 2)
    assert global_share(cfg, 0, {1, 2, 3}) == 0
    assert global_share(cfg, 0, set()) == 0
    # Membership of i itself is excluded from the count.
    assert global_share(cfg, 0, {0, 4}) == F(1, 2)


def test_global_share_empty_pool_is_zero():
    net = star(5)
    cfg = GameConfig(network=net)
    assert global_share(cfg, 0, {1, 2, 3, 4}) == 0
    assert global_share(cfg, 0, {1}) == 0


def test_has_incentive_q_zero_always(wheelish):
    cfg = GameConfig(network=wheelish)
    assert has_incentive(cfg, 3, set(), 0)
    assert has_incentive(cfg, 0, set(), 0)


def test_has_incentive_tie_counts(wheelish):
    # d=2 node with exactly one deviating neighbor at q = 1/2: equality holds.
    net = load_edge_list("0 1\n1 2")
    cfg = GameConfig(network=net)
    assert has_incentive(cfg, 1, {0}, F(1, 2))
    assert not has_incentive(cfg, 1, {0}, F(1, 2) + F(1, 1000))


def test_has_incentive_with_global_effect():
    # 25 nodes, d_i=4, 2 deviating neighbors, a quarter of the pool deviating:
    # 0.5 + 0.25*0.6 = 0.65 >= 0.6.
    edges = [(0, j) for j in (1, 2, 3, 4)] + [(j, j + 1) for j in range(4, 24)]
    net = Network.from_edges(25, edges)
    assert net.degree(0) == 4
    pool = [j for j in range(25) if j not in (0, 1, 2, 3, 4)]
    members = {1, 2} | set(pool[:5])  # s_0 = 2, p_0 = 5/20 = 1/4
    cfg = GameConfig(network=net, global_effect=ParametricGlobalEffect(F(1)))
    assert global_share(cfg, 0, members) == F(1, 4)
    assert has_incentive(cfg, 0, members, F(3, 5))
    # The exact switch boundary is 2/(4 - 4/4) = 2/3; a tie still deviates.
    assert has_incentive(cfg, 0, members, F(2, 3))
    assert not has_incentive(cfg, 0, members, F(7, 10))


def test_has_incentive_infected_always(wheelish):
    cfg = GameConfig(network=wheelish, infected=frozenset({3}))
    assert has_incentive(cfg, 3, set(), 1)


def test_has_incentive_rejects_floats(wheelish):
    cfg = GameConfig(network=wheelish)
    with pytest.raises(ParameterError):
        has_incentive(cfg, 0, set(), 0.1)


def test_switch_threshold_basic(wheelish):
    net = load_edge_list("0 1\n1 2")
    cfg = GameConfig(network=net)
    assert switch_threshold(cfg, 1, {0}) == F(1, 2)
    assert switch_threshold(cfg, 1, set()) == 0


def test_switch_threshold_with_global_effect():
    # d_i=3 in a 10-node graph, one deviating neighbor, half the pool
    # deviating: 1 / (3 - 3*(1/2)) = 2/3.
    net = generate_ba(10, 3, 1)
    target = next(i for i in range(10) if net.degree(i) == 3)
    nbrs = net.adjacency[target]
    pool = [j for j in range(10) if j != target and j not in nbrs]
    members = frozenset({nbrs[0]}) | frozenset(pool[:3])
    cfg = GameConfig(network=net, global_effect=ParametricGlobalEffect(F(1)))
    assert global_share(cfg, target, members) == F(1, 2)
    t = switch_threshold(cfg, target, members)
    assert t == F(2, 3)
    # Bisection against has_incentive pins the same boundary.
    lo, hi = F(0), F(1)
    for _ in range(40):
        mid = (lo + hi) / 2
        if has_incentive(cfg, target, members, mid):
            lo = mid
        else:
            hi = mid
    assert lo <= t <= hi


def test_switch_threshold_consistency_random():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(200):
        net = generate_ba(int(rng.integers(4, 12)), int(rng.integers(1, 3)), int(rng.integers(0, 999)))
        n = net.node_count
        alpha = F(int(rng.integers(0, 5)), 4)
        cfg = GameConfig(network=net, global_effect=ParametricGlobalEffect(alpha))
        members = frozenset(int(j) for j in range(n) if rng.random() < 0.4)
        outside = [i for i in range(n) if i not in members]
        if not outside:
            continue
        i = outside[0]
        try:
            t = switch_threshold(cfg, i, members)
        except InvariantViolationError:
            # Saturated global effect (alpha = 1, the entire pool deviating):
            # there is no finite boundary and the incentive holds everywhere.
            assert has_incentive(cfg, i, members, 1)
            continue
        den = int(rng.integers(1, 13))
        q = F(int(rng.integers(0, den + 1)), den)
        assert has_incentive(cfg, i, members, q) == (q <= t)


def test_switch_threshold_errors(wheelish):
    cfg = GameConfig(network=wheelish, infected=frozenset({1}))
    with pytest.raises(ParameterError):
        switch_threshold(cfg, 0, {0})
    with pytest.raises(ParameterError):
        switch_threshold(cfg, 1, set())


def test_parametric_form_equivalence_10000():
    # With unit weights, incentive holds iff s/d >= q*(1 - alpha*p); both
    # evaluations must agree everywhere, ties included.
    rng = np.random.Generator(np.random.PCG64(12345))
    alphas = (F(0), F(1, 4), F(1, 2), F(1))
    nets = [generate_ba(int(rng.integers(5, 14)), int(rng.integers(1, 4)), s)
            for s in range(25)]
    checked = 0
    while checked < 10_000:
        net = nets[int(rng.integers(0, len(nets)))]
        n = net.node_count
        alpha = alphas[int(rng.integers(0, 4))]
        cfg = GameConfig(network=net, global_effect=ParametricGlobalEffect(alpha))
        members = frozenset(int(j) for j in range(n) if rng.random() < 0.5)
        i = int(rng.integers(0, n))
        den = int(rng.integers(1, 20))
        q = F(int(rng.integers(0, den + 1)), den)
        s = local_support(cfg, i, members)
        p = global_share(cfg, i, members)
        direct = (i in cfg.infected) or s / net.degree(i) >= q * (1 - alpha * p)
        assert has_incentive(cfg, i, members, q) == direct
        checked += 1


def test_incentive_monotone_in_members(wheelish):
    rng = np.random.Generator(np.random.PCG64(7))
    cfg = GameConfig(network=wheelish,
                     global_effect=ParametricGlobalEffect(F(1, 2)))
    for _ in range(300):
        small = frozenset(int(j) for j in range(6) if rng.random() < 0.4)
        big = small | frozenset(int(j) for j in range(6) if rng.random() < 0.4)
        i = int(rng.integers(0, 6))
        den = int(rng.integers(1, 10))
        q = F(int(rng.integers(0, den + 1)), den)
        assert local_support(cfg, i, small) <= local_support(cfg, i, big)
        assert global_share(cfg, i, small) <= global_share(cfg, i, big)
        if has_incentive(cfg, i, small, q):
            assert has_incentive(cfg, i, big, q)
        if has_incentive(cfg, i, small, q) and q > 0:
            assert has_incentive(cfg, i, small, q * F(int(rng.integers(0, 5)), 4))


def test_tabular_effect_lookup_and_bounds():
    table = ((F(0), F(0)), (F(1, 2), F(1)), (F(9, 10), F(3, 2)))
    effect = TabularGlobalEffect.uniform(table, 4)
    one = F(1)
    assert effect.value(0, F(0), one, 3) == 0
    assert effect.value(0, F(49, 100), one, 3) == 0
    assert effect.value(0, F(1, 2), one, 3) == 1
    assert effect.value(0, F(1), one, 3) == F(3, 2)
    assert not effect.is_zero
    assert TabularGlobalEffect.uniform(((F(0), F(0)),), 2).is_zero
    # Monotone violation and missing (0,0) anchor are rejected.
    with pytest.raises(ParameterError):
        TabularGlobalEffect.uniform(((F(0), F(0)), (F(1, 2), F(-1))), 2)
    with pytest.raises(ParameterError):
        TabularGlobalEffect.uniform(((F(1, 4), F(0)),), 2)


def test_tabular_effect_respects_cap():
    net = load_edge_list("0 1\n1 2")  # node 0 has degree 1, so cap is c*1
    big = ((F(0), F(0)), (F(1, 2), F(2)))
    with pytest.raises(ParameterError):
        GameConfig(network=net, global_effect=TabularGlobalEffect.uniform(big, 3))


def test_parametric_bound_with_small_weights():
    # alpha*d_i can exceed w_i when weights shrink; construction must refuse.
    net = load_edge_list("0 1\n1 2")
    weights = InfluenceWeights.from_pairs(net, {(1, 0): F(1, 4), (1, 2): F(1, 4)})
    with pytest.raises(ParameterError):
        GameConfig(network=net, weights=weights,
                   global_effect=ParametricGlobalEffect(F(1)))
    GameConfig(network=net, weights=weights)  # no global effect: fine


def test_effect_bound_is_inclusive_and_names_the_first_offender():
    path = load_edge_list("0 1\n1 2\n2 3")  # w_i = d_i: 1, 2, 2, 1
    c = F(3, 2)

    def tabular(tops):
        return TabularGlobalEffect(tuple(((F(0), F(0)), (F(1, 2), top)) for top in tops))

    caps = [c * d for d in (1, 2, 2, 1)]
    GameConfig(network=path, c=c, global_effect=tabular(caps))  # phi_i == c*w_i
    over = F(1, 10**30)
    with pytest.raises(ParameterError, match=r"^global effect of player 1 exceeds c\*w_i = 3$"):
        GameConfig(network=path, c=c,
                   global_effect=tabular([caps[0], caps[1] + over, caps[2] + over, caps[3]]))
    # Parametric: alpha*d_i <= w_i, at equality too.  Player 2 has w_2 = 1/2.
    weights = InfluenceWeights.from_pairs(path, {(2, 1): F(1, 4), (2, 3): F(1, 4)})
    GameConfig(network=path, weights=weights, c=c, global_effect=ParametricGlobalEffect(F(1, 4)))
    with pytest.raises(ParameterError, match=r"^global effect of player 2 exceeds c\*w_i = 3/4$"):
        GameConfig(network=path, weights=weights, c=c,
                   global_effect=ParametricGlobalEffect(F(1, 4) + over))
    # A complete graph leaves every pool empty, but alpha*d_i > w_i is refused.
    triangle = load_edge_list("0 1\n1 2\n0 2")
    light = InfluenceWeights.from_pairs(triangle, {(1, 0): F(1, 4), (1, 2): F(1, 4)})
    with pytest.raises(ParameterError, match=r"^global effect of player 1 exceeds c\*w_i = 1/2$"):
        GameConfig(network=triangle, weights=light, global_effect=ParametricGlobalEffect(F(1)))
    with pytest.raises(ParameterError, match="one global-effect table per player"):
        GameConfig(network=path, global_effect=tabular(caps[:3]))


def test_weights_validation():
    net = load_edge_list("0 1\n1 2")
    with pytest.raises(ParameterError):
        InfluenceWeights.from_pairs(net, {(0, 2): F(1)})
    with pytest.raises(ParameterError):
        InfluenceWeights.from_pairs(net, {(0, 1): F(-1)})
    with pytest.raises(ParameterError):
        InfluenceWeights.from_pairs(net, {(0, 1): F(0)})  # w_0 = 0
    asym = InfluenceWeights.from_pairs(net, {(0, 1): F(2)})
    assert asym.weight(0, 1) == 2 and asym.weight(1, 0) == 1
    assert not asym.is_unit


def test_unit_weights_equal_the_general_constructor():
    net = generate_ba(200, 3, 9)
    general = InfluenceWeights(net, [{j: 1 for j in nbrs} for nbrs in net.adjacency])
    # Unit rows are built on the first comparison, from either side.
    for unit_first in (True, False):
        unit = InfluenceWeights.unit(net)
        assert "_rows" not in vars(unit)
        assert (unit == general) if unit_first else (general == unit)
        assert "_rows" in vars(unit)
        assert unit == general and general == unit
    other = InfluenceWeights.unit(generate_ba(200, 3, 10))
    assert unit != other and other != unit and other != general
    assert unit.is_unit and general.is_unit
    assert all(unit.row(i) == general.row(i) and list(unit.row(i)) == list(net.adjacency[i])
               and unit.row_sum(i) == general.row_sum(i) == net.degree(i)
               and type(unit.row_sum(i)) is F for i in range(net.node_count))
    with pytest.raises(ParameterError, match="node 2 is isolated"):
        InfluenceWeights.unit(Network.from_edges(4, [(0, 1), (1, 3)]))


def test_weights_of_another_network_are_refused():
    # Equal node counts are not enough: the weights are aligned with the
    # CSR slots of the network they were built for.
    a, b = generate_ba(20, 2, 1), generate_ba(20, 2, 2)
    general = InfluenceWeights(a, [{j: F(j + 1) for j in nbrs} for nbrs in a.adjacency])
    for weights in (general, InfluenceWeights.unit(a)):
        with pytest.raises(ParameterError, match="^weights were built for a different network$"):
            GameConfig(network=b, weights=weights)
    # An equal network built anew is the same network.
    copy = Network.from_edges(20, list(a.edges()))
    assert GameConfig(network=copy, weights=general).weights is general


def test_unidirectional_zero_weight_allowed():
    # Node 1 ignores node 0 entirely while 0 still listens to 1.
    net = load_edge_list("0 1\n1 2")
    weights = InfluenceWeights.from_pairs(net, {(1, 0): F(0)})
    cfg = GameConfig(network=net, weights=weights)
    assert weights.weight(1, 0) == 0 and weights.weight(0, 1) == 1
    assert local_support(cfg, 1, {0}) == 0
    assert not has_incentive(cfg, 1, {0}, F(1, 2))
    assert has_incentive(cfg, 0, {1}, 1)


def test_config_validation():
    net = load_edge_list("0 1\n1 2")
    with pytest.raises(ParameterError):
        GameConfig(network=net, c=F(0))
    with pytest.raises(ParameterError):
        GameConfig(network=net, infected=frozenset({9}))
    disconnected = load_edge_list("0 1\n2 3")
    with pytest.warns(UserWarning):
        GameConfig(network=disconnected)
    with pytest.raises(ConnectivityError):
        GameConfig(network=disconnected, strict_connectivity=True)


@pytest.mark.parametrize("edges, n, connected", [
    ([(i, i + 1) for i in range(1999)], 2000, True),  # a long path: one BFS level per node
    ([(i, i + 1) for i in range(1999) if i != 700], 2000, False),
    ([(0, i) for i in range(1, 2000)], 2000, True),  # a star: one level
    ([(0, i) for i in range(1, 1000)] + [(i, i + 1) for i in range(1000, 1999)], 2000, False),
    ([(0, 1), (2, 3), (4, 5), (5, 6)], 7, False),
], ids=["path", "cut-path", "star", "star-and-path", "three-components"])
def test_disconnected_networks_warn_or_raise(edges, n, connected, recwarn):
    net = Network.from_edges(n, edges)
    GameConfig(network=net)
    assert [str(w.message) for w in recwarn] == (
        [] if connected else ["network is disconnected; results apply componentwise"])
    if connected:
        GameConfig(network=net, strict_connectivity=True)
    else:
        with pytest.raises(ConnectivityError, match="^network is disconnected$"):
            GameConfig(network=net, strict_connectivity=True)


def test_benefit_resilience_round_trip():
    c = F(3, 2)
    for q in (F(1, 3), F(1, 2), F(9, 10), F(1)):
        b = benefit_for_resilience(c, q)
        assert c / (b + c) == q
    with pytest.raises(ParameterError):
        benefit_for_resilience(c, F(0))


@pytest.mark.parametrize("ids, message", [
    ([1, True], "must be an integer; got True"),
    ([1, 1.0], "must be an integer; got 1.0"),
    ([1, 2.5], "must be an integer; got 2.5"),
    ([3, "4"], "must be an integer; got '4'"),
    ([1, -1], "-1 out of range"),
    ([1, 10], "10 out of range"),
    ([2**64, 1], f"{2**64} out of range"),
    # The first id that fails is named, in the order the ids are given.
    ([1, 2**64, -1], f"{2**64} out of range"),
    ([1, -1, 2**64], "-1 out of range"),
    ([1, 12, 1.5], "12 out of range"),
], ids=["bool", "integral-float", "float", "string", "negative", "out-of-range",
        "past-int64", "past-int64-first", "negative-first", "range-before-type"])
def test_player_ids_are_checked_with_one_message(ids, message):
    net = generate_ba(10, 2, 1)
    for build, what in [(lambda v: GameConfig(network=net, infected=v), "infected player"),
                        (GameConfig(network=net).player_set, "player")]:
        for given in (ids, tuple(ids), iter(ids)):
            with pytest.raises(ParameterError) as err:
                build(given)
            assert str(err.value) == f"{what} {message}"


def test_player_sets_of_plain_and_numpy_ids_are_sets_of_ints():
    net = generate_ba(10, 2, 1)
    cfg = GameConfig(network=net)
    for ids in ([np.int64(3), 1], np.array([3, 1]), {1: "a", 3: "b"}, (i for i in (1, 3)),
                frozenset({1, 3}), [3, 1, 3]):
        got = cfg.player_set(ids)
        assert got == {1, 3} and {type(i) for i in got} == {int}
    assert cfg.player_set([]) == frozenset() == GameConfig(network=net).infected
    # A set of plain ints is already what the game holds.
    members = frozenset(range(10))
    assert cfg.player_set(members) is members
    assert GameConfig(network=net, infected=members).infected is members
