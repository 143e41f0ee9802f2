import json
from fractions import Fraction

import numpy as np
import pytest

from netcontagion import contagion as contagion_module
from netcontagion import oracle
from netcontagion._engines import ExactEngine
from netcontagion.contagion import (
    DepthFunction,
    ThresholdResult,
    ThresholdStage,
    _deviators,
    cascade,
    coexisting_conventions,
    cohesiveness,
    depth_at,
    depth_function,
    full_contagion_threshold,
    is_nash,
    is_uniformly_at_most_cohesive,
    virality,
)
from netcontagion.errors import (
    InvariantViolationError,
    ParameterError,
    PreconditionError,
    UnsupportedHypothesisError,
)
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


@pytest.fixture
def cycle4_seeded(cycle4):
    return GameConfig(network=cycle4, infected=frozenset({0}))


def test_cascade_q_zero_fills_everything():
    net = generate_ba(30, 2, 4)
    cfg = GameConfig(network=net, infected=frozenset({3, 7}))
    result = cascade(cfg, {3}, 0)
    assert result.final == frozenset(range(30))
    assert result.steps <= 2


def test_cascade_empty_start_stays_empty():
    net = generate_ba(12, 2, 0)
    cfg = GameConfig(network=net)
    result = cascade(cfg, set(), F(1, 2))
    assert result.final == frozenset()
    assert result.steps == 0
    assert result.subsets_checked == 1


def test_cascade_three_path_spreads():
    net = load_edge_list("0 1\n1 2")
    cfg = GameConfig(network=net, infected=frozenset({1}))
    result = cascade(cfg, {1}, F(3, 4))
    # Oracle-checked: the smallest containing equilibrium is everyone.
    assert result.final == frozenset({0, 1, 2})
    assert result.final == oracle.smallest_nash_containing(cfg, {1}, F(3, 4))
    assert result.waves == (frozenset({0, 2}),)


def test_cascade_precondition_names_player(cycle4):
    cfg = GameConfig(network=cycle4)  # nobody exogenous
    with pytest.raises(PreconditionError) as err:
        cascade(cfg, {0}, F(3, 4))
    assert err.value.player == 0


def test_cascade_wave_structure(cycle4_seeded):
    result = cascade(cycle4_seeded, {0}, F(1, 2))
    assert result.initial == frozenset({0})
    assert result.waves == (frozenset({1, 3}), frozenset({2}))
    assert result.steps == 2
    assert result.final == frozenset({0, 1, 2, 3})


def test_threshold_full_start_trivial(cycle4):
    everyone = frozenset(range(4))
    cfg = GameConfig(network=cycle4, infected=everyone)
    result = full_contagion_threshold(cfg, everyone)
    assert result.q_star == 1
    assert [(st.q, st.size) for st in result.stages] == [(F(1), 4)]
    assert result.subsets_checked == 0


def test_threshold_cycle(cycle4_seeded):
    result = full_contagion_threshold(cycle4_seeded, {0})
    assert result.q_star == F(1, 2)
    assert result.q_star == oracle.brute_threshold(cycle4_seeded, {0})
    assert [(st.q, st.size) for st in result.stages] == [(F(1), 1), (F(1, 2), 4)]
    assert result.marginal_players == (1,)
    cascade_at_star = cascade(cycle4_seeded, {0}, F(1, 2))
    assert cascade_at_star.waves == (frozenset({1, 3}), frozenset({2}))


def test_threshold_star_center():
    net = Network.from_edges(5, [(0, i) for i in range(1, 5)])
    cfg = GameConfig(network=net, infected=frozenset({0}))
    result = full_contagion_threshold(cfg, {0})
    assert result.q_star == 1
    assert result.q_star == oracle.brute_threshold(cfg, {0})


def test_threshold_characterization(cycle4_seeded):
    result = full_contagion_threshold(cycle4_seeded, {0})
    full = frozenset(range(4))
    for q in (F(0), F(1, 4), F(1, 2), F(1, 2) + F(1, 100), F(3, 4), F(1)):
        reached = cascade(cycle4_seeded, {0}, q).final == full
        assert reached == (q <= result.q_star)


def test_threshold_stage_members_nash(cycle4_seeded):
    result = full_contagion_threshold(cycle4_seeded, {0})
    for k, stage in enumerate(result.stages):
        assert len(result.members(k)) == stage.size
        assert is_nash(cycle4_seeded, result.members(k), stage.q)
    assert result.members(len(result.stages) - 1) == frozenset(range(4))


def test_depth_function_cycle(cycle4_seeded):
    df = depth_function(cycle4_seeded, {0})
    assert df.q_star == F(1, 2)
    assert depth_at(df, F(1, 2)) == 1
    assert depth_at(df, F(3, 5)) == F(1, 4)
    assert depth_at(df, 1) == F(1, 4)
    assert depth_at(df, 0) == 1
    # Right endpoint of each interval belongs to the interval.
    assert depth_at(df, F(1, 2) + F(1, 10**9)) == F(1, 4)


def test_depth_function_full_start(cycle4):
    everyone = frozenset(range(4))
    cfg = GameConfig(network=cycle4, infected=everyone)
    df = depth_function(cfg, everyone)
    for q in (F(0), F(1, 3), F(1)):
        assert depth_at(df, q) == 1


def test_depth_matches_cascade_on_random_graphs():
    for seed in range(6):
        net = generate_ba(14, 2, seed)
        start = frozenset({0, seed % 14})
        cfg = GameConfig(network=net,
                         global_effect=ParametricGlobalEffect(F(seed % 3, 4)),
                         infected=start)
        df = depth_function(cfg, start)
        for num in range(0, 13):
            q = F(num, 12)
            reached = cascade(cfg, start, q).final
            assert depth_at(df, q) == F(len(reached), 14)


def test_virality(cycle4_seeded):
    assert virality(cycle4_seeded, {0}, F(1, 2)) == F(3, 4)
    assert virality(cycle4_seeded, {0}, F(3, 4)) == 0


def test_virality_q_zero_singleton():
    net = generate_ba(100, 3, 0)
    cfg = GameConfig(network=net, infected=frozenset({5}))
    assert virality(cfg, {5}, 0) == F(99, 100)


def test_is_nash_basics(cycle4):
    cfg = GameConfig(network=cycle4)
    everyone = frozenset(range(4))
    assert is_nash(cfg, everyone, F(2, 3))
    assert is_nash(cfg, frozenset(), F(1, 2))
    assert not is_nash(cfg, frozenset(), 0)
    # Adjacent pair at q=1/2: both outsiders still reach the tie.
    assert not is_nash(cfg, frozenset({0, 1}), F(1, 2))
    # With the pair exogenous, outsiders see s/d = 1/2 >= q, still not Nash.
    seeded = GameConfig(network=cycle4, infected=frozenset({0}))
    assert is_nash(seeded, frozenset({0}), F(3, 4))
    assert not is_nash(cfg, frozenset({0}), F(3, 4))  # 0 itself lacks incentive
    assert not is_nash(seeded, frozenset({1, 2, 3}), F(1, 4))  # infected outside


def test_is_nash_matches_enumeration(cycle4):
    cfg = GameConfig(network=cycle4, infected=frozenset({0}))
    for q in (F(0), F(1, 2), F(3, 4), F(1)):
        listed = set(oracle.enumerate_nash(cfg, q))
        for mask in range(16):
            E = frozenset(i for i in range(4) if mask >> i & 1)
            assert is_nash(cfg, E, q) == (E in listed)


def spec_game(kind, seed):
    """A small game of the given kind; some players have an empty pool."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = 14
    # A hub joined to everyone (empty pool) on top of a scale-free graph.
    edges = {tuple(sorted(e)) for e in generate_ba(n, 2, seed).edges()}
    net = Network.from_edges(n, sorted(edges | {(0, j) for j in range(1, n)}))
    infected = frozenset(int(i) for i in rng.choice(n, int(rng.integers(0, 3)), replace=False))
    if kind == "unit":
        return GameConfig(network=net, global_effect=ParametricGlobalEffect(F(2, 3)),
                          infected=infected)
    # Weights with zero-weight directions; alpha keeps alpha*d_i <= w_i.
    palette = [F(0), F(1, 3), F(1), F(2), F(5, 2)]
    rows = []
    for nbrs in net.adjacency:
        row = {j: palette[int(rng.integers(0, len(palette)))] for j in nbrs}
        row[nbrs[0]] = F(1, 7)  # a positive row sum
        rows.append(row)
    weights = InfluenceWeights(net, rows)
    c = F(3, 2)
    if kind == "tabular":
        tables = []
        for i in range(n):
            cap = c * weights.row_sum(i)
            cuts = sorted({F(int(rng.integers(1, 10)), 9) for _ in range(3)})
            values = sorted(cap * F(int(rng.integers(0, 5)), 4) for _ in cuts)
            tables.append(((F(0), F(0)),) + tuple(zip(cuts, values)))
        effect = TabularGlobalEffect(tuple(tables))
    else:
        alpha = min(weights.row_sum(i) / net.degree(i) for i in range(n))
        effect = ParametricGlobalEffect(min(alpha, 1) * F(int(rng.integers(1, 4)), 3))
    return GameConfig(network=net, weights=weights, c=c, global_effect=effect,
                      infected=infected)


@pytest.mark.parametrize("kind", ["unit", "weighted", "tabular", "beyond-int64"])
@pytest.mark.parametrize("seed", range(3))
def test_deviators_and_is_nash_match_the_spec(kind, seed):
    # The engine's whole-set answers against has_incentive, player by player.
    cfg = spec_game("weighted" if kind == "beyond-int64" else kind, seed)
    n = cfg.network.node_count
    rng = np.random.Generator(np.random.PCG64(100 + seed))
    if kind == "beyond-int64":  # every decision goes through Python ints
        qs = [F(int(rng.integers(0, 10**9)) * 10**16 + 1, 10**25 + 3) for _ in range(4)]
    else:
        qs = [F(0), F(1), F(1, 2)] + [F(int(rng.integers(1, 30)), 30) for _ in range(3)]
    sets = [frozenset(), frozenset(range(n)), cfg.infected,
            frozenset(range(n)) - cfg.infected]
    sets += [frozenset(int(i) for i in rng.choice(n, int(rng.integers(1, n)), replace=False))
             for _ in range(12)]
    equilibria = 0
    for q in qs:
        # Cascades from the infected end in equilibria, so is_nash is also true.
        for E in sets + [cascade(cfg, cfg.infected, q).final]:
            spec = [has_incentive(cfg, i, E, q) for i in range(n)]
            assert _deviators(cfg, E, q).tolist() == spec
            nash = is_nash(cfg, E, q)
            assert nash == all(spec[i] == (i in E) for i in range(n))
            equilibria += nash
    assert 0 < equilibria < len(qs) * (len(sets) + 1)


@pytest.mark.parametrize("check", ["threshold", "cascade"])
def test_start_check_names_the_lowest_lacking_player(cycle4, check):
    # In {0, 1, 3} on the 4-cycle, 0 has both neighbours inside and 1 and 3
    # one of two each, so at q = 3/4 (and q = 1) both 1 and 3 lack it.
    cfg = GameConfig(network=cycle4)
    with pytest.raises(PreconditionError) as err:
        if check == "threshold":
            full_contagion_threshold(cfg, {3, 1, 0})
        else:
            cascade(cfg, {3, 1, 0}, F(3, 4))
    assert err.value.player == 1
    cascade(cfg, {3, 1, 0}, F(1, 2))  # all three have it at q = 1/2


@pytest.mark.parametrize("check", ["threshold", "cascade"])
def test_start_check_skips_infected_players(cycle4, check, monkeypatch):
    # With 1 infected, 3 is the one starting player left to lack it.
    cfg = GameConfig(network=cycle4, infected={1})
    with pytest.raises(PreconditionError) as err:
        if check == "threshold":
            full_contagion_threshold(cfg, {3, 1, 0})
        else:
            cascade(cfg, {3, 1, 0}, F(3, 4))
    assert err.value.player == 3
    # A start that is all infected cannot fail the check, so only the
    # engine that runs the query is built.
    engines = []
    monkeypatch.setattr(contagion_module, "ExactEngine",
                        lambda cfg: engines.append(cfg) or ExactEngine(cfg))
    cfg = GameConfig(network=cycle4, infected={0, 1})
    if check == "threshold":
        full_contagion_threshold(cfg, {0, 1})
    else:
        cascade(cfg, {0}, F(1, 2))
    assert len(engines) == 1


def test_coexisting_conventions(cycle4_seeded):
    # q above q*: the cascade stalls strictly inside the network.
    assert coexisting_conventions(cycle4_seeded, {0}, F(3, 4)) == frozenset({0})
    # q at or below q*: full contagion, no coexistence.
    assert coexisting_conventions(cycle4_seeded, {0}, F(1, 2)) is None
    everyone = frozenset(range(4))
    cfg = GameConfig(network=cycle4_seeded.network, infected=everyone)
    assert coexisting_conventions(cfg, everyone, F(1, 2)) is None
    with pytest.raises(ParameterError):
        coexisting_conventions(cycle4_seeded, set(), F(1, 2))


def test_cohesiveness(cycle4):
    assert cohesiveness(cycle4, range(4)) == 1
    assert cohesiveness(cycle4, {0}) == 0
    assert cohesiveness(cycle4, {0, 1}) == F(1, 2)
    with pytest.raises(ParameterError):
        cohesiveness(cycle4, set())


def test_uniform_cohesion_cycle(cycle4):
    cfg = GameConfig(network=cycle4)
    # All of {1,2,3}'s subsets top out at cohesion 1/2 ({1,2}, {2,3}, and the
    # whole triple), so r = 1/2 passes and anything lower fails.
    assert is_uniformly_at_most_cohesive(cfg, {1, 2, 3}, F(1, 2))
    assert not is_uniformly_at_most_cohesive(cfg, {1, 2, 3}, F(2, 5))
    assert oracle.brute_uniform_cohesion(cycle4, {1, 2, 3}, F(1, 2))
    assert not oracle.brute_uniform_cohesion(cycle4, {1, 2, 3}, F(2, 5))
    # The full set is 1-cohesive.
    assert not is_uniformly_at_most_cohesive(cfg, range(4), F(99, 100))
    assert is_uniformly_at_most_cohesive(cfg, range(4), 1)


def test_uniform_cohesion_ignores_configured_infected(cycle4):
    # The question is a property of the network; whoever happens to be
    # exogenously infected in the configuration must not change the answer.
    plain = GameConfig(network=cycle4)
    seeded = GameConfig(network=cycle4, infected=frozenset({1, 2}))
    for r in (F(2, 5), F(1, 2), F(1)):
        assert is_uniformly_at_most_cohesive(plain, {1, 2, 3}, r) == \
            is_uniformly_at_most_cohesive(seeded, {1, 2, 3}, r)


def test_uniform_cohesion_requires_local_unit(cycle4):
    cfg = GameConfig(network=cycle4,
                     global_effect=ParametricGlobalEffect(F(1, 2)))
    with pytest.raises(UnsupportedHypothesisError):
        is_uniformly_at_most_cohesive(cfg, {1, 2}, F(1, 2))
    weights = InfluenceWeights.from_pairs(cycle4, {(0, 1): F(2)})
    cfg2 = GameConfig(network=cycle4, weights=weights)
    with pytest.raises(UnsupportedHypothesisError):
        is_uniformly_at_most_cohesive(cfg2, {1, 2}, F(1, 2))


def test_threshold_ties_flip_together():
    # Two symmetric branches reach the max threshold simultaneously; the
    # recorded marginal player is the lowest attainer and both flip in the
    # next stage's first wave.
    net = load_edge_list("0 1\n0 2\n1 3\n2 4\n3 4")
    cfg = GameConfig(network=net, infected=frozenset({0}))
    result = full_contagion_threshold(cfg, {0})
    assert result.marginal_players[0] == 1
    first_cascade = cascade(cfg, {0}, result.stages[1].q)
    assert {1, 2} <= first_cascade.waves[0]


def test_linear_bound_path_attains_equality():
    # A path seeded at one end advances one node per evaluation at q = 1/2:
    # the subsets-checked bound |I \ S| is met exactly.
    for n in (2, 4, 7, 11):
        net = Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        cfg = GameConfig(network=net, infected=frozenset({0}))
        result = full_contagion_threshold(cfg, {0})
        assert result.subsets_checked == n - 1


def test_subsets_checked_transition_not_double_counted(cycle4_seeded):
    # Stage 0 checks {1,2,3}; the re-check of the same set at q=1/2 is not
    # counted again; after {1,3} flip only {2} is newly evaluated.
    result = full_contagion_threshold(cycle4_seeded, {0})
    assert result.subsets_checked == 2


def test_depth_function_validation():
    for breakpoints, sizes, message in [
        ((F(1), F(1, 2)), (), "one interval value per breakpoint gap"),
        ((F(1, 2), F(1)), (1,), "fall strictly from 1"),  # rising
        ((F(1, 2),), (), "fall strictly from 1"),  # starts below 1
        ((F(1), F(1, 2), F(1, 2)), (1, 2), "fall strictly from 1"),  # flat
        ((F(1), F(-1, 2)), (1,), "fall strictly from 1"),  # negative q*
        ((F(1), F(1, 2)), (9,), "interval sizes must lie in"),  # above n
        ((F(1), F(1, 2)), (4,), "interval sizes must lie in"),  # n: no step at q*
        ((F(1), F(1, 2)), (-2,), "interval sizes must lie in"),
        ((F(1), F(1, 2), F(1, 3)), (3, 2), "must not fall"),
    ]:
        with pytest.raises(InvariantViolationError, match=message):
            DepthFunction(breakpoints=breakpoints, interval_sizes=sizes, node_count=4)
    # A step function is over at least one player, counted by an integer.
    for count in (0, -1):
        with pytest.raises(InvariantViolationError, match="node_count must be at least 1"):
            DepthFunction(breakpoints=(F(1),), interval_sizes=(), node_count=count)
    with pytest.raises(ParameterError, match="node_count must be an integer; got 2.5"):
        DepthFunction(breakpoints=(F(1), F(1, 2)), interval_sizes=(1,), node_count=2.5)
    df = DepthFunction(breakpoints=(F(1), F(1, 2)), interval_sizes=(1,), node_count=np.int64(2))
    assert type(df.node_count) is int and depth_at(df, F(3, 4)) == F(1, 2)
    # Sizes may repeat and start at 0; q* may be 0, or 1 with no steps.
    DepthFunction(breakpoints=(F(1), F(1, 2), F(0)), interval_sizes=(0, 0), node_count=4)
    assert DepthFunction(breakpoints=(F(1),), interval_sizes=(), node_count=4).q_star == 1


def test_depth_at_domain(cycle4_seeded):
    df = depth_function(cycle4_seeded, {0})
    with pytest.raises(ParameterError):
        depth_at(df, F(3, 2))
    with pytest.raises(ParameterError):
        depth_at(df, 0.25)  # floats are rejected everywhere


def test_cascade_result_validation():
    from netcontagion.contagion import CascadeResult
    from netcontagion.errors import InvariantViolationError
    result = CascadeResult(waves=(frozenset({1}), frozenset({2, 3})),
                           initial=frozenset({0}), subsets_checked=3)
    assert result.final == frozenset({0, 1, 2, 3})  # C_0 plus the waves
    assert CascadeResult(waves=(), initial=frozenset({4}), subsets_checked=1).final == {4}
    with pytest.raises(InvariantViolationError):
        CascadeResult(waves=(frozenset({0}),),
                      initial=frozenset({0}), subsets_checked=1)  # overlap
    with pytest.raises(TypeError):
        CascadeResult(final=frozenset({0, 1}), waves=(frozenset({1}),),
                      initial=frozenset({0}), subsets_checked=1)  # final is derived
    with pytest.raises(InvariantViolationError, match="subsets_checked must be at least 0"):
        CascadeResult(waves=(), initial=frozenset({0}), subsets_checked=-3)
    with pytest.raises(ParameterError, match="subsets_checked must be an integer; got 4.5"):
        CascadeResult(waves=(), initial=frozenset({0}), subsets_checked=4.5)
    counted = CascadeResult(waves=(), initial=frozenset({0}), subsets_checked=np.int64(2))
    assert type(counted.subsets_checked) is int


def stage_list(*pairs):
    return tuple(ThresholdStage(q=F(q), size=size) for q, size in pairs)


GOOD_STAGES = stage_list((1, 1), ("1/2", 3), ("1/3", 4))


@pytest.mark.parametrize("changes, message", [
    ({"stages": stage_list(("9/10", 1), ("1/3", 4)), "marginal_players": (1,)},
     "must start at q_0 = 1"),
    ({"stages": (), "marginal_players": ()}, "must start at q_0 = 1"),
    ({"stages": stage_list((1, 1), ("1/2", 3), ("1/2", 4))},
     "q must strictly decrease"),
    ({"stages": stage_list((1, 1), ("2/3", 3), ("5/7", 4))},
     "q must strictly decrease"),
    ({"stages": stage_list((1, 1), ("1/2", 1), ("1/3", 4))},
     "equilibria strictly grow"),
    ({"stages": stage_list((1, 1), ("1/2", 3), ("1/3", 3)), "node_count": 3},
     "equilibria strictly grow"),
    ({"node_count": 5}, "last equilibrium must be the full set"),
    ({"marginal_players": (2,)}, "one marginal player per stage descent"),
    ({"marginal_players": (2, 3, 0)}, "one marginal player per stage descent"),
    ({"marginal_players": (2, 4)}, "marginal players must be players of the network"),
    ({"stages": stage_list((1, 1), ("1/2", 3), (-1, 4))}, "q\\* must be nonnegative"),
    ({"stages": stage_list((1, -3), ("1/2", 3), ("1/3", 4))},
     "equilibrium sizes must be nonnegative"),
    ({"subsets_checked": -4}, "subsets_checked must be at least 0"),
    ({"order": (0, 1, 1, 3)}, "join order must list every player once"),
    ({"order": (0, 1, 2)}, "join order must list every player once"),
    ({"order": (0, 1, 2, 3, 4)}, "join order must list every player once"),
    ({"order": (0, 1, 2, 4)}, "join order must list every player once"),
    ({"order": (-1, 0, 1, 2)}, "join order must list every player once"),
], ids=["first-q", "no-stages", "q-flat", "q-rising", "size-flat", "size-flat-at-end",
        "last-not-full", "marginals-short", "marginals-long", "marginal-outside",
        "q-star-negative", "size-negative", "subsets-negative",
        "order-repeats", "order-short", "order-outside", "order-above", "order-negative"])
def test_threshold_result_rejects_malformed_stages(changes, message):
    fields = dict(stages=GOOD_STAGES, subsets_checked=4,
                  marginal_players=(2, 3), node_count=4, order=(2, 0, 3, 1))
    assert ThresholdResult(**fields).q_star == F(1, 3)
    with pytest.raises(InvariantViolationError, match=message):
        ThresholdResult(**{**fields, **changes})


def test_threshold_result_counts_subsets_by_the_integer_rule():
    fields = dict(stages=GOOD_STAGES, marginal_players=(2, 3), node_count=4, order=(2, 0, 3, 1))
    for count in (4.5, 4.0, "4", True):
        with pytest.raises(ParameterError, match="subsets_checked must be an integer"):
            ThresholdResult(**fields, subsets_checked=count)
    result = ThresholdResult(**fields, subsets_checked=np.int64(4))
    assert json.loads(json.dumps(result.to_dict()))["subsets_checked"] == 4


def test_threshold_result_keeps_an_order_array_as_a_tuple():
    fields = dict(stages=GOOD_STAGES, subsets_checked=4, marginal_players=(2, 3), node_count=4)
    given = ThresholdResult(**fields, order=np.array([2, 0, 3, 1]))
    assert given.order == (2, 0, 3, 1) and type(given.order[0]) is int
    assert given == ThresholdResult(**fields, order=(2, 0, 3, 1))
    # The stage log's check reads -1 as "no marginal player": a descent needs one.
    with pytest.raises(InvariantViolationError, match="one marginal player per stage descent"):
        ThresholdResult(**{**fields, "marginal_players": (2, -1)}, order=(2, 0, 3, 1))
