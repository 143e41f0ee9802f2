"""Hypothesis-driven invariants on small random games."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from netcontagion import oracle
from netcontagion.contagion import (
    cascade,
    coexisting_conventions,
    cohesiveness,
    depth_at,
    depth_function,
    full_contagion_threshold,
    is_nash,
    virality,
)
from netcontagion.errors import PreconditionError
from netcontagion.game import GameConfig, ParametricGlobalEffect
from netcontagion.graphs import Network, generate_ba

F = Fraction


@st.composite
def small_games(draw):
    n = draw(st.integers(4, 10))
    kind = draw(st.sampled_from(["ba", "cycle", "path", "star"]))
    if kind == "ba":
        net = generate_ba(n, draw(st.integers(1, 3)), draw(st.integers(0, 10**6)))
    elif kind == "cycle":
        net = Network.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    elif kind == "path":
        net = Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    else:
        net = Network.from_edges(n, [(0, i) for i in range(1, n)])
    alpha = draw(st.sampled_from([F(0), F(1, 4), F(1, 2), F(1)]))
    infected = frozenset(draw(st.sets(st.integers(0, n - 1), max_size=n // 2)))
    cfg = GameConfig(network=net, global_effect=ParametricGlobalEffect(alpha),
                     infected=infected)
    den = draw(st.integers(1, 12))
    q = F(draw(st.integers(0, den)), den)
    return cfg, q


@given(small_games())
@settings(max_examples=120, deadline=None)
def test_cascade_from_exogenous_matches_oracle(game):
    cfg, q = game
    result = cascade(cfg, cfg.infected, q)
    assert result.final == oracle.smallest_nash_containing(cfg, cfg.infected, q)
    assert is_nash(cfg, result.final, q)


@given(small_games())
@settings(max_examples=80, deadline=None)
def test_equilibria_are_exactly_fixed_points(game):
    cfg, q = game
    n = cfg.network.node_count
    equilibria = set(oracle.enumerate_nash(cfg, q))
    for mask in range(1 << n):
        E = frozenset(i for i in range(n) if mask >> i & 1)
        try:
            fixed = cascade(cfg, E, q).final == E
        except PreconditionError:
            # Some member lacks the incentive at E, so E cannot be Nash.
            assert E not in equilibria
            continue
        assert fixed == (E in equilibria)


@given(small_games(), st.integers(0, 11))
@settings(max_examples=100, deadline=None)
def test_threshold_against_brute_force(game, num):
    cfg, _ = game
    thr = full_contagion_threshold(cfg, cfg.infected)
    assert thr.q_star == oracle.brute_threshold(cfg, cfg.infected)
    assert thr.subsets_checked <= cfg.network.node_count - len(cfg.infected)
    q = F(num, 11)
    full = frozenset(range(cfg.network.node_count))
    assert (cascade(cfg, cfg.infected, q).final == full) == (q <= thr.q_star)


@given(small_games(), st.integers(1, 10), st.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_monotonicity_and_bootstrap(game, a, b):
    cfg, q = game
    lower_q = q * F(min(a, b), max(a, b))
    high = cascade(cfg, cfg.infected, q)
    low = cascade(cfg, cfg.infected, lower_q)
    reach_high, reach_low = high.initial, low.initial
    for t in range(max(len(high.waves), len(low.waves))):
        if t < len(high.waves):
            reach_high |= high.waves[t]
        if t < len(low.waves):
            reach_low |= low.waves[t]
        assert reach_high <= reach_low
    boot = cascade(cfg, high.final, lower_q)
    assert boot.final == low.final


@given(small_games(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_global_effect_containment(game, quarters):
    cfg, q = game
    weak_alpha = cfg.global_effect.alpha * F(quarters, 4)
    weak_cfg = GameConfig(network=cfg.network, weights=cfg.weights,
                          global_effect=ParametricGlobalEffect(weak_alpha),
                          infected=cfg.infected)
    weak = cascade(weak_cfg, cfg.infected, q)
    strong = cascade(cfg, cfg.infected, q)
    reach_weak, reach_strong = weak.initial, strong.initial
    for t in range(max(len(weak.waves), len(strong.waves))):
        if t < len(weak.waves):
            reach_weak |= weak.waves[t]
        if t < len(strong.waves):
            reach_strong |= strong.waves[t]
        assert reach_weak <= reach_strong


@given(small_games())
@settings(max_examples=60, deadline=None)
def test_depth_function_agrees_with_cascade(game):
    cfg, q = game
    df = depth_function(cfg, cfg.infected)
    reached = cascade(cfg, cfg.infected, q).final
    assert depth_at(df, q) == F(len(reached), cfg.network.node_count)


@given(small_games())
@settings(max_examples=60, deadline=None)
def test_local_only_cohesion_characterization(game):
    # Nash <=> the set is q-cohesive and its complement is strictly more
    # than (1-q)-cohesive.  The strictness matters because indifferent
    # outsiders deviate: an outsider with exactly fraction q of deviating
    # neighbors flips, so a complement that is exactly (1-q)-cohesive does
    # not hold.
    cfg, q = game
    if not cfg.global_effect.is_zero:
        return
    plain = GameConfig(network=cfg.network)  # unit weights, no exogenous set
    n = cfg.network.node_count
    for mask in range(1, (1 << n) - 1):
        E = frozenset(i for i in range(n) if mask >> i & 1)
        comp = frozenset(range(n)) - E
        expected = (cohesiveness(cfg.network, E) >= q
                    and cohesiveness(cfg.network, comp) > 1 - q)
        assert is_nash(plain, E, q) == expected


@given(small_games())
@settings(max_examples=80, deadline=None)
def test_coexistence_iff_above_threshold(game):
    cfg, q = game
    n = cfg.network.node_count
    seeds = cfg.infected or frozenset({0})
    cfg = GameConfig(network=cfg.network, weights=cfg.weights,
                     global_effect=cfg.global_effect, infected=seeds)
    thr = full_contagion_threshold(cfg, seeds)
    between = coexisting_conventions(cfg, seeds, q)
    assert (between is not None) == (q > thr.q_star)
    v = virality(cfg, seeds, q)
    assert v >= 0
    reached = cascade(cfg, seeds, q).final
    assert (v == 0) == (reached == seeds)
    if between is not None:
        assert seeds <= between and len(between) < n


def test_cohesion_characterization_tie_case():
    # Frozen counterexample to the non-strict reading: on the 4-cycle at
    # q = 1/2, the pair {0,1} is 1/2-cohesive and so is its complement, yet
    # the outsiders sit exactly at the switch boundary and deviate.
    net = Network.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    cfg = GameConfig(network=net)
    E = frozenset({0, 1})
    q = F(1, 2)
    assert cohesiveness(net, E) >= q
    assert cohesiveness(net, frozenset({2, 3})) >= 1 - q
    assert not is_nash(cfg, E, q)
