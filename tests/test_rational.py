from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from netcontagion.contagion import (
    CascadeResult,
    DepthFunction,
    ThresholdResult,
    ThresholdStage,
    cohesiveness,
)
from netcontagion.errors import ParameterError
from netcontagion.game import (
    GameConfig,
    InfluenceWeights,
    global_share,
    has_incentive,
    local_support,
    switch_threshold,
)
from netcontagion.graphs import Network, generate_ba
from netcontagion.montecarlo import derive_seed, desk_grid, draw_set
from netcontagion.rational import (
    as_integer,
    as_rational,
    as_unit_rational,
    decimal_render,
    rational_json,
    rational_str,
)
from netcontagion.verify import run_checks

F = Fraction


def test_as_rational_accepts_exact_forms():
    assert as_rational("1/3") == F(1, 3)
    assert as_rational("0.25") == F(1, 4)
    assert as_rational(2) == 2
    assert as_rational(F(7, 5)) == F(7, 5)


def test_as_rational_rejects_floats_and_junk():
    with pytest.raises(ParameterError):
        as_rational(0.1)
    with pytest.raises(ParameterError):
        as_rational("one half")
    with pytest.raises(ParameterError):
        as_rational("1/0")


@pytest.mark.parametrize("value", [True, False])
def test_booleans_are_not_rationals(value):
    # bool is an int subclass, so Fraction(True) would read it as 1.
    with pytest.raises(ParameterError, match="not a boolean"):
        as_rational(value, "c")
    with pytest.raises(ParameterError, match="not a boolean"):
        as_unit_rational(value, "alpha")


def test_as_integer_takes_what_operator_index_takes_but_booleans():
    assert as_integer(7) == 7
    for value in (np.int64(-3), np.int32(5), np.uint64(2**63)):
        assert as_integer(value) == int(value) and type(as_integer(value)) is int
    for value in (True, np.False_, 2.0, 1.5, np.float64(3), "4", F(4), None):
        with pytest.raises(ParameterError, match="m must be an integer"):
            as_integer(value, "m")


NET = generate_ba(10, 2, 1)
CFG = GameConfig(network=NET)

# Every place that takes a player id or a count, with a value it accepts.
INTEGER_SITES = {
    "infected": (lambda v: GameConfig(network=NET, infected={v, 3}), 1),
    "player_set": (lambda v: CFG.player_set([v, 2]), 1),
    "cohesiveness": (lambda v: cohesiveness(NET, [v, 2]), 1),
    "has_incentive": (lambda v: has_incentive(CFG, v, {2}, "1/2"), 1),
    "local_support": (lambda v: local_support(CFG, v, {1}), 2),
    "global_share": (lambda v: global_share(CFG, v, {1}), 2),
    "switch_threshold": (lambda v: switch_threshold(CFG, v, {1}), 2),
    "m_values": (lambda v: replace(desk_grid(), m_values=(v,)), 2),
    "set_sizes": (lambda v: replace(desk_grid(), set_sizes=(v,)), 10),
    "master_seed": (lambda v: replace(desk_grid(), master_seed=v), 1),
    "sets_per_size": (lambda v: replace(desk_grid(), sets_per_size=v), 1),
    "network_size": (lambda v: replace(desk_grid(), network_size=v), 300),
    "networks_per_m": (lambda v: replace(desk_grid(), networks_per_m=v), 1),
    "generate_ba n": (lambda v: generate_ba(v, 2, 1), 50),
    "generate_ba m": (lambda v: generate_ba(50, v, 1), 2),
    "generate_ba seed": (lambda v: generate_ba(50, 2, v), 1),
    "Network node_count": (lambda v: Network(v, [[1], [0]]), 2),
    "from_edges node_count": (lambda v: Network.from_edges(v, [(0, 1)]), 2),
    "from_pairs i": (lambda v: InfluenceWeights.from_pairs(NET, {(v, 0): 2}), 1),
    "from_pairs j": (lambda v: InfluenceWeights.from_pairs(NET, {(0, v): 2}), 1),
    "derive_seed": (lambda v: derive_seed(v, "a"), 1),
    "draw_set population": (lambda v: draw_set(np.random.default_rng(1), v, 2), 10),
    "draw_set size": (lambda v: draw_set(np.random.default_rng(1), 10, v), 2),
    "Network adjacency id": (lambda v: Network(2, [[v], [0]]), 1),
    "from_edges pair id": (lambda v: Network.from_edges(2, [(v, 0)]), 1),
    "run_checks trials": (lambda v: run_checks(trials=v, max_i=4), 1),
    "run_checks max_i": (lambda v: run_checks(trials=0, max_i=v), 4),
    "run_checks seed": (lambda v: run_checks(trials=0, seed=v), 1),
    "DepthFunction node_count": (lambda v: DepthFunction((F(1), F(1, 2)), (1,), v), 2),
    "ThresholdResult subsets_checked": (lambda v: ThresholdResult(
        (ThresholdStage(F(1), 1), ThresholdStage(F(1, 2), 2)), v, (0,), 2, (0, 1)), 3),
    "CascadeResult subsets_checked": (
        lambda v: CascadeResult(waves=(), initial=frozenset({0}), subsets_checked=v), 1),
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_player_ids_and_counts_follow_one_integer_rule(site):
    # Nothing is truncated, parsed or read as 0/1: floats (integral ones
    # too), strings and booleans are refused, numpy integers pass.
    call, good = INTEGER_SITES[site]
    call(good)
    call(np.int64(good))
    for value in (float(good), good + 0.7, str(good), True):
        with pytest.raises(ParameterError, match="must be an integer"):
            call(value)


def test_as_unit_rational_range():
    assert as_unit_rational("1") == 1
    with pytest.raises(ParameterError):
        as_unit_rational("7/5", "q")


def test_decimal_render_half_even():
    assert decimal_render(F(1, 3)) == "0.333333"
    assert decimal_render(F(2, 3)) == "0.666667"
    assert decimal_render(F(1)) == "1.000000"
    # Exactly half a ulp: round to the even neighbor.
    assert decimal_render(F(25, 1000), 2) == "0.02"
    assert decimal_render(F(35, 1000), 2) == "0.04"
    assert decimal_render(F(5, 10), 0) == "0"
    assert decimal_render(F(-1, 3), 3) == "-0.333"


def test_rational_str():
    assert rational_str(F(1, 2)) == "1/2"
    assert rational_str(F(4, 2)) == "2"
    assert rational_str(F(0)) == "0"


def test_rational_json():
    assert rational_json(F(1, 3)) == {"num": 1, "den": 3, "decimal": "0.333333"}
    assert rational_json(F(2**70, 3)) == {"num": 2**70, "den": 3,
                                          "decimal": decimal_render(F(2**70, 3))}
