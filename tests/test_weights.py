"""InfluenceWeights must agree with the Fraction-row reference."""

from fractions import Fraction

import numpy as np
import pytest

from netcontagion._engines import ExactEngine
from netcontagion.errors import ParameterError
from netcontagion.game import GameConfig, InfluenceWeights
from netcontagion.graphs import Network, generate_ba
from weights_reference import ReferenceWeights, reference_integer_form

F = Fraction
PALETTE = [F(1), F(3, 2), F(2), F(7, 4), F(5, 3), F(0), 3, "1/6"]
# ones: every weight 1, spelled in assorted types; palette: zero directions
# included; huge: denominators near 10^20 next to ones, so W beyond int64;
# tiny: one denominator 10^20 per row, so L beyond int64 but W small.
KINDS = ("ones", "palette", "huge", "tiny")


def random_network(rng, seed):
    n = int(rng.integers(3, 30))
    if seed % 5 == 4:
        return Network.from_edges(n, [(0, i) for i in range(1, n)])
    return generate_ba(n, int(rng.integers(1, min(4, n))), seed)


def random_rows(rng, net, kind):
    rows = []
    for nbrs in net.adjacency:
        row = {}
        for j in nbrs:
            pick = int(rng.integers(0, 8))
            if kind == "ones":
                row[j] = [1, F(1), "1", F(2, 2)][pick % 4]
            elif kind == "huge":
                row[j] = F(pick, 10**20 + int(rng.integers(0, 7))) if pick % 2 else 1
            elif kind == "tiny":
                row[j] = F(pick, 10**20)
            else:
                row[j] = PALETTE[pick]
        if not any(map(F, row.values())):  # keep the row sum positive
            row[nbrs[0]] = F(1, 3)
        rows.append(row)
    return rows


def overrides(rng, rows):
    """The weights other than 1, as pairs in a random order."""
    pairs = [((i, j), w) for i, row in enumerate(rows) for j, w in row.items() if F(w) != 1]
    return dict(pairs[k] for k in rng.permutation(len(pairs)))


def assert_same(net, ref, new):
    assert new.is_unit == ref.is_unit
    for i, nbrs in enumerate(net.adjacency):
        row = new.row(i)
        assert row == ref.rows[i] and list(row) == list(nbrs)
        assert all(type(w) is F and new.weight(i, j) == w for j, w in row.items())
        assert new.row_sum(i) == ref.row_sums[i] and type(new.row_sum(i)) is F
    L, W, in_weights = reference_integer_form(net, ref)
    assert new.L.tolist() == L and new.W.tolist() == W
    tables = ExactEngine(GameConfig(network=net, weights=new)).tables
    assert tables.W.tolist() == W
    if in_weights is None:
        assert tables.in_weights is None
    else:
        assert tables.in_weights.tolist() == in_weights.tolist()
        assert tables.in_weights.dtype == (np.int64 if max(W) < 2**63 else object)


@pytest.mark.parametrize("seed", range(12))
def test_weights_match_the_reference(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    net = random_network(rng, seed)
    rows = random_rows(rng, net, KINDS[seed % 4])
    new, ref = InfluenceWeights(net, rows), ReferenceWeights(net, rows)
    assert_same(net, ref, new)
    pairs = overrides(rng, rows)
    paired = InfluenceWeights.from_pairs(net, pairs)
    assert_same(net, ReferenceWeights.from_pairs(net, pairs), paired)
    unit = InfluenceWeights.unit(net)
    assert_same(net, ReferenceWeights.unit(net), unit)
    assert new == paired and paired == new
    assert (new == unit) == (unit == new) == ref.is_unit
    # One changed weight makes them differ, as the rows do.
    i = int(rng.integers(0, net.node_count))
    j = net.adjacency[i][-1]
    rows[i][j] = F(rows[i][j]) + F(1, 7)
    assert new != InfluenceWeights(net, rows) and ref.rows != ReferenceWeights(net, rows).rows


def outcome(build):
    try:
        build()
    except Exception as err:  # the type and text are what is compared
        return type(err), str(err)
    return "ok"


def break_rows(rng, net, rows):
    """Rows with one to three faults at random nodes."""
    rows = [dict(row) for row in rows]
    n = net.node_count
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, n))
        nbrs = net.adjacency[i]
        j = nbrs[int(rng.integers(0, len(nbrs)))]
        fault = int(rng.integers(0, 6))
        if fault == 0:
            del rows[i][j]
        elif fault == 1:
            rows[i][n + int(rng.integers(0, 3))] = 1
        elif fault == 2:
            rows[i][j] = F(-1, int(rng.integers(1, 4)))
        elif fault == 3:
            rows[i] = dict.fromkeys(nbrs, 0)
        elif fault == 4:
            rows[i][j] = 0.5
        else:
            rows[i][j] = "x/2"
    return rows


def break_pairs(rng, net, pairs):
    """Overrides with one to three faults added, in a random order."""
    pairs = list(pairs.items())
    n = net.node_count
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, n))
        nbrs = net.adjacency[i]
        j = nbrs[int(rng.integers(0, len(nbrs)))]
        fault = int(rng.integers(0, 6))
        if fault == 0:
            strangers = sorted(set(range(n)) - set(nbrs) - {i})
            pair = [(i, strangers[0] if strangers else i), (n, 0), (-1, 0),
                    (0, 10**30)][int(rng.integers(0, 4))]
            pairs.append((pair, 1))
        elif fault == 1:
            pairs.append(((i, j), -2))
        elif fault == 2:
            pairs.extend(((i, k), 0) for k in nbrs)
        elif fault == 3:
            pairs.append(((i, j), 0.25))
        else:
            pairs.append(((i, j), "1/0" if fault == 4 else "seven"))
    return dict(pairs[k] for k in rng.permutation(len(pairs)))


@pytest.mark.parametrize("seed", range(8))
def test_malformed_weights_fail_as_the_reference_does(seed):
    rng = np.random.Generator(np.random.PCG64(100 + seed))
    net = random_network(rng, seed)
    rows = random_rows(rng, net, KINDS[seed % 4])
    assert outcome(lambda: InfluenceWeights(net, rows[:-1])) == \
        outcome(lambda: ReferenceWeights(net, rows[:-1])) != "ok"
    for _ in range(25):
        bad = break_rows(rng, net, rows)
        want = outcome(lambda: ReferenceWeights(net, bad))
        assert outcome(lambda: InfluenceWeights(net, bad)) == want, bad
        pairs = break_pairs(rng, net, overrides(rng, rows))
        default = [1, 1, 1, F(1, 2), 0, -1, 0.5][int(rng.integers(0, 7))]
        want = outcome(lambda: ReferenceWeights.from_pairs(net, pairs, default))
        assert outcome(lambda: InfluenceWeights.from_pairs(net, pairs, default)) == want, pairs
    isolated = Network.from_edges(5, [(0, 1), (1, 3)])
    for cls in (InfluenceWeights, ReferenceWeights):
        assert outcome(lambda: cls.unit(isolated)) == (
            ParameterError, "node 2 is isolated, so w_2 would be 0")
        assert outcome(lambda: cls.from_pairs(isolated, {(0, 1): 2})) == (
            ParameterError, "row sum w_2 must be positive")
