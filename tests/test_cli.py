import contextlib
import csv
import io
import json
import os
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sweep_reference import (
    old_csv_row,
    old_json_line,
    reference_average_thresholds,
    reference_sweep,
)

from netcontagion import montecarlo, svgplot
from netcontagion.cli import main
from netcontagion.game import InfluenceWeights
from netcontagion.graphs import Network, generate_ba, load_edge_list
from netcontagion.rational import rational_str


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    assert main(["generate", "-n", "100", "-m", "5", "--seed", "7", "-o", str(a)]) == 0
    assert main(["generate", "-n", "100", "-m", "5", "--seed", "7", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # Metadata header records the generator convention.
    assert "# core: complete-graph-on-m-nodes" in a.read_text()


def test_generate_rejects_m_not_below_n(capsys):
    code, _, err = run_cli(capsys, "generate", "-n", "5", "-m", "5", "--seed", "1")
    assert code == 2
    assert "m must be smaller than n" in err


def test_generate_edge_count(tmp_path):
    out = tmp_path / "n.edges"
    main(["generate", "-n", "1000", "-m", "20", "--seed", "3", "-o", str(out)])
    edge_lines = [ln for ln in out.read_text().splitlines()
                  if ln and not ln.startswith("#")]
    assert len(edge_lines) == 20 * 980 + 20 * 19 // 2


def test_json_errors_flag(capsys):
    code, _, err = run_cli(capsys, "--json-errors", "generate", "-n", "5", "-m", "9")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.edges"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    return str(path)


def test_threshold_cycle_report(cycle_file, capsys):
    code, out, _ = run_cli(capsys, "threshold", "--network", cycle_file,
                           "--seeds", "0")
    assert code == 0
    assert "q* = 1/2" in out
    assert "subsets checked: 2" in out


def test_threshold_json_members(cycle_file, capsys):
    code, out, _ = run_cli(capsys, "threshold", "--network", cycle_file,
                           "--seeds", "0", "--json", "--members")
    payload = json.loads(out)
    assert payload["q_star"] == {"num": 1, "den": 2, "decimal": "0.500000"}
    assert payload["stages"][-1]["equilibrium_members"] == [0, 1, 2, 3]


def test_threshold_collects_members_only_for_members(cycle_file, capsys):
    # The JSON lists each stage's members only with --members.
    from netcontagion.contagion import full_contagion_threshold
    from netcontagion.game import GameConfig
    net = load_edge_list(open(cycle_file).read())
    result = full_contagion_threshold(GameConfig(network=net, infected=frozenset({0})), {0})
    for flags, members in (((), False), (("--members",), True)):
        _, out, _ = run_cli(capsys, "threshold", "--network", cycle_file,
                            "--seeds", "0", "--json", *flags)
        assert out == json.dumps(result.to_dict(include_members=members), indent=2) + "\n"
    _, out, _ = run_cli(capsys, "threshold", "--network", cycle_file, "--seeds", "0",
                        "--members")
    assert "members: [0, 1, 2, 3]" in out


def test_depth_has_no_members_flag(cycle_file, capsys):
    # --members lists threshold stages; depth prints none, so it refuses the flag.
    code = main(["depth", "--network", cycle_file, "--seeds", "0", "--q", "1/2", "--members"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--members" in errors[0]


def test_threshold_alpha_monotone(cycle_file, capsys):
    _, out0, _ = run_cli(capsys, "threshold", "--network", cycle_file,
                         "--seeds", "0,1", "--alpha", "0", "--json")
    _, out1, _ = run_cli(capsys, "threshold", "--network", cycle_file,
                         "--seeds", "0,1", "--alpha", "1", "--json")
    from fractions import Fraction
    q0 = json.loads(out0)["q_star"]
    q1 = json.loads(out1)["q_star"]
    assert Fraction(q0["num"], q0["den"]) <= Fraction(q1["num"], q1["den"])


def test_threshold_all_nodes_trivial(cycle_file, capsys):
    code, out, _ = run_cli(capsys, "threshold", "--network", cycle_file,
                           "--seeds", "0,1,2,3")
    assert code == 0
    assert "q* = 1 " in out


@pytest.mark.parametrize("seeds, message, endogenous", [
    ("1,x", "--seeds entry must be an integer; got 'x'", None),
    ("1,1.5", "--seeds entry must be an integer; got '1.5'", None),
    ("1,True", "--seeds entry must be an integer; got 'True'", None),
    ("1,,2", "--seeds entry must be an integer; got ''", None),
    ("1,x,1.5", "--seeds entry must be an integer; got 'x'", None),
    ("1,-1", "infected player -1 out of range", "player -1 out of range"),
    ("1,10", "infected player 10 out of range", "player 10 out of range"),
    (" 2,+3,1_0", "infected player 10 out of range", "player 10 out of range"),
    ("1,99999999999999999999999", "infected player 99999999999999999999999 out of range",
     "player 99999999999999999999999 out of range"),
], ids=["letter", "float", "bool", "empty", "first-token", "negative", "out-of-range",
        "int-syntax", "past-int64"])
def test_seeds_are_refused_with_one_message(seeds, message, endogenous, capsys):
    for flags, want in [([], message), (["--endogenous"], endogenous or message)]:
        code, out, err = run_cli(capsys, "threshold", "--generate", "10,2,1",
                                 "--seeds", seeds, *flags)
        assert (code, out, err) == (2, "", f"error: {want}\n")


def test_seeds_are_read_as_int_reads_them(capsys):
    answers = [run_cli(capsys, "threshold", "--generate", "30,2,1", "--seeds", seeds,
                       "--json", "--members") for seeds in ("+2, 3,1_0,3", "2,3,10")]
    assert answers[0] == answers[1] and answers[0][0] == 0


def test_threshold_endogenous_precondition_error(cycle_file, capsys):
    code, _, err = run_cli(capsys, "--json-errors", "threshold", "--network",
                           cycle_file, "--seeds", "0", "--endogenous")
    assert code == 2
    assert json.loads(err)["player"] == 0


@pytest.mark.parametrize("flags", [
    ["--seeds-random", "-1"],
    ["--seeds-random", "25"],
    ["--seeds-random", "5", "--seeds-seed", "-3"],
])
def test_threshold_random_seed_flags_rejected(tmp_path, capsys, flags):
    path = tmp_path / "ring.edges"
    path.write_text("".join(f"{i} {(i + 1) % 20}\n" for i in range(20)))
    code, out, err = run_cli(capsys, "threshold", "--network", str(path), *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


GRID = {"network_size": 30, "m_values": [2], "alpha_values": ["0"], "networks_per_m": 1,
        "sets_per_size": 1, "set_sizes": [5]}


@pytest.mark.parametrize("argv, files", [
    (["threshold", "--generate", "30,2,1", "--seeds", "1,a"], {}),
    (["threshold", "--network", "@missing.edges", "--seeds", "0"], {}),
    (["threshold", "--generate", "30,2,1", "--seeds", "0", "--weights", "@w.json"],
     {"w.json": [[0, 1]]}),
    (["threshold", "--config", "@game.json"],
     {"game.json": {"network": {"generate": {"n": 30}}, "infected": [0]}}),
    (["threshold", "--generate", "30,2,1", "--config", "@game.json"],
     {"game.json": {"infected": [0, "x"]}}),
    (["threshold", "--generate", "30,2,1", "--config", "@game.json"],
     {"game.json": {"infected": [0, 1.5]}}),
    (["threshold", "--generate", "30,2,1", "--config", "@game.json"],
     {"game.json": {"infected": [0], "global_tables": [[[0]]]}}),
    (["depth", "--generate", "30,2,1", "--config", "@game.json"],
     {"game.json": {"infected": [0], "q": 5}}),
    (["montecarlo", "--config", "@grid.json", "--out", "@out"],
     {"grid.json": {"network_size": 30}}),
    (["montecarlo", "--config", "@grid.json", "--out", "@out"],
     {"grid.json": {**GRID, "m_values": 2}}),
    (["montecarlo", "--config", "@grid.json", "--out", "@out"],
     {"grid.json": {**GRID, "set_sizes": {"start": 5, "stop": 20, "step": 0}}}),
    (["generate", "-n", "30", "-m", "2", "--seed", "-1"], {}),
    (["threshold", "--generate", "30,2,-1", "--seeds", "1"], {}),
    (["threshold", "--config", "@game.json"],
     {"game.json": {"network": {"generate": {"n": 30, "m": 2, "seed": -1}}, "infected": [0]}}),
    (["montecarlo", "--config", "@grid.json", "--out", "@out", "--workers", "0"],
     {"grid.json": GRID}),
    (["montecarlo", "--config", "@grid.json", "--out", "@out", "--workers", "-2"],
     {"grid.json": GRID}),
    (["montecarlo", "--config", "@grid.json", "--out", "@out"],
     {"grid.json": {**GRID, "m_values": [2, 2]}}),
    (["montecarlo", "--config", "@grid.json", "--out", "@grid.json/out"],
     {"grid.json": GRID}),
    (["verify", "--max-i", "3"], {}),
    (["verify", "--trials", "-1"], {}),
    (["verify", "--trials", "1", "--seed", "-1"], {}),
    (["verify", "--trials", "0", "--max-i", "3"], {}),
    (["generate", "-n", "30", "-m", "2", "-o", "@grid.json/out"], {"grid.json": GRID}),
    (["threshold", "--generate", "30,2,1", "--config", "game\0.json"], {}),
    # Usage errors, conflicting flags among them.
    (["threshold", "--generate", "10,3,1", "--seeds-random", "abc"], {}),
    (["threshold", "--generate", "10,3,1", "--seeds", "1", "--bogus"], {}),
    (["generate", "-n", "10"], {}),
    (["threshold", "--network", "@net.edges", "--generate", "10,3,1", "--seeds", "1"], {}),
    (["threshold", "--generate", "10,3,1", "--seeds", "1", "--seeds-random", "3"], {}),
    (["threshold", "--config", "@game.json"],
     {"game.json": {"network": {"path": 5}, "infected": [0]}}),
    (["threshold", "--config", "@game.json"],
     {"game.json": {"network": {"path": None}, "infected": [0]}}),
    (["threshold", "--config", "@game.json"],
     {"game.json": {"network": {"path": "net\0.edges"}, "infected": [0]}}),
    (["threshold", "--generate", "30,2,1", "--config", "@game.json"],
     {"game.json": {"infected": [0], "c": True}}),
    (["threshold", "--generate", "30,2,1", "--config", "@game.json"],
     {"game.json": {"infected": [0], "alpha": False}}),
    (["threshold", "--generate", "30,2,1", "--config", "@game.json"],
     {"game.json": {"infected": [0], "weights": [[0, 1, True]]}}),
    (["threshold", "--generate", "3,1,1", "--config", "@game.json"],
     {"game.json": {"infected": [0], "global_tables": [[[0, 0], [True, 1]]] * 3}}),
    (["depth", "--generate", "30,2,1", "--config", "@game.json"],
     {"game.json": {"infected": [0], "q": [True]}}),
], ids=["seeds", "missing-network", "weights-arity", "generate-without-m",
        "infected-string", "infected-fraction", "table-entry", "q-number", "grid-missing-field", "grid-mistyped-field",
        "grid-zero-step", "generate-negative-seed", "generate-flag-negative-seed",
        "config-negative-seed", "no-workers", "negative-workers", "grid-repeated-m",
        "out-under-a-file", "verify-max-i-below-4", "verify-negative-trials",
        "verify-negative-seed", "verify-no-trials-max-i-below-4", "generate-out-under-a-file",
        "config-path-nul", "flag-not-an-int", "unknown-flag", "missing-required-flag",
        "network-and-generate", "seeds-and-random",
        "network-path-number", "network-path-null", "network-path-nul", "c-boolean",
        "alpha-boolean", "weight-boolean", "table-boolean", "q-boolean"])
def test_bad_input_is_a_typed_error(tmp_path, capsys, argv, files):
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    # "@name" is a path in tmp_path; only the listed files exist.
    argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    code, _, err = run_cli(capsys, "--json-errors", *argv)
    assert code == 2 and json.loads(err)["error"] == "ParameterError"


@pytest.mark.parametrize("field, step", [("breakpoint", [True, 1]), ("value", ["1/2", True])])
def test_a_bad_table_entry_names_its_table(tmp_path, capsys, field, step):
    # The effect parses each entry once and names the table it sits in.
    tables = [[[0, 0], ["1/2", 1]] for _ in range(5)]
    tables[3][1] = step
    (tmp_path / "game.json").write_text(json.dumps({"infected": [0], "global_tables": tables}))
    code, out, err = run_cli(capsys, "threshold", "--generate", "5,1,1",
                             "--config", str(tmp_path / "game.json"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: table[3] {field} ") and "boolean" in err


def test_a_bad_weight_names_its_pair(tmp_path, capsys):
    # The CLI hands each raw weight to from_pairs, which parses it once and
    # names the neighbour pair it sits on.
    i, j = next(iter(generate_ba(30, 2, 1).edges()))
    doc = {"infected": [0], "weights": [[i, j, "1/2"], [j, i, True]]}
    (tmp_path / "game.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "threshold", "--generate", "30,2,1",
                             "--config", str(tmp_path / "game.json"))
    assert (code, out) == (2, "")
    assert err == f"error: w[{j}][{i}] must be a rational, not a boolean; got True\n"


@pytest.mark.parametrize("alpha, flag", [("1/2", None), ("0", None), (True, None),
                                         (None, "1/2"), ("0", "1")])
def test_a_game_with_alpha_and_global_tables_is_refused(tmp_path, capsys, alpha, flag):
    # A document's alpha or the --alpha flag next to global_tables: one global
    # effect too many, whichever is given.
    doc = {"infected": [0], "global_tables": [[[0, 0]]] * 5}
    if alpha is not None:
        doc["alpha"] = alpha
    (tmp_path / "game.json").write_text(json.dumps(doc))
    for command in (["threshold"], ["depth", "--q", "1/2"]):
        code, out, err = run_cli(capsys, *command, "--generate", "5,1,1",
                                 "--config", str(tmp_path / "game.json"),
                                 *(["--alpha", flag] if flag else []))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "alpha" in err and "global_tables" in err


def test_queries_on_a_loaded_network_build_no_per_node_objects(tmp_path, capsys, monkeypatch):
    # threshold and depth read only the CSR arrays and the degrees: neither
    # the neighbour tuples nor the unit-weight rows are ever built.
    path = tmp_path / "net.edges"
    assert main(["generate", "-n", "400", "-m", "3", "--seed", "2", "-o", str(path)]) == 0
    reads = []
    for cls, name in ((Network, "adjacency"), (InfluenceWeights, "_rows")):
        build = vars(cls)[name].func
        monkeypatch.setattr(cls, name, property(
            lambda self, build=build, name=name: reads.append(name) or build(self)))
    queries = [["threshold", "--network", str(path), "--seeds", "0,5,9,200", "--json"],
               ["threshold", "--network", str(path), "--seeds-random", "40", "--alpha", "1/2"],
               ["depth", "--network", str(path), "--seeds-random", "60", "--seeds-seed", "3",
                "--alpha", "1", "--q", "1/4,1/2", "--json"]]
    for argv in queries:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
    assert reads == []
    # The counters see a read when there is one.
    weights = InfluenceWeights.unit(load_edge_list(path.read_text()))
    assert reads == []
    weights.row(0)
    assert reads == ["_rows", "adjacency"]


def test_depth_report(cycle_file, capsys):
    code, out, _ = run_cli(capsys, "depth", "--network", cycle_file,
                           "--seeds", "0", "--q", "0,3/5,1")
    assert code == 0
    lines = out.splitlines()
    assert any(line.split() == ["0", "1", "1.000000", "3/4", "0.750000"]
               for line in lines)
    assert any(line.split() == ["3/5", "1/4", "0.250000", "0", "0.000000"]
               for line in lines)


def test_depth_from_config_document(tmp_path, capsys):
    config = tmp_path / "game.json"
    config.write_text(json.dumps({
        "network": {"generate": {"n": 30, "m": 2, "seed": 5}},
        "c": "1", "alpha": "1/2", "infected": [0, 1, 2],
        "q": ["1/4", "1/2"]}))
    code, out, _ = run_cli(capsys, "depth", "--config", str(config), "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2


def test_flag_overrides_config(tmp_path, capsys):
    config = tmp_path / "game.json"
    config.write_text(json.dumps({
        "network": {"generate": {"n": 12, "m": 2, "seed": 5}},
        "alpha": "1", "infected": [0]}))
    _, out_file, _ = run_cli(capsys, "threshold", "--config", str(config), "--json")
    _, out_flag, _ = run_cli(capsys, "threshold", "--config", str(config),
                             "--alpha", "0", "--json")
    assert json.loads(out_file)["q_star"] != json.loads(out_flag)["q_star"]


def test_weights_flag_file(tmp_path, cycle_file, capsys):
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([[1, 0, "3"], [3, 0, "3"]]))
    _, out_plain, _ = run_cli(capsys, "threshold", "--network", cycle_file,
                              "--seeds", "0", "--json")
    _, out_weighted, _ = run_cli(capsys, "threshold", "--network", cycle_file,
                                 "--seeds", "0", "--weights", str(weights),
                                 "--json")
    # Neighbors now lean harder on the seed: 3/(3+1) instead of 1/2.
    assert json.loads(out_plain)["q_star"] == {"num": 1, "den": 2,
                                               "decimal": "0.500000"}
    assert json.loads(out_weighted)["q_star"]["num"] == 3
    assert json.loads(out_weighted)["q_star"]["den"] == 4


def test_montecarlo_outputs_and_determinism(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "network_size": 40, "m_values": [2], "alpha_values": ["0", "1"],
        "networks_per_m": 1, "sets_per_size": 2,
        "set_sizes": {"start": 5, "stop": 40, "step": 15},
        "q_grid": ["1/2"], "master_seed": 5}))
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["montecarlo", "--config", str(config), "--out", str(out1),
                 "--workers", "1", "--plots"]) == 0
    assert main(["montecarlo", "--config", str(config), "--out", str(out2),
                 "--workers", "2"]) == 0
    capsys.readouterr()
    for name in ("runs.csv", "runs.jsonl", "thresholds_table.csv",
                 "threshold_stats.csv", "inverse_depth_table.csv",
                 "depth_curves.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    svg = next((out1 / "plots").glob("*.svg")).read_text()
    assert svg.startswith("<svg") and "polyline" in svg


@pytest.mark.parametrize("out, blocker", [("@file/out", "file"), ("@out", "out/plots")],
                         ids=["out-under-a-file", "plots-is-a-file"])
def test_montecarlo_unwritable_out_fails_before_any_search(tmp_path, capsys, monkeypatch,
                                                          out, blocker):
    def no_search(*args):
        raise AssertionError("a network task ran")

    monkeypatch.setattr(montecarlo, "_run_network_task", no_search)
    (tmp_path / blocker).parent.mkdir(exist_ok=True)
    (tmp_path / blocker).write_text("")
    (tmp_path / "grid.json").write_text(json.dumps(GRID))
    code, stdout, err = run_cli(capsys, "--json-errors", "montecarlo", "--plots", "--config",
                                str(tmp_path / "grid.json"), "--out", str(tmp_path / out[1:]))
    assert (code, stdout) == (2, "")
    assert json.loads(err)["error"] == "ParameterError"


# m, alpha and set sizes out of order; the runs still come out sorted.
UNORDERED_GRID = {"network_size": 30, "m_values": [3, 1, 2], "alpha_values": ["1", "0", "1/2"],
                  "networks_per_m": 2, "sets_per_size": 2, "set_sizes": [12, 4, 25],
                  "q_grid": ["3/4", "1/4"], "master_seed": 13}


def whole_list_outputs(records, grid, out):
    """Every montecarlo output, written from the whole list of reference runs
    by ``csv.writer``, ``json.dumps`` and the Fraction reference table."""
    (out / "plots").mkdir(parents=True)
    with open(out / "runs.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([montecarlo.RUN_CSV_COLUMNS, *map(old_csv_row, records)])
    (out / "runs.jsonl").write_text("".join(map(old_json_line, records)))
    table = reference_average_thresholds(records, grid.q_grid)
    montecarlo.write_threshold_table_csv(table, out / "thresholds_table.csv")
    montecarlo.write_threshold_stats_csv(table, out / "threshold_stats.csv")
    montecarlo.write_inverse_depth_table_csv(table, out / "inverse_depth_table.csv")
    montecarlo.write_depth_curves_csv(table, out / "depth_curves.csv")
    for m in grid.m_values:
        for alpha in grid.alpha_values:
            points = [(r.size_fraction, r.q_star) for r in records if (r.m, r.alpha) == (m, alpha)]
            means = {Fraction(size, grid.network_size): cell.mean
                     for (mm, aa, size), cell in table.thresholds.items() if (mm, aa) == (m, alpha)}
            svg = svgplot.render_scatter(
                points, means, title=f"contagion threshold, m={m}, alpha={rational_str(alpha)}",
                x_label="starting-set fraction", y_label="q*")
            (out / "plots" / f"thresholds_m{m}_alpha{rational_str(alpha).replace('/', '-')}.svg"
             ).write_text(svg)


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_montecarlo_streams_the_whole_list_bytes(tmp_path, capsys, workers):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(UNORDERED_GRID))
    out = tmp_path / "out"
    code, stdout, _ = run_cli(capsys, "montecarlo", "--config", str(config), "--out", str(out),
                              "--workers", workers, "--plots")
    grid = montecarlo.ExperimentGrid(
        network_size=30, m_values=(3, 1, 2), alpha_values=(1, 0, Fraction(1, 2)),
        networks_per_m=2, sets_per_size=2, set_sizes=(12, 4, 25),
        q_grid=(Fraction(3, 4), Fraction(1, 4)), master_seed=13)
    records = reference_sweep(grid)
    whole_list_outputs(records, grid, tmp_path / "want")
    assert (code, stdout) == (0, f"wrote {len(records)} runs to {out}\n")
    got, want = tree_bytes(out), tree_bytes(tmp_path / "want")
    assert len(got) == 6 + 9 and got == want


def test_montecarlo_traced_peak_does_not_grow_with_networks(tmp_path, capsys):
    grid = {"network_size": 60, "m_values": [3, 2], "alpha_values": ["0", "1/2", "1"],
            "sets_per_size": 3, "set_sizes": {"start": 5, "stop": 60, "step": 5}}

    def peak(networks):
        config = tmp_path / f"grid{networks}.json"
        config.write_text(json.dumps({**grid, "networks_per_m": networks}))
        tracemalloc.start()
        try:
            assert main(["montecarlo", "--config", str(config),
                         "--out", str(tmp_path / f"out{networks}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-use allocations fall outside the comparison
    small, large = peak(2), peak(8)
    added_runs = 6 * 2 * 3 * 3 * 11
    # Held records would add ~480 B per run here.  What may grow is the
    # aggregator's three float64 per run (q* for sd, the plot point), with
    # the arrays' spare capacity and the copy made when one grows.
    assert large - small <= 96 * added_runs, (small, large)


def test_montecarlo_requires_grid(capsys):
    code, _, err = run_cli(capsys, "montecarlo", "--out", "/tmp/nowhere-xyz")
    assert code == 2
    assert "preset" in err


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "8", "--seed", "3")
    assert code == 0
    assert "FAIL" not in out
    assert "smallest-equilibrium" in out


def test_verify_zero_trials_warns(capsys):
    code, out, err = run_cli(capsys, "verify", "--trials", "0")
    assert code == 0
    assert "vacuously" in err


def test_verify_reports_injected_bug(monkeypatch):
    # The harness itself must catch a broken cascade and serialize a
    # counterexample.
    from netcontagion import contagion, verify

    cascade = contagion.cascade

    def broken_cascade(cfg, start, q):
        result = cascade(cfg, start, q)
        if not result.waves:
            return result
        return contagion.CascadeResult(waves=result.waves[:-1],
                                       initial=result.initial,
                                       subsets_checked=result.subsets_checked)

    monkeypatch.setattr(contagion, "cascade", broken_cascade)
    reports = verify.run_checks(trials=10, seed=0)
    failing = [r for r in reports if r.failures]
    assert failing
    sample = failing[0].failures[0]
    assert "edges" in sample["instance"] and "q" in sample["instance"]


def test_verify_reports_a_wrong_threshold(monkeypatch):
    # A search that reports half the true q* fails the oracle comparison.
    from dataclasses import replace

    from netcontagion import contagion, verify

    threshold = contagion.full_contagion_threshold

    def halved_threshold(cfg, start):
        result = threshold(cfg, start)
        last = contagion.ThresholdStage(result.q_star / 2, result.node_count)
        return replace(result, stages=(*result.stages[:-1], last))

    monkeypatch.setattr(contagion, "full_contagion_threshold", halved_threshold)
    reports = {r.name: r for r in verify.run_checks(trials=10, seed=0)}
    failures = reports["threshold-agreement"].failures
    assert failures and "brute-force" in failures[0]["detail"]
    assert "edges" in failures[0]["instance"] and "q" in failures[0]["instance"]


def test_verify_battery_counts_are_pinned():
    # The per-property counts of ``verify --trials 50 --seed 0``: a change to
    # what the battery draws from its generator changes them.
    from netcontagion import verify

    reports = verify.run_checks(trials=50, seed=0) + verify.run_cohesion_checks(trials=12, seed=0)
    assert {r.name: (r.checks, len(r.failures)) for r in reports} == {
        **{name: (50, 0) for name in (
            "bootstrap", "depth-cascade-agreement", "equilibrium-fixed-points", "linear-bound",
            "smallest-equilibrium", "stage-equilibria", "threshold-agreement",
            "threshold-characterization", "wave-monotone-q")},
        "global-effect-monotone": (34, 0), "wave-monotone-start": (31, 0),
        **{name: (12, 0) for name in (
            "cohesion-equilibrium", "uniform-cohesion-agreement", "uniform-cohesion-threshold")},
    }
    assert sum(r.checks for r in reports) == 551


# JSON values for the fields of a game document.  Numbers stay small where
# the CLI could take them as a network size; the huge ones are refused there.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.sampled_from([2**63, -2**70, 10**30]),
    st.floats(),
    st.sampled_from(["", "x", "unit", "1/2", "0.25", "3", "-1", "7/3", "1/0", "1e3", "\0"]))
VALUES = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
    st.sampled_from(["n", "m", "seed", "path", "generate"]), kids, max_size=3), max_leaves=6)
SMALL = st.one_of(st.integers(-1, 30), SCALARS)
NETWORKS = st.one_of(
    st.fixed_dictionaries({"generate": st.fixed_dictionaries(
        {"n": SMALL, "m": SMALL}, optional={"seed": SMALL})}),
    st.fixed_dictionaries({"path": st.one_of(st.sampled_from(["@edges", "@dir", "@missing"]),
                                             VALUES)}),
    VALUES)
# Plausible entries, booleans among them.
GOOD = st.sampled_from([0, 1, "1/4", "1/2", "3/2", True, False])


def mostly(good, anything):
    """Mostly ``good``, sometimes ``anything``."""
    return st.integers(0, 3).flatmap(lambda k: good if k else anything)


@st.composite
def game_documents(draw):
    n = draw(st.integers(2, 30))
    doc = {"network": draw(mostly(st.just({"generate": {"n": n, "m": 1}}), NETWORKS)),
           "infected": draw(mostly(st.lists(st.integers(0, 1), min_size=1, max_size=2),
                                   st.one_of(VALUES, st.lists(SMALL, max_size=3))))}
    table = st.lists(st.lists(GOOD, min_size=2, max_size=2), max_size=2).map(
        lambda steps: [[0, 0], *steps])
    # Players 0 and 1 are neighbours in every generated network.
    triple = st.tuples(st.integers(0, 1), st.integers(0, 1), GOOD).map(list)
    fields = {
        "c": mostly(GOOD, VALUES),
        "alpha": mostly(GOOD, VALUES),
        "weights": mostly(st.one_of(st.just("unit"), st.lists(triple, max_size=2)), VALUES),
        "global_tables": mostly(st.lists(table, min_size=n, max_size=n), VALUES),
        "q": mostly(st.lists(GOOD, min_size=1, max_size=3), VALUES),
    }
    for key in draw(st.lists(st.sampled_from(sorted(fields)), unique=True)):
        doc[key] = draw(fields[key])
    return doc


def holds_boolean(value) -> bool:
    if isinstance(value, list):
        return any(map(holds_boolean, value))
    if isinstance(value, dict):
        return any(map(holds_boolean, value.values()))
    return isinstance(value, bool)


@pytest.fixture(scope="module")
def document_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("documents")
    (path / "net.edges").write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    (path / "dir").mkdir()
    return path


@given(doc=game_documents(), command=st.sampled_from(["threshold", "depth"]),
       json_errors=st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_any_game_document_ends_in_an_answer_or_one_typed_error(document_dir, doc, command,
                                                                json_errors):
    # Every run exits 0, or 2 with one error line; a JSON boolean is no
    # rational, so a field the command reads that holds one is refused.
    text = json.dumps(doc)
    for name, target in (("@edges", "net.edges"), ("@dir", "dir"), ("@missing", "missing")):
        text = text.replace(f'"{name}"', json.dumps(str(document_dir / target)))
    path = document_dir / "game.json"
    path.write_text(text)
    argv = ["--json-errors"] * json_errors + [command, "--config", str(path), "--json"]
    code, out, err = run_quietly(argv)
    read = [doc.get(key) for key in ("c", "weights", "global_tables", "infected")]
    read += [doc.get("q") if command == "depth" else None, doc.get("alpha")]
    if code == 0:
        assert err == "" and json.loads(out)
        assert not holds_boolean(read), read
        return
    assert_one_error(code, out, err, json_errors)


def run_quietly(argv):
    """``main(argv)``'s exit code, stdout and stderr; warnings are silenced
    (a disconnected network warns)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_error(code, out, err, json_errors):
    """Exit 2, nothing on stdout, and one line on stderr: a JSON object
    under --json-errors, else an ``error:`` line."""
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1, lines
    if json_errors:
        assert json.loads(lines[0])["error"]
    else:
        assert lines[0].startswith("error: ")


# Malformed flag values: no number here is valid and large, so a run never
# asks for a big network, many trials or many worker processes.
MALFORMED = ["", "x", "-1", "0", "1/2", "0.5", "1e3", "a,b,c", "3,", "--json", "--bogus", "\0",
             "true", "\u0663"]
# Tokens dropped anywhere after the subcommand.
STRAY = st.sampled_from(["extra", "--bogus", "-q", "--json-errors", "--members", "--seeds"])
# Per subcommand: (flag, its good values or None for a switch, its bad
# values besides MALFORMED, chance in eighths that it is given).  "@name"
# is a file or directory of the test's.
GAME_FLAGS = [("--generate", ["30,2,1", "12,3,5", "5,1,0"], ["5,9,1", "30,2"], 7),
              ("--network", ["@net.edges"], ["@missing", "@dir"], 1),
              ("--config", ["@game.json"], ["@grid.json", "@missing"], 1),
              ("--seeds", ["0", "0,1", "3,4"], ["29", "0,a"], 1),
              ("--seeds-random", ["1", "3", "5"], ["99"], 7),
              ("--seeds-seed", ["0", "7"], [], 1),
              ("--alpha", ["0", "1/2", "1"], ["2"], 3),
              ("--c", ["1", "3/2"], [], 1),
              ("--weights", ["@weights.json"], ["@game.json", "@dir"], 1),
              ("--endogenous", None, None, 1),
              ("--json", None, None, 4)]
COMMANDS = {
    "generate": [("-n", ["12", "30"], ["2"], 7), ("-m", ["1", "2"], ["30"], 7),
                 ("--seed", ["0", "3"], [], 3),
                 ("-o", ["@out.edges"], ["@dir", "@net.edges/out"], 4)],
    "threshold": GAME_FLAGS + [("--members", None, None, 2)],
    "depth": GAME_FLAGS + [("--q", ["1/2", "1/4,3/4", "0,1"], ["2"], 7),
                           ("--members", None, None, 1)],
    "montecarlo": [("--config", ["@grid.json"], ["@game.json", "@missing"], 7),
                   ("--out", ["@sweep"], ["@net.edges/sweep"], 7),
                   ("--workers", ["1"], [], 3), ("--master-seed", ["0", "5"], [], 2),
                   ("--plots", None, None, 4)],
    "verify": [("--trials", ["0", "1", "3"], [], 8), ("--max-i", ["4", "6"], ["3"], 4),
               ("--seed", ["0", "2"], [], 3)],
}


def chance(eighths):
    """True in about ``eighths`` of eight draws."""
    return st.integers(0, 7).map(lambda k: k < eighths)


def seldom(good, bad):
    """Mostly ``good``, now and then ``bad``."""
    return chance(7).flatmap(lambda ok: good if ok else bad)


@st.composite
def argument_lists(draw):
    """An argument list of one subcommand, malformed values mixed in."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag, good, bad, eighths in COMMANDS[command]:
        if draw(chance(eighths)):
            argv.append(flag)
            if good is not None:
                argv.append(draw(seldom(st.sampled_from(good), st.sampled_from(MALFORMED + bad))))
    if draw(chance(1)):
        argv.insert(draw(st.integers(1, len(argv))), draw(STRAY))
    return argv


# A grid field's malformed values: the wrong type, or a number out of range.
GRID_JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.integers(-3, 0),
                      st.sampled_from(["", "x", "1/2", "2", "1e3", [], {}, [[1]], ["x"]]))


@st.composite
def grid_documents(draw):
    """A ``montecarlo --config`` document of at most 30 nodes, two networks
    per m and two sets per size; now and then one field is malformed and
    one is left out."""
    n = draw(st.integers(4, 30))
    units = st.sampled_from(["0", "1/4", "1/2", "3/4", "1"])
    good = {
        "network_size": st.just(n),
        "m_values": st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True),
        "alpha_values": st.lists(units, min_size=1, max_size=2, unique=True),
        "networks_per_m": st.integers(1, 2),
        "sets_per_size": st.integers(1, 2),
        "set_sizes": st.one_of(
            st.lists(st.integers(1, n - 1), min_size=1, max_size=3, unique=True),
            st.fixed_dictionaries({"start": st.integers(1, 10), "stop": st.integers(2, n)},
                                  optional={"step": st.integers(1, 12)})),
        "q_grid": st.lists(units, min_size=1, max_size=2),
        "master_seed": st.integers(0, 5),
    }
    bad = {
        "network_size": st.just(10**30),
        "m_values": st.just([2, 2]),
        "alpha_values": st.lists(GOOD, min_size=1, max_size=2),
        "set_sizes": st.one_of(
            st.lists(st.integers(0, 31), min_size=1, max_size=3),
            st.fixed_dictionaries({"start": st.integers(0, 10), "stop": st.integers(0, 31)},
                                  optional={"step": st.integers(-2, 12)})),
        "q_grid": st.lists(GOOD, min_size=1, max_size=2),
        "master_seed": st.just(10**30),
    }
    doc = {key: draw(value) for key, value in good.items()}
    broken, dropped = (draw(mostly(st.none(), st.sampled_from(sorted(good)))) for _ in "ab")
    if broken:
        doc[broken] = draw(st.one_of(GRID_JUNK, bad.get(broken, GRID_JUNK)))
    doc.pop(dropped, None)
    return doc


@pytest.fixture(scope="module")
def argument_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("arguments")
    (path / "net.edges").write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    (path / "dir").mkdir()
    (path / "game.json").write_text(json.dumps({"infected": [0], "alpha": "1/2", "q": ["1/2"]}))
    # Players 0 and 1 are neighbours in every generated network and in net.edges.
    (path / "weights.json").write_text(json.dumps([[0, 1, "3/2"]]))
    return path


@given(argv=argument_lists(), grid=grid_documents(), json_errors=st.booleans())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_any_argument_list_ends_in_an_answer_or_one_typed_error(argument_dir, argv, grid,
                                                                json_errors):
    # Every run exits 0, or 2 with one error line (a JSON object under
    # --json-errors); an uncaught exception fails the test with its traceback.
    # A malformed output path is relative: it lands in the test's directory.
    (argument_dir / "grid.json").write_text(json.dumps(grid))
    argv = ["--json-errors"] * json_errors + [
        str(argument_dir / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    cwd = os.getcwd()
    os.chdir(argument_dir)
    try:
        code, out, err = run_quietly(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        assert_one_error(code, out, err, json_errors)


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["threshold", "--help"]):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0 and "usage:" in capsys.readouterr().out
