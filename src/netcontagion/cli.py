"""Command-line surface.

Subcommands: ``generate`` (write a scale-free edge list), ``threshold``
(contagion threshold report for one game), ``depth`` (depth/virality at
chosen q values), ``montecarlo`` (grid sweep emitting CSV/JSONL/SVG), and
``verify`` (randomized oracle cross-checks).  Game and grid descriptions
can come from JSON documents; command-line flags override file values.

Errors exit 2, usage errors included, as one ``error:`` line on stderr;
with ``--json-errors`` as one JSON object instead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

import numpy as np
from fractions import Fraction
from pathlib import Path

from . import montecarlo, svgplot, verify
from .contagion import depth_at, depth_function, full_contagion_threshold
from .errors import NetcontagionError, ParameterError
from .game import GameConfig, InfluenceWeights, ParametricGlobalEffect, TabularGlobalEffect
from .graphs import dump_edge_list, generate_ba, load_edge_list
from .montecarlo import ExperimentGrid, PRESETS
from .rational import as_rational, as_unit_rational, decimal_render, rational_str


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # also NUL in the path, not JSON or not text
        raise ParameterError(f"cannot read JSON document {path}: {exc}") from exc


def _load_config(path: str) -> dict:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParameterError(f"{path} must hold a JSON object")
    return doc


def _field(doc, key: str, what: str):
    """``doc[key]``, where ``doc`` must be a JSON object named ``what``."""
    if not isinstance(doc, dict):
        raise ParameterError(f"{what} must be a JSON object; got {doc!r}")
    if key not in doc:
        raise ParameterError(f"{what} has no {key!r} field")
    return doc[key]


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParameterError(f"{what} must be a list; got {value!r}")
    return value


def _entries(value, size: int, what: str) -> list:
    """A JSON list of ``size``-element lists."""
    for entry in _list(value, what):
        if not (isinstance(entry, list) and len(entry) == size):
            raise ParameterError(f"{what} entries must be lists of {size}; got {entry!r}")
    return value


def _int(value, what: str) -> int:
    """An integer given as a JSON integer or a decimal string; nothing is rounded."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParameterError(f"{what} must be an integer; got {value!r}")


def _int_set(tokens: list[str], what: str) -> frozenset[int]:
    """The decimal strings ``tokens`` as a set of integers, read as
    :func:`_int` reads them; the first token it refuses is named."""
    try:
        return frozenset(map(int, tokens))
    except ValueError:
        for token in tokens:
            _int(token, what)  # raises at the first token that int refuses
        raise


def _read_network(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, TypeError, ValueError) as exc:  # also a non-string path, NUL, not text
        raise ParameterError(f"cannot read network file {path}: {exc}") from exc
    return load_edge_list(text)


def _network_from_args(args, doc: dict):
    if getattr(args, "network", None):
        return _read_network(args.network)
    if getattr(args, "generate", None):
        try:
            n, m, seed = (int(x) for x in args.generate.split(","))
        except ValueError:
            raise ParameterError("--generate expects N,M,SEED")
        return generate_ba(n, m, seed)
    net_spec = doc.get("network")
    if isinstance(net_spec, dict) and "path" in net_spec:
        return _read_network(net_spec["path"])
    if isinstance(net_spec, dict) and "generate" in net_spec:
        gen = net_spec["generate"]
        n, m = (_int(_field(gen, key, "network.generate"), key) for key in ("n", "m"))
        return generate_ba(n, m, _int(gen.get("seed", 0), "seed"))
    raise ParameterError("no network given; use --network, --generate, or a config file")


def _game_from_args(args, doc: dict) -> tuple[GameConfig, frozenset[int]]:
    net = _network_from_args(args, doc)
    weights_spec = doc.get("weights", "unit")
    if getattr(args, "weights", None):
        weights_spec = _load_json(args.weights)
    if weights_spec == "unit":
        weights = InfluenceWeights.unit(net)
    else:
        # The raw weights: from_pairs parses each once and names its w[i][j].
        weights = InfluenceWeights.from_pairs(net, {
            (_int(i, "weight i"), _int(j, "weight j")): w
            for i, j, w in _entries(weights_spec, 3, "weights")})
    flag_alpha = getattr(args, "alpha", None)
    if "global_tables" in doc:
        if "alpha" in doc or flag_alpha is not None:
            raise ParameterError("a game has one global effect: give alpha (or --alpha) "
                                 "or global_tables, not both")
        # The effect parses each entry, naming its table in any error.
        effect = TabularGlobalEffect(tuple(
            _entries(table, 2, "global table")
            for table in _list(doc["global_tables"], "global_tables")))
    else:
        alpha = flag_alpha if flag_alpha is not None else doc.get("alpha", "0")
        effect = ParametricGlobalEffect(as_unit_rational(alpha, "alpha"))
    c = as_rational(args.c if getattr(args, "c", None) is not None
                    else doc.get("c", "1"), "c")

    if getattr(args, "seeds", None):
        start = _int_set(args.seeds.split(","), "--seeds entry")
    elif getattr(args, "seeds_random", None):
        rng_seed = getattr(args, "seeds_seed", 0) or 0
        if rng_seed < 0:
            raise ParameterError(f"--seeds-seed must be nonnegative; got {rng_seed}")
        rng = np.random.Generator(np.random.PCG64(rng_seed))
        start = montecarlo.draw_set(rng, net.node_count, int(args.seeds_random))
    elif doc.get("infected") is not None:
        start = frozenset(_int(x, "infected entry") for x in _list(doc["infected"], "infected"))
    else:
        raise ParameterError("no starting set; use --seeds or --seeds-random")

    endogenous = getattr(args, "endogenous", False)
    cfg = GameConfig(network=net, weights=weights, c=c, global_effect=effect,
                     infected=frozenset() if endogenous else start)
    # A seeded start is the infected set that the game has just checked.
    return cfg, (cfg.player_set(start) if endogenous else cfg.infected)


def _q_list(args, doc: dict) -> list[Fraction]:
    raw = args.q if getattr(args, "q", None) else doc.get("q")
    if not raw:
        raise ParameterError("no q values; pass --q")
    if isinstance(raw, str):
        raw = raw.split(",")
    return [as_unit_rational(part, "q") for part in _list(raw, "q")]


def _cmd_generate(args) -> int:
    net = generate_ba(args.n, args.m, args.seed)
    text = dump_edge_list(net, header=True)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except (OSError, ValueError) as exc:  # also NUL in the path
            raise ParameterError(f"cannot write to -o {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _cmd_threshold(args) -> int:
    doc = _load_config(args.config) if args.config else {}
    cfg, start = _game_from_args(args, doc)
    result = full_contagion_threshold(cfg, start)
    if args.json:
        print(json.dumps(result.to_dict(include_members=args.members), indent=2))
        return 0
    print(f"contagion threshold q* = {rational_str(result.q_star)} "
          f"(= {decimal_render(result.q_star)})")
    print(f"subsets checked: {result.subsets_checked}")
    print(f"{'stage':>5} {'q':>12} {'decimal':>10} {'size':>6}")
    for idx, stage in enumerate(result.stages):
        print(f"{idx:>5} {rational_str(stage.q):>12} "
              f"{decimal_render(stage.q):>10} {stage.size:>6}")
        if args.members:
            print(f"      members: {sorted(result.members(idx))}")
    if result.marginal_players:
        print(f"marginal players per stage: {list(result.marginal_players)}")
    return 0


def _cmd_depth(args) -> int:
    doc = _load_config(args.config) if args.config else {}
    cfg, start = _game_from_args(args, doc)
    qs = _q_list(args, doc)
    df = depth_function(cfg, start)
    n = cfg.network.node_count
    start_frac = Fraction(len(start), n)
    rows = []
    for q in qs:
        d = depth_at(df, q)
        rows.append({"q": rational_str(q), "depth": rational_str(d),
                     "depth_decimal": decimal_render(d),
                     "virality": rational_str(d - start_frac),
                     "virality_decimal": decimal_render(d - start_frac)})
    if args.json:
        print(json.dumps({"q_star": rational_str(df.q_star), "rows": rows}, indent=2))
        return 0
    print(f"q* = {rational_str(df.q_star)} (= {decimal_render(df.q_star)}); "
          f"|start|/I = {rational_str(start_frac)}")
    print(f"{'q':>10} {'depth':>12} {'decimal':>10} {'virality':>12} {'decimal':>10}")
    for row in rows:
        print(f"{row['q']:>10} {row['depth']:>12} {row['depth_decimal']:>10} "
              f"{row['virality']:>12} {row['virality_decimal']:>10}")
    return 0


def _grid_from_doc(doc: dict) -> ExperimentGrid:
    def get(key):
        return _field(doc, key, "grid document")

    def ints(key):
        return tuple(_int(x, f"{key} entry") for x in _list(get(key), key))

    sizes = get("set_sizes")
    if isinstance(sizes, dict):
        start, stop = (_int(_field(sizes, key, "set_sizes"), f"set_sizes {key}")
                       for key in ("start", "stop"))
        step = _int(sizes.get("step", 10), "set_sizes step")
        if step == 0:
            raise ParameterError("set_sizes step must not be 0")
        sizes = tuple(range(start, stop, step))
    else:
        sizes = ints("set_sizes")
    return ExperimentGrid(
        network_size=_int(get("network_size"), "network_size"),
        m_values=ints("m_values"),
        alpha_values=tuple(_list(get("alpha_values"), "alpha_values")),
        networks_per_m=_int(get("networks_per_m"), "networks_per_m"),
        sets_per_size=_int(get("sets_per_size"), "sets_per_size"),
        set_sizes=sizes,
        q_grid=tuple(_list(doc.get("q_grid", ["1/4", "1/2", "3/4"]), "q_grid")),
        master_seed=_int(doc.get("master_seed", 42), "master_seed"))


def _cmd_montecarlo(args) -> int:
    if args.preset:
        grid = PRESETS[args.preset]() if args.master_seed is None \
            else PRESETS[args.preset](args.master_seed)
    elif args.config:
        doc = _load_config(args.config)
        if args.master_seed is not None:
            doc = {**doc, "master_seed": args.master_seed}
        grid = _grid_from_doc(doc)
    else:
        raise ParameterError("montecarlo needs --preset or --config")
    sweep = montecarlo.iter_batches(grid, workers=args.workers)
    out = Path(args.out)
    plot_dir = out / "plots"
    aggregator = montecarlo.Aggregator(grid.q_grid)
    # The runs files are open before the first search and take each task's
    # rows as it finishes; the summaries are written once all have.
    with contextlib.ExitStack() as files:
        try:
            out.mkdir(parents=True, exist_ok=True)
            if args.plots:
                plot_dir.mkdir(exist_ok=True)
            runs_csv = files.enter_context(open(out / "runs.csv", "w", newline=""))
            runs_jsonl = files.enter_context(open(out / "runs.jsonl", "w"))
        except (OSError, ValueError) as exc:  # also NUL in the path
            raise ParameterError(f"cannot write to --out {out}: {exc}") from exc
        csv.writer(runs_csv).writerow(montecarlo.RUN_CSV_COLUMNS)
        for batch in sweep:
            for row, line in batch.lines():
                runs_csv.write(row)
                runs_jsonl.write(line)
            aggregator.add(batch)
    table = aggregator.table()
    montecarlo.write_threshold_table_csv(table, out / "thresholds_table.csv")
    montecarlo.write_threshold_stats_csv(table, out / "threshold_stats.csv")
    montecarlo.write_inverse_depth_table_csv(table, out / "inverse_depth_table.csv")
    montecarlo.write_depth_curves_csv(table, out / "depth_curves.csv")
    if args.plots:
        for m in grid.m_values:
            for alpha in grid.alpha_values:
                means = {
                    Fraction(size, grid.network_size): cell.mean
                    for (mm, aa, size), cell in table.thresholds.items()
                    if (mm, aa) == (m, alpha)}
                svg = svgplot.render_scatter(
                    aggregator.points(m, alpha), means,
                    title=f"contagion threshold, m={m}, alpha={rational_str(alpha)}",
                    x_label="starting-set fraction", y_label="q*")
                name = f"thresholds_m{m}_alpha{rational_str(alpha).replace('/', '-')}.svg"
                (plot_dir / name).write_text(svg)
    print(f"wrote {aggregator.count} runs to {out}")
    return 0


def _cmd_verify(args) -> int:
    reports = verify.run_checks(trials=args.trials, max_i=args.max_i,
                                seed=args.seed)
    reports += verify.run_cohesion_checks(
        trials=max(1, args.trials // 4) if args.trials else 0,
        max_i=min(args.max_i, 12), seed=args.seed)
    # Warned once the arguments are known good: an error is the only line.
    if args.trials == 0:
        print("warning: trials=0, every property passes vacuously",
              file=sys.stderr)
    failed = False
    for report in sorted(reports, key=lambda r: r.name):
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {report.name}: {report.checks} checks, "
              f"{len(report.failures)} failures")
        if report.failures:
            failed = True
            for failure in report.failures[:3]:
                print(f"  counterexample: {json.dumps(failure, sort_keys=True)}")
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a :class:`ParameterError`, so that ``main``
    reports it as it reports every other error, instead of exiting here."""

    def error(self, message):
        raise ParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="netcontagion",
        description="Contagion thresholds and depth for network coordination "
                    "games with local and global effects")
    parser.add_argument("--json-errors", action="store_true",
                        help="emit errors as JSON on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a scale-free edge list")
    p.add_argument("-n", type=int, required=True, help="number of nodes")
    p.add_argument("-m", type=int, required=True, help="edges per new node")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_generate)

    def game_flags(p):
        network = p.add_mutually_exclusive_group()
        network.add_argument("--network", help="edge-list file")
        network.add_argument("--generate", metavar="N,M,SEED",
                             help="generate the network instead of loading one")
        p.add_argument("--config", help="game description JSON")
        seeds = p.add_mutually_exclusive_group()
        seeds.add_argument("--seeds", help="comma-separated starting players")
        seeds.add_argument("--seeds-random", type=int, metavar="K",
                           help="draw K random starting players")
        p.add_argument("--seeds-seed", type=int, default=0)
        p.add_argument("--alpha", help="global-effect intensity (rational)")
        p.add_argument("--c", help="miscoordination cost (rational, default 1)")
        p.add_argument("--weights", help="JSON file of [i, j, w] weight triples")
        p.add_argument("--endogenous", action="store_true",
                       help="do not seed the starting set exogenously")
        p.add_argument("--json", action="store_true", help="JSON output")

    p = sub.add_parser("threshold", help="full-network contagion threshold")
    game_flags(p)
    p.add_argument("--members", action="store_true", help="list equilibrium members")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("depth", help="contagion depth and virality at given q")
    game_flags(p)
    p.add_argument("--q", help="comma-separated q values")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("montecarlo", help="run a sweep grid")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--config", help="grid description JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--master-seed", type=int, default=None,
                   help="override the grid's master seed")
    p.add_argument("--plots", action="store_true", help="emit SVG plots")
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("verify", help="randomized oracle cross-checks")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--max-i", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    # The namespace takes --json-errors before the subcommand is parsed, so
    # a usage error in the subcommand's flags still sees it.
    args = argparse.Namespace()
    try:
        build_parser().parse_args(argv, namespace=args)
        return args.func(args)
    except NetcontagionError as exc:
        if args.json_errors:
            payload = {"error": type(exc).__name__, "message": str(exc)}
            if hasattr(exc, "player"):
                payload["player"] = exc.player
            if hasattr(exc, "line"):
                payload["line"] = exc.line
            print(json.dumps(payload), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
