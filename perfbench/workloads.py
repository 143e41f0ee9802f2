"""The three benchmark workloads: inputs, the measured job, and output checks.

Every workload exposes the same steps:

* ``min_jobs`` is the fewest jobs a measured run repeats;
* ``setup(nc, seed, work)`` builds the inputs through the program from the
  workload seed (untimed by the job, timed as ``setup_s``);
* ``prepare(inputs)`` clears what a previous job left (untimed);
* ``job(nc, inputs, span)`` is the measured phase; ``span(name)`` is the
  tracer's span context, or a no-op when tracing is off;
* ``summarize(nc, raw, inputs)`` reduces the job's outputs to a JSON-able
  summary (untimed);
* ``check(nc, summary, inputs, seed, expected)`` returns one
  ``(operation, ok, detail)`` triple per operation the job attempted.

``nc`` is a namespace of the ``netcontagion`` submodules.  The workloads
look every function up on it at call time, so the tracer's wrappers are
seen.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

DEFAULT_SEED = 42  # the desk preset's own master seed


def sub_seed(seed: int, *fields) -> int:
    """64-bit input seed for one field of a workload, fixed by the workload seed."""
    text = ":".join(["perfbench", str(seed)] + [str(f) for f in fields])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(nc, argv: list[str], span) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = nc.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def fraction_pair(q: Fraction) -> list[int]:
    return [q.numerator, q.denominator]


def stage_errors(stages: list[list[int]], n: int, start_size: int) -> list[str]:
    """Invariants of a staged search: q falls from 1, sizes grow to n."""
    errors = []
    qs = [Fraction(num, den) for num, den, _ in stages]
    sizes = [size for _, _, size in stages]
    if not stages or qs[0] != 1:
        errors.append("first stage is not q=1")
    if any(b >= a for a, b in zip(qs, qs[1:])):
        errors.append("stage q does not strictly decrease")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        errors.append("stage sizes do not strictly grow")
    if stages and sizes[0] < start_size:
        errors.append("first equilibrium is smaller than the starting set")
    if stages and sizes[-1] != n:
        errors.append("last equilibrium is not the whole network")
    return errors


def size_at(stages: list[list[int]], q: Fraction) -> int:
    """Equilibrium size of the cascade at q, read off a staged search."""
    for num, den, size in reversed(stages):
        if q <= Fraction(num, den):
            return size
    raise ValueError(f"q={q} lies above the first stage")


def add_op(ops: list, name: str, errors: list[str], summary, expected) -> None:
    if expected is not None and summary != expected:
        errors = errors + ["differs from the recorded output"]
    ops.append((name, not errors, "; ".join(errors)))


def relabel(nc, net, seed: int, name: str):
    """``net`` with its nodes renamed by a permutation drawn from the seed.

    ``large`` and ``general`` run one fixed instance under a different
    relabelling per seed.  Relabelling changes every input file and id but
    neither the work done nor the label-free answers (q*, stage sizes,
    waves), so run-to-run spread is the machine's, and every seed is checked
    against the answers recorded for the default seed.
    """
    rng = np.random.Generator(np.random.PCG64(sub_seed(seed, name, "labels")))
    perm = rng.permutation(net.node_count).tolist()
    edges = [(perm[u], perm[v]) for u, v in net.edges()]
    return nc.graphs.Network.from_edges(net.node_count, edges, net.meta), perm


# ---------------------------------------------------------------------------
# sweep: the desk Monte Carlo preset through the CLI


@dataclass
class SweepInputs:
    grid: object
    out: Path
    argv: list[str]


class Sweep:
    """``netcontagion montecarlo --preset desk --plots --workers 1``."""

    name = "sweep"
    min_jobs = 1  # one job takes about 35 s
    spot_checks = 12

    def setup(self, nc, seed, work: Path) -> SweepInputs:
        grid = nc.montecarlo.PRESETS["desk"](seed)
        out = work / "sweep"
        argv = ["montecarlo", "--preset", "desk", "--workers", "1", "--plots",
                "--master-seed", str(seed), "--out", str(out)]
        return SweepInputs(grid, out, argv)

    def input_fingerprint(self, nc, inputs: SweepInputs) -> str:
        grid = inputs.grid
        m = grid.m_values[0]
        net = nc.graphs.generate_ba(
            grid.network_size, m,
            nc.montecarlo.derive_seed(grid.master_seed, "network", m, 0))
        return hashlib.sha256(nc.graphs.dump_edge_list(net).encode()).hexdigest()

    def prepare(self, inputs: SweepInputs) -> None:
        shutil.rmtree(inputs.out, ignore_errors=True)

    def job(self, nc, inputs: SweepInputs, span):
        return run_cli(nc, inputs.argv, span)

    def summarize(self, nc, raw, inputs: SweepInputs) -> dict:
        rc, stdout, stderr = raw
        out = inputs.out
        files = {p.relative_to(out).as_posix(): p for p in sorted(out.rglob("*"))
                 if p.is_file()} if out.is_dir() else {}
        records = csv_matches = 0
        sample_at = set()
        sample = []
        if "runs.jsonl" in files and "runs.csv" in files:
            with files["runs.jsonl"].open() as fh:
                records = sum(1 for _ in fh)
            rng = np.random.Generator(np.random.PCG64(inputs.grid.master_seed))
            sample_at = set(rng.choice(records, size=min(self.spot_checks, records),
                                       replace=False).tolist())
            with files["runs.jsonl"].open() as fh, files["runs.csv"].open(newline="") as fc:
                rows = csv.reader(fc)
                next(rows, None)
                for idx, (line, row) in enumerate(zip(fh, rows)):
                    try:
                        r = json.loads(line)
                        csv_matches += row == [
                            str(r["m"]), r["alpha"], str(r["network_id"]),
                            str(r["set_size"]), str(r["replicate"]),
                            str(r["q_star"]["num"]), str(r["q_star"]["den"]),
                            r["q_star"]["decimal"], str(r["subsets_checked"])]
                    except (ValueError, KeyError, TypeError):
                        continue  # a malformed record matches nothing
                    if idx in sample_at:
                        sample.append(r)
                csv_matches -= next(rows, None) is not None  # extra csv rows
        return {
            "rc": rc,
            "stdout": stdout,
            "cli_bytes": len(stdout),
            "stderr_bytes": len(stderr),
            "files": {rel: sha256_file(p) for rel, p in files.items()},
            "bytes": sum(p.stat().st_size for p in files.values()),
            "records": records,
            "csv_matches_jsonl": records > 0 and csv_matches == records,
            "sample": sample,
        }

    def searches(self, summary: dict) -> int:
        return summary["records"]

    def expected_view(self, summary: dict) -> dict:
        return {"files": summary["files"]}

    def check(self, nc, summary, inputs: SweepInputs, seed, expected) -> list:
        grid = inputs.grid
        expected = expected if seed == DEFAULT_SEED else None
        ops = []
        wanted = f"wrote {summary['records']} runs to {inputs.out}\n"
        ops.append(("cli", summary["rc"] == 0 and summary["stdout"] == wanted,
                    f"exit {summary['rc']}: {summary['stdout'][-200:]!r}"))
        runs = (len(grid.m_values) * len(grid.alpha_values)
                * grid.networks_per_m * grid.sets_per_size * len(grid.set_sizes))
        ops.append(("records", summary["records"] == runs and summary["csv_matches_jsonl"],
                    f"{summary['records']} of {runs} records; csv matches jsonl: "
                    f"{summary['csv_matches_jsonl']}"))
        names = expected["files"] if expected else self.file_names(grid)
        for rel in sorted(set(names) | set(summary["files"])):
            got = summary["files"].get(rel)
            ok = got is not None and rel in names
            if ok and expected is not None:
                ok = got == expected["files"][rel]
            ops.append((f"file:{rel}", ok, f"sha256 {got}"))
        for rec in summary["sample"]:
            ops.append(self._spot_check(nc, grid, rec))
        return ops

    @staticmethod
    def file_names(grid) -> list[str]:
        names = ["runs.csv", "runs.jsonl", "thresholds_table.csv",
                 "threshold_stats.csv", "inverse_depth_table.csv",
                 "depth_curves.csv"]
        for m in grid.m_values:
            for alpha in grid.alpha_values:
                tag = f"{alpha.numerator}" if alpha.denominator == 1 \
                    else f"{alpha.numerator}-{alpha.denominator}"
                names.append(f"plots/thresholds_m{m}_alpha{tag}.svg")
        return names

    @staticmethod
    def _spot_check(nc, grid, rec) -> tuple:
        """Each recorded stage size must equal a fresh cascade at that q."""
        m, net_id, size, rep = rec["m"], rec["network_id"], rec["set_size"], rec["replicate"]
        derive = nc.montecarlo.derive_seed
        net = nc.graphs.generate_ba(grid.network_size, m,
                                    derive(grid.master_seed, "network", m, net_id))
        rng = np.random.Generator(np.random.PCG64(
            derive(grid.master_seed, "set", m, net_id, size, rep)))
        start = nc.montecarlo.draw_set(rng, grid.network_size, size)
        cfg = nc.game.GameConfig(
            network=net, global_effect=nc.game.ParametricGlobalEffect(Fraction(rec["alpha"])),
            infected=start)
        q_star = Fraction(rec["q_star"]["num"], rec["q_star"]["den"])
        steps = [(Fraction(s["q_num"], s["q_den"]), s["size"]) for s in rec["depth"]["steps"]]
        errors = []
        for q, want in steps + [(q_star, grid.network_size)]:
            got = len(nc.contagion.cascade(cfg, start, q).final)
            if got != want:
                errors.append(f"cascade at q={q} reaches {got}, record says {want}")
        name = f"record:m{m}/net{net_id}/size{size}/rep{rep}/alpha{rec['alpha']}"
        return name, not errors, "; ".join(errors)


# ---------------------------------------------------------------------------
# large: three CLI queries on one 30,000-node edge-list file


@dataclass
class LargeInputs:
    node_count: int
    path: Path
    queries: list[list[str]]


class Large:
    """``threshold``/``depth`` queries on a 30k-node network loaded from disk."""

    name = "large"
    min_jobs = 3
    nodes, m, instance_seed = 30_000, 5, 1
    # (command, starting-set size, alpha, extra flags)
    query_specs = [
        ("threshold", 300, "0", []),
        ("threshold", 15_900, "1/2", []),
        ("depth", 3_000, "1", ["--q", "1/4,1/2,3/4"]),
    ]
    # Entries that do not depend on node labels, checked on every seed.
    label_free = ("command", "rc", "q_star", "stages", "subsets_checked", "rows")

    def setup(self, nc, seed, work: Path) -> LargeInputs:
        base = nc.graphs.generate_ba(self.nodes, self.m, self.instance_seed)
        net, perm = relabel(nc, base, seed, self.name)
        work.mkdir(parents=True, exist_ok=True)
        path = work / "large.edges"
        path.write_text(nc.graphs.dump_edge_list(net, header=True))
        rng = np.random.Generator(np.random.PCG64(self.instance_seed))
        queries = []
        for cmd, k, alpha, extra in self.query_specs:
            start = nc.montecarlo.draw_set(rng, net.node_count, k)
            seeds = ",".join(str(i) for i in sorted(perm[j] for j in start))
            queries.append([cmd, "--network", str(path), "--seeds", seeds,
                            "--alpha", alpha, *extra, "--json"])
        return LargeInputs(net.node_count, path, queries)

    def input_fingerprint(self, nc, inputs: LargeInputs) -> str:
        args = [[arg for arg in q if arg != str(inputs.path)] for q in inputs.queries]
        text = inputs.path.read_text() + repr(args)
        return hashlib.sha256(text.encode()).hexdigest()

    def prepare(self, inputs) -> None:
        pass

    def job(self, nc, inputs: LargeInputs, span):
        return [run_cli(nc, argv, span) for argv in inputs.queries]

    def summarize(self, nc, raw, inputs: LargeInputs) -> dict:
        queries = []
        for argv, (rc, stdout, stderr) in zip(inputs.queries, raw):
            entry = {"command": argv[0], "rc": rc, "stderr": stderr[-500:],
                     "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
            if rc == 0:
                doc = json.loads(stdout)
                if argv[0] == "threshold":
                    entry["q_star"] = [doc["q_star"]["num"], doc["q_star"]["den"]]
                    entry["stages"] = [[st["q"]["num"], st["q"]["den"], st["equilibrium_size"]]
                                       for st in doc["stages"]]
                    entry["subsets_checked"] = doc["subsets_checked"]
                    entry["marginal_players"] = doc["marginal_players"]
                else:
                    entry["q_star"] = fraction_pair(Fraction(doc["q_star"]))
                    entry["rows"] = doc["rows"]
            queries.append(entry)
        return {"queries": queries, "cli_bytes": sum(len(out) for _, out, _ in raw)}

    def searches(self, summary: dict) -> int:
        return len(summary["queries"])

    def expected_view(self, summary: dict) -> dict:
        return {"queries": summary["queries"]}

    def check(self, nc, summary, inputs: LargeInputs, seed, expected) -> list:
        ops = []
        n = inputs.node_count
        for idx, (argv, entry) in enumerate(zip(inputs.queries, summary["queries"])):
            k = self.query_specs[idx][1]
            if entry["rc"] != 0:
                errors = [f"exit {entry['rc']}: {entry['stderr']}"]
            elif entry["command"] == "threshold":
                errors = stage_errors(entry["stages"], n, k)
                if entry["q_star"] != entry["stages"][-1][:2]:
                    errors.append("q* is not the last stage q")
                if len(entry["marginal_players"]) != len(entry["stages"]) - 1:
                    errors.append("one marginal player per descent is missing")
                if entry["subsets_checked"] < len(entry["stages"]) - 1:
                    errors.append("fewer subsets checked than stages")
            else:
                errors = self._depth_errors(entry, argv, n, k)
            want = expected["queries"][idx]
            if seed != DEFAULT_SEED:
                entry = {key: entry.get(key) for key in self.label_free}
                want = {key: want.get(key) for key in self.label_free}
            add_op(ops, f"{argv[0]}:{idx}", errors, entry, want)
        return ops

    @staticmethod
    def _depth_errors(entry, argv, n, k) -> list[str]:
        errors = []
        q_star = Fraction(*entry["q_star"])
        qs = [Fraction(q) for q in argv[argv.index("--q") + 1].split(",")]
        rows = entry["rows"]
        if [Fraction(r["q"]) for r in rows] != qs:
            errors.append("rows do not follow the requested q values")
            return errors
        depths = [Fraction(r["depth"]) for r in rows]
        for q, depth, row in zip(qs, depths, rows):
            if not Fraction(k, n) <= depth <= 1:
                errors.append(f"depth {depth} at q={q} is out of range")
            if q <= q_star and depth != 1:
                errors.append(f"depth at q={q} <= q* is not 1")
            if Fraction(row["virality"]) != depth - Fraction(k, n):
                errors.append(f"virality at q={q} is not depth minus |start|/I")
        if any(b > a for a, b in zip(depths, depths[1:])):
            errors.append("depth grows with q")
        return errors


# ---------------------------------------------------------------------------
# general: weighted and tabular games on a 1,000-node network


@dataclass
class GeneralInputs:
    network: object
    weighted: object
    unit: object
    tabular: object
    starts: list


class General:
    """Exact-engine games at moderate n, called through the library API."""

    name = "general"
    min_jobs = 3
    nodes, m, sets, set_size, instance_seed = 1_000, 5, 2, 100, 1
    weight_values = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
    alpha = Fraction(1, 2)
    cascade_q = Fraction(1, 3)

    def setup(self, nc, seed, work: Path) -> GeneralInputs:
        base = nc.graphs.generate_ba(self.nodes, self.m, self.instance_seed)
        net, perm = relabel(nc, base, seed, self.name)
        rng = np.random.Generator(np.random.PCG64(self.instance_seed))
        picks = iter(rng.integers(0, len(self.weight_values),
                                  size=2 * base.edge_count).tolist())
        rows = [{} for _ in range(net.node_count)]
        for i, nbrs in enumerate(base.adjacency):
            for j in nbrs:
                rows[perm[i]][perm[j]] = self.weight_values[next(picks)]
        weighted = nc.game.InfluenceWeights(net, rows)
        unit = nc.game.InfluenceWeights.unit(net)
        # Step tables at p = 1/4, 1/2, 3/4 rising to at most 3/4 of c*w_i = d_i.
        steps = rng.integers(0, 3, size=(net.node_count, 3)).cumsum(axis=1).tolist()
        tables = [None] * net.node_count
        for i, (nbrs, row) in enumerate(zip(base.adjacency, steps)):
            tables[perm[i]] = ((0, 0),) + tuple(
                (Fraction(b, 4), Fraction(len(nbrs) * s, 8)) for b, s in zip((1, 2, 3), row))
        tabular = nc.game.TabularGlobalEffect(tuple(tables))
        starts = [frozenset(perm[j] for j in nc.montecarlo.draw_set(rng, net.node_count,
                                                                      self.set_size))
                  for _ in range(self.sets)]
        return GeneralInputs(net, weighted, unit, tabular, starts)

    def input_fingerprint(self, nc, inputs: GeneralInputs) -> str:
        text = nc.graphs.dump_edge_list(inputs.network) + repr(
            [sorted(s) for s in inputs.starts]) + repr(inputs.tabular.tables[:50])
        return hashlib.sha256(text.encode()).hexdigest()

    def prepare(self, inputs) -> None:
        pass

    def job(self, nc, inputs: GeneralInputs, span):
        game, contagion = nc.game, nc.contagion
        out = []
        for start in inputs.starts:
            weighted_cfg = game.GameConfig(
                network=inputs.network, weights=inputs.weighted,
                global_effect=game.ParametricGlobalEffect(self.alpha), infected=start)
            with span("op.weighted_threshold"):
                weighted = contagion.full_contagion_threshold(weighted_cfg, start)
            tabular_cfg = game.GameConfig(
                network=inputs.network, weights=inputs.unit,
                global_effect=inputs.tabular, infected=start)
            depth = contagion.depth_function(tabular_cfg, start)
            casc = contagion.cascade(weighted_cfg, start, self.cascade_q)
            nash = contagion.is_nash(weighted_cfg, casc.final, self.cascade_q)
            unit_cfg = game.GameConfig(
                network=inputs.network, weights=inputs.unit,
                global_effect=game.ParametricGlobalEffect(self.alpha), infected=start)
            with span("op.unit_threshold"):
                unit = contagion.full_contagion_threshold(unit_cfg, start)
            out.append((weighted, depth, casc, nash, unit))
        return out

    def summarize(self, nc, raw, inputs) -> dict:
        def staged(result):
            return {"q_star": fraction_pair(result.q_star),
                    "stages": [[*fraction_pair(st.q), st.size] for st in result.stages],
                    "subsets_checked": result.subsets_checked}

        sets = []
        for weighted, depth, casc, nash, unit in raw:
            sets.append({
                "weighted": staged(weighted),
                "tabular": {"stages": [[*fraction_pair(q), size] for q, size in
                                       zip(depth.breakpoints,
                                           depth.interval_sizes + (depth.node_count,))]},
                "cascade": {"size": len(casc.final),
                            "waves": [len(w) for w in casc.waves],
                            "is_nash": nash},
                "unit": staged(unit),
            })
        return {"sets": sets}

    def searches(self, summary: dict) -> int:
        return 3 * len(summary["sets"])

    def expected_view(self, summary: dict) -> dict:
        return summary

    def check(self, nc, summary, inputs: GeneralInputs, seed, expected) -> list:
        ops = []
        n = inputs.network.node_count
        for idx, (entry, start) in enumerate(zip(summary["sets"], inputs.starts)):
            want = expected["sets"][idx] if expected else {}
            k = len(start)
            for kind in ("weighted", "unit"):
                errors = stage_errors(entry[kind]["stages"], n, k)
                if entry[kind]["q_star"] != entry[kind]["stages"][-1][:2]:
                    errors.append("q* is not the last stage q")
                add_op(ops, f"set{idx}:{kind}", errors, entry[kind], want.get(kind))
            add_op(ops, f"set{idx}:tabular", stage_errors(entry["tabular"]["stages"], n, k),
                   entry["tabular"], want.get("tabular"))
            casc = entry["cascade"]
            errors = [] if casc["is_nash"] else ["cascade result is not a Nash equilibrium"]
            reached = size_at(entry["weighted"]["stages"], self.cascade_q)
            if casc["size"] != reached:
                errors.append(f"cascade reaches {casc['size']}, the staged search {reached}")
            if casc["size"] != k + sum(casc["waves"]):
                errors.append("cascade size is not start plus waves")
            add_op(ops, f"set{idx}:cascade", errors, casc, want.get("cascade"))
        return ops


WORKLOADS = {wl.name: wl for wl in (Sweep(), Large(), General())}
