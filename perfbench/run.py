"""netcontagion benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a source checkout (the package is imported from
``src/``):

    python3 perfbench/run.py --workload sweep --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
SETUP_ROUNDS = 3  # input builds per run; setup_s adds their median to the
IMPORT_ROUNDS = 5  # fastest of this many imports, which swing with the page cache
SUBMODULES = ("cli", "contagion", "game", "graphs", "montecarlo", "svgplot", "_engines")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import netcontagion.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "cpu_s": "s",
    "searches_per_s": "1/s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from spans import COUNTERS, SELF_TIMED, SPAN_NAMES
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
        if name in SELF_TIMED:
            units[f"{name}.self_s"] = "s"
    units.update({key: "count" for key in COUNTERS})
    units.update({
        "engine.flip_yield": "ratio", "engine.exact_share": "ratio",
        "engine.searches": "count", "montecarlo.emit.bytes": "B",
        "cli.output.bytes": "B", "op.weighted_over_unit": "ratio",
        "trace.wall_s": "s", "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s", "trace.spans": "count",
    })
    return units


# ---------------------------------------------------------------------------


def import_package(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import importlib
    pkg = importlib.import_module("netcontagion")
    if Path(pkg.__file__).resolve().parent != (src / "netcontagion").resolve():
        raise RuntimeError(f"netcontagion was imported from {pkg.__file__}, not {src}")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"netcontagion.{name}") for name in SUBMODULES})


def probe_import(root: Path) -> float:
    """Seconds a fresh interpreter spends importing the package's CLI."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def git_commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(root: Path, seed: int, load: float) -> dict:
    import numpy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": git_commit(root), "seed": seed,
            "loadavg_1m": load}


def no_span(name):
    return contextlib.nullcontext()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_ops(wl, nc, inputs, seed, expected, tracer=None):
    """One measured job, traced when a tracer is given; returns
    (wall, cpu, rss, summary, ops), where rss is the peak RSS in MB before the
    outputs are read back.  Outputs are summarized and checked untraced."""
    wl.prepare(inputs)
    gc.collect()  # no garbage of an earlier job is collected inside this one
    span = tracer.span if tracer else no_span
    with tracer.installed() if tracer else contextlib.nullcontext(), span("job"):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            raw = wl.job(nc, inputs, span)
        except Exception as exc:  # a failing job is a measured outcome
            raw, error = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    rss = peak_rss_mb()
    if raw is None:
        return wall, cpu, rss, None, [("job", False, error)]
    try:
        summary = wl.summarize(nc, raw, inputs)
        return wall, cpu, rss, summary, wl.check(nc, summary, inputs, seed, expected)
    except Exception as exc:  # output too malformed to check
        return wall, cpu, rss, None, [("check", False, f"{type(exc).__name__}: {exc}")]


def run_workload(args, root: Path) -> int:
    load = os.getloadavg()[0]
    nc = import_package(root)
    wl = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED_PATH.read_text())[wl.name]
    work = root / ".perfbench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, ops, summaries = traced_run(wl, nc, work, args.seed, expected)
        else:
            metrics, ops, summaries = plain_run(wl, nc, root, work, args.seed,
                                                args.seconds, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    report(wl.name, environment(root, args.seed, load), metrics, ops,
           per_layer_units() if args.trace else END_TO_END)
    return 0


def fingerprints_agree(summaries, wl) -> tuple:
    views = [json.dumps(wl.expected_view(s), sort_keys=True) if s else None
             for s in summaries]
    return ("outputs-identical", None not in views and len(set(views)) == 1,
            f"{len(set(views))} distinct outputs over {len(views)} jobs")


def plain_run(wl, nc, root, work, seed, seconds, expected):
    imports = [probe_import(root) for _ in range(IMPORT_ROUNDS)]
    builds = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        inputs = None  # release the previous round's inputs first
        inputs = wl.setup(nc, seed, work)
        builds.append(time.perf_counter() - t0)
    walls, cpus, rss, summaries, ops = [], [], [], [], []
    while True:
        wall, cpu, job_rss, summary, job_ops = run_ops(wl, nc, inputs, seed, expected)
        rss.append(job_rss)
        walls.append(wall)
        cpus.append(cpu)
        summaries.append(summary)
        ops.extend(job_ops)
        if len(walls) >= wl.min_jobs and sum(walls) + statistics.median(walls) > seconds:
            break
    if len(summaries) > 1:
        ops.append(fingerprints_agree(summaries, wl))
    searches = sum(wl.searches(s) for s in summaries if s)
    metrics = {
        "setup_s": min(imports) + statistics.median(builds),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "searches_per_s": searches / sum(walls),
        # Later jobs' readings include the output checks of earlier ones.
        "peak_rss_mb": rss[0],
    }
    return metrics, ops, summaries


def traced_run(wl, nc, work, seed, expected):
    from spans import Tracer
    tracer = Tracer(nc)
    with tracer.installed(), tracer.span("setup"):
        inputs = wl.setup(nc, seed, work)
    plain_wall, _, _, plain_summary, ops = run_ops(wl, nc, inputs, seed, expected)
    wall, _, _, summary, traced_ops = run_ops(wl, nc, inputs, seed, expected, tracer)
    ops = ops + traced_ops + [fingerprints_agree([plain_summary, summary], wl)]
    metrics = tracer.layer_metrics()
    starts = {kind: metrics[f"engine.start.{kind}.calls"] for kind in ("fast", "exact")}
    engine_searches = sum(starts.values())
    weighted = metrics.get("op.weighted_threshold.s", 0.0)
    unit = metrics.get("op.unit_threshold.s", 0.0)
    summary = summary or {}
    metrics.update({
        "engine.searches": engine_searches,
        "engine.exact_share": starts["exact"] / engine_searches if engine_searches else 0.0,
        "engine.flip_yield": (metrics["engine.flips"] / metrics["engine.scanned"]
                              if metrics["engine.scanned"] else 0.0),
        "montecarlo.emit.bytes": summary.get("bytes", 0),
        "cli.output.bytes": summary.get("cli_bytes", 0),
        "op.weighted_over_unit": weighted / unit if unit else 0.0,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": wall - plain_wall,
    })
    return metrics, ops, [plain_summary, summary]


def report(name, env, metrics, ops, units) -> None:
    failed = [op for op in ops if not op[1]]
    print(json.dumps({"workload": name, "env": env}))
    for op, _, detail in failed[:20]:
        print(f"FAILED {name} {op}: {detail}")
    out = {}
    for key, unit in units.items():
        value = metrics.get(key, 0)
        out[key] = {"value": value, "unit": unit}
        print(f"{name}.{key} = {value} {unit}")
    print(f"{name}.failed_frac = {len(failed) / max(len(ops), 1)} "
          f"({len(failed)} of {len(ops)} operations)")
    print(json.dumps({"correct": not failed and bool(ops), "attempted": max(len(ops), 1),
                      "failed": len(failed) if ops else 1, "metrics": out}))


def run_all(args, root: Path) -> int:
    """Each workload in its own process; prints a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20,
                        help="measured time budget; a job is repeated while "
                             "another one fits, and always runs once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "netcontagion" / "__init__.py").is_file():
        print(f"error: {root} holds no netcontagion source tree (src/netcontagion)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
