"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  The sweep-backed criteria share one 39,600-run grid (1000-node
scale-free networks, m=5, both global-effect settings, 10 networks x 20
sets over every size multiple of 10) and compare against the published
reference means; the exact-property criteria run against the brute-force oracle.
"""

import hashlib
import time
from fractions import Fraction

import pytest

from netcontagion import verify
from netcontagion.cli import main
from netcontagion.contagion import cascade, full_contagion_threshold
from netcontagion.game import GameConfig, ParametricGlobalEffect
from netcontagion.graphs import Network, generate_ba
from netcontagion.montecarlo import (
    Aggregator,
    inverse_depth,
    iter_batches,
    m5_benchmark_grid,
    singularity_interval,
    write_depth_curves_csv,
    write_inverse_depth_table_csv,
    write_threshold_stats_csv,
    write_threshold_table_csv,
)

F = Fraction


def report(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: PASS{suffix}")


# --- Criterion: exact property suite -------------------------------------------

@pytest.fixture(scope="module")
def property_reports():
    t0 = time.perf_counter()
    reports = verify.run_checks(trials=500, max_i=12, seed=2024)
    return reports, time.perf_counter() - t0


def test_property_suite_exact(property_reports):
    reports, elapsed = property_reports
    by_name = {r.name: r for r in reports}
    always = ["smallest-equilibrium", "equilibrium-fixed-points",
              "wave-monotone-q", "bootstrap", "threshold-agreement",
              "threshold-characterization", "stage-equilibria",
              "linear-bound", "depth-cascade-agreement"]
    for name in always:
        assert by_name[name].checks == 500, name
        assert not by_name[name].failures, by_name[name].failures[:1]
    for name in ("wave-monotone-start", "global-effect-monotone"):
        assert by_name[name].checks >= 200, name
        assert not by_name[name].failures, by_name[name].failures[:1]
    assert elapsed < 120, f"property suite took {elapsed:.1f}s"
    report("property-suite", f"500 instances, 11 properties, {elapsed:.1f}s")


def test_linear_bound_equality_attained(property_reports):
    reports, _ = property_reports
    bound = next(r for r in reports if r.name == "linear-bound")
    assert bound.checks == 500 and not bound.failures
    # A path seeded at one end advances one evaluation per remaining node;
    # the 7-node path attains the bound with 6 checks at q* = 1/2.
    for n in (4, 7, 9, 12):
        net = Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        cfg = GameConfig(network=net, infected=frozenset({0}))
        result = full_contagion_threshold(cfg, {0})
        assert result.subsets_checked == n - 1
        if n == 7:
            assert result.q_star == F(1, 2)
    # Equality is also attainable with global effects: a frozen 10-node
    # witness with 6 seeds at intensity 1/4 checks exactly 4 subsets.
    net = Network.from_edges(10, [
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
        (1, 5), (1, 8), (2, 6), (2, 7), (2, 9), (3, 6), (3, 7), (6, 8),
        (8, 9)])
    seeds = frozenset({2, 3, 4, 5, 6, 7})
    cfg = GameConfig(network=net,
                     global_effect=ParametricGlobalEffect(F(1, 4)),
                     infected=seeds)
    witness = full_contagion_threshold(cfg, seeds)
    assert witness.subsets_checked == 4 == 10 - len(seeds)
    assert witness.q_star == F(8, 9)
    report("linear-bound",
           "bound held on 500 runs; equality attained at alpha=0 and alpha=1/4")


# --- Criterion: cohesion suite ------------------------------------------------

def test_cohesion_suite():
    t0 = time.perf_counter()
    reports = verify.run_cohesion_checks(trials=200, max_i=12, seed=7)
    elapsed = time.perf_counter() - t0
    for r in reports:
        assert r.checks >= 190, r.name
        assert not r.failures, (r.name, r.failures[:1])
    assert elapsed < 60, f"cohesion suite took {elapsed:.1f}s"
    report("cohesion-suite", f"200 instances, {elapsed:.1f}s")


# --- Criterion: trivial limits ------------------------------------------------

def test_trivial_limits():
    for seed in range(10):
        net = generate_ba(25, 2, seed)
        seeded = GameConfig(network=net, infected=frozenset({seed % 25}))
        zero = cascade(seeded, {seed % 25}, 0)
        assert zero.final == frozenset(range(25))
        assert zero.steps <= 2
        empty = cascade(GameConfig(network=net), set(), F(seed + 1, 11))
        assert empty.final == frozenset()
        assert empty.steps == 0
    report("trivial-limits", "q=0 fills in <=2 waves; empty start stays empty")


# --- Sweep-backed criteria ----------------------------------------------------

@pytest.fixture(scope="module")
def benchmark_sweep():
    """The grid's batches and their table, with depth curves at q = 1/2 and 3/4."""
    t0 = time.perf_counter()
    batches = list(iter_batches(m5_benchmark_grid(master_seed=42), workers=1))
    aggregator = Aggregator((F(1, 2), F(3, 4)))
    for batch in batches:
        aggregator.add(batch)
    table = aggregator.table()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800, f"benchmark grid took {elapsed:.0f}s"
    return batches, table


REFERENCE_MEANS = {
    (F(0), 50): 0.226, (F(0), 100): 0.308, (F(0), 200): 0.405, (F(0), 400): 0.584,
    (F(1), 50): 0.253, (F(1), 100): 0.376, (F(1), 200): 0.571, (F(1), 400): 1.000,
}


def test_threshold_table_reproduction(benchmark_sweep):
    batches, table = benchmark_sweep
    details = []
    for (alpha, size), expected in REFERENCE_MEANS.items():
        cell = table.thresholds[(5, alpha, size)]
        assert cell.count == 200
        assert abs(float(cell.mean) - expected) <= 0.02, \
            f"alpha={alpha} size={size}: {float(cell.mean):.4f} vs {expected}"
        details.append(f"{float(cell.mean):.3f}/{expected}")
    saturated = [(b.q_num[last], b.q_den[last]) for b in batches  # q* is a run's last stage
                 for last in [(b.stages[1:] - 1)[(b.set_size == 400)
                                                 & (b.alpha == b.alphas.index(F(1)))]]]
    assert sum(len(num) for num, _ in saturated) == 200
    assert all((num == 1).all() and (den == 1).all() for num, den in saturated)
    report("threshold-table", "mean q* vs reference: " + " ".join(details))


# SHA-256 digests of the grid's outputs, recorded from the program before
# any change to the sweep's summaries: a change to one byte of them fails here.
RUN_LINES_SHA256 = "5ec959f2645d537154a75c4a54b7049861b57072835e85fcc5f31510a5f0bd4b"
TABLES_SHA256 = "8645b42a6e91351a55ea1d430059a86f0a82d5acd7c271922bc7928759670220"


def test_run_lines_keep_their_bytes(benchmark_sweep):
    digest = hashlib.sha256()
    for batch in benchmark_sweep[0]:
        for row, line in batch.lines():
            digest.update(row.encode())
            digest.update(line.encode())
    assert digest.hexdigest() == RUN_LINES_SHA256
    report("run-lines-digest", "runs.csv rows and runs.jsonl lines of 39,600 runs")


def test_tables_keep_their_bytes(benchmark_sweep, tmp_path):
    digest = hashlib.sha256()
    for write in (write_threshold_table_csv, write_threshold_stats_csv,
                  write_inverse_depth_table_csv, write_depth_curves_csv):
        path = tmp_path / f"{write.__name__}.csv"
        write(benchmark_sweep[1], path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == TABLES_SHA256
    report("tables-digest", "the four table files of the grid")


# Published sizes are means printed at two decimals, so "full contagion"
# is mean depth >= 0.995 (see the depth notes in README).
FULL_DEPTH = F(995, 1000)

INVERSE_CHECKS = [
    (F(1, 2), F(0), 0.35, 0.03),
    (F(1, 2), F(1), 0.19, 0.03),
    (F(3, 4), F(0), 0.68, 0.04),
    (F(3, 4), F(1), 0.31, 0.03),
]


def test_inverse_depth_spot_checks(benchmark_sweep):
    curves = benchmark_sweep[1].depth_curves()
    details = []
    for q, alpha, expected, tol in INVERSE_CHECKS:
        size = inverse_depth(curves[(q, 5, alpha)], FULL_DEPTH)
        assert size is not None
        assert abs(float(size) - expected) <= tol, \
            f"q={q} alpha={alpha}: {float(size):.3f} vs {expected}±{tol}"
        details.append(f"{float(size):.2f}/{expected}")
    report("inverse-depth", "full-contagion sizes vs reference: " + " ".join(details))


SINGULARITY_CHECKS = [
    (F(0), (0.30, 0.68)),
    (F(1), (0.20, 0.30)),
]


def test_singularity_intervals(benchmark_sweep):
    curves = benchmark_sweep[1].depth_curves()
    details = []
    for alpha, (exp_lo, exp_hi) in SINGULARITY_CHECKS:
        lo, hi = singularity_interval(curves[(F(3, 4), 5, alpha)])
        assert lo is not None and hi is not None
        assert abs(float(lo) - exp_lo) <= 0.04, f"alpha={alpha} lo {float(lo):.3f}"
        assert abs(float(hi) - exp_hi) <= 0.04, f"alpha={alpha} hi {float(hi):.3f}"
        details.append(f"[{float(lo):.2f},{float(hi):.2f}]/[{exp_lo},{exp_hi}]")
    report("singularity-intervals", " ".join(details))


# --- Criterion: determinism under parallelism ----------------------------------

def test_desk_preset_worker_determinism(tmp_path, capsys):
    trees = []
    for workers in ("1", "8"):
        out = tmp_path / f"workers{workers}"
        assert main(["montecarlo", "--preset", "desk", "--plots", "--workers", workers,
                     "--out", str(out)]) == 0
        trees.append({p.relative_to(out).as_posix(): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert capsys.readouterr().out.count("wrote 20880 runs") == 2
    assert len(trees[0]) == 15 and trees[0] == trees[1]
    report("worker-determinism",
           "all 15 desk-preset outputs byte-identical at 1 and 8 workers")
