import csv
import io
import json
import warnings
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sweep_reference import (
    Run,
    old_csv_row,
    old_json_line,
    pack,
    pack_stream,
    reference_average_thresholds,
    reference_sweep,
    unpack,
)

import netcontagion
from netcontagion import cli, contagion, montecarlo
from netcontagion.contagion import DepthFunction, depth_at, full_contagion_threshold
from netcontagion.errors import ParameterError
from netcontagion.game import GameConfig
from netcontagion.graphs import generate_ba
from netcontagion.montecarlo import (
    RUN_CSV_COLUMNS,
    Aggregator,
    ExperimentGrid,
    _run_network_task,
    _size_groups,
    _task_games,
    derive_seed,
    desk_grid,
    draw_players,
    draw_set,
    full_grid,
    inverse_depth,
    iter_batches,
    m5_benchmark_grid,
    regularized_curve,
    singularity_interval,
    write_depth_curves_csv,
    write_inverse_depth_table_csv,
)
from netcontagion.rational import decimal_render, rational_str

F = Fraction


def tiny_grid(master_seed=7, alphas=(F(0), F(1, 2), F(1))):
    return ExperimentGrid(
        network_size=40, m_values=(2,), alpha_values=alphas,
        networks_per_m=1, sets_per_size=1, set_sizes=(6,),
        q_grid=(F(1, 2),), master_seed=master_seed)


def sweep_runs(grid, workers=1):
    """The runs of every batch ``iter_batches`` yields, in stream order."""
    return [run for batch in iter_batches(grid, workers) for run in unpack(batch)]


def test_run_grid_record_count_is_alpha_multiple():
    runs = sweep_runs(tiny_grid())
    assert len(runs) == 3  # one per alpha value
    assert [r.alpha for r in runs] == [F(0), F(1, 2), F(1)]


def test_run_grid_deterministic():
    a = sweep_runs(tiny_grid(master_seed=99))
    b = sweep_runs(tiny_grid(master_seed=99))
    assert a == b
    c = sweep_runs(tiny_grid(master_seed=100))
    assert a != c


def test_run_grid_worker_count_invariant():
    grid = ExperimentGrid(
        network_size=30, m_values=(1, 2), alpha_values=(F(0), F(1)),
        networks_per_m=2, sets_per_size=2, set_sizes=(4, 10),
        q_grid=(F(1, 2),), master_seed=3)
    assert sweep_runs(grid, workers=1) == sweep_runs(grid, workers=3)


# m, alpha and set sizes out of order: the stream must still be the global sort.
UNORDERED = ExperimentGrid(
    network_size=30, m_values=(3, 1, 2), alpha_values=(F(1), F(0), F(1, 2)),
    networks_per_m=2, sets_per_size=2, set_sizes=(12, 4, 25),
    q_grid=(F(3, 4), F(1, 4), F(1, 2)), master_seed=13)


@pytest.mark.parametrize("workers", [1, 2])
def test_iter_grid_streams_the_globally_sorted_records(workers):
    batches = list(iter_batches(UNORDERED, workers))
    assert [(b.m, b.network_id) for b in batches] == [
        (m, i) for m in (1, 2, 3) for i in range(2)]
    assert all(b.network_size == 30 for b in batches)
    assert [run for b in batches for run in unpack(b)] == reference_sweep(UNORDERED)


class RecordingPool:
    """A synchronous stand-in for ProcessPoolExecutor that counts submissions."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted = 0
        self.cancelled = None
        RecordingPool.last = self

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.cancelled = cancel_futures


def test_iter_grid_keeps_at_most_twice_the_workers_in_flight(monkeypatch):
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)  # 2 and 3 workers stay uncapped
    grid = ExperimentGrid(
        network_size=20, m_values=(1, 2), alpha_values=(F(0),), networks_per_m=6,
        sets_per_size=1, set_sizes=(3,), q_grid=(), master_seed=5)
    in_flight = []
    for done, batch in enumerate(iter_batches(grid, workers=2)):
        in_flight.append(RecordingPool.last.submitted - done)
    # Four tasks run ahead of the consumer until the 12 tasks run out.
    assert in_flight == [4] * 9 + [3, 2, 1]
    assert RecordingPool.last.cancelled is True
    # A consumer that stops early leaves the queued tasks cancelled.
    stream = iter_batches(grid, workers=3)
    next(stream)
    stream.close()
    assert RecordingPool.last.submitted == 6 and RecordingPool.last.cancelled is True


@pytest.mark.parametrize("cpus, pool_size", [(64, 2), (1, None), (None, None)])
def test_montecarlo_pool_is_capped_by_tasks_and_cpus(monkeypatch, tmp_path, cpus, pool_size):
    """A huge ``--workers`` on a two-task grid asks for at most two processes,
    and none beyond the CPU count; the recorder starts no process at all."""
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    RecordingPool.last = None
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "network_size": 20, "m_values": [1, 2], "alpha_values": ["0"], "networks_per_m": 1,
        "sets_per_size": 1, "set_sizes": {"start": 3, "stop": 9, "step": 3}}))
    trees = []
    for workers in ("1000000000", "1"):
        out = tmp_path / workers
        assert cli.main(["montecarlo", "--config", str(config), "--out", str(out),
                         "--workers", workers]) == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    pool = RecordingPool.last
    if pool_size is None:
        assert pool is None  # one worker left: the tasks run in this process
    else:
        assert (pool.max_workers, pool.submitted) == (pool_size, 2)
    assert trees[0] == trees[1]


def test_iter_grid_checks_workers_before_running(monkeypatch):
    monkeypatch.setattr(montecarlo, "_run_network_task", None)  # never called
    for workers in (0, -2):
        with pytest.raises(ParameterError, match="workers"):
            iter_batches(UNORDERED, workers)


def test_size_batches_match_one_size_per_batch(monkeypatch):
    grid = ExperimentGrid(
        network_size=30, m_values=(1, 3), alpha_values=(F(0), F(1, 2), F(1)),
        networks_per_m=2, sets_per_size=3, set_sizes=(2, 5, 9, 14, 20, 25, 29),
        q_grid=(F(1, 2),), master_seed=11)
    # Every game of this grid is int32: 4 bytes per state element.
    games = [_task_games(grid, m, network_id) for m in grid.m_values for network_id in range(2)]
    assert {cfg.engine_tables.M.dtype for task in games for cfg in task} == {np.dtype(np.int32)}
    per_size = grid.sets_per_size * grid.network_size * 4
    outcomes = []
    # One size per batch, uneven groups of three by bytes and by rows, and
    # every size in one batch.
    for budget, rows, widths in [(1, 1, [1] * 7), (3 * per_size + 1, 1, [3, 3, 1]),
                                 (1, 7, [3, 3, 1]), (10**9, 1, [7])]:
        monkeypatch.setattr(montecarlo, "_BATCH_BYTES", budget)
        monkeypatch.setattr(montecarlo, "_BATCH_ROWS", rows)
        assert [len(group) for group in _size_groups(grid, games[0])] == widths
        outcomes.append([unpack(_run_network_task(grid, m, network_id))
                         for m in grid.m_values for network_id in range(2)])
    # Runs compare equal field by field: q*, depth, subsets_checked, and the
    # order set size, then replicate, then intensity.
    assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3]
    first = outcomes[0][0]
    assert [(r.set_size, r.replicate_id, r.alpha) for r in first] == [
        (size, rep, alpha) for size in grid.set_sizes
        for rep in range(3) for alpha in grid.alpha_values]
    assert len({r.q_star for task in outcomes[0] for r in task}) > 5


def test_presets_batch_sizes_within_the_element_budget():
    # The byte budget holds 2^15 int64 or 2^16 int32 elements per state array.
    # Every desk game is int32 (B^2 < 2^31 at n = 300 for any alpha), so 21
    # sizes of 10 rows of 300 players fit.
    desk = desk_grid()
    for m in desk.m_values:
        games = _task_games(desk, m, 0)
        assert {cfg.engine_tables.M.dtype for cfg in games} == {np.dtype(np.int32)}
        assert [len(g) for g in _size_groups(desk, games)] == [21, 8]
    # 20 and 50 rows of 1000 players, whose alpha = 1 games are int64: one
    # size per batch by bytes, raised to the fewest sizes that hold 64 rows.
    for grid, width in ((m5_benchmark_grid(), 4), (full_grid(), 2)):
        games = _task_games(grid, 5, 0)
        assert games[-1].engine_tables.M.dtype == np.int64
        assert 2 * grid.sets_per_size * grid.network_size * 8 > montecarlo._BATCH_BYTES
        groups = _size_groups(grid, games)
        assert {len(g) for g in groups[:-1]} == {width} and sum(map(len, groups)) == 99


def test_derive_seed_stable_golden():
    # The splitting scheme is part of the reproducibility contract; these
    # values must never change.
    assert derive_seed(42, "network", 5, 0) == derive_seed(42, "network", 5, 0)
    assert derive_seed(42, "network", 5, 0) != derive_seed(42, "network", 5, 1)
    assert derive_seed(0) == 3683230307825936186
    assert derive_seed(42, "set", 5, 3, 100, 7) == 16003853409847009257


def test_draw_set_uniform_and_exact_size():
    rng = np.random.Generator(np.random.PCG64(1))
    for size in (1, 5, 39):
        picked = draw_set(rng, 40, size)
        assert len(picked) == size
        assert all(0 <= i < 40 for i in picked)
    counts = np.zeros(10)
    for trial in range(2000):
        rng2 = np.random.Generator(np.random.PCG64(trial))
        for i in draw_set(rng2, 10, 3):
            counts[i] += 1
    assert counts.min() > 0.8 * counts.max()  # roughly uniform


@pytest.mark.parametrize("seed, population, size, first, second", [
    (0, 20, 5, [7, 8, 11, 13, 17], [0, 1, 2, 5, 17]),
    (1, 300, 10, [14, 47, 80, 99, 141, 154, 227, 247, 284, 285],
     [17, 33, 80, 83, 125, 127, 168, 195, 248, 260]),
    (7, 10, 10, list(range(10)), list(range(10))),
    (12345, 40, 1, [27], [9]),
])
def test_draw_set_pinned_draws(seed, population, size, first, second):
    # Two consecutive draws per generator, as recorded before the swaps moved
    # from numpy scalars to a Python list: the draws and the generator state
    # they leave behind are part of every sweep's output.
    rng = np.random.Generator(np.random.PCG64(seed))
    assert sorted(draw_set(rng, population, size)) == first
    assert sorted(draw_set(rng, population, size)) == second


@pytest.mark.parametrize("size", [-1, 21, 25])
def test_draw_set_rejects_sizes_outside_population(size):
    rng = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(ParameterError):
        draw_set(rng, 20, size)


def test_draw_players_are_the_drawn_set():
    # The sweep takes the array, the CLI the set: the same players, and
    # the same generator state left behind.
    for seed in range(300):
        population = 1 + seed % 41
        for size in (0, population, seed % (population + 1)):
            rng_a, rng_b = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
            players = draw_players(rng_a, population, size)
            assert players.dtype == np.int64 and len(set(players.tolist())) == size
            assert frozenset(players.tolist()) == draw_set(rng_b, population, size)
            assert rng_a.integers(2**62) == rng_b.integers(2**62)


def test_draw_set_empty_and_whole_population():
    rng = np.random.Generator(np.random.PCG64(0))
    assert draw_set(rng, 20, 0) == frozenset()
    assert draw_set(rng, 20, 20) == frozenset(range(20))


def test_records_consistent_with_direct_run():
    # Three set sizes, three replicates and three alphas: each (size, alpha)
    # runs as one batch whose rows fill at different stages.  Every run's
    # q*, depth steps and subsets_checked equal a direct search's.
    grid = ExperimentGrid(
        network_size=40, m_values=(2,), alpha_values=(F(0), F(1, 2), F(1)),
        networks_per_m=1, sets_per_size=3, set_sizes=(2, 6, 25),
        q_grid=(F(1, 2),), master_seed=7)
    runs = sweep_runs(grid)
    assert len(runs) == 27
    assert runs == reference_sweep(grid)
    assert len({len(run.depth.breakpoints) for run in runs}) >= 3


def test_per_record_depth_dominates_seed_fraction():
    for rec in sweep_runs(tiny_grid()):
        for q in (F(0), F(1, 4), F(1, 2), F(1)):
            assert depth_at(rec.depth, q) >= rec.size_fraction


def test_alpha_monotonicity_per_draw():
    grid = ExperimentGrid(
        network_size=60, m_values=(3,), alpha_values=(F(0), F(1, 2), F(1)),
        networks_per_m=2, sets_per_size=3, set_sizes=(6, 18), q_grid=(),
        master_seed=21)
    by_draw = {}
    for rec in sweep_runs(grid):
        by_draw.setdefault((rec.network_id, rec.set_size, rec.replicate_id),
                           {})[rec.alpha] = rec.q_star
    for stars in by_draw.values():
        assert stars[F(0)] <= stars[F(1, 2)] <= stars[F(1)]


def test_nested_sets_weakly_increase_threshold():
    net = generate_ba(80, 3, 11)
    rng = np.random.Generator(np.random.PCG64(5))
    small = draw_set(rng, 80, 10)
    for extra in (5, 20, 40):
        big = small | draw_set(rng, 80, extra)
        cfg_small = GameConfig(network=net, infected=small)
        cfg_big = GameConfig(network=net, infected=big)
        a = full_contagion_threshold(cfg_small, small)
        b = full_contagion_threshold(cfg_big, big)
        assert a.q_star <= b.q_star
        small = big


def aggregate(batches, q_grid=()):
    aggregator = Aggregator(q_grid)
    for batch in batches:
        aggregator.add(batch)
    return aggregator.table()


def test_average_thresholds_grouping_and_mean():
    grid = ExperimentGrid(
        network_size=30, m_values=(2,), alpha_values=(F(0),),
        networks_per_m=2, sets_per_size=3, set_sizes=(5, 29),
        q_grid=(F(1, 2),), master_seed=1)
    records = sweep_runs(grid)
    table = aggregate(iter_batches(grid), (F(1, 2),))
    cell = table.thresholds[(2, F(0), 5)]
    manual = [r.q_star for r in records if r.set_size == 5]
    assert cell.count == 6
    assert cell.mean == sum(manual, F(0)) / 6
    # Full-ish seed sets drive the mean up.
    assert table.thresholds[(2, F(0), 29)].mean >= cell.mean
    assert (2, F(0), F(1, 2), 5) in table.depth_means


def test_aggregator_matches_the_whole_list_reference():
    records = reference_sweep(UNORDERED)
    other = reference_sweep(ExperimentGrid(
        network_size=40, m_values=(2,), alpha_values=(F(1), F(0)), networks_per_m=2,
        sets_per_size=3, set_sizes=(8, 20), q_grid=(), master_seed=3))
    # The 30- and the 40-node stream, each to its own aggregator, in batches
    # of at most seven runs.
    for stream in (records, other):
        want = reference_average_thresholds(stream, UNORDERED.q_grid)
        aggregator = Aggregator(UNORDERED.q_grid)
        for k in range(0, len(stream), 7):
            for batch in pack_stream(stream[k:k + 7]):
                aggregator.add(batch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = aggregator.table()
        assert got.network_size == want.network_size
        # Same keys in the same order, equal exact means and equal float sd.
        assert list(got.thresholds.items()) == list(want.thresholds.items())
        assert list(got.depth_means.items()) == list(want.depth_means.items())
        assert aggregator.count == len(stream)
        for m, alpha in {(r.m, r.alpha) for r in stream}:
            assert aggregator.points(m, alpha) == [
                (float(r.size_fraction), float(r.q_star)) for r in stream
                if (r.m, r.alpha) == (m, alpha)]
    assert aggregator.points(99, F(0)) == []
    # Fed together, in either order, the second network size is refused.
    for first, second in ((records, other), (other, records)):
        aggregator = Aggregator(UNORDERED.q_grid)
        aggregator.add(pack_stream(first)[0])
        with pytest.raises(ParameterError, match="one network size"):
            aggregator.add(pack_stream(second)[0])
    with pytest.raises(ParameterError, match="no runs"):
        Aggregator().table()


def depth_run(nodes, set_size, sizes, replicate=0):
    """An m=2, alpha=0 run on ``nodes`` players whose depth steps at 1/2 and 1/3."""
    df = DepthFunction((F(1), F(1, 2), F(1, 3)), sizes, nodes)
    return Run(m=2, alpha=F(0), network_id=0, set_size=set_size, replicate_id=replicate,
               q_star=df.q_star, depth=df, subsets_checked=0, network_size=nodes)


def test_aggregator_refuses_a_second_network_size():
    # Runs of (network size, set size) (30, 3), (40, 3) and (40, 4): set size
    # 3 is 1/10 of one network and 3/40 of the other, so one table keyed by
    # set size cannot hold both.
    qs = (F(1, 4), F(1, 2), F(1))
    small = depth_run(30, 3, (5, 11))
    large = [depth_run(40, 3, (4, 9)), depth_run(40, 4, (6, 20))]
    aggregator = Aggregator(qs)
    aggregator.add(pack([small]))
    before = aggregator.table()
    with pytest.raises(ParameterError, match="one network size: got a batch of 40-node"):
        aggregator.add(pack(large))
    assert aggregator.count == 1
    assert aggregator.table() == before
    assert aggregator.points(2, F(0)) == [(0.1, 1 / 3)]
    assert before.depth_curves() == {
        (F(1, 4), 2, F(0)): {F(1, 10): F(1)}, (F(1, 2), 2, F(0)): {F(1, 10): F(11, 30)},
        (F(1), 2, F(0)): {F(1, 10): F(5, 30)}}
    # Each network size summarizes exactly on its own.
    alone = aggregate([pack(large)], qs)
    assert alone.depth_curves()[(F(1, 2), 2, F(0))] == {F(3, 40): F(9, 40), F(1, 10): F(20, 40)}


def test_depth_writers_use_the_table_curves(tmp_path):
    qs = (F(1, 4), F(3, 4))
    grid = ExperimentGrid(
        network_size=30, m_values=(2, 3), alpha_values=(F(0), F(1)),
        networks_per_m=1, sets_per_size=2, set_sizes=(3, 12, 24),
        q_grid=qs, master_seed=4)
    table = aggregate(iter_batches(grid), qs)
    reference = reference_average_thresholds(reference_sweep(grid), qs)
    assert table.depth_curves() == reference.depth_curves()
    write_depth_curves_csv(table, tmp_path / "curves.csv")
    write_inverse_depth_table_csv(table, tmp_path / "inverse.csv")
    with open(tmp_path / "curves.csv") as fh:
        curve_rows = list(csv.reader(fh))[1:]
    with open(tmp_path / "inverse.csv") as fh:
        inverse_rows = list(csv.reader(fh))[1:]
    want_curves, want_inverse = [], []
    for q in qs:
        for m, alpha in [(2, F(0)), (2, F(1)), (3, F(0)), (3, F(1))]:
            curve = {F(size, 30): mean for (mm, aa, qq, size), mean
                     in reference.depth_means.items() if (mm, aa, qq) == (m, alpha, q)}
            want_curves += [[str(m), rational_str(alpha), rational_str(q),
                             str(int(frac * 30)), decimal_render(frac, 3),
                             decimal_render(mean)] for frac, mean in curve.items()]
            fracs = [inverse_depth(curve, F(t, 10)) for t in range(1, 11)]
            want_inverse.append([str(m), rational_str(q), rational_str(alpha)] + [
                "unreachable" if f is None else decimal_render(f, 3) for f in fracs])
    assert curve_rows == want_curves
    assert inverse_rows == want_inverse
    # Targets are checked before the file is opened.
    for target in (0, F(11, 10)):
        with pytest.raises(ParameterError, match="target depth"):
            write_inverse_depth_table_csv(table, tmp_path / "bad.csv", targets=[1, target])
    assert not (tmp_path / "bad.csv").exists()


def test_inverse_depth_table_matches_inverse_depth_per_target(tmp_path):
    # Curves that are not monotone, with ties at the targets and past them.
    sizes = [F(k, 20) for k in range(1, 20)]
    table = montecarlo.AggregateTable(network_size=20)
    rng = np.random.Generator(np.random.PCG64(3))
    targets = [F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(7, 10), F(9, 10), F(1)]
    for q in (F(1, 4), F(1, 2), F(3, 4)):
        for alpha in (F(0), F(1)):
            for size in sizes:
                value = F(int(rng.integers(0, 13)), 12)
                table.depth_means[(2, alpha, q, int(size * 20))] = value
    write_inverse_depth_table_csv(table, tmp_path / "inverse.csv", targets)
    with open(tmp_path / "inverse.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    want = [[str(m), rational_str(q), rational_str(alpha)] + [
        "unreachable" if f is None else decimal_render(f, 3)
        for f in (inverse_depth(curve, t) for t in targets)]
        for (q, m, alpha), curve in table.depth_curves().items()]
    assert rows == want and len(rows) == 6
    assert any("unreachable" in row for row in rows)


def test_depth_curve_sums_exactly_over_runs_of_one_size():
    # Several 30-node runs share each size fraction; the curve is the plain
    # mean of their depth_at values.
    runs = [depth_run(30, 3, (5, 11)), depth_run(30, 6, (7, 9)), depth_run(30, 3, (4, 4), 1),
            depth_run(30, 6, (9, 13), 1), depth_run(30, 3, (3, 29), 2)]
    qs = (F(0), F(1, 3), F(2, 5), F(1, 2), F(3, 4), F(1))
    curves = aggregate(pack_stream(runs), qs).depth_curves()
    for q in qs:
        want = {}
        for rec in runs:
            want.setdefault(rec.size_fraction, []).append(depth_at(rec.depth, q))
        assert curves[(q, 2, F(0))] == {f: sum(v) / len(v) for f, v in sorted(want.items())}


def test_dip_warning_tells_close_means_apart():
    # Mean q* 0.79871 at set size 2 and 0.79869 at 3: equal to four decimals.
    def run(set_size, q_star):
        df = DepthFunction((F(1), q_star), (set_size + 1,), 30)
        return Run(m=2, alpha=F(1, 2), network_id=0, set_size=set_size, replicate_id=0,
                   q_star=q_star, depth=df, subsets_checked=0, network_size=30)

    means = (F(79871, 100000), F(79869, 100000))
    assert f"{float(means[0]):.4f}" == f"{float(means[1]):.4f}"
    with pytest.warns(UserWarning) as caught:
        aggregate([pack([run(2, means[0]), run(3, means[1])])])
    assert [str(w.message) for w in caught] == [
        "mean threshold dips from 79871/100000 to 79869/100000 between sizes 2 and 3 "
        "(m=2, alpha=1/2); sampling jitter"]


def test_depth_curve_q_zero_all_ones():
    curves = aggregate(iter_batches(tiny_grid()), (0,)).depth_curves()
    assert all(v == 1 for v in curves[(F(0), 2, F(0))].values())


def test_depth_curve_full_size_is_one():
    grid = ExperimentGrid(
        network_size=20, m_values=(2,), alpha_values=(F(0),),
        networks_per_m=1, sets_per_size=1, set_sizes=(19,), q_grid=(),
        master_seed=2)
    curves = aggregate(iter_batches(grid), (F(9, 10),)).depth_curves()
    # 19 of 20 seeded: the lone holdout always has every neighbor deviating.
    assert curves[(F(9, 10), 2, F(0))][F(19, 20)] == 1


def test_isotonic_regularization():
    curve = {F(1, 10): F(3, 10), F(2, 10): F(2, 10), F(3, 10): F(4, 10)}
    fitted = regularized_curve(curve)
    assert fitted[F(1, 10)] == fitted[F(2, 10)] == F(1, 4)
    assert fitted[F(3, 10)] == F(4, 10)
    assert list(fitted) == sorted(fitted)


def test_inverse_depth_basics():
    curve = {F(1, 10): F(1, 5), F(2, 10): F(3, 5), F(3, 10): F(1)}
    assert inverse_depth(curve, F(1, 5)) == F(1, 10)  # smallest size's own mean
    assert inverse_depth(curve, F(1, 2)) == F(2, 10)
    assert inverse_depth(curve, 1) == F(3, 10)
    with pytest.raises(ParameterError):
        inverse_depth(curve, 0)


def test_inverse_depth_unreachable():
    curve = {F(1, 10): F(1, 5), F(2, 10): F(1, 4)}
    assert inverse_depth(curve, F(9, 10)) is None


def test_singularity_constant_one_curve():
    curve = {F(k, 10): F(1) for k in range(1, 10)}
    lo, hi = singularity_interval(curve)
    assert lo == hi == F(1, 10)


def test_singularity_interval_shape():
    sizes = [F(k, 20) for k in range(1, 20)]
    curve = {s: min(F(1), s + (F(0) if s < F(1, 2) else F(2, 5))) for s in sizes}
    lo, hi = singularity_interval(curve)
    assert lo == F(1, 2)   # virality jumps to 2/5 at one half
    assert hi == F(11, 20)  # first size with depth >= 19/20
    # A zero-virality diagonal: the lower endpoint never triggers, and the
    # upper one only where the diagonal itself reaches 19/20.
    none_lo, diag_hi = singularity_interval({s: s for s in sizes})
    assert none_lo is None and diag_hi == F(19, 20)
    with pytest.raises(ParameterError):
        singularity_interval(curve, F(1, 2), F(1, 4))


def test_csv_and_jsonl_emission():
    [batch] = iter_batches(tiny_grid())
    records = unpack(batch)
    rows, lines = zip(*batch.lines())
    rows = list(csv.reader(io.StringIO("".join(rows), newline="")))
    assert len(rows[0]) == len(RUN_CSV_COLUMNS)
    assert len(rows) == len(records)
    first = dict(zip(RUN_CSV_COLUMNS, rows[0]))
    assert first["m"] == "2" and first["set_size"] == "6"
    assert F(int(first["q_star_num"]), int(first["q_star_den"])) == records[0].q_star

    assert len(lines) == len(records) and all(line.endswith("}\n") for line in lines)
    payload = json.loads(lines[0])
    assert payload["network_size"] == 40
    assert payload["q_star"]["num"] == records[0].q_star.numerator
    assert payload["depth"]["steps"][0]["q_num"] == 1


def test_presets_shapes():
    from netcontagion.montecarlo import PRESETS, desk_grid, full_grid

    assert set(PRESETS) == {"desk", "m5-benchmark", "full"}
    # The complete sweep performs 198,000 runs per (m, alpha) scenario.
    full = full_grid()
    assert full.networks_per_m * full.sets_per_size * len(full.set_sizes) == 198_000
    assert full.network_size == 1000
    desk = desk_grid()
    assert desk.network_size == 300
    assert max(desk.set_sizes) < desk.network_size
    assert desk_grid(master_seed=1) != desk_grid(master_seed=2)


def test_grid_validation():
    with pytest.raises(ParameterError):
        ExperimentGrid(network_size=10, m_values=(), alpha_values=(F(0),),
                       networks_per_m=1, sets_per_size=1, set_sizes=(2,),
                       q_grid=(), master_seed=0)
    with pytest.raises(ParameterError):
        ExperimentGrid(network_size=10, m_values=(12,), alpha_values=(F(0),),
                       networks_per_m=1, sets_per_size=1, set_sizes=(2,),
                       q_grid=(), master_seed=0)
    with pytest.raises(ParameterError):
        ExperimentGrid(network_size=10, m_values=(2,), alpha_values=(F(0),),
                       networks_per_m=1, sets_per_size=1, set_sizes=(10,),
                       q_grid=(), master_seed=0)
    with pytest.raises(ParameterError):
        ExperimentGrid(network_size=10, m_values=(2,), alpha_values=(F(3, 2),),
                       networks_per_m=1, sets_per_size=1, set_sizes=(2,),
                       q_grid=(), master_seed=0)


@pytest.mark.parametrize("field, values", [
    ("m_values", (2, 3, 2)), ("alpha_values", (F(0), F(1, 2), F(0))),
    ("set_sizes", (2, 2))])
def test_grid_rejects_repeated_values(field, values):
    fields = dict(network_size=10, m_values=(2,), alpha_values=(F(0),), networks_per_m=1,
                  sets_per_size=1, set_sizes=(2,), q_grid=(), master_seed=0)
    with pytest.raises(ParameterError, match=f"{field} must not repeat"):
        ExperimentGrid(**{**fields, field: values})


def unit_fractions(big):
    """q values in [0, 1), with numerators and denominators past 2^63 when ``big``."""
    den = st.integers(2**63, 2**80) if big else st.integers(1, 12)
    return den.flatmap(lambda d: st.integers(0, d - 1).map(lambda n: F(n, d)))


@st.composite
def run_records(draw, network_size=None):
    """A run with a valid depth function: breakpoints fall from 1 to q*
    (a one-stage search has q* = 1 and no steps) and sizes grow."""
    nodes = network_size or draw(st.integers(6, 10**6))
    qs = draw(st.lists(unit_fractions(draw(st.booleans())), max_size=4, unique=True))
    breakpoints = (F(1), *sorted(qs, reverse=True))
    sizes = sorted(draw(st.sets(st.integers(1, nodes - 1), min_size=len(qs),
                                max_size=len(qs))))
    huge = st.integers(0, 2**70)
    depth = DepthFunction(breakpoints, tuple(sizes), nodes)
    return Run(
        m=draw(st.sampled_from([1, 5, 2**64])),
        alpha=draw(st.sampled_from([F(0), F(1, 2), F(1), F(2, 3), F(2**70 - 1, 2**70)])),
        network_id=draw(st.sampled_from([0, 3])), set_size=draw(st.integers(1, nodes - 1)),
        replicate_id=draw(huge), q_star=depth.q_star, depth=depth,
        subsets_checked=draw(huge), network_size=nodes)


@given(st.lists(run_records(), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_row_formatter_matches_csv_writer_and_json_dumps(records):
    want_csv, got_csv = io.StringIO(), io.StringIO()
    csv.writer(want_csv).writerows(map(old_csv_row, records))
    want_jsonl = "".join(map(old_json_line, records))
    got_jsonl = []
    batches = pack_stream(records)
    for batch in batches:
        for row, line in batch.lines():
            got_csv.write(row)
            got_jsonl.append(line)
    assert got_csv.getvalue() == want_csv.getvalue()
    assert "".join(got_jsonl) == want_jsonl
    # The packed columns hold the runs whole.
    assert [rec for batch in batches for rec in unpack(batch)] == records


def test_task_batch_renders_its_records_byte_for_byte():
    batch = _run_network_task(UNORDERED, 3, 1)
    records = [run for run in reference_sweep(UNORDERED) if (run.m, run.network_id) == (3, 1)]
    rows, lines = zip(*batch.lines())
    want = io.StringIO()
    csv.writer(want).writerows(map(old_csv_row, records))
    assert "".join(rows) == want.getvalue()
    assert list(lines) == list(map(old_json_line, records))
    assert len({len(rec.depth.breakpoints) for rec in records}) >= 3


LARGE_Q_GRID = (F(1, 3), F(2**64 + 1, 2**65 + 3), F(2**70 - 5, 2**70), F(0), F(1))


@given(st.lists(run_records(network_size=50), min_size=1, max_size=12),
       st.lists(unit_fractions(True) | unit_fractions(False), max_size=3))
@settings(max_examples=150, deadline=None)
def test_aggregator_batches_equal_the_fraction_reference(records, q_grid):
    # The records' own stage qs put reached at exact stage boundaries.
    stage_qs = tuple(dict.fromkeys(q for r in records for q in r.depth.breakpoints))
    q_grid = tuple(dict.fromkeys((*q_grid, *stage_qs))) + LARGE_Q_GRID
    aggregator = Aggregator(q_grid)
    for batch in pack_stream(records):
        aggregator.add(batch)
        # Past LARGE_Q_GRID's terms beyond 2^63 it decides in Python ints:
        # the stage boundaries again, there.
        python_ints = LARGE_Q_GRID + stage_qs
        assert batch.reached(python_ints).tolist() == [
            [depth_at(run.depth, q) * run.network_size for q in python_ints]
            for run in unpack(batch)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = aggregator.table()
    want = reference_average_thresholds(records, q_grid)
    assert list(got.thresholds.items()) == list(want.thresholds.items())
    assert list(got.depth_means.items()) == list(want.depth_means.items())
    for m, alpha in {(r.m, r.alpha) for r in records}:
        assert aggregator.points(m, alpha) == [
            (float(r.size_fraction), float(r.q_star)) for r in records
            if (r.m, r.alpha) == (m, alpha)]


def test_aggregator_fed_task_batches_equals_fed_their_records():
    # The sweep's own batches against the Fraction reference over the
    # direct searches' runs.
    q_grid = UNORDERED.q_grid + LARGE_Q_GRID
    aggregator = Aggregator(q_grid)
    for batch in iter_batches(UNORDERED):
        aggregator.add(batch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = aggregator.table()
    runs = reference_sweep(UNORDERED)
    want = reference_average_thresholds(runs, q_grid)
    assert list(got.thresholds.items()) == list(want.thresholds.items())
    assert list(got.depth_means.items()) == list(want.depth_means.items())
    for m in UNORDERED.m_values:
        for alpha in UNORDERED.alpha_values:
            assert aggregator.points(m, alpha) == [
                (float(r.size_fraction), float(r.q_star)) for r in runs
                if (r.m, r.alpha) == (m, alpha)]


def test_network_task_builds_no_per_run_objects(monkeypatch):
    grid = ExperimentGrid(
        network_size=40, m_values=(2,), alpha_values=(F(1, 2), F(0)), networks_per_m=1,
        sets_per_size=5, set_sizes=(3, 9, 20), q_grid=(F(1, 3), F(2, 3)), master_seed=5)

    def forbidden(*args, **kwargs):
        raise AssertionError("the sweep built a per-run object")

    for module, name in [(contagion, "ThresholdResult"), (contagion, "ThresholdStage"),
                         (contagion, "DepthFunction")]:
        monkeypatch.setattr(module, name, forbidden)
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    batch = _run_network_task(grid, 2, 0)
    rows = list(batch.lines())
    Aggregator(grid.q_grid).add(batch)
    monkeypatch.undo()
    stages = len(batch.size)
    assert len(rows) == len(batch) == 30
    # A few Fractions per configuration and per aggregated cell, none per stage.
    assert len(made) < len(batch) < stages


REMOVED_NAMES = ("RunRecord", "run_grid", "iter_grid", "average_thresholds", "depth_curve",
                 "write_records_csv", "write_records_jsonl", "run_csv_row", "run_json_line",
                 "_record_batches")


def test_package_exports_resolve_and_omit_the_record_path():
    assert all(hasattr(netcontagion, name) for name in netcontagion.__all__)
    assert len(set(netcontagion.__all__)) == len(netcontagion.__all__)
    assert {"iter_batches", "Aggregator"} <= set(netcontagion.__all__)
    for name in REMOVED_NAMES:
        assert name not in netcontagion.__all__
        assert not hasattr(netcontagion, name) and not hasattr(montecarlo, name)
    assert not hasattr(montecarlo.RunBatch, "from_records")
    assert not hasattr(montecarlo.RunBatch, "records")
