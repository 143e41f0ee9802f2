"""Monte Carlo harness: sweep thresholds and depth over scale-free networks.

The data generating process: for each attachment parameter m, generate
``networks_per_m`` scale-free networks; per network and per starting-set
size, draw ``sets_per_size`` uniform starting sets; seed each set
exogenously (a uniformly random set almost never sustains itself
endogenously at q = 1) and run the full threshold search once per
global-effect intensity, reusing the same draw across intensities.

The searches of one network and intensity run in batches of consecutive
set sizes: every draw of a size group is a row of a single engine state,
advanced together by the staged search of ``contagion``.  A group holds as
many whole sizes (at least one) as keep ``rows * network_size`` within
``_BATCH_ELEMENTS``, which bounds the engine's memory whatever the grid;
draws, seeds and the record order do not depend on the grouping.  One
``GameConfig`` serves each (network, intensity) without an infected set.
No per-search config or start check is needed: every start is seeded
exogenously, so every member deviates at q = 1, and the engine sees the
seeding only through the union of start and infected set, which is the
start itself.

Every random draw flows from ``master_seed`` through a documented split:
``sha256("netcontagion:<master>:<field>:...")`` truncated to 64 bits, so
records are bit-identical regardless of worker count or scheduling.

A sweep streams: :func:`iter_grid` yields one network task's records at a
time, already in the global record order, and :class:`Aggregator` folds
them into exact running sums, so neither has to hold the whole run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from array import array
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .contagion import DepthFunction, _reached, _staged_search
from .errors import ParameterError
from .game import GameConfig, InfluenceWeights, ParametricGlobalEffect
from .graphs import generate_ba
from .rational import as_rational, as_unit_rational, decimal_render, rational_json, rational_str


# Engine state elements (rows * network size) that one batch of a network
# task may hold; a set size whose replicates alone exceed it runs alone.
_BATCH_ELEMENTS = 2**15


def derive_seed(master_seed: int, *fields) -> int:
    """Stable 64-bit task seed from the master seed and a field tuple."""
    text = ":".join(["netcontagion", str(int(master_seed))]
                    + [str(f) for f in fields])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def draw_players(rng: np.random.Generator, population: int, size: int) -> np.ndarray:
    """``size`` distinct players, uniform without replacement, as an int64
    array in the order a partial Fisher-Yates pass picks them."""
    if not 0 <= size <= population:
        raise ParameterError(f"cannot draw {size} players from {population}")
    arr = list(range(population))
    picks = rng.integers(low=np.arange(size), high=population).tolist()
    for j, other in enumerate(picks):
        arr[j], arr[other] = arr[other], arr[j]
    return np.array(arr[:size], dtype=np.int64)


def draw_set(rng: np.random.Generator, population: int, size: int) -> frozenset[int]:
    """Uniform subset without replacement: the players of :func:`draw_players`."""
    return frozenset(draw_players(rng, population, size).tolist())


@dataclass(frozen=True)
class ExperimentGrid:
    network_size: int
    m_values: tuple[int, ...]
    alpha_values: tuple[Fraction, ...]
    networks_per_m: int
    sets_per_size: int
    set_sizes: tuple[int, ...]
    q_grid: tuple[Fraction, ...]
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "alpha_values",
                           tuple(as_unit_rational(a, "alpha") for a in self.alpha_values))
        object.__setattr__(self, "set_sizes", tuple(int(s) for s in self.set_sizes))
        object.__setattr__(self, "q_grid",
                           tuple(as_unit_rational(q, "q") for q in self.q_grid))
        if self.network_size < 2:
            raise ParameterError("network_size must be at least 2")
        if self.networks_per_m < 1 or self.sets_per_size < 1:
            raise ParameterError("counts must be positive")
        for name in ("m_values", "alpha_values", "set_sizes"):
            values = getattr(self, name)
            if not values:
                raise ParameterError("m_values, alpha_values, set_sizes must be nonempty")
            repeated = next((v for v in values if values.count(v) > 1), None)
            if repeated is not None:
                raise ParameterError(f"{name} must not repeat a value; {repeated} repeats")
        for m in self.m_values:
            if not 1 <= m < self.network_size:
                raise ParameterError(f"m={m} incompatible with network size")
        for s in self.set_sizes:
            if not 1 <= s < self.network_size:
                raise ParameterError(f"set size {s} must be in [1, network_size)")

    @property
    def runs_per_m_alpha(self) -> int:
        return self.networks_per_m * self.sets_per_size * len(self.set_sizes)


def desk_grid(master_seed: int = 42) -> ExperimentGrid:
    """Small grid that finishes in minutes on one core."""
    return ExperimentGrid(
        network_size=300, m_values=(5, 10, 20),
        alpha_values=(Fraction(0), Fraction(1, 2), Fraction(1)),
        networks_per_m=8, sets_per_size=10,
        set_sizes=tuple(range(10, 300, 10)),
        q_grid=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        master_seed=master_seed)


def m5_benchmark_grid(master_seed: int = 42) -> ExperimentGrid:
    """1000-node, m=5 grid at reduced replication; used by the acceptance suite."""
    return ExperimentGrid(
        network_size=1000, m_values=(5,),
        alpha_values=(Fraction(0), Fraction(1)),
        networks_per_m=10, sets_per_size=20,
        set_sizes=tuple(range(10, 1000, 10)),
        q_grid=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        master_seed=master_seed)


def full_grid(master_seed: int = 42) -> ExperimentGrid:
    """The complete sweep (1000 nodes, 40 networks, 50 sets per size).

    Long-running: 1,782,000 threshold searches; prefer the desk presets
    unless you have hours to spend.
    """
    return ExperimentGrid(
        network_size=1000, m_values=(5, 10, 20),
        alpha_values=(Fraction(0), Fraction(1, 2), Fraction(1)),
        networks_per_m=40, sets_per_size=50,
        set_sizes=tuple(range(10, 1000, 10)),
        q_grid=(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
        master_seed=master_seed)


PRESETS = {
    "desk": desk_grid,
    "m5-benchmark": m5_benchmark_grid,
    "full": full_grid,
}


@dataclass(frozen=True)
class RunRecord:
    m: int
    alpha: Fraction
    network_id: int
    set_size: int
    replicate_id: int
    q_star: Fraction
    depth: DepthFunction
    subsets_checked: int
    network_size: int

    @property
    def size_fraction(self) -> Fraction:
        return Fraction(self.set_size, self.network_size)

    def sort_key(self):
        return (self.m, self.network_id, self.set_size, self.replicate_id,
                self.alpha)


def _size_groups(grid: ExperimentGrid) -> list[tuple[int, ...]]:
    """Consecutive set sizes, each group as many whole sizes (at least one)
    as keep its ``rows * network_size`` within ``_BATCH_ELEMENTS``."""
    per_size = grid.sets_per_size * grid.network_size
    width = max(1, _BATCH_ELEMENTS // per_size)
    return [grid.set_sizes[i:i + width] for i in range(0, len(grid.set_sizes), width)]


def _run_network_task(grid: ExperimentGrid, m: int, network_id: int) -> list[RunRecord]:
    net = generate_ba(grid.network_size, m,
                      derive_seed(grid.master_seed, "network", m, network_id))
    weights = InfluenceWeights.unit(net)
    configs = {alpha: GameConfig(network=net, weights=weights,
                                 global_effect=ParametricGlobalEffect(alpha))
               for alpha in grid.alpha_values}
    reps = grid.sets_per_size
    records: list[RunRecord] = []
    for sizes in _size_groups(grid):
        starts = []
        for set_size in sizes:
            for replicate in range(reps):
                seed = derive_seed(grid.master_seed, "set", m, network_id,
                                   set_size, replicate)
                rng = np.random.Generator(np.random.PCG64(seed))
                # An array holds a drawn set in 4-9x less memory than a frozenset.
                starts.append(draw_players(rng, grid.network_size, set_size))
        # Records go out by set size, then intensity, then replicate.
        batches = []
        for alpha, cfg in configs.items():
            results = _staged_search(cfg, starts, collect_members=False)
            batches.append([RunRecord(
                m=m, alpha=alpha, network_id=network_id,
                set_size=sizes[row // reps], replicate_id=row % reps,
                q_star=result.q_star,
                depth=DepthFunction.from_threshold(result),
                subsets_checked=result.subsets_checked,
                network_size=grid.network_size) for row, result in enumerate(results)])
        for k in range(0, len(starts), reps):
            for batch in batches:
                records.extend(batch[k:k + reps])
    return records


def iter_grid(grid: ExperimentGrid, workers: int = 1) -> Iterator[list[RunRecord]]:
    """Execute the grid one network task at a time.

    Yields each task's records sorted by :meth:`RunRecord.sort_key`, tasks
    in ascending ``(m, network_id)`` order, so the concatenation is the
    globally sorted record list for any worker count.  With ``workers > 1``
    at most ``2 * workers`` tasks are in flight, and results are yielded in
    submission order.  ``workers`` is checked before anything runs.
    """
    if workers < 1:
        raise ParameterError(f"workers must be at least 1; got {workers}")
    tasks = [(m, net_id) for m in sorted(grid.m_values)
             for net_id in range(grid.networks_per_m)]
    chunks = (_run_network_task(grid, m, net_id) for m, net_id in tasks) \
        if workers == 1 else _pooled_tasks(grid, tasks, workers)
    return (sorted(chunk, key=RunRecord.sort_key) for chunk in chunks)


def _pooled_tasks(grid: ExperimentGrid, tasks: list[tuple[int, int]],
                  workers: int) -> Iterator[list[RunRecord]]:
    pool = ProcessPoolExecutor(max_workers=workers)
    pending: deque = deque()
    try:
        for m, net_id in tasks:
            pending.append(pool.submit(_run_network_task, grid, m, net_id))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        # A consumer that stops early does not wait for the queued tasks.
        pool.shutdown(cancel_futures=True)


def run_grid(grid: ExperimentGrid, workers: int = 1) -> list[RunRecord]:
    """Execute the grid; the record list is identical for any worker count."""
    return [rec for chunk in iter_grid(grid, workers) for rec in chunk]


@dataclass
class ThresholdCell:
    mean: Fraction
    count: int
    sd: float


@dataclass
class AggregateTable:
    """Grouped summaries: threshold stats per (m, alpha, set size) and mean
    depth per (m, alpha, q, set size)."""

    network_size: int
    thresholds: dict[tuple[int, Fraction, int], ThresholdCell] = field(default_factory=dict)
    depth_means: dict[tuple[int, Fraction, Fraction, int], Fraction] = field(default_factory=dict)


class Aggregator:
    """Exact running summaries of a record stream, without the records.

    Per (m, alpha, set size) it keeps the exact sum of q* and the q* floats
    in arrival order, for the same ``np.std`` a list of them would give.
    Per (m, alpha) it keeps, for each q of ``q_grid``, integer reached
    counts by (set size, network size, node count), which are the
    numerators that :func:`depth_curve` sums, and the (size fraction, q*)
    plot points as floats in arrival order.  :meth:`table` is the table of
    every record added so far.
    """

    def __init__(self, q_grid: Iterable = ()):
        self.q_grid = tuple(as_unit_rational(q, "q") for q in q_grid)
        self.count = 0
        self.network_size: int | None = None
        self._sums: dict[tuple[int, Fraction, int], Fraction] = {}
        self._floats: dict[tuple[int, Fraction, int], array] = {}
        # (m, alpha) -> (set size, network size, node count) -> [runs, reached per q]
        self._reached: dict[tuple[int, Fraction], dict[tuple[int, int, int], list[int]]] = {}
        self._points: dict[tuple[int, Fraction], tuple[array, array]] = {}

    def add(self, records: Iterable[RunRecord]) -> None:
        for rec in records:
            if self.network_size is None:
                self.network_size = rec.network_size
            self.count += 1
            key = (rec.m, rec.alpha, rec.set_size)
            q_float = float(rec.q_star)
            self._sums[key] = self._sums.get(key, 0) + rec.q_star
            self._floats.setdefault(key, array("d")).append(q_float)
            scenario = (rec.m, rec.alpha)
            cell = self._reached.setdefault(scenario, {}).setdefault(
                (rec.set_size, rec.network_size, rec.depth.node_count),
                [0] * (1 + len(self.q_grid)))
            cell[0] += 1
            for j, q in enumerate(self.q_grid, 1):
                cell[j] += _reached(rec.depth, q)
            xs, ys = self._points.setdefault(scenario, (array("d"), array("d")))
            xs.append(rec.set_size / rec.network_size)
            ys.append(q_float)

    def points(self, m: int, alpha: Fraction) -> list[tuple[float, float]]:
        """(size fraction, q*) of every (m, alpha) record, in arrival order."""
        xs, ys = self._points.get((m, alpha), ((), ()))
        return list(zip(xs, ys))

    def table(self) -> AggregateTable:
        """Arithmetic means of q* (exact) grouped by (m, alpha, set size),
        and mean depth at each q per (m, alpha, set size).

        Mean q* should grow weakly with set size; sampling jitter can break
        that in small grids, so violations only warn.
        """
        if not self.count:
            raise ParameterError("no records to aggregate")
        table = AggregateTable(network_size=self.network_size)
        for key in sorted(self._sums):
            floats = self._floats[key]
            table.thresholds[key] = ThresholdCell(
                mean=self._sums[key] / len(floats), count=len(floats),
                sd=float(np.std(np.frombuffer(floats))))
        for (m, alpha) in sorted({(k[0], k[1]) for k in self._sums}):
            means = [(size, table.thresholds[(m, alpha, size)].mean)
                     for size in sorted({k[2] for k in self._sums if k[:2] == (m, alpha)})]
            for (s0, v0), (s1, v1) in zip(means, means[1:]):
                if v1 < v0:
                    warnings.warn(
                        f"mean threshold dips from {float(v0):.4f} to {float(v1):.4f} "
                        f"between sizes {s0} and {s1} (m={m}, alpha={alpha}); "
                        f"sampling jitter", stacklevel=2)
                    break
        for j, q in enumerate(self.q_grid, 1):
            for (m, alpha), cells in sorted(self._reached.items()):
                sums: dict[tuple[Fraction, int], list[int]] = {}
                for (size, network_size, nodes), counts in cells.items():
                    cell = sums.setdefault((Fraction(size, network_size), nodes), [0, 0])
                    cell[0] += counts[j]
                    cell[1] += counts[0]
                for size_frac, mean in _mean_curve(sums).items():
                    size = int(size_frac * table.network_size)
                    table.depth_means[(m, alpha, q, size)] = mean
        return table


def average_thresholds(records: Sequence[RunRecord],
                       q_grid: Iterable = ()) -> AggregateTable:
    """The :meth:`Aggregator.table` of ``records``: exact mean q* per
    (m, alpha, set size) and mean depth per (m, alpha, q, set size)."""
    aggregator = Aggregator(q_grid)
    aggregator.add(records)
    return aggregator.table()


def depth_curve(records: Sequence[RunRecord], q) -> dict[Fraction, Fraction]:
    """Mean depth at q per starting-set fraction, over the given records.

    Records should share one (m, alpha) scenario; sizes are keyed as exact
    fractions of the network.
    """
    q = as_unit_rational(q, "q")
    if not records:
        raise ParameterError("no records")
    sums: dict[tuple[Fraction, int], list[int]] = {}
    for rec in records:
        cell = sums.setdefault((rec.size_fraction, rec.depth.node_count), [0, 0])
        cell[0] += _reached(rec.depth, q)
        cell[1] += 1
    return _mean_curve(sums)


def _mean_curve(sums: Mapping[tuple[Fraction, int], Sequence[int]]) -> dict[Fraction, Fraction]:
    """Mean depth per size fraction from (reached, runs) integer sums keyed
    by (size fraction, node count).  Each depth is reached/node_count, so
    the numerators are summed per network size and divided once."""
    curve: dict[Fraction, tuple[Fraction, int]] = {}
    for (frac, nodes), (reached, count) in sorted(sums.items()):
        total, seen = curve.get(frac, (Fraction(0), 0))
        curve[frac] = (total + Fraction(reached, nodes), seen + count)
    return {frac: total / count for frac, (total, count) in curve.items()}


def _isotonic(values: list[Fraction]) -> list[Fraction]:
    """Pool-adjacent-violators pass; exact, equal weights."""
    blocks: list[list] = []  # [sum, count]
    for v in values:
        cur = [v, 1]
        while blocks and blocks[-1][0] * cur[1] > cur[0] * blocks[-1][1]:
            prev = blocks.pop()
            cur = [prev[0] + cur[0], prev[1] + cur[1]]
        blocks.append(cur)
    out: list[Fraction] = []
    for total, count in blocks:
        out.extend([total / count] * count)
    return out


def regularized_curve(curve: Mapping[Fraction, Fraction]) -> dict[Fraction, Fraction]:
    """Monotone (isotonic) regularization of a mean-depth curve."""
    sizes = sorted(curve)
    fitted = _isotonic([curve[s] for s in sizes])
    return dict(zip(sizes, fitted))


def inverse_depth(curve: Mapping[Fraction, Fraction], target_depth) -> Fraction | None:
    """Smallest grid set-size fraction whose regularized mean depth reaches
    ``target_depth``; None when no grid size does."""
    target = as_rational(target_depth, "target_depth")
    if not 0 < target <= 1:
        raise ParameterError("target depth must be in (0, 1]")
    for size_frac, depth in sorted(regularized_curve(curve).items()):
        if depth >= target:
            return size_frac
    return None


def singularity_interval(curve: Mapping[Fraction, Fraction],
                         lo_frac=Fraction(1, 100),
                         hi_frac=Fraction(19, 20)) -> tuple[Fraction | None, Fraction | None]:
    """Tipping band of a depth curve: first size with mean virality at least
    ``lo_frac`` and first size with mean depth at least ``hi_frac``.

    The defaults (1% mean virality, 95% mean depth) mark where systematic
    spread beyond the seed first clears sampling noise and where outcomes
    are essentially all-in; both fractions are overridable.
    """
    lo = as_rational(lo_frac, "lo_frac")
    hi = as_rational(hi_frac, "hi_frac")
    if not 0 < lo < hi < 1:
        raise ParameterError("need 0 < lo_frac < hi_frac < 1")
    reg = regularized_curve(curve)
    size_lo = size_hi = None
    for size_frac in sorted(reg):
        if size_lo is None and reg[size_frac] - size_frac >= lo:
            size_lo = size_frac
        if size_hi is None and reg[size_frac] >= hi:
            size_hi = size_frac
    return size_lo, size_hi


# ---------------------------------------------------------------------------
# File emission

RUN_CSV_COLUMNS = ["m", "alpha", "network_id", "set_size", "replicate",
                   "q_star_num", "q_star_den", "q_star_decimal",
                   "subsets_checked"]


def run_csv_row(rec: RunRecord) -> list:
    """One ``runs.csv`` row, in :data:`RUN_CSV_COLUMNS` order."""
    return [rec.m, rational_str(rec.alpha), rec.network_id, rec.set_size,
            rec.replicate_id, rec.q_star.numerator, rec.q_star.denominator,
            decimal_render(rec.q_star), rec.subsets_checked]


def run_json_line(rec: RunRecord) -> str:
    """One ``runs.jsonl`` line, newline included."""
    return json.dumps({
        "m": rec.m,
        "alpha": rational_str(rec.alpha),
        "network_id": rec.network_id,
        "set_size": rec.set_size,
        "replicate": rec.replicate_id,
        "q_star": rational_json(rec.q_star),
        "subsets_checked": rec.subsets_checked,
        "network_size": rec.network_size,
        "depth": rec.depth.to_dict(),
    }, separators=(",", ":")) + "\n"


def write_records_csv(records: Sequence[RunRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_CSV_COLUMNS)
        writer.writerows(map(run_csv_row, records))


def write_records_jsonl(records: Sequence[RunRecord], path) -> None:
    with open(path, "w") as fh:
        fh.writelines(map(run_json_line, records))


def write_threshold_table_csv(table: AggregateTable, path) -> None:
    """Wide layout: one row per set-size proportion, one column per (m, alpha)."""
    keys = sorted(table.thresholds)
    scenarios = sorted({(m, a) for m, a, _ in keys})
    sizes = sorted({s for _, _, s in keys})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size_fraction"] + [f"m={m} alpha={rational_str(a)}"
                                             for m, a in scenarios])
        for size in sizes:
            row = [decimal_render(Fraction(size, table.network_size), 3)]
            for m, a in scenarios:
                cell = table.thresholds.get((m, a, size))
                row.append("" if cell is None else decimal_render(cell.mean))
            writer.writerow(row)


def write_threshold_stats_csv(table: AggregateTable, path) -> None:
    """Long layout with counts and standard deviations."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "alpha", "set_size", "size_fraction",
                         "mean_q_star", "count", "sd"])
        for (m, a, size) in sorted(table.thresholds):
            cell = table.thresholds[(m, a, size)]
            writer.writerow([m, rational_str(a), size,
                             decimal_render(Fraction(size, table.network_size), 3),
                             decimal_render(cell.mean), cell.count,
                             f"{cell.sd:.6f}"])


def _depth_curves(table: AggregateTable) -> dict[tuple[Fraction, int, Fraction],
                                                 dict[Fraction, Fraction]]:
    """The table's mean-depth curves keyed by (q, m, alpha), in the table's
    order (q as aggregated, then scenario), sizes as network fractions."""
    curves: dict[tuple[Fraction, int, Fraction], dict[Fraction, Fraction]] = {}
    for (m, alpha, q, size), mean in table.depth_means.items():
        curves.setdefault((q, m, alpha), {})[Fraction(size, table.network_size)] = mean
    return curves


def write_inverse_depth_table_csv(table: AggregateTable, path, targets=None) -> None:
    """Wide layout: rows (m, q, alpha), columns depth targets."""
    targets = [Fraction(t, 10) for t in range(1, 11)] if targets is None else \
        [as_rational(t, "target") for t in targets]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "q", "alpha"] +
                        [f"depth>={decimal_render(t, 2)}" for t in targets])
        for (q, m, alpha), curve in _depth_curves(table).items():
            row = [m, rational_str(q), rational_str(alpha)]
            for t in targets:
                frac = inverse_depth(curve, t)
                row.append("unreachable" if frac is None
                           else decimal_render(frac, 3))
            writer.writerow(row)


def write_depth_curves_csv(table: AggregateTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "alpha", "q", "set_size", "size_fraction",
                         "mean_depth"])
        for (q, m, alpha), curve in _depth_curves(table).items():
            for size_frac, mean in curve.items():
                writer.writerow([
                    m, rational_str(alpha), rational_str(q),
                    int(size_frac * table.network_size),
                    decimal_render(size_frac, 3), decimal_render(mean)])
