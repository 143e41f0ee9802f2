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
many whole sizes as keep each ``(rows, network_size)`` state array within
``_BATCH_BYTES``, at the itemsize of the task's widest engine tier (see
``_engines``), but never fewer than hold ``_BATCH_ROWS`` rows, below which
numpy's per-call overhead dominates.  The larger of the two bounds the
engine's memory whatever the grid: games whose tables are int32 at every
intensity, as all of the desk preset's are, batch twice the rows of int64
ones.  Draws, seeds and the run order do not depend on the grouping.  One
``GameConfig`` serves each (network, intensity) without an infected set.
No per-search config or start check is needed: every start is seeded
exogenously, so every member deviates at q = 1, and the engine sees the
seeding only through the union of start and infected set, which is the
start itself.

Every random draw flows from ``master_seed`` through a documented split:
``sha256("netcontagion:<master>:<field>:...")`` truncated to 64 bits, so
runs are bit-identical regardless of worker count or scheduling.

A network task returns one :class:`RunBatch`: integer columns per run
(intensity, set size, replicate, subsets checked) and per stage (q as a
reduced num/den pair, equilibrium size), the staged searches' integer
stage logs as they are, already in the global run order; a run's last
stage is q*, and the ones before it are its depth steps.  No per-stage
or per-run object is built: the rows of ``runs.csv`` and ``runs.jsonl``
are rendered from the batch's integers, and :class:`Aggregator` sums
them exactly, with integer cross-products for the reached counts and
one q* float per run.  A sweep streams: :func:`iter_batches` yields one
task's batch at a time, so neither the writers nor the aggregator hold
the whole run, and a worker process returns its batch as arrays.
:meth:`AggregateTable.depth_curves` gives the mean-depth curves that
:func:`inverse_depth` and :func:`singularity_interval` read.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import warnings
from array import array
from bisect import bisect_left
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._engines import _INT64_LIMIT, StartSnapshot
from .contagion import _staged_search
from .errors import ParameterError
from .game import GameConfig, InfluenceWeights, ParametricGlobalEffect
from .graphs import generate_ba
from .rational import (as_integer, as_rational, as_unit_rational, decimal_ratio, decimal_render,
                       rational_str)


# Bytes of one (rows, network size) engine state array that a batch of a
# network task may hold, 2^15 int64 elements, and the rows that it holds
# at least, whatever its bytes: below that, numpy's per-call overhead
# outweighs each call's work.  Batches hold whole set sizes.
_BATCH_BYTES = 2**18
_BATCH_ROWS = 64


def derive_seed(master_seed: int, *fields) -> int:
    """Stable 64-bit task seed from the master seed and a field tuple."""
    text = ":".join(["netcontagion", str(as_integer(master_seed, "master_seed"))]
                    + [str(f) for f in fields])
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def draw_players(rng: np.random.Generator, population: int, size: int) -> np.ndarray:
    """``size`` distinct players, uniform without replacement, as an int64
    array in the order a partial Fisher-Yates pass picks them."""
    population, size = as_integer(population, "population"), as_integer(size, "size")
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
        for name in ("network_size", "networks_per_m", "sets_per_size", "master_seed"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        object.__setattr__(self, "m_values", tuple(as_integer(m, "m") for m in self.m_values))
        object.__setattr__(self, "alpha_values",
                           tuple(as_unit_rational(a, "alpha") for a in self.alpha_values))
        object.__setattr__(self, "set_sizes",
                           tuple(as_integer(s, "set size") for s in self.set_sizes))
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


@dataclass(frozen=True, eq=False)
class RunBatch:
    """Runs that share m, network and network size, as integer columns.

    Run ``i`` searched a drawn set of ``set_size[i]`` players (replicate
    ``replicate[i]``) at intensity ``alphas[alpha[i]]`` and checked
    ``subsets_checked[i]`` subsets.  Its stages, as the staged search's
    ``StageLog`` holds them, are ``stages[i]:stages[i + 1]`` of ``q_num``,
    ``q_den`` (q as a reduced pair) and ``size`` (the equilibrium reached at
    that q): they fall from q = 1, the last is q* with the full network, and
    the ones before it are the run's depth steps.  Pairs are int64, or
    Python ints where one exceeds int64.  A network task's batch lists its
    runs by set size, then replicate, then intensity, with ``alphas``
    ascending.
    """

    m: int
    network_id: int
    network_size: int
    alphas: tuple[Fraction, ...]
    alpha: np.ndarray
    set_size: np.ndarray
    replicate: np.ndarray
    subsets_checked: np.ndarray
    stages: np.ndarray
    q_num: np.ndarray
    q_den: np.ndarray
    size: np.ndarray

    def __len__(self) -> int:
        return len(self.alpha)

    def take(self, order: np.ndarray) -> "RunBatch":
        """The runs at ``order``, each with its stages."""
        counts = np.diff(self.stages)[order]
        stages = np.concatenate([[0], np.cumsum(counts)])
        at = np.repeat(self.stages[:-1][order] - stages[:-1], counts) + np.arange(stages[-1])
        return replace(
            self, alpha=self.alpha[order], set_size=self.set_size[order],
            replicate=self.replicate[order], subsets_checked=self.subsets_checked[order],
            stages=stages, q_num=self.q_num[at], q_den=self.q_den[at], size=self.size[at])

    def lines(self) -> Iterator[tuple[str, str]]:
        """Each run's ``runs.csv`` row and ``runs.jsonl`` line, line ends
        included, rendered from the integer pairs."""
        m, net, ns = self.m, self.network_id, self.network_size
        alphas = [rational_str(alpha) for alpha in self.alphas]
        last = self.stages[1:] - 1  # q*
        at = np.delete(np.arange(len(self.size)), last)
        steps = [f'{{"q_num":{a},"q_den":{b},"size":{size}}}' for a, b, size in zip(
            self.q_num[at].tolist(), self.q_den[at].tolist(), self.size[at].tolist())]
        # Run i's depth steps, its stages but q*, are steps[bounds[i]:bounds[i + 1]].
        bounds = (self.stages - np.arange(len(self.stages))).tolist()
        for i, (a, size, rep, checked, qn, qd) in enumerate(zip(*(column.tolist() for column in (
                self.alpha, self.set_size, self.replicate, self.subsets_checked,
                self.q_num[last], self.q_den[last])))):
            alpha, decimal = alphas[a], decimal_ratio(qn, qd)
            depth = ",".join(steps[bounds[i]:bounds[i + 1]])
            yield (f"{m},{alpha},{net},{size},{rep},{qn},{qd},{decimal},{checked}\r\n",
                   f'{{"m":{m},"alpha":"{alpha}","network_id":{net},"set_size":{size},'
                   f'"replicate":{rep},"q_star":{{"num":{qn},"den":{qd},"decimal":"{decimal}"}},'
                   f'"subsets_checked":{checked},"network_size":{ns},"depth":{{"q_star":'
                   f'{{"num":{qn},"den":{qd}}},"steps":[{depth}],"node_count":{ns}}}}}\n')

    def reached(self, q_grid: Sequence[Fraction]) -> np.ndarray:
        """Players each run reaches at each q of ``q_grid``, as ``(runs, len(q_grid))``."""
        out = np.empty((len(self), len(q_grid)), dtype=np.int64)
        qn, qd = self.q_num, self.q_den
        top = int(qd.max(initial=1))  # pairs are at most 1
        for j, q in enumerate(q_grid):
            a, b = q.numerator, q.denominator
            if max(a, b) * top >= _INT64_LIMIT:
                qn, qd = qn.astype(object), qd.astype(object)
            # A run reaches the size at its smallest stage q >= q: the full
            # network at q* for every q <= q*.  The stage qs fall from 1, so
            # those >= q are the first ``count`` of the run's.
            seen = np.concatenate([[0], np.cumsum(qn * b >= a * qd)])
            count = seen[self.stages[1:]] - seen[self.stages[:-1]]
            out[:, j] = self.size[self.stages[:-1] + count - 1]
        return out


def _task_games(grid: ExperimentGrid, m: int, network_id: int) -> list[GameConfig]:
    """A network task's games: one per intensity, ascending, on its network
    with unit weights."""
    net = generate_ba(grid.network_size, m,
                      derive_seed(grid.master_seed, "network", m, network_id))
    weights = InfluenceWeights.unit(net)
    return [GameConfig(network=net, weights=weights, global_effect=ParametricGlobalEffect(alpha))
            for alpha in sorted(grid.alpha_values)]


def _size_groups(grid: ExperimentGrid, games: Sequence[GameConfig]) -> list[tuple[int, ...]]:
    """Consecutive set sizes, each group as many whole sizes as keep its
    ``(rows, network_size)`` state arrays within ``_BATCH_BYTES`` in the
    widest of the games' engine tiers, or as few as hold ``_BATCH_ROWS``
    rows, whichever is more."""
    itemsize = max(cfg.engine_tables.M.itemsize for cfg in games)
    per_size = grid.sets_per_size * grid.network_size * itemsize
    width = max(_BATCH_BYTES // per_size, -(-_BATCH_ROWS // grid.sets_per_size))
    return [grid.set_sizes[i:i + width] for i in range(0, len(grid.set_sizes), width)]


def _run_network_task(grid: ExperimentGrid, m: int, network_id: int) -> RunBatch:
    configs = _task_games(grid, m, network_id)
    alphas = tuple(cfg.global_effect.alpha for cfg in configs)
    reps = grid.sets_per_size
    parts = []  # the columns of each staged search
    for sizes in _size_groups(grid, configs):
        starts = []
        for set_size in sizes:
            for replicate in range(reps):
                seed = derive_seed(grid.master_seed, "set", m, network_id,
                                   set_size, replicate)
                rng = np.random.Generator(np.random.PCG64(seed))
                # An array holds a drawn set in 4-9x less memory than a frozenset.
                starts.append(draw_players(rng, grid.network_size, set_size))
        # The alphas share the network, the weights and the sets: one start.
        snapshot = StartSnapshot()
        for a, cfg in enumerate(configs):
            log = _staged_search(cfg, starts, snapshot)
            parts.append((np.full(len(starts), a), np.repeat(sizes, reps),
                          np.tile(np.arange(reps), len(sizes)), log.subsets_checked,
                          np.diff(log.start), log.q_num, log.q_den, log.size))
    (alpha, set_size, replicate, checked, counts, q_num, q_den, size) = (
        np.concatenate(col) for col in zip(*parts))
    batch = RunBatch(
        m=m, network_id=network_id, network_size=grid.network_size, alphas=alphas,
        alpha=alpha, set_size=set_size, replicate=replicate, subsets_checked=checked,
        stages=np.concatenate([[0], np.cumsum(counts)]), q_num=q_num, q_den=q_den, size=size)
    return batch.take(np.lexsort((batch.alpha, batch.replicate, batch.set_size)))


def iter_batches(grid: ExperimentGrid, workers: int = 1) -> Iterator[RunBatch]:
    """Execute the grid one network task at a time.

    Yields each task's :class:`RunBatch`, its runs ordered by set size,
    replicate and intensity, tasks in ascending ``(m, network_id)`` order,
    so the concatenation is the globally sorted run list for any worker
    count.  ``workers`` is checked before anything runs, then capped at
    the task count and the CPU count: a pool never starts a process that
    could have no task or no core.  With more than one worker left, at most
    ``2 * workers`` tasks are in flight, and results are yielded in
    submission order.
    """
    if workers < 1:
        raise ParameterError(f"workers must be at least 1; got {workers}")
    tasks = [(m, net_id) for m in sorted(grid.m_values)
             for net_id in range(grid.networks_per_m)]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    return (_run_network_task(grid, m, net_id) for m, net_id in tasks) \
        if workers == 1 else _pooled_tasks(grid, tasks, workers)


def _pooled_tasks(grid: ExperimentGrid, tasks: list[tuple[int, int]],
                  workers: int) -> Iterator[RunBatch]:
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

    def depth_curves(self) -> dict[tuple[Fraction, int, Fraction], dict[Fraction, Fraction]]:
        """Mean-depth curves keyed by (q, m, alpha), in the table's order (q
        as aggregated, then scenario), sizes as network fractions: what the
        depth writers, :func:`inverse_depth` and :func:`singularity_interval`
        read."""
        curves: dict[tuple[Fraction, int, Fraction], dict[Fraction, Fraction]] = {}
        for (m, alpha, q, size), mean in self.depth_means.items():
            curves.setdefault((q, m, alpha), {})[Fraction(size, self.network_size)] = mean
        return curves


class Aggregator:
    """Exact running summaries of a run stream of one network size, without the runs.

    It takes :class:`RunBatch`es of the first batch's network size and
    refuses any other.  Per (m, alpha, set size) it keeps the exact sum of
    q* and integer reached counts at each q of ``q_grid`` (the numerators
    of the runs' depths).  Per (m, alpha) it keeps each run's set size and
    q* float in arrival order: they count each cell's runs, give the same
    ``np.std`` a list of the cell's q* floats would, and are the plot
    points.  :meth:`table` is the table of every run added so far.
    """

    def __init__(self, q_grid: Iterable = ()):
        self.q_grid = tuple(as_unit_rational(q, "q") for q in q_grid)
        self.count = 0
        self.network_size: int | None = None
        # (m, alpha, set size) -> [q* sum, reached per q]
        self._cells: dict[tuple[int, Fraction, int], list] = {}
        # (m, alpha) -> (set sizes, q* floats)
        self._runs: dict[tuple[int, Fraction], tuple[array, array]] = {}

    def add(self, batch: RunBatch) -> None:
        """Fold in a batch; one of another network size than the first
        batch's raises :class:`ParameterError` and changes nothing."""
        if self.network_size is None:
            self.network_size = batch.network_size
        elif batch.network_size != self.network_size:
            raise ParameterError(
                f"an Aggregator summarizes runs of one network size: got a batch of "
                f"{batch.network_size}-node networks after {self.network_size}-node ones")
        self.count += len(batch)
        last = batch.stages[1:] - 1  # q*
        q_num, q_den = batch.q_num[last], batch.q_den[last]
        # Python's int division, as float(Fraction) is: correctly rounded at any size.
        q_floats = np.array([a / b for a, b in zip(q_num.tolist(), q_den.tolist())])
        reached = batch.reached(self.q_grid)
        for runs in _groups(batch.alpha, batch.set_size):
            first = runs[0]
            key = (batch.m, batch.alphas[batch.alpha[first]], int(batch.set_size[first]))
            sums = self._cells.setdefault(key, [0] * (1 + len(self.q_grid)))
            for j, total in enumerate([_sum(q_num[runs], q_den[runs]),
                                       *reached[runs].sum(axis=0).tolist()]):
                sums[j] += total
        for runs in _groups(batch.alpha):
            sizes, floats = self._runs.setdefault((batch.m, batch.alphas[batch.alpha[runs[0]]]),
                                                  (array("q"), array("d")))
            sizes.extend(batch.set_size[runs].tolist())
            floats.extend(q_floats[runs].tolist())

    def points(self, m: int, alpha: Fraction) -> list[tuple[float, float]]:
        """(size fraction, q*) of every (m, alpha) run, in arrival order."""
        sizes, floats = self._runs.get((m, alpha), ((), ()))
        return [(size / self.network_size, y) for size, y in zip(sizes, floats)]

    def table(self) -> AggregateTable:
        """Arithmetic means of q* (exact) grouped by (m, alpha, set size),
        and mean depth at each q per (m, alpha, set size).

        Mean q* should grow weakly with set size; sampling jitter can break
        that in small grids, so violations only warn.
        """
        if not self.count:
            raise ParameterError("no runs to aggregate")
        table = AggregateTable(network_size=self.network_size)
        # One scenario's floats at a time, each cell's in arrival order.
        for (m, alpha), (sizes, floats) in sorted(self._runs.items()):
            sizes, floats = np.frombuffer(sizes, dtype=np.int64), np.frombuffer(floats)
            for runs in _groups(sizes):
                key = (m, alpha, int(sizes[runs[0]]))
                table.thresholds[key] = ThresholdCell(
                    mean=self._cells[key][0] / len(runs), count=len(runs),
                    sd=float(np.std(floats[runs])))
        for (m, alpha), group in groupby(table.thresholds.items(), key=lambda item: item[0][:2]):
            means = [(size, stats.mean) for (_, _, size), stats in group]
            for (s0, v0), (s1, v1) in zip(means, means[1:]):
                if v1 < v0:
                    warnings.warn(
                        f"mean threshold dips from {rational_str(v0)} to {rational_str(v1)} "
                        f"between sizes {s0} and {s1} (m={m}, alpha={alpha}); "
                        f"sampling jitter", stacklevel=2)
                    break
        for j, q in enumerate(self.q_grid, 1):
            for (m, alpha, size), cell in table.thresholds.items():
                # A run's depth is reached / network size, so a cell's integer
                # reached count, divided once, is the sum of its runs' depths.
                table.depth_means[(m, alpha, q, size)] = Fraction(
                    self._cells[(m, alpha, size)][j], cell.count * self.network_size)
        return table


def _groups(*columns: np.ndarray) -> list[np.ndarray]:
    """The runs of each combination of column values, in run order."""
    order = np.lexsort(columns[::-1])
    starts = np.zeros(len(order), dtype=bool)  # whether a run starts a group
    for column in columns:
        keys = column[order]
        starts[1:] |= keys[1:] != keys[:-1]
    return np.split(order, np.flatnonzero(starts))


def _sum(nums: np.ndarray, dens: np.ndarray) -> Fraction:
    """The exact sum of the fractions ``nums / dens``."""
    dens = dens.tolist()
    common = math.lcm(*dens)
    return Fraction(sum(num * (common // den) for num, den in zip(nums.tolist(), dens)),
                    common)


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
    return _reaching(curve, [_depth_target(target_depth, "target_depth")])[0]


def _depth_target(value, name: str) -> Fraction:
    target = as_rational(value, name)
    if not 0 < target <= 1:
        raise ParameterError("target depth must be in (0, 1]")
    return target


def _reaching(curve: Mapping[Fraction, Fraction],
              targets: Sequence[Fraction]) -> list[Fraction | None]:
    """:func:`inverse_depth` of each target, from one regularization of the
    curve.  Regularized depths never fall, so a bisection finds each size."""
    regularized = regularized_curve(curve)
    sizes, depths = list(regularized), list(regularized.values())
    return [sizes[at] if at < len(sizes) else None
            for at in (bisect_left(depths, target) for target in targets)]


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


def write_inverse_depth_table_csv(table: AggregateTable, path, targets=None) -> None:
    """Wide layout: rows (m, q, alpha), columns depth targets."""
    targets = [Fraction(t, 10) for t in range(1, 11)] if targets is None else \
        [_depth_target(t, "target") for t in targets]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "q", "alpha"] +
                        [f"depth>={decimal_render(t, 2)}" for t in targets])
        for (q, m, alpha), curve in table.depth_curves().items():
            writer.writerow([m, rational_str(q), rational_str(alpha)] + [
                "unreachable" if frac is None else decimal_render(frac, 3)
                for frac in _reaching(curve, targets)])


def write_depth_curves_csv(table: AggregateTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "alpha", "q", "set_size", "size_fraction",
                         "mean_depth"])
        for (q, m, alpha), curve in table.depth_curves().items():
            for size_frac, mean in curve.items():
                writer.writerow([
                    m, rational_str(alpha), rational_str(q),
                    int(size_frac * table.network_size),
                    decimal_render(size_frac, 3), decimal_render(mean)])
