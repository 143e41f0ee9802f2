"""Test-side references for the Monte Carlo sweep, independent of its code.

A :class:`Run` holds one search's outcome as exact objects.  The reference
sweep draws every set with ``draw_set`` and runs ``full_contagion_threshold``
once per (m, network, size, replicate, alpha); the row and aggregation
references render and sum those runs with ``csv``/``json`` and ``Fraction``
arithmetic.  :func:`pack` and :func:`unpack` convert between runs and the
library's integer ``RunBatch`` columns.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

import numpy as np

from netcontagion import montecarlo
from netcontagion.contagion import DepthFunction, depth_at, full_contagion_threshold
from netcontagion.game import GameConfig, ParametricGlobalEffect
from netcontagion.graphs import generate_ba
from netcontagion.montecarlo import RunBatch, derive_seed, draw_set
from netcontagion.rational import decimal_render, rational_str


@dataclass(frozen=True)
class Run:
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


def reference_sweep(grid):
    """Every run of the grid from direct searches, in the global order:
    m, network, set size, replicate, alpha."""
    runs = []
    for m in sorted(grid.m_values):
        for network_id in range(grid.networks_per_m):
            net = generate_ba(grid.network_size, m,
                              derive_seed(grid.master_seed, "network", m, network_id))
            for size in sorted(grid.set_sizes):
                for replicate in range(grid.sets_per_size):
                    rng = np.random.Generator(np.random.PCG64(derive_seed(
                        grid.master_seed, "set", m, network_id, size, replicate)))
                    start = draw_set(rng, grid.network_size, size)
                    for alpha in sorted(grid.alpha_values):
                        cfg = GameConfig(network=net, infected=start,
                                         global_effect=ParametricGlobalEffect(alpha))
                        result = full_contagion_threshold(cfg, start)
                        runs.append(Run(
                            m=m, alpha=alpha, network_id=network_id, set_size=size,
                            replicate_id=replicate, q_star=result.q_star,
                            depth=DepthFunction.from_threshold(result),
                            subsets_checked=result.subsets_checked,
                            network_size=grid.network_size))
    return runs


def _ints(values):
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def pack(runs):
    """The ``RunBatch`` of runs that share m, network and network size: a
    run's stages are its breakpoints, with its interval sizes and then the
    full network at q*."""
    first = runs[0]
    alphas = tuple(sorted({run.alpha for run in runs}))
    stages, qs, sizes = [0], [], []
    for run in runs:
        assert run.q_star == run.depth.q_star and run.depth.node_count == run.network_size
        qs += run.depth.breakpoints
        sizes += [*run.depth.interval_sizes, run.network_size]
        stages.append(len(sizes))
    return RunBatch(
        m=first.m, network_id=first.network_id, network_size=first.network_size, alphas=alphas,
        alpha=np.array([alphas.index(run.alpha) for run in runs], dtype=np.int64),
        set_size=_ints([run.set_size for run in runs]),
        replicate=_ints([run.replicate_id for run in runs]),
        subsets_checked=_ints([run.subsets_checked for run in runs]),
        stages=np.array(stages, dtype=np.int64),
        q_num=_ints([q.numerator for q in qs]),
        q_den=_ints([q.denominator for q in qs]),
        size=_ints(sizes))


def pack_stream(runs):
    """One batch per stretch of runs that share m, network and network size."""
    return [pack(list(stretch)) for _, stretch in groupby(runs, key=lambda run: (
        run.m, run.network_id, run.network_size))]


def unpack(batch):
    """The batch's columns as runs: alpha, size, replicate, subsets checked
    and the stages, the last of them q* with the full network."""
    bounds = batch.stages.tolist()
    qs = [Fraction(a, b) for a, b in zip(batch.q_num.tolist(), batch.q_den.tolist())]
    sizes = batch.size.tolist()
    runs = []
    for i, (a, set_size, rep, checked) in enumerate(zip(
            batch.alpha.tolist(), batch.set_size.tolist(), batch.replicate.tolist(),
            batch.subsets_checked.tolist())):
        lo, last = bounds[i], bounds[i + 1] - 1
        assert sizes[last] == batch.network_size
        depth = DepthFunction(tuple(qs[lo:last + 1]), tuple(sizes[lo:last]), batch.network_size)
        runs.append(Run(m=batch.m, alpha=batch.alphas[a], network_id=batch.network_id,
                        set_size=set_size, replicate_id=rep, q_star=qs[last], depth=depth,
                        subsets_checked=checked, network_size=batch.network_size))
    return runs


def old_csv_row(run):
    """A runs.csv row as csv.writer rendered it from the run's fields."""
    return [run.m, rational_str(run.alpha), run.network_id, run.set_size,
            run.replicate_id, run.q_star.numerator, run.q_star.denominator,
            decimal_render(run.q_star), run.subsets_checked]


def old_json_line(run):
    """A runs.jsonl line as json.dumps rendered it from the run's fields."""
    return json.dumps({
        "m": run.m, "alpha": rational_str(run.alpha), "network_id": run.network_id,
        "set_size": run.set_size, "replicate": run.replicate_id,
        "q_star": {"num": run.q_star.numerator, "den": run.q_star.denominator,
                   "decimal": decimal_render(run.q_star)},
        "subsets_checked": run.subsets_checked, "network_size": run.network_size,
        "depth": run.depth.to_dict(),
    }, separators=(",", ":")) + "\n"


def reference_average_thresholds(runs, q_grid=()):
    """The whole-list aggregation of runs of one network size: group every
    run, then sum each group."""
    table = montecarlo.AggregateTable(network_size=runs[0].network_size)
    groups = {}
    for run in runs:
        groups.setdefault((run.m, run.alpha, run.set_size), []).append(run)
    for key in sorted(groups):
        vals = [run.q_star for run in groups[key]]
        table.thresholds[key] = montecarlo.ThresholdCell(
            mean=sum(vals, Fraction(0)) / len(vals), count=len(vals),
            sd=float(np.std([float(v) for v in vals])))
    scenarios = {}
    for run in runs:
        scenarios.setdefault((run.m, run.alpha), []).append(run)
    for q in q_grid:
        for (m, alpha), group in sorted(scenarios.items()):
            sums = {}
            for run in group:
                total, count = sums.get(run.set_size, (Fraction(0), 0))
                sums[run.set_size] = (total + depth_at(run.depth, q), count + 1)
            for size, (total, count) in sorted(sums.items()):
                table.depth_means[(m, alpha, q, size)] = total / count
    return table
