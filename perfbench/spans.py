"""In-memory span tracer that wraps netcontagion's public functions from outside.

Each wrapper is installed on the name its caller looks up at run time (a
module attribute such as ``netcontagion.cli.load_edge_list``, or a method on
a class).  A name that no longer exists is skipped, so a layer that a later
version of the package removes reports zero calls instead of failing.

Spans are stored in flat arrays (name id, start, end, parent) and reduced to
per-layer totals only when the run ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  A class-qualified attribute ("Cls.meth")
# patches the method on the class.
FUNCTION_SPANS = [
    ("graphs", "generate_ba", "graphs.generate_ba"),
    ("montecarlo", "generate_ba", "graphs.generate_ba"),
    ("cli", "generate_ba", "graphs.generate_ba"),
    ("graphs", "load_edge_list", "graphs.load_edge_list"),
    ("cli", "load_edge_list", "graphs.load_edge_list"),
    ("graphs", "Network.__post_init__", "graphs.network_validate"),
    ("graphs", "is_connected", "graphs.is_connected"),
    ("game", "is_connected", "graphs.is_connected"),
    ("game", "GameConfig.player_set", "game.player_set"),
    ("game", "GameConfig", "game.GameConfig"),
    ("montecarlo", "GameConfig", "game.GameConfig"),
    ("cli", "GameConfig", "game.GameConfig"),
    ("game", "InfluenceWeights.__init__", "game.InfluenceWeights"),
    ("game", "InfluenceWeights.unit", "game.InfluenceWeights"),
    ("game", "InfluenceWeights.from_pairs", "game.InfluenceWeights"),
    ("game", "has_incentive", "game.has_incentive"),
    ("contagion", "has_incentive", "game.has_incentive"),
    ("montecarlo", "draw_set", "montecarlo.draw_set"),
    ("montecarlo", "run_grid", "montecarlo.run_grid"),
    ("cli", "run_grid", "montecarlo.run_grid"),
    ("montecarlo", "average_thresholds", "montecarlo.aggregate"),
    ("montecarlo", "write_records_csv", "montecarlo.emit"),
    ("montecarlo", "write_records_jsonl", "montecarlo.emit"),
    ("montecarlo", "write_threshold_table_csv", "montecarlo.emit"),
    ("montecarlo", "write_threshold_stats_csv", "montecarlo.emit"),
    ("montecarlo", "write_inverse_depth_table_csv", "montecarlo.emit"),
    ("montecarlo", "write_depth_curves_csv", "montecarlo.emit"),
    ("svgplot", "render_scatter", "montecarlo.emit"),
    ("contagion", "full_contagion_threshold", "contagion.threshold"),
    ("montecarlo", "full_contagion_threshold", "contagion.threshold"),
    ("cli", "full_contagion_threshold", "contagion.threshold"),
    ("contagion", "cascade", "contagion.cascade"),
    ("contagion", "depth_function", "contagion.depth_function"),
    ("cli", "depth_function", "contagion.depth_function"),
    ("contagion", "is_nash", "contagion.is_nash"),
]

ENGINE_PHASES = ("start", "flip_candidates", "apply", "max_threshold")
ENGINE_KINDS = ("fast", "exact")

# Layers whose self time differs from their inclusive time.
SELF_TIMED = ("contagion.threshold", "contagion.cascade", "contagion.is_nash",
              "game.has_incentive", "montecarlo.run_grid",
              "cli.threshold", "cli.depth", "cli.montecarlo")

SPAN_NAMES = sorted(
    {name for _, _, name in FUNCTION_SPANS}
    | {f"engine.{phase}.{kind}" for phase in ENGINE_PHASES for kind in ENGINE_KINDS}
    | {"cli.threshold", "cli.depth", "cli.montecarlo"}
    | {"op.weighted_threshold", "op.unit_threshold"})

COUNTERS = ("work.searches", "work.stages", "work.subsets_checked",
            "engine.scanned", "engine.flips", "engine.bigint_fallback.calls")


class Tracer:
    """Records nested spans while installed; ``uninstall`` restores every name."""

    def __init__(self, modules):
        self.modules = modules  # namespace of netcontagion submodules
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name_id = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self.outermost = array("b")
        self._stack = [-1]
        self._active: Counter = Counter()
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.start_ns)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.outermost.append(self._active[nid] == 0)
        self._active[nid] += 1
        self.end_ns.append(0)
        self._stack.append(idx)
        self.start_ns.append(time.perf_counter_ns())
        return idx

    def _exit(self, idx: int, nid: int) -> None:
        self.end_ns[idx] = time.perf_counter_ns()
        self._active[nid] -= 1
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        nid = self._id(name)
        idx = self._enter(nid)
        try:
            yield
        finally:
            self._exit(idx, nid)

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self._id(name)
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx, nid)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, before=None, after=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, raw))
        traced = self.wrap(name, getattr(owner, attr), before, after)
        if isinstance(raw, (classmethod, staticmethod)):
            # The wrapped attribute is already bound to the class.
            traced = staticmethod(traced)
        setattr(owner, attr, traced)

    def install(self) -> None:
        # Resolve every owner before patching, so a class replaced by its
        # wrapper in one module is still found by later entries.
        targets = []
        for mod_name, attr, name in FUNCTION_SPANS:
            owner = getattr(self.modules, mod_name, None)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            if (leaf in owner.__dict__ if isinstance(owner, type)
                    else hasattr(owner, leaf)):
                targets.append((owner, leaf, name))
        for owner, leaf, name in targets:
            after = self._count_search if name == "contagion.threshold" else None
            self._patch(owner, leaf, name, after=after)
        engines = getattr(self.modules, "_engines", None)
        for cls in vars(engines).values() if engines else ():
            if not (isinstance(cls, type) and cls.__module__ == engines.__name__):
                continue
            kind = cls.__name__.lower().removesuffix("engine")
            for phase in ENGINE_PHASES:
                if phase in cls.__dict__:
                    before = self._count_scanned if phase == "flip_candidates" else None
                    after = self._count_flips if phase == "flip_candidates" else None
                    self._patch(cls, phase, f"engine.{phase}.{kind}", before, after)
            if "_flip_candidates_bigint" in cls.__dict__:
                self._patch(cls, "_flip_candidates_bigint", "engine.bigint_fallback")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _count_search(self, result) -> None:
        self.counts["work.searches"] += 1
        self.counts["work.stages"] += len(result.stages)
        self.counts["work.subsets_checked"] += result.subsets_checked

    def _count_scanned(self, args) -> None:
        self.counts["engine.scanned"] += args[0].uninfected_count()

    def _count_flips(self, flips) -> None:
        self.counts["engine.flips"] += len(flips)

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive seconds and calls per span name, plus self seconds."""
        n = len(self.start_ns)
        ids = np.array(self.name_id, dtype=np.int64)
        dur = np.array(self.end_ns, dtype=np.int64) - np.array(self.start_ns, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        outer = np.array(self.outermost, dtype=bool)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child_ns
        k = len(self.names)
        incl = np.bincount(ids[outer], weights=dur[outer], minlength=k)
        calls = np.bincount(ids[outer], minlength=k)
        selfs = np.bincount(ids, weights=self_ns, minlength=k)
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            nid = self._ids.get(name)
            out[f"{name}.s"] = float(incl[nid]) / 1e9 if nid is not None else 0.0
            out[f"{name}.calls"] = int(calls[nid]) if nid is not None else 0
            if name in SELF_TIMED:
                out[f"{name}.self_s"] = float(selfs[nid]) / 1e9 if nid is not None else 0.0
        nid = self._ids.get("engine.bigint_fallback")
        self.counts["engine.bigint_fallback.calls"] = int(calls[nid]) if nid is not None else 0
        for key in COUNTERS:
            out[key] = int(self.counts[key])
        out["trace.spans"] = n
        return out
