"""Randomized cross-checks of the contagion algorithms against the oracle.

Each trial draws a small random instance (graph, weights, global-effect
intensity, exogenous set, starting set, resilience) and runs the full
battery of properties the algorithms are supposed to satisfy: agreement
with brute-force equilibrium search, wavewise monotonicity, bootstrapping,
global-effect containment, exact threshold agreement, the linear bound on
subsets checked, and depth/cascade consistency.  Failures carry a
serialized counterexample so they can be replayed.

The battery calls the shipped library, through :mod:`contagion`'s
module attributes; a test checks the battery itself by patching a broken
``cascade`` or ``full_contagion_threshold`` into that module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from . import contagion, oracle
from .contagion import CascadeResult, DepthFunction, depth_at
from .errors import ParameterError, PreconditionError
from .game import (
    GameConfig,
    InfluenceWeights,
    ParametricGlobalEffect,
    has_incentive,
)
from .graphs import Network, generate_ba
from .rational import as_integer, rational_str

ALPHA_CHOICES = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
C_CHOICES = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))
WEIGHT_PALETTE = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))


@dataclass
class PropertyReport:
    name: str
    checks: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class _Battery:
    reports: dict[str, PropertyReport] = field(default_factory=dict)

    def check(self, name: str, ok: bool, instance: dict, detail: str = ""):
        report = self.reports.setdefault(name, PropertyReport(name))
        report.checks += 1
        if not ok:
            report.failures.append({"detail": detail, "instance": instance})


def _pick(rng: np.random.Generator, seq):
    return seq[int(rng.integers(0, len(seq)))]


def _random_fraction(rng: np.random.Generator, max_den: int = 12) -> Fraction:
    den = int(rng.integers(1, max_den + 1))
    return Fraction(int(rng.integers(0, den + 1)), den)


def _random_network(rng: np.random.Generator, max_i: int) -> Network:
    n = int(rng.integers(4, max_i + 1))
    kind = _pick(rng, ("ba", "cycle", "path", "star"))
    if kind == "ba":
        m = int(rng.integers(1, min(4, n)))
        return generate_ba(n, m, int(rng.integers(0, 2**31)))
    if kind == "cycle":
        return Network.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "path":
        return Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    return Network.from_edges(n, [(0, i) for i in range(1, n)])


def _random_weights(rng: np.random.Generator, net: Network,
                    alpha: Fraction) -> InfluenceWeights:
    mode = _pick(rng, ("unit", "unit", "general", "general"))
    if mode == "unit":
        return InfluenceWeights.unit(net)
    # Values >= 1 keep the parametric bound alpha*d_i <= w_i automatic; a few
    # zeroed directions (unidirectional influence) are thrown in when there
    # is no global effect to bound.
    rows = []
    for i in range(net.node_count):
        row = {j: _pick(rng, WEIGHT_PALETTE) for j in net.adjacency[i]}
        if alpha == 0 and len(row) > 1 and rng.integers(0, 3) == 0:
            row[net.adjacency[i][int(rng.integers(0, len(row)))]] = Fraction(0)
        rows.append(row)
    return InfluenceWeights(net, rows)


def _self_sustaining(cfg: GameConfig, base: set[int], q: Fraction) -> frozenset[int]:
    """Drop members without the incentive until the start set is valid at q."""
    members = set(base)
    while True:
        current = frozenset(members)
        bad = [i for i in members
               if i not in cfg.infected and not has_incentive(cfg, i, current, q)]
        if not bad:
            return current
        members.difference_update(bad)


def random_instance(rng: np.random.Generator, max_i: int = 12) -> dict:
    """One random game plus a valid (start, q) pair and serialized form."""
    net = _random_network(rng, max_i)
    n = net.node_count
    alpha = _pick(rng, ALPHA_CHOICES)
    weights = _random_weights(rng, net, alpha)
    c = _pick(rng, C_CHOICES)
    infected = frozenset(int(i) for i in range(n) if rng.random() < 0.15)
    cfg = GameConfig(network=net, weights=weights, c=c,
                     global_effect=ParametricGlobalEffect(alpha),
                     infected=infected)
    q = _random_fraction(rng)
    base = set(infected) | {int(i) for i in range(n) if rng.random() < 0.3}
    if rng.integers(0, 4) == 0 and infected:
        # Exercise exogenous players outside the starting set.
        base.discard(int(_pick(rng, sorted(infected))))
    start = _self_sustaining(cfg, base, q)
    serialized = {
        "edges": sorted(net.edges()),
        "weights": "unit" if weights.is_unit else
        {f"{i},{j}": rational_str(weights.weight(i, j))
         for i in range(n) for j in net.adjacency[i]},
        "c": rational_str(c),
        "alpha": rational_str(alpha),
        "infected": sorted(infected),
        "start": sorted(start),
        "q": rational_str(q),
    }
    return {"cfg": cfg, "start": start, "q": q, "alpha": alpha,
            "serialized": serialized}


def _waves_nest(inner: CascadeResult, outer: CascadeResult) -> bool:
    """Whether, after every wave, ``inner``'s reached set lies inside
    ``outer``'s; a cascade that has stopped keeps its final set."""
    reached_in, reached_out = set(inner.initial), set(outer.initial)
    for wave_in, wave_out in zip_longest(inner.waves, outer.waves, fillvalue=()):
        if not reached_in <= reached_out:
            return False
        reached_in.update(wave_in)
        reached_out.update(wave_out)
    return reached_in <= reached_out


def _run_battery(bat: _Battery, rng: np.random.Generator, inst: dict):
    cfg: GameConfig = inst["cfg"]
    start: frozenset = inst["start"]
    q: Fraction = inst["q"]
    ser = inst["serialized"]
    n = cfg.network.node_count
    full = frozenset(range(n))

    result = contagion.cascade(cfg, start, q)
    smallest = oracle.smallest_nash_containing(cfg, start, q)
    bat.check("smallest-equilibrium", result.final == smallest, ser,
              f"cascade gave {sorted(result.final)}, oracle {sorted(smallest)}")

    equilibria = oracle.enumerate_nash(cfg, q)
    ok = True
    detail = ""
    for E in equilibria:
        fixed = contagion.cascade(cfg, E, q)
        if fixed.final != E or fixed.steps != 0:
            ok, detail = False, f"equilibrium {sorted(E)} is not a fixed point"
            break
    eq_set = set(equilibria)
    for _ in range(10):
        probe = frozenset(int(i) for i in range(n) if rng.random() < 0.5)
        if probe in eq_set:
            continue
        try:
            fixed = contagion.cascade(cfg, probe, q)
        except PreconditionError:
            continue  # not a valid start, hence not an equilibrium
        if fixed.final == probe:
            ok, detail = False, f"non-equilibrium {sorted(probe)} is a fixed point"
            break
    bat.check("equilibrium-fixed-points", ok, ser, detail)

    # Monotonicity in the starting set, wave by wave: enlarge by the first
    # flip wave (always a valid enlargement) plus any exogenous players.
    bigger = start | (result.waves[0] if result.waves else frozenset()) | cfg.infected
    if bigger != start:
        bat.check("wave-monotone-start",
                  _waves_nest(result, contagion.cascade(cfg, bigger, q)), ser,
                  f"enlarged start {sorted(bigger)} shrank some wave")

    q_low = q * _random_fraction(rng)
    res_low = contagion.cascade(cfg, start, q_low)
    bat.check("wave-monotone-q", _waves_nest(result, res_low), ser,
              f"lowering q to {q_low} shrank some wave")

    boot = contagion.cascade(cfg, result.final, q_low)
    bat.check("bootstrap", boot.final == res_low.final, ser,
              f"restart from {sorted(result.final)} at q'={q_low} gave "
              f"{sorted(boot.final)}, direct run gave {sorted(res_low.final)}")

    alpha = inst["alpha"]
    if alpha > 0:
        alpha_low = alpha * _random_fraction(rng)
        cfg_low = replace(cfg, global_effect=ParametricGlobalEffect(alpha_low))
        start_low = _self_sustaining(cfg_low, set(start), q)
        bat.check("global-effect-monotone",
                  _waves_nest(contagion.cascade(cfg_low, start_low, q),
                              contagion.cascade(cfg, start_low, q)), ser,
                  f"raising alpha from {alpha_low} to {alpha} shrank some wave")

    # Threshold properties run with the start seeded exogenously, the way
    # arbitrary draws satisfy the q=1 precondition.
    seed_set = start | cfg.infected
    if not seed_set:
        seed_set = frozenset({int(rng.integers(0, n))})
    cfg_thr = replace(cfg, infected=seed_set)
    thr = contagion.full_contagion_threshold(cfg_thr, seed_set)
    brute = oracle.brute_threshold(cfg_thr, seed_set)
    bat.check("threshold-agreement", thr.q_star == brute, ser,
              f"algorithm q*={thr.q_star}, brute-force {brute}")

    bat.check("linear-bound", thr.subsets_checked <= n - len(seed_set), ser,
              f"{thr.subsets_checked} subsets checked for a complement of "
              f"{n - len(seed_set)}")

    ok = True
    detail = ""
    for _ in range(6):
        probe_q = _random_fraction(rng)
        reached = contagion.cascade(cfg_thr, seed_set, probe_q).final == full
        if reached != (probe_q <= thr.q_star):
            ok = False
            detail = f"full contagion at q={probe_q} is {reached} but q*={thr.q_star}"
            break
    bat.check("threshold-characterization", ok, ser, detail)

    ok = True
    detail = ""
    for k, stage in enumerate(thr.stages):
        members = thr.members(k)
        direct = contagion.cascade(cfg_thr, seed_set, stage.q)
        if not contagion.is_nash(cfg_thr, members, stage.q) or direct.final != members:
            ok = False
            detail = f"stage at q={stage.q} is inconsistent"
            break
    bat.check("stage-equilibria", ok, ser, detail)

    df = DepthFunction.from_threshold(thr)
    ok = True
    detail = ""
    for _ in range(6):
        probe_q = _random_fraction(rng)
        via_df = depth_at(df, probe_q)
        via_cascade = Fraction(len(contagion.cascade(cfg_thr, seed_set, probe_q).final), n)
        if via_df != via_cascade:
            ok = False
            detail = f"depth at q={probe_q}: step function {via_df}, cascade {via_cascade}"
            break
    bat.check("depth-cascade-agreement", ok, ser, detail)


def _read_counts(trials: int, max_i: int, seed: int) -> tuple[int, int, int]:
    trials, max_i, seed = (as_integer(trials, "trials"), as_integer(max_i, "max_i"),
                           as_integer(seed, "seed"))
    # Random networks have 4 to max_i nodes.
    if max_i < 4:
        raise ParameterError(f"max_i must be at least 4; got {max_i}")
    if trials < 0:
        raise ParameterError(f"trials must be nonnegative; got {trials}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative; got {seed}")
    return trials, max_i, seed


def run_checks(trials: int = 50, max_i: int = 12, seed: int = 0) -> list[PropertyReport]:
    """Run the property battery on ``trials`` random instances."""
    trials, max_i, seed = _read_counts(trials, max_i, seed)
    bat = _Battery()
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(trials):
        inst = random_instance(rng, max_i)
        _run_battery(bat, rng, inst)
    return list(bat.reports.values())


def run_cohesion_checks(trials: int = 30, max_i: int = 12,
                        seed: int = 0) -> list[PropertyReport]:
    """Local-effects-only unit-weight equivalences against cohesion.

    Checks, per instance: a nonempty proper subset is an equilibrium at q
    if and only if it is q-cohesive and its complement is strictly more
    than (1-q)-cohesive (strict because indifferent outsiders deviate; a
    complement sitting exactly at (1-q) does not hold); and the complement
    of an exogenously seeded start is uniformly at most (1-q)-cohesive if
    and only if q <= q*.  Subsets are swept exhaustively up to 9 nodes and
    sampled above that.
    """
    trials, max_i, seed = _read_counts(trials, max_i, seed)
    bat = _Battery()
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(trials):
        net = _random_network(rng, max_i)
        n = net.node_count
        cfg = GameConfig(network=net)
        q = _random_fraction(rng)
        ser = {"edges": sorted(net.edges()), "q": rational_str(q)}

        if n <= 9:
            masks = range(1, (1 << n) - 1)
        else:
            masks = {int(rng.integers(1, (1 << n) - 1)) for _ in range(300)}
        ok = True
        detail = ""
        for mask in masks:
            E = frozenset(i for i in range(n) if mask >> i & 1)
            comp = frozenset(range(n)) - E
            nash = contagion.is_nash(cfg, E, q)
            cohesive = (contagion.cohesiveness(net, E) >= q
                        and contagion.cohesiveness(net, comp) > 1 - q)
            if nash != cohesive:
                ok = False
                detail = (f"E={sorted(E)}: equilibrium={nash} but "
                          f"cohesion test={cohesive}")
                break
        bat.check("cohesion-equilibrium", ok, ser, detail)

        start = frozenset(int(i) for i in range(n) if rng.random() < 0.3) \
            or frozenset({int(rng.integers(0, n))})
        comp = frozenset(range(n)) - start
        thr = contagion.full_contagion_threshold(replace(cfg, infected=start), start)
        uniform = oracle.brute_uniform_cohesion(net, comp, 1 - q)
        bat.check("uniform-cohesion-threshold", uniform == (q <= thr.q_star),
                  {**ser, "start": sorted(start)},
                  f"brute uniform cohesion {uniform}, q*={thr.q_star}")
        if comp:
            r = _random_fraction(rng)
            via_threshold = contagion.is_uniformly_at_most_cohesive(cfg, comp, r)
            via_brute = oracle.brute_uniform_cohesion(net, comp, r)
            bat.check("uniform-cohesion-agreement", via_threshold == via_brute,
                      {**ser, "members": sorted(comp), "r": rational_str(r)},
                      f"threshold route {via_threshold}, brute force {via_brute}")
    return list(bat.reports.values())
