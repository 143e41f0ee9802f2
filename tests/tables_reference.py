"""Test-side reference for a tabular global effect and its engine tables.

:func:`reference_check` checks and converts the tables one player at a
time, with the error texts of ``TabularGlobalEffect`` (a table that several
players share is checked once per player), and :func:`reference_tables`
builds the engine's step tables from the Fraction tables one player at a
time.  The differential tests compare ``TabularGlobalEffect`` and
``GameConfig.engine_tables`` with both.
"""

import math
from fractions import Fraction

from netcontagion.errors import ParameterError
from netcontagion.rational import as_rational, as_unit_rational


def reference_check(tables):
    """The checked tables, as tuples of Fraction pairs."""
    clean_tables = []
    for idx, table in enumerate(tables):
        clean = tuple((as_unit_rational(p, f"table[{idx}] breakpoint"),
                       as_rational(v, f"table[{idx}] value"))
                      for p, v in table)
        if not clean or clean[0] != (Fraction(0), Fraction(0)):
            raise ParameterError(f"table[{idx}] must start with the (0, 0) breakpoint")
        for (p0, v0), (p1, v1) in zip(clean, clean[1:]):
            if p1 <= p0:
                raise ParameterError(f"table[{idx}] breakpoints must increase")
            if v1 < v0:
                raise ParameterError(f"table[{idx}] values must not decrease")
        clean_tables.append(clean)
    return tuple(clean_tables)


def reference_tables(network, weights, tables, c):
    """The engine's tables of a tabular game, as lists of Python ints:
    ``thresholds`` (``ceil(bp * pe_i)`` per step, ``n + 1`` after each
    player's steps), step ``values`` over ``D_i`` (0 after each player's
    steps), each player's ``first`` step, ``M_i = D_i*cn``, ``a_i = L_i*cd``
    and ``bound = max M_i*W_i``; or the ``ParameterError`` of the effect bound."""
    n = network.node_count
    if len(tables) != n:
        raise ParameterError("one global-effect table per player is required")
    thresholds, values, first, M, a, MW, top = [], [], [], [], [], [], []
    for i, table in enumerate(tables):
        pe = max(n - 1 - len(network.adjacency[i]), 1)
        D = math.lcm(*(v.denominator for _, v in table))
        L = math.lcm(*(w.denominator for w in weights.row(i).values()))
        first.append(len(thresholds))
        thresholds.extend(math.ceil(bp * pe) for bp, _ in table)
        values.extend(int(v * D) for _, v in table)
        top.append(values[-1])
        thresholds.append(n + 1)
        values.append(0)
        M.append(D * c.numerator)
        a.append(L * c.denominator)
        MW.append(M[-1] * int(weights.row_sum(i) * L))
    for i in range(n):
        if MW[i] < a[i] * top[i]:
            raise ParameterError(f"global effect of player {i} exceeds "
                                 f"c*w_i = {c * weights.row_sum(i)}")
    return {"thresholds": thresholds, "values": values, "first": first,
            "M": M, "a": a, "bound": max(MW)}
