"""Test-side reference for influence weights, independent of their storage.

:class:`ReferenceWeights` keeps the weights as validated Fraction rows,
with the constructors and error messages of ``InfluenceWeights``, and
:func:`reference_integer_form` derives the engine's integer form from those
rows one row and one CSR slot at a time.  The differential tests compare
``InfluenceWeights`` with both.
"""

import math
from fractions import Fraction

import numpy as np

from netcontagion.errors import ParameterError
from netcontagion.rational import as_rational


class ReferenceWeights:
    """Nonnegative directed weights as one dict of Fractions per node."""

    def __init__(self, network, rows):
        n = network.node_count
        if len(rows) != n:
            raise ParameterError("one weight row per node is required")
        frozen_rows, row_sums = [], []
        unit = True
        for i in range(n):
            nbrs = network.adjacency[i]
            row = rows[i]
            if set(row) != set(nbrs):
                raise ParameterError(
                    f"weights of node {i} must be defined exactly on its "
                    f"neighbors {list(nbrs)}")
            clean, total = {}, Fraction(0)
            for j in nbrs:
                w = as_rational(row[j], f"w[{i}][{j}]")
                if w < 0:
                    raise ParameterError(f"w[{i}][{j}] is negative")
                if w != 1:
                    unit = False
                clean[j] = w
                total += w
            if total <= 0:
                raise ParameterError(f"row sum w_{i} must be positive")
            frozen_rows.append(clean)
            row_sums.append(total)
        self.rows, self.row_sums = tuple(frozen_rows), tuple(row_sums)
        self.is_unit = unit

    @classmethod
    def unit(cls, network):
        for i, nbrs in enumerate(network.adjacency):
            if not nbrs:
                raise ParameterError(f"node {i} is isolated, so w_{i} would be 0")
        return cls(network, [dict.fromkeys(nbrs, 1) for nbrs in network.adjacency])

    @classmethod
    def from_pairs(cls, network, pairs, default=1):
        default = as_rational(default, "default weight")
        rows = [{j: default for j in nbrs} for nbrs in network.adjacency]
        for (i, j), w in pairs.items():
            if not (0 <= i < network.node_count) or j not in network.adjacency[i]:
                raise ParameterError(f"({i}, {j}) is not a neighbor pair")
            rows[i][j] = as_rational(w, f"w[{i}][{j}]")
        return cls(network, rows)


def reference_integer_form(network, weights):
    """``(L, W, in_weights)`` as Python ints: each row's LCM of denominators,
    its scaled sum, and per CSR slot ``(j, nb)`` the scaled ``L_nb * w[nb][j]``
    (None for unit weights)."""
    L = [math.lcm(*(w.denominator for w in row.values())) for row in weights.rows]
    W = [int(total * lcm) for total, lcm in zip(weights.row_sums, L)]
    if weights.is_unit:
        return L, W, None
    in_weights = []
    for j, nbrs in enumerate(network.adjacency):
        for nb in nbrs:
            w = weights.rows[nb][j]
            in_weights.append(w.numerator * (L[nb] // w.denominator))
    return L, W, np.array(in_weights, dtype=object)
