"""Direct tridiagonal solves, plus a dense oracle for cross-checking.

The production path is the Thomas algorithm without pivoting, which is
safe on the M-matrix systems the scheme assembles; a pivot breakdown is
reported as a structured error pointing at the offending row.  The dense
oracle expands the three diagonals to a full matrix and delegates to
LAPACK's partially pivoted Gaussian elimination; it exists to validate
the Thomas path in tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .scheme import TridiagonalSystem, apply_operator

__all__ = ["Solution", "PivotError", "solve_thomas", "solve_dense_oracle"]

DENSE_ORACLE_MAX_N = 1024

# rows of the elimination converted to Python floats at a time
_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class Solution:
    """Nodal values plus the rowwise-relative residual of the solve."""

    y: np.ndarray
    residual_inf: float

    def __post_init__(self):
        array = np.array(self.y, dtype=float)
        array.setflags(write=False)
        object.__setattr__(self, "y", array)
        if not math.isfinite(self.residual_inf):
            raise ValueError(f"residual must be finite, got {self.residual_inf}")


class PivotError(ArithmeticError):
    """Zero or subnormal pivot during elimination; ``row`` names the culprit."""

    def __init__(self, row: int, value: float):
        super().__init__(
            f"elimination pivot at row {row} is zero or subnormal ({value!r}); "
            "the system is not the expected M-matrix (see check_m_matrix)"
        )
        self.row = row
        self.value = value


def _rowwise_residual(system: TridiagonalSystem, y: np.ndarray) -> float:
    """Componentwise backward error max_i |A y - rhs|_i / (|A||y| + |rhs|)_i."""
    r = apply_operator(system, y) - system.rhs
    denom = np.abs(system.diag * y) + np.abs(system.rhs)
    denom[1:] += np.abs(system.lower[1:] * y[:-1])
    denom[:-1] += np.abs(system.upper[:-1] * y[1:])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(denom > 0.0, np.abs(r) / denom, np.where(r == 0.0, 0.0, np.inf))
    return float(np.max(ratios))


def solve_thomas(system: TridiagonalSystem) -> Solution:
    """Forward elimination and back substitution in O(n) time and space.

    The recurrence runs on Python floats, ``_BLOCK`` rows at a time: the
    same IEEE double operations in the same order as elementwise float64
    elimination, so the result is bitwise equal to it, without boxing a
    numpy scalar per element.  Blocks bound the memory held in lists.
    """
    n = system.n
    lower, diag, upper, rhs = system.lower, system.diag, system.upper, system.rhs
    pivot_floor = sys.float_info.min  # subnormal pivots are breakdowns too

    c = np.empty(n + 1)  # modified upper diagonal
    g = np.empty(n + 1)  # modified right-hand side
    pivot = float(diag[0])
    if abs(pivot) < pivot_floor:
        raise PivotError(0, pivot)
    c[0] = c_prev = float(upper[0]) / pivot
    g[0] = g_prev = float(rhs[0]) / pivot
    for start in range(1, n + 1, _BLOCK):
        stop = min(start + _BLOCK, n + 1)
        c_block, g_block = [], []
        for l, d, u, r in zip(
            lower[start:stop].tolist(),
            diag[start:stop].tolist(),
            upper[start:stop].tolist(),
            rhs[start:stop].tolist(),
        ):
            pivot = d - l * c_prev
            if abs(pivot) < pivot_floor:
                raise PivotError(start + len(c_block), pivot)
            c_prev = u / pivot
            g_prev = (r - l * g_prev) / pivot
            c_block.append(c_prev)
            g_block.append(g_prev)
        c[start:stop] = c_block
        g[start:stop] = g_block

    y = np.empty(n + 1)
    y[n] = y_next = g_prev
    for stop in range(n, 0, -_BLOCK):
        start = max(stop - _BLOCK, 0)
        y_block = []
        for c_i, g_i in zip(c[start:stop][::-1].tolist(), g[start:stop][::-1].tolist()):
            y_next = g_i - c_i * y_next
            y_block.append(y_next)
        y[start:stop] = y_block[::-1]
    return Solution(y, _rowwise_residual(system, y))


def solve_dense_oracle(system: TridiagonalSystem) -> Solution:
    """Solve via a dense matrix; test oracle for small systems only.

    Raises ``numpy.linalg.LinAlgError`` on a singular matrix.
    """
    n = system.n
    if n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle is limited to n <= {DENSE_ORACLE_MAX_N}, got {n}")
    matrix = np.zeros((n + 1, n + 1))
    idx = np.arange(n + 1)
    matrix[idx, idx] = system.diag
    matrix[idx[1:], idx[1:] - 1] = system.lower[1:]
    matrix[idx[:-1], idx[:-1] + 1] = system.upper[:-1]
    y = np.linalg.solve(matrix, system.rhs)
    return Solution(y, _rowwise_residual(system, y))
