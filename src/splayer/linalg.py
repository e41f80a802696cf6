"""Direct tridiagonal solves, plus a dense oracle for cross-checking.

The production path solves without pivoting, which is safe on the
M-matrix systems the scheme assembles: odd-even cyclic reduction halves a
large system until it is small, the Thomas algorithm solves what is left,
and back substitution recovers the eliminated rows.  A pivot breakdown is
reported as a structured error pointing at the offending row.  The dense
oracle expands the three diagonals to a full matrix and delegates to
LAPACK's partially pivoted Gaussian elimination; it exists to validate
the production path in tests.
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

# systems of more than this many intervals (n + 1 rows) are halved by cyclic
# reduction before the loop runs: a level costs a fixed ~20 numpy calls,
# which the loop's per-row cost repays from a few hundred rows on (measured
# break-even 128-256 rows, 2 vCPU, numpy 2.4); halving 2^p + 1 rows gives
# 2^(p-1) + 1, so mesh sizes n <= 256 stay on the loop alone
_CUTOVER = 256


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


def _thomas_loop(lower, diag, upper, rhs) -> np.ndarray:
    """Forward elimination and back substitution in O(n) time and space.

    The recurrence runs on Python floats, ``_BLOCK`` rows at a time: the
    same IEEE double operations in the same order as elementwise float64
    elimination, so the result is bitwise equal to it, without boxing a
    numpy scalar per element.  Blocks bound the memory held in lists.
    ``lower[0]`` and ``upper[-1]`` do not affect the result.
    """
    n = diag.size - 1
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
    return y


def _reduce(lower, diag, upper, rhs, sums, stride):
    """One odd-even level: the even rows with the odd unknowns eliminated.

    Even row 2j takes ``left`` times odd row 2j - 1 and ``right`` times odd
    row 2j + 1, the multiples that zero its odd couplings.  Row sums combine
    the same way, and the new diagonal is the new row sum minus the new
    off-diagonals: on an M-matrix every term of both sums has one sign, so
    no cancellation grows over the levels.  ``stride`` maps a row of this
    level to the system's row; the odd rows' own diagonals are the pivots.
    """
    odd_diag = diag[1::2]
    if np.min(np.abs(odd_diag)) < sys.float_info.min:
        j = int(np.argmax(np.abs(odd_diag) < sys.float_info.min))
        raise PivotError((2 * j + 1) * stride, float(odd_diag[j]))
    k = odd_diag.size  # odd rows; the even rows number k or k + 1
    m = diag.size - k
    left = -lower[2::2] / odd_diag[: m - 1]
    right = -upper[0 : 2 * k : 2] / odd_diag
    new_lower = np.empty(m)
    new_lower[0] = 0.0
    np.multiply(left, lower[1::2][: m - 1], out=new_lower[1:])
    new_upper = np.empty(m)
    new_upper[m - 1] = 0.0  # with k == m the last odd row couples to nothing
    np.multiply(right[: m - 1], upper[1::2][: m - 1], out=new_upper[: m - 1])
    new_rhs = rhs[0::2].copy()
    new_sums = sums[0::2].copy()
    for new, old in ((new_rhs, rhs), (new_sums, sums)):
        new[1:] += left * old[1::2][: m - 1]
        new[:k] += right * old[1::2]
    new_diag = new_sums - new_lower
    new_diag -= new_upper
    return new_lower, new_diag, new_upper, new_rhs, new_sums


def solve_thomas(system: TridiagonalSystem) -> Solution:
    """Solve without pivoting in O(n) time and space, with its residual.

    While the system has more than ``_CUTOVER`` intervals (n + 1 rows),
    odd-even cyclic reduction eliminates the odd rows, one vectorised level
    at a time; the Thomas loop (``_thomas_loop``) solves the reduced
    system, and each level then recovers its odd rows from their even
    neighbours.  A zero or subnormal pivot at any stage raises
    ``PivotError`` naming the row of ``system`` it belongs to.  Systems at
    or below the cutover go through the loop alone, bitwise equal to
    elementwise float64 elimination.
    """
    lower, diag, upper, rhs = system.lower, system.diag, system.upper, system.rhs
    levels, stride = [], 1
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: no warnings
        if diag.size - 1 > _CUTOVER:
            sums = diag.copy()
            sums[1:] += lower[1:]
            sums[:-1] += upper[:-1]
        while diag.size - 1 > _CUTOVER:
            levels.append((lower[1::2], diag[1::2], upper[1::2], rhs[1::2]))
            lower, diag, upper, rhs, sums = _reduce(lower, diag, upper, rhs, sums, stride)
            stride *= 2
        try:
            y = _thomas_loop(lower, diag, upper, rhs)
        except PivotError as err:
            raise PivotError(err.row * stride, err.value) from None
        for odd_lower, odd_diag, odd_upper, odd_rhs in reversed(levels):
            k, m = odd_diag.size, y.size
            odd = odd_rhs - odd_lower * y[:k]
            odd[: m - 1] -= odd_upper[: m - 1] * y[1:]
            odd /= odd_diag
            full = np.empty(m + k)
            full[0::2] = y
            full[1::2] = odd
            y = full
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
