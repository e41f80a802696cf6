"""Direct tridiagonal solves, plus a banded LAPACK oracle for cross-checking.

The production path solves without pivoting, which is safe on the
M-matrix systems the scheme assembles: odd-even cyclic reduction (Hockney
1965; Buzbee, Golub, Nielson 1970) halves the system one vectorised level
at a time until a single row is left, and back substitution recovers the
eliminated rows; a pivot breakdown is reported as a structured error
pointing at the offending row.  The solver knows nothing of blocks:
systems laid end to end, each with no coupling out of its first and last
row, are one system to it (see ``scheme.assemble``).  The oracle hands the
three diagonals to LAPACK's partially pivoted tridiagonal elimination; it
exists to validate the production path in tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .scheme import TridiagonalSystem, apply_operator, frozen_array

__all__ = ["Solution", "PivotError", "solve_thomas", "solve_dense_oracle"]

DENSE_ORACLE_MAX_N = 1024

# zero and subnormal pivots are breakdowns
_PIVOT_FLOOR = sys.float_info.min


@dataclass(frozen=True, eq=False)
class Solution:
    """Nodal values plus the rowwise-relative residual of the solve."""

    y: np.ndarray
    residual_inf: float

    def __post_init__(self):
        object.__setattr__(self, "y", frozen_array(self.y))
        if not math.isfinite(self.residual_inf):  # as it is wherever y is not finite
            bad = ~np.isfinite(self.y)
            if bad.any():  # a finite system whose elimination overflowed
                row = int(np.argmax(bad))
                raise ValueError(
                    f"solution Y[{row}] = {float(self.y[row])!r} is the first non-finite "
                    "value: the elimination left the float range"
                )
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


def _scaled_ratios(system: TridiagonalSystem, y: np.ndarray) -> np.ndarray:
    """Rowwise |A y - rhs| / (|A||y| + |rhs|), summed without overflow.

    Every term ``coefficient * value`` is split into a mantissa product and
    a binary exponent, and each row is scaled by two to the power of its
    largest exponent before it is summed: the scaled terms are below 1, so
    neither sum can overflow, and the ratio does not depend on the scale.
    """
    lower, upper = system.lower.copy(), system.upper.copy()
    lower[0] = upper[-1] = 0.0  # they take no part
    before, after = np.zeros_like(y), np.zeros_like(y)
    before[1:] = y[:-1]
    after[:-1] = y[1:]
    mantissas, exponents = [], []
    for coefficient, value in ((lower, before), (system.diag, y), (upper, after),
                               (-system.rhs, 1.0)):
        (m1, e1), (m2, e2) = np.frexp(coefficient), np.frexp(value)
        mantissas.append(m1 * m2)
        exponents.append(np.where(m1 * m2 != 0.0, e1 + e2, -(1 << 30)))  # zeros do not scale
    top = np.max(exponents, axis=0)
    terms = [np.ldexp(m, e - top) for m, e in zip(mantissas, exponents)]
    magnitude = sum(np.abs(term) for term in terms)
    return np.abs(sum(terms)) / np.where(magnitude > 0.0, magnitude, 1.0)


def _rowwise_residual(system: TridiagonalSystem, y: np.ndarray) -> float:
    """Componentwise backward error max_i |A y - rhs|_i / (|A||y| + |rhs|)_i.

    ``lower[0]`` and ``upper[-1]`` take no part.  Rows whose plain sums
    overflow are summed again by ``_scaled_ratios``.
    """
    lower, diag, upper, rhs = system.lower, system.diag, system.upper, system.rhs
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r = apply_operator(system, y) - rhs
        denom = np.abs(diag * y) + np.abs(rhs)
        denom[1:] += np.abs(lower[1:] * y[:-1])
        denom[:-1] += np.abs(upper[:-1] * y[1:])
        ratios = np.where(denom > 0.0, np.abs(r) / denom, np.where(r == 0.0, 0.0, np.inf))
        overflowed = np.isinf(denom)
        if overflowed.any():
            ratios = np.where(overflowed, _scaled_ratios(system, y), ratios)
    return float(ratios.max())


def _check_pivots(pivots: np.ndarray, first: int, step: int) -> None:
    """Raise ``PivotError`` at the first zero or subnormal pivot.

    ``pivots[j]`` belongs to row ``first + j * step`` of the system.
    """
    small = np.abs(pivots) < _PIVOT_FLOOR
    if small.any():
        j = int(np.argmax(small))
        raise PivotError(first + j * step, float(pivots[j]))


def _cyclic_reduction(lower, diag, upper, rhs) -> np.ndarray:
    """Solve one system; raise ``PivotError`` at the first pivot breakdown.

    Each level divides its odd rows by their pivots, the diagonal, and
    subtracts from every even row its couplings times the neighbouring
    odd rows, so the even rows form the next level's system; the levels
    go on until one row, the first, is left.  The row sums are the
    right-hand side whose solution is all ones: they ride along as a
    second right-hand side, and each new diagonal is the new row sum minus
    the new off-diagonals.  On an M-matrix every term of both sums has one
    sign, so no cancellation grows over the levels.  Back substitution
    then recovers each level's odd rows from their even neighbours, with
    the divided couplings: a row-dominant row never multiplies a value by
    more than one, so boundary values near the float limit do not
    overflow.  Pivots are checked level by level, so the error names the
    first zero or subnormal pivot of the elimination.
    """
    sides = np.stack((rhs, diag))  # the second becomes the row sums
    sides[1, 1:] += lower[1:]
    sides[1, :-1] += upper[:-1]
    levels, stride = [], 1
    while diag.size > 1:
        pivots = diag[1::2]
        _check_pivots(pivots, stride, 2 * stride)
        odd = pivots.size
        even = diag.size - odd
        # the odd rows' couplings over minus the pivot (>= 0 on an M-matrix)
        negated = -pivots
        odd_lower = lower[1::2] / negated
        odd_upper = upper[1::2] / negated
        odd_sides = sides[:, 1::2] / pivots
        levels.append((odd_lower, odd_upper, odd_sides[0]))
        # even row j couples to odd row j - 1 through lower, to odd row j through upper
        even_lower = lower[2::2]
        even_upper = upper[0 : 2 * odd : 2]
        lower = np.empty(even)
        lower[0] = 0.0
        np.multiply(even_lower, odd_lower[: even - 1], out=lower[1:])
        upper = np.empty(even)
        upper[even - 1] = 0.0  # with as many odd rows, the last couples to nothing
        np.multiply(even_upper[: even - 1], odd_upper[: even - 1], out=upper[: even - 1])
        new_sides = sides[:, 0::2].copy()
        new_sides[:, 1:] -= even_lower * odd_sides[:, : even - 1]
        new_sides[:, :odd] -= even_upper * odd_sides
        sides = new_sides
        diag = sides[1] - lower
        diag -= upper
        stride *= 2
    _check_pivots(diag, 0, 0)
    y = sides[0] / diag
    for odd_lower, odd_upper, odd_rhs in reversed(levels):
        odd, even = odd_rhs.size, y.size
        values = odd_lower * y[:odd]
        values += odd_rhs
        values[: even - 1] += odd_upper[: even - 1] * y[1:]
        full = np.empty(even + odd)
        full[0::2] = y
        full[1::2] = values
        y = full
    return y


def solve_thomas(system: TridiagonalSystem) -> Solution:
    """Solve without pivoting in O(n) time and space, with its residual.

    Odd-even cyclic reduction (``_cyclic_reduction``) eliminates the odd
    rows one vectorised level at a time and back substitution recovers
    them; the name is kept from the Thomas loop it replaced.  Raises
    ``PivotError`` naming the row of the first zero or subnormal pivot, or
    ``ValueError`` naming the first non-finite value when the residual is
    not finite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = _cyclic_reduction(system.lower, system.diag, system.upper, system.rhs)
    residual = _rowwise_residual(system, y)
    y.setflags(write=False)  # the Solution takes it without a copy
    return Solution(y, residual)


def solve_dense_oracle(system: TridiagonalSystem) -> Solution:
    """Solve with LAPACK's partially pivoted tridiagonal elimination (``?gtsv``).

    A test oracle for single systems of n <= 1024, independent of the
    production path; raises ``numpy.linalg.LinAlgError`` on a singular
    matrix.  scipy is imported here, so importing splayer does not load it.
    """
    from scipy.linalg import solve_banded

    n = system.n
    if n > DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense oracle is limited to n <= {DENSE_ORACLE_MAX_N}, got {n}")
    bands = np.zeros((3, n + 1))
    bands[0, 1:] = system.upper[:-1]
    bands[1] = system.diag
    bands[2, :-1] = system.lower[1:]
    y = solve_banded((1, 1), bands, system.rhs)
    return Solution(y, _rowwise_residual(system, y))
