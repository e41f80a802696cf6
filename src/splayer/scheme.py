"""Upwind finite-difference discretisation with a three-point interface row.

Rows are assembled in the negated-operator convention so the matrix has a
positive diagonal and nonpositive off-diagonals: an M-matrix candidate.
With h_i = x_i - x_{i-1} and hbar_i = (h_i + h_{i+1}) / 2, interior rows
left of the interface use the backward difference for the convection term
and rows right of it the forward difference, matching the sign of ``a`` on
each side.  The interface row enforces equality of the one-sided first
differences at ``d`` and replaces the differential equation there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import evaluate_array
from .mesh import Mesh
from .problem import ProblemSpec

__all__ = [
    "TridiagonalSystem",
    "MMatrixReport",
    "assemble",
    "apply_operator",
    "check_m_matrix",
]

# rowwise-relative slack for the dominance check: the diagonal and the
# off-diagonal magnitudes share summands, so exact equality (b = 0) may
# drift by a few ulps of the row scale
_DOMINANCE_RTOL = 1.0e-12


@dataclass(frozen=True, eq=False)
class TridiagonalSystem:
    """Three diagonals plus right-hand side; lower[0] and upper[n] are 0."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray
    n: int

    def __post_init__(self):
        for name in ("lower", "diag", "upper", "rhs"):
            array = np.array(getattr(self, name), dtype=float)
            if array.shape != (self.n + 1,):
                raise ValueError(f"{name} must have length n + 1 = {self.n + 1}")
            array.setflags(write=False)
            object.__setattr__(self, name, array)


@dataclass(frozen=True)
class MMatrixReport:
    """Row-by-row structure check backing the discrete minimum principle."""

    is_sign_valid: bool
    is_diag_dominant: bool
    worst_row: int
    worst_margin: float  # rowwise-relative dominance margin at worst_row


def assemble(spec: ProblemSpec, mesh: Mesh) -> TridiagonalSystem:
    """Assemble the discrete system on ``mesh``.

    The mesh must pin ``spec.d`` exactly at index n/2.  Coefficients are
    evaluated one-sidedly: rows left of the interface use (a_left, f_left),
    rows right of it (a_right, f_right); the interface row uses neither.
    """
    n = mesh.n
    m = mesh.d_index
    if mesh.points[m] != spec.d:
        raise ValueError(
            f"mesh interface node x_{m} = {mesh.points[m]!r} does not match "
            f"problem discontinuity d = {spec.d!r}"
        )
    x = mesh.points
    h = mesh.steps()  # h[k] = x_{k+1} - x_k, so h_i = h[i-1]
    eps, mu = spec.epsilon, spec.mu

    lower = np.zeros(n + 1)
    diag = np.zeros(n + 1)
    upper = np.zeros(n + 1)
    rhs = np.zeros(n + 1)

    il = np.arange(1, m)
    xl = x[il]
    hi, hip = h[il - 1], h[il]
    hbar = 0.5 * (hi + hip)
    a_l = evaluate_array(spec.a_left, xl)
    b_l = evaluate_array(spec.b, xl)
    f_l = evaluate_array(spec.f_left, xl)
    lower[il] = -(eps / (hi * hbar) - mu * a_l / hi)
    diag[il] = eps / (hi * hbar) + eps / (hip * hbar) - mu * a_l / hi + b_l
    upper[il] = -eps / (hip * hbar)
    rhs[il] = -f_l

    ir = np.arange(m + 1, n)
    xr = x[ir]
    hi, hip = h[ir - 1], h[ir]
    hbar = 0.5 * (hi + hip)
    a_r = evaluate_array(spec.a_right, xr)
    b_r = evaluate_array(spec.b, xr)
    f_r = evaluate_array(spec.f_right, xr)
    lower[ir] = -eps / (hi * hbar)
    diag[ir] = eps / (hi * hbar) + eps / (hip * hbar) + mu * a_r / hip + b_r
    upper[ir] = -(eps / (hip * hbar) + mu * a_r / hip)
    rhs[ir] = -f_r

    # interface: backward difference equals forward difference at d
    lower[m] = -1.0 / h[m - 1]
    diag[m] = 1.0 / h[m - 1] + 1.0 / h[m]
    upper[m] = -1.0 / h[m]
    rhs[m] = 0.0

    diag[0] = 1.0
    rhs[0] = spec.y0
    diag[n] = 1.0
    rhs[n] = spec.y1

    return TridiagonalSystem(lower, diag, upper, rhs, n)


def apply_operator(system: TridiagonalSystem, y) -> np.ndarray:
    """Tridiagonal matrix-vector product, for residual checks."""
    y = np.asarray(y, dtype=float)
    if y.shape != (system.n + 1,):
        raise ValueError(f"vector must have length n + 1 = {system.n + 1}")
    out = system.diag * y
    out[1:] += system.lower[1:] * y[:-1]
    out[:-1] += system.upper[:-1] * y[1:]
    return out


def check_m_matrix(system: TridiagonalSystem) -> MMatrixReport:
    """Verify the sign pattern and rowwise diagonal dominance.

    The report is the numeric witness that the assembled operator supports
    a discrete minimum principle: positive diagonal, nonpositive
    off-diagonals, and no row where the off-diagonal mass exceeds the
    diagonal beyond roundoff.
    """
    lower, diag, upper = system.lower, system.diag, system.upper
    sign_valid = bool(
        np.all(diag > 0.0)
        and np.all(lower[1:] <= 0.0)
        and np.all(upper[:-1] <= 0.0)
        and upper[0] == 0.0
        and lower[-1] == 0.0
    )
    scale = np.maximum(np.abs(diag) + np.abs(lower) + np.abs(upper), np.finfo(float).tiny)
    margins = (diag - np.abs(lower) - np.abs(upper)) / scale
    worst_row = int(np.argmin(margins))
    worst_margin = float(margins[worst_row])
    return MMatrixReport(
        is_sign_valid=sign_valid,
        is_diag_dominant=bool(worst_margin >= -_DOMINANCE_RTOL),
        worst_row=worst_row,
        worst_margin=worst_margin,
    )
