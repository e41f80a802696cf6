"""Upwind finite-difference discretisation with a three-point interface row.

Rows are assembled in the negated-operator convention so the matrix has a
positive diagonal and nonpositive off-diagonals: an M-matrix candidate.
With h_i = x_i - x_{i-1} and hbar_i = (h_i + h_{i+1}) / 2, interior rows
left of the interface use the backward difference for the convection term
and rows right of it the forward difference, matching the sign of ``a`` on
each side.  The interface row enforces equality of the one-sided first
differences at ``d`` and replaces the differential equation there.

The first and last rows are the boundary conditions, identity rows with no
couplings, so systems on several meshes laid end to end are one
tridiagonal system whose blocks do not interact: a sweep row's systems are
assembled and solved that way, as one chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def frozen_array(value) -> np.ndarray:
    """``value`` as a read-only float64 array, copied unless it is one already."""
    if isinstance(value, np.ndarray) and value.dtype == np.float64 and not value.flags.writeable:
        return value
    array = np.array(value, dtype=float)
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class TridiagonalSystem:
    """Three diagonals plus right-hand side, each of length n + 1; lower[0] and upper[n] are 0."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray
    n: int

    def __post_init__(self):
        for name in ("lower", "diag", "upper", "rhs"):
            array = frozen_array(getattr(self, name))
            if array.shape != (self.n + 1,):
                raise ValueError(f"{name} must be a vector of length n + 1 = {self.n + 1}")
            object.__setattr__(self, name, array)


@dataclass(frozen=True)
class MMatrixReport:
    """Row-by-row structure check backing the discrete minimum principle."""

    is_sign_valid: bool
    is_diag_dominant: bool
    worst_row: int
    worst_margin: float  # rowwise-relative dominance margin at worst_row


def assemble(spec: ProblemSpec, mesh: Mesh | Sequence[Mesh]) -> TridiagonalSystem:
    """Assemble the discrete system on ``mesh``.

    The mesh must pin ``spec.d`` exactly at index n/2.  Coefficients are
    evaluated one-sidedly: rows left of the interface use (a_left, f_left),
    rows right of it (a_right, f_right); the interface row uses neither.

    ``mesh`` may also be a sequence of meshes: their systems are then laid
    end to end, in order, as one chain whose block on each mesh is bitwise
    that mesh's own system.  The blocks' boundary rows have no couplings,
    so a solve of the chain is a solve of each block.
    """
    meshes = [mesh] if isinstance(mesh, Mesh) else list(mesh)
    for each in meshes:
        m = each.n // 2
        if each.points[m] != spec.d:
            raise ValueError(
                f"mesh interface node x_{m} = {float(each.points[m])!r} does not match "
                f"problem discontinuity d = {spec.d!r}"
            )
    return _assemble(spec, meshes)


def _side_rows(meshes: list[Mesh], starts, left: bool) -> tuple:
    """Each block's interior rows on one side of d: where x_i, h_i and h_{i+1} are.

    Slices for one mesh, so that the side's arrays are views; for a chain,
    masks over its rows and over its steps.
    """
    spans = [(start + 1, start + mesh.n // 2) if left else (start + mesh.n // 2 + 1, start + mesh.n)
             for mesh, start in zip(meshes, starts)]
    if len(spans) == 1:
        (lo, hi), = spans
        return slice(lo, hi), slice(lo - 1, hi - 1), slice(lo, hi)
    rows = np.zeros(starts[-1] + meshes[-1].n + 1, dtype=bool)
    for lo, hi in spans:
        rows[lo:hi] = True
    return rows, rows[1:], rows[:-1]


# entries that leave the float range are named by _check_finite, not warned about
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _assemble(spec: ProblemSpec, meshes: list[Mesh]) -> TridiagonalSystem:
    sizes = [mesh.n + 1 for mesh in meshes]
    starts = np.cumsum([0] + sizes[:-1])
    x = meshes[0].points if len(meshes) == 1 else np.concatenate([m.points for m in meshes])
    h = np.diff(x)  # h[k] = x_{k+1} - x_k; only steps within a block are used
    eps, mu = spec.epsilon, spec.mu

    lower, diag, upper, rhs = np.empty((4, sum(sizes)))  # every row is written below

    def interior(a, f, forward: bool) -> None:
        # one side's rows, in a call of its own so that its temporaries are
        # freed before the other side's are made
        rows, before, after = _side_rows(meshes, starts, left=not forward)
        xs = x[rows]
        hi, hip = h[before], h[after]  # h_i and h_{i+1}
        hbar = hi + hip
        hbar *= 0.5
        p = hi * hbar
        q = np.multiply(hip, hbar, out=hbar)
        np.divide(eps, p, out=p)  # diffusion towards x_{i-1}
        np.divide(eps, q, out=q)  # and towards x_{i+1}
        if forward:  # right of d: convection by the forward difference
            c = mu * evaluate_array(a, xs) / hip
            lower[rows] = -p
            diag[rows] = p + q + c + evaluate_array(spec.b, xs)
            upper[rows] = -(q + c)
        else:  # left of d: by the backward difference
            c = mu * evaluate_array(a, xs) / hi
            lower[rows] = c - p
            diag[rows] = p + q - c + evaluate_array(spec.b, xs)
            upper[rows] = -q
        rhs[rows] = -evaluate_array(f, xs)

    interior(spec.a_left, spec.f_left, forward=False)
    interior(spec.a_right, spec.f_right, forward=True)

    # interface: backward difference equals forward difference at d
    m = starts + [mesh.n // 2 for mesh in meshes]
    lower[m] = -1.0 / h[m - 1]
    diag[m] = 1.0 / h[m - 1] + 1.0 / h[m]
    upper[m] = -1.0 / h[m]

    ends = starts + sizes - 1
    lower[starts] = upper[starts] = lower[ends] = upper[ends] = rhs[m] = 0.0
    diag[starts] = diag[ends] = 1.0
    rhs[starts] = spec.y0
    rhs[ends] = spec.y1

    _check_finite(lower=lower, diag=diag, upper=upper)  # rhs holds f (checked) and y0, y1
    for array in (lower, diag, upper, rhs):
        array.setflags(write=False)  # the system takes them without a copy
    return TridiagonalSystem(lower, diag, upper, rhs, sum(sizes) - 1)


def _check_finite(**arrays: np.ndarray) -> None:
    """Raise ``ValueError`` at the first row with a non-finite entry, naming its array.

    The coefficients are finite wherever they are evaluated, so such an
    entry comes from the mesh steps: near the float limits their products
    underflow to 0, or the quotients by them overflow.
    """
    if all(math.isfinite(array.sum()) for array in arrays.values()):
        return  # a sum with a non-finite term is not finite; one that overflows is scanned
    first = None
    for name, array in arrays.items():
        rows = np.flatnonzero(~np.isfinite(array))
        if rows.size and (first is None or rows[0] < first[0]):
            first = (rows[0], name, float(array[rows[0]]))
    if first is not None:
        row, name, value = first
        raise ValueError(
            f"assembled {name}[{row}] = {value!r} is the first non-finite entry: "
            "products and quotients of the mesh steps leave the float range there"
        )


def apply_operator(system: TridiagonalSystem, y) -> np.ndarray:
    """Tridiagonal matrix-vector product, for residual checks."""
    y = np.asarray(y, dtype=float)
    if y.shape != system.diag.shape:
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
