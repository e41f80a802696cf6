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
    """Three diagonals plus right-hand side; lower[0] and upper[n] are 0.

    The arrays are (n + 1,) for one system, or (k, n + 1) for a batch of k
    systems of the same size, one per row.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray
    n: int

    def __post_init__(self):
        shape = np.shape(self.diag)
        if len(shape) not in (1, 2) or shape[-1] != self.n + 1:
            raise ValueError(f"diag must have length n + 1 = {self.n + 1}, or k rows of it")
        for name in ("lower", "diag", "upper", "rhs"):
            array = frozen_array(getattr(self, name))
            if array.shape != shape:
                raise ValueError(f"{name} must have the shape of diag, {shape}")
            object.__setattr__(self, name, array)


@dataclass(frozen=True)
class MMatrixReport:
    """Row-by-row structure check backing the discrete minimum principle."""

    is_sign_valid: bool
    is_diag_dominant: bool
    worst_row: int
    worst_margin: float  # rowwise-relative dominance margin at worst_row


def assemble(
    spec: ProblemSpec | Sequence[ProblemSpec], mesh: Mesh | Sequence[Mesh]
) -> TridiagonalSystem:
    """Assemble the discrete system on ``mesh``.

    The mesh must pin ``spec.d`` exactly at index n/2.  Coefficients are
    evaluated one-sidedly: rows left of the interface use (a_left, f_left),
    rows right of it (a_right, f_right); the interface row uses neither.

    ``spec`` and ``mesh`` may also be equally long sequences of problems
    that differ only in epsilon, mu, y0 and y1, and of meshes with one n:
    the systems are then assembled together, as a (k, n + 1) batch whose
    row i is bitwise the system of ``spec[i]`` on ``mesh[i]``.
    """
    if not isinstance(mesh, Mesh):
        return _assemble(list(spec), list(mesh))
    batch = _assemble([spec], [mesh])
    return TridiagonalSystem(batch.lower[0], batch.diag[0], batch.upper[0], batch.rhs[0], mesh.n)


# entries that leave the float range are named by _check_finite, not warned about
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _assemble(specs: list[ProblemSpec], meshes: list[Mesh]) -> TridiagonalSystem:
    if not meshes or len(specs) != len(meshes) or any(mesh.n != meshes[0].n for mesh in meshes):
        raise ValueError("a batch needs one problem per mesh, at least one, and meshes of one n")
    first, n = specs[0], meshes[0].n
    if any(_data(spec) != _data(first) for spec in specs):
        raise ValueError("a batch must share the coefficients and d")
    m = n // 2
    x = np.stack([mesh.points for mesh in meshes])
    if np.any(x[:, m] != first.d):
        bad = x[np.argmax(x[:, m] != first.d), m]
        raise ValueError(
            f"mesh interface node x_{m} = {bad!r} does not match "
            f"problem discontinuity d = {first.d!r}"
        )
    h = np.diff(x)  # h[:, k] = x_{k+1} - x_k
    eps = np.array([[spec.epsilon] for spec in specs])
    mu = np.array([[spec.mu] for spec in specs])

    k = len(specs)
    lower = np.zeros((k, n + 1))
    diag = np.zeros((k, n + 1))
    upper = np.zeros((k, n + 1))
    rhs = np.zeros((k, n + 1))

    def interior(rows: slice, a, f, forward: bool) -> None:
        # one side's rows, in a call of its own so that its temporaries are
        # freed before the other side's are made
        xs = x[:, rows]
        hi, hip = h[:, rows.start - 1 : rows.stop - 1], h[:, rows]  # h_i and h_{i+1}
        hbar = 0.5 * (hi + hip)
        p, q = eps / (hi * hbar), eps / (hip * hbar)  # diffusion towards x_{i-1}, x_{i+1}
        if forward:  # right of d: convection by the forward difference
            c = mu * evaluate_array(a, xs) / hip
            np.negative(p, out=lower[:, rows])
            diag[:, rows] = p + q + c + evaluate_array(first.b, xs)
            np.negative(q + c, out=upper[:, rows])
        else:  # left of d: by the backward difference
            c = mu * evaluate_array(a, xs) / hi
            np.subtract(c, p, out=lower[:, rows])
            diag[:, rows] = p + q - c + evaluate_array(first.b, xs)
            np.negative(q, out=upper[:, rows])
        np.negative(evaluate_array(f, xs), out=rhs[:, rows])

    interior(slice(1, m), first.a_left, first.f_left, forward=False)
    interior(slice(m + 1, n), first.a_right, first.f_right, forward=True)

    # interface: backward difference equals forward difference at d
    lower[:, m] = -1.0 / h[:, m - 1]
    diag[:, m] = 1.0 / h[:, m - 1] + 1.0 / h[:, m]
    upper[:, m] = -1.0 / h[:, m]
    rhs[:, m] = 0.0

    diag[:, 0] = 1.0
    rhs[:, 0] = [spec.y0 for spec in specs]
    diag[:, n] = 1.0
    rhs[:, n] = [spec.y1 for spec in specs]

    _check_finite(lower=lower, diag=diag, upper=upper)  # rhs holds f (checked) and y0, y1
    for array in (lower, diag, upper, rhs):
        array.setflags(write=False)  # the system takes them without a copy
    return TridiagonalSystem(lower, diag, upper, rhs, n)


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
        rows = np.flatnonzero(~np.isfinite(array).all(axis=0))  # over a batch's systems
        if rows.size and (first is None or rows[0] < first[0]):
            first = (rows[0], name, array[:, rows[0]])
    if first is not None:
        row, name, column = first
        value = float(column[~np.isfinite(column)][0])
        raise ValueError(
            f"assembled {name}[{row}] = {value!r} is the first non-finite entry: "
            "products and quotients of the mesh steps leave the float range there"
        )


def _data(spec: ProblemSpec) -> tuple:
    """What a batch shares: the coefficients and the interface point."""
    return (spec.a_left, spec.a_right, spec.b, spec.f_left, spec.f_right, spec.d)


def apply_operator(system: TridiagonalSystem, y) -> np.ndarray:
    """Tridiagonal matrix-vector product, for residual checks.

    A batch takes one vector per system, as a (k, n + 1) array.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != system.diag.shape:
        raise ValueError(f"vector must have length n + 1 = {system.n + 1}, one per system")
    out = system.diag * y
    out[..., 1:] += system.lower[..., 1:] * y[..., :-1]
    out[..., :-1] += system.upper[..., :-1] * y[..., 1:]
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
