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

Assembly composes a stencil, every term but the convection term mu*a/h,
and the system for one mu; a ``_Chain`` keeps its stencil between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


class _Chain(tuple):
    """Meshes laid end to end that keep the last stencil ``assemble`` built for them."""

    stencil = None  # (the spec with mu set to 1, the stencil's arrays)


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
    chain = mesh if isinstance(mesh, _Chain) else _Chain(meshes)
    # before the stencil, so that a stencil not kept leaves no hole below it
    out = np.empty((3, sum(each.n + 1 for each in meshes)))
    key = replace(spec, mu=1.0)  # a stencil serves every spec that differs from its own in mu
    if chain.stencil is None or chain.stencil[0] != key:
        chain.stencil = key, _stencil(spec, meshes)
    return _system(spec.mu, out, *chain.stencil[1])


# entries that leave the float range are named by _check_finite, not warned about
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _stencil(spec: ProblemSpec, meshes: Sequence[Mesh]) -> tuple:
    """The mu-free part of the chain's rows: p, -q, b, a, the convection step, rhs and sides.

    Row i left (right) of d: p = eps/(h_i hbar_i), q = eps/(h_{i+1} hbar_i),
    and step h_i (h_{i+1}); interface row: p = 1/h_{m-1}, q = 1/h_m, a = b = 0.
    """
    sizes = [mesh.n + 1 for mesh in meshes]
    starts = np.cumsum([0] + sizes[:-1])
    ends = starts + sizes - 1
    m = starts + [mesh.n // 2 for mesh in meshes]
    rhs, left = np.empty(ends[-1] + 1), np.zeros(ends[-1] + 1, dtype=bool)
    # one block but rhs, which systems keep: a stencil used once is freed in one
    # piece for the solve to reuse (a sweep job's page faults: 5000 -> 700, glibc)
    p, nq, b, a, step = np.zeros((5, rhs.size))
    step[starts] = 1.0  # step is h_i, the backward step, at row i of each block
    for mesh, s, e in zip(meshes, starts, ends):
        np.subtract(mesh.points[1:], mesh.points[:-1], out=step[s + 1:e + 1])
    h = step[1:]  # h[k] = h_{k+1}; only steps within a block are used
    hbar = np.add(h[:-1], h[1:], out=p[1:-1])
    hbar *= 0.5
    np.multiply(h[1:], hbar, out=nq[1:-1])
    np.multiply(h[:-1], hbar, out=p[1:-1])
    np.divide(spec.epsilon, p[1:-1], out=p[1:-1])
    np.divide(-spec.epsilon, nq[1:-1], out=nq[1:-1])  # -q: exactly, as rounding is symmetric
    p[m] = 1.0 / h[m - 1]
    nq[m] = -1.0 / h[m]
    for right, coefficient, f in ((0, spec.a_left, spec.f_left), (1, spec.a_right, spec.f_right)):
        rows = [slice(s + 1 + right * mesh.n // 2, s + (mesh.n if right else mesh.n // 2))
                for mesh, s in zip(meshes, starts)]
        for r in rows:
            left[r] = not right
            if right:  # right of d the convection step is the forward one, h_{i+1}
                step[r] = step[r.start + 1:r.stop + 1]
        xs = np.concatenate([mesh.points[r.start - s:r.stop - s]
                             for mesh, r, s in zip(meshes, rows, starts)])
        bounds = np.cumsum([0] + [r.stop - r.start for r in rows])
        for target, expression in ((a, coefficient), (b, spec.b), (rhs, f)):
            value = evaluate_array(expression, xs)
            for r, lo, hi in zip(rows, bounds, bounds[1:]):
                target[r] = value[lo:hi]
    np.negative(rhs, out=rhs)
    rhs[starts], rhs[ends], rhs[m] = spec.y0, spec.y1, 0.0
    rhs.setflags(write=False)  # shared by every system assembled from the stencil
    return p, nq, b, a, step, rhs, left, starts, ends


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _system(mu: float, out, p, nq, b, a, step, rhs, left, starts, ends) -> TridiagonalSystem:
    """The system for ``mu`` in ``out``: the stencil plus each row's c = mu*a/step.

    c is cl left of d and cr right of it, each exactly zero off its side, which
    changes no sum: the entries are bitwise each side's own formula.
    """
    lower, diag, upper = out
    c = np.multiply(mu, a, out=upper)  # c, then cr, then upper
    c /= step
    lower.fill(0.0)
    np.copyto(lower, c, where=left)  # cl, then lower
    np.copyto(c, 0.0, where=left)
    np.subtract(p, nq, out=diag)  # p + q
    diag -= lower
    diag += c
    diag += b
    np.subtract(lower, p, out=lower)
    np.subtract(nq, c, out=upper)  # -(q + cr)
    lower[starts] = upper[starts] = lower[ends] = upper[ends] = 0.0
    diag[starts] = diag[ends] = 1.0
    _check_finite(lower=lower, diag=diag, upper=upper)  # rhs holds f (checked) and y0, y1
    for array in (lower, diag, upper):
        array.setflags(write=False)  # the system takes them without a copy
    return TridiagonalSystem(lower, diag, upper, rhs, rhs.size - 1)


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
