"""Double-mesh error estimation and convergence tables.

The error estimate compares the solution on a mesh against the solution on
its interval-bisection refinement at the shared (coarse) nodes; the
observed order between consecutive n is log2 of the error ratio.  Sweeps
over decades of mu or epsilon reproduce the usual error/order tables, one
table per mesh family, and a manufactured-solution harness measures true
nodal errors against a caller-supplied exact solution.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .expressions import BinOp, Expression, Num, evaluate_array
from .linalg import Solution, solve_thomas
from .mesh import Mesh, MeshFamily, build_mesh, refine_double
from .problem import DEFAULT_SAMPLES, ProblemSpec, RegimeData, derive_regime
from .scheme import assemble

__all__ = [
    "DOUBLE_MESH_MODES",
    "SweepCellWarning",
    "ConvergenceTable",
    "solve_on_mesh",
    "double_mesh_error",
    "convergence_table",
    "manufactured_convergence",
    "table_to_csv",
    "table_to_markdown",
    "comparison_to_csv",
    "comparison_to_markdown",
]

DOUBLE_MESH_MODES = ("bisect", "regenerate")

# failures that mark a sweep cell as missing instead of aborting the run
_CELL_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError)


class SweepCellWarning(UserWarning):
    """A sweep cell failed and was recorded as missing (NaN).

    The message names the mesh family, the swept parameter and its value,
    N, and the exception that ended the cell; the sweep itself continues.
    """


@dataclass(frozen=True, eq=False)
class ConvergenceTable:
    """Grid of double-mesh errors and observed orders over a parameter sweep.

    ``errors[j, k]`` is the estimate for ``sweep_values[j]`` at
    ``n_values[k]``; ``orders`` has one fewer column, with
    ``orders[j, k] = log2(errors[j, k] / errors[j, k + 1])``.  Missing
    cells are NaN.
    """

    sweep_param: str  # "mu" or "epsilon"
    sweep_values: tuple[float, ...]
    n_values: tuple[int, ...]
    errors: np.ndarray
    orders: np.ndarray
    mesh_family: MeshFamily

    def __post_init__(self):
        for name, width in (("errors", len(self.n_values)), ("orders", len(self.n_values) - 1)):
            array = np.array(getattr(self, name), dtype=float)
            expected = (len(self.sweep_values), width)
            if array.shape != expected:
                raise ValueError(f"{name} must have shape {expected}, got {array.shape}")
            array.setflags(write=False)
            object.__setattr__(self, name, array)


def solve_on_mesh(spec: ProblemSpec, mesh: Mesh) -> Solution:
    """Assemble and solve the discrete problem on one mesh."""
    return solve_thomas(assemble(spec, mesh))


def _check_mode(mode: str) -> None:
    if mode not in DOUBLE_MESH_MODES:
        raise ValueError(f"double-mesh mode must be one of {DOUBLE_MESH_MODES}, got {mode!r}")


def _fine_mesh(mesh: Mesh, mode: str, regime: RegimeData | None, d: float) -> Mesh:
    """The mesh with twice the intervals that ``mesh`` is compared against."""
    if mode == "bisect":
        return refine_double(mesh)
    return build_mesh(mesh.family, regime, 2 * mesh.n, d)


def double_mesh_error(
    spec: ProblemSpec,
    mesh: Mesh,
    mode: str = "bisect",
    regime: RegimeData | None = None,
) -> tuple[float, Solution, Solution]:
    """Double-mesh estimate: max difference at the coarse nodes.

    ``"bisect"`` refines by interval bisection, so every coarse node is
    shared with the fine mesh and compared directly.  ``"regenerate"``
    rebuilds a fresh mesh of the same family with twice the intervals and
    compares through linear interpolation; useful for sensitivity studies.
    The fresh mesh uses ``regime``, derived from ``spec`` with the default
    sampling when not given.
    """
    _check_mode(mode)
    coarse = solve_on_mesh(spec, mesh)
    if mode == "regenerate" and regime is None and mesh.family is not MeshFamily.UNIFORM:
        regime = derive_regime(spec, DEFAULT_SAMPLES)
    fine_mesh = _fine_mesh(mesh, mode, regime, spec.d)
    fine = solve_on_mesh(spec, fine_mesh)
    return _max_difference(mesh, coarse, fine_mesh, fine, mode), coarse, fine


def _max_difference(
    mesh: Mesh, coarse: Solution, fine_mesh: Mesh, fine: Solution, mode: str
) -> float:
    if mode == "bisect":
        matched = fine.y[0::2]
    else:
        matched = np.interp(mesh.points, fine_mesh.points, fine.y)
    return float(np.max(np.abs(coarse.y - matched)))


def _row_errors(
    spec: ProblemSpec,
    regime: RegimeData,
    family: MeshFamily,
    n_values: tuple[int, ...],
    mode: str,
    failed: Callable[[int, Exception], None],
) -> list[float]:
    """Double-mesh errors along one sweep row, in ``n_values`` order.

    In regenerate mode the fine solve at 2N is kept, and a following cell
    at that N takes it as its coarse solve.  A bisected mesh is not the
    mesh built for 2N, so bisect mode keeps nothing.  Meshing, assembly
    and the solve are deterministic, so every error equals
    ``double_mesh_error`` cell by cell.  A solve that raises is not kept;
    the next cell recomputes it and fails the same way.
    """
    errors = []
    kept = None  # (n, mesh, solution) of the last regenerated fine solve
    for n in n_values:
        reused, kept = kept, None
        try:
            if reused is not None and reused[0] == n:
                _, mesh, coarse = reused
            else:
                mesh = build_mesh(family, regime, n, spec.d)
                coarse = solve_on_mesh(spec, mesh)
            fine_mesh = _fine_mesh(mesh, mode, regime, spec.d)
            fine = solve_on_mesh(spec, fine_mesh)
            if mode == "regenerate":
                kept = (2 * n, fine_mesh, fine)
            errors.append(_max_difference(mesh, coarse, fine_mesh, fine, mode))
        except _CELL_ERRORS as err:
            failed(n, err)
            errors.append(math.nan)
    return errors


def _orders_from_errors(errors: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.log2(errors[:, :-1] / errors[:, 1:])


def _warn_cell(family: MeshFamily, param: str, value: float, n: int, err: Exception) -> None:
    warnings.warn(
        f"{family.value} sweep cell {param} = {value!r}, N = {n} left empty: "
        f"{type(err).__name__}: {err}",
        SweepCellWarning,
        stacklevel=2,
    )


def _sweep_spec(spec: ProblemSpec, param: str, value: float) -> ProblemSpec:
    if param == "mu":
        return replace(spec, mu=value)
    if param == "epsilon":
        return replace(spec, epsilon=value)
    raise ValueError(f"sweep parameter must be 'mu' or 'epsilon', got {param!r}")


def convergence_table(
    spec: ProblemSpec,
    sweep_param: str,
    sweep_values: Sequence[float],
    n_values: Sequence[int],
    family: MeshFamily = MeshFamily.SHISHKIN_BAKHVALOV,
    mode: str = "bisect",
    samples: int = DEFAULT_SAMPLES,
) -> ConvergenceTable:
    """Fill the error/order grid for one mesh family.

    Cell failures are recorded as NaN, each named by a
    :class:`SweepCellWarning`, and the sweep continues.  In regenerate mode
    a cell's fine solve is reused as the coarse solve of the next cell when
    that cell's N doubles the previous one.
    """
    _check_mode(mode)
    sweep_values = tuple(float(v) for v in sweep_values)
    n_values = tuple(int(n) for n in n_values)
    specs = [_sweep_spec(spec, sweep_param, value) for value in sweep_values]
    regimes = [derive_regime(s, samples) for s in specs]
    flat = []
    for value, row_spec, regime in zip(sweep_values, specs, regimes):
        failed = functools.partial(_warn_cell, family, sweep_param, value)
        flat += _row_errors(row_spec, regime, family, n_values, mode, failed)
    errors = np.array(flat).reshape(len(sweep_values), len(n_values))
    return ConvergenceTable(
        sweep_param=sweep_param,
        sweep_values=sweep_values,
        n_values=n_values,
        errors=errors,
        orders=_orders_from_errors(errors),
        mesh_family=family,
    )


def _exact_side_rhs(
    spec: ProblemSpec,
    a: Expression,
    exact: Expression,
    exact_d1: Expression,
    exact_d2: Expression,
) -> Expression:
    # f = eps*y'' + mu*a*y' - b*y with this side's convection coefficient
    diffusion = BinOp("*", Num(spec.epsilon), exact_d2)
    convection = BinOp("*", BinOp("*", Num(spec.mu), a), exact_d1)
    return BinOp("-", BinOp("+", diffusion, convection), BinOp("*", spec.b, exact))


def manufactured_convergence(
    spec: ProblemSpec,
    exact: Expression,
    exact_d1: Expression,
    exact_d2: Expression,
    n_values: Sequence[int],
    family: MeshFamily = MeshFamily.SHISHKIN_BAKHVALOV,
    samples: int = DEFAULT_SAMPLES,
) -> ConvergenceTable:
    """True-error convergence against a caller-supplied exact solution.

    The source term is constructed from the exact solution and its first
    two derivatives (all supplied explicitly; nothing is differentiated
    symbolically), and the boundary values are taken from the exact
    solution.  Errors are max nodal errors, not double-mesh estimates.
    """
    n_values = tuple(int(n) for n in n_values)
    y0, y1 = evaluate_array(exact, [0.0, 1.0]).tolist()
    forced = replace(
        spec,
        f_left=_exact_side_rhs(spec, spec.a_left, exact, exact_d1, exact_d2),
        f_right=_exact_side_rhs(spec, spec.a_right, exact, exact_d1, exact_d2),
        y0=y0,
        y1=y1,
    )
    regime = derive_regime(forced, samples)

    def cell(n: int) -> float:
        try:
            mesh = build_mesh(family, regime, n, forced.d)
            solution = solve_on_mesh(forced, mesh)
            exact_nodes = evaluate_array(exact, mesh.points)
            return float(np.max(np.abs(solution.y - exact_nodes)))
        except _CELL_ERRORS as err:
            _warn_cell(family, "mu", spec.mu, n, err)
            return math.nan

    errors = np.array([[cell(n) for n in n_values]])
    return ConvergenceTable(
        sweep_param="mu",
        sweep_values=(spec.mu,),
        n_values=n_values,
        errors=errors,
        orders=_orders_from_errors(errors),
        mesh_family=family,
    )


def _format_cell(value: float) -> str:
    return "" if math.isnan(value) else repr(float(value))


def _csv_fields(table: ConvergenceTable, j: int) -> list[str]:
    """``N,E,R`` of each cell in sweep row ``j``; R is empty at the final N."""
    orders = list(table.orders[j]) + [math.nan]
    return [
        f"{n},{_format_cell(error)},{_format_cell(order)}"
        for n, error, order in zip(table.n_values, table.errors[j], orders)
    ]


def table_to_csv(table: ConvergenceTable) -> str:
    """CSV with header ``param,N,E,R``; R is empty in the final-N row."""
    lines = ["param,N,E,R"]
    for j, value in enumerate(table.sweep_values):
        lines += [f"{value!r},{fields}" for fields in _csv_fields(table, j)]
    return "\n".join(lines) + "\n"


def _md_error(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.4e}"


def _md_order(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.5f}"


def _md_row(cells: Sequence[str]) -> str:
    return "| " + " | ".join(cells) + " |"


def _md_head(header: Sequence[str]) -> list[str]:
    return [_md_row(header), _md_row(["---"] * len(header))]


def table_to_markdown(table: ConvergenceTable) -> str:
    """Markdown table: per sweep value, one error row and one order row."""
    lines = _md_head([table.sweep_param] + [f"N={n}" for n in table.n_values])
    for j, value in enumerate(table.sweep_values):
        lines.append(_md_row([f"{value:g}"] + [_md_error(e) for e in table.errors[j]]))
        lines.append(_md_row(["order"] + [_md_order(r) for r in table.orders[j]] + [""]))
    return "\n".join(lines) + "\n"


def _same_sweep(tables: Sequence[ConvergenceTable]) -> ConvergenceTable:
    if len({(t.sweep_param, t.sweep_values, t.n_values) for t in tables}) != 1:
        raise ValueError("compared tables must share the sweep and the N values")
    return tables[0]


def comparison_to_csv(tables: Sequence[ConvergenceTable]) -> str:
    """CSV with header ``param,mesh,N,E,R``; per parameter, one block per table."""
    first = _same_sweep(tables)
    lines = ["param,mesh,N,E,R"]
    for j, value in enumerate(first.sweep_values):
        for table in tables:
            family = table.mesh_family.value
            lines += [f"{value!r},{family},{fields}" for fields in _csv_fields(table, j)]
    return "\n".join(lines) + "\n"


def comparison_to_markdown(tables: Sequence[ConvergenceTable]) -> str:
    """Markdown comparison of observed orders, one row per parameter and table."""
    first = _same_sweep(tables)
    lines = _md_head([first.sweep_param, "mesh"] + [f"N={n}" for n in first.n_values[:-1]])
    for j, value in enumerate(first.sweep_values):
        for table in tables:
            cells = [f"{value:g}", table.mesh_family.value]
            lines.append(_md_row(cells + [_md_order(r) for r in table.orders[j]]))
    return "\n".join(lines) + "\n"
