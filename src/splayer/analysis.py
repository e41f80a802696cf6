"""Double-mesh error estimation, convergence tables, and mesh comparison.

The error estimate compares the solution on a mesh against the solution on
its interval-bisection refinement at the shared (coarse) nodes; the
observed order between consecutive n is log2 of the error ratio.  Sweeps
over decades of mu or epsilon reproduce the usual error/order tables, and
a manufactured-solution harness measures true nodal errors against a
caller-supplied exact solution.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .linalg import Solution, solve_thomas
from .mesh import Mesh, MeshFamily, build_mesh, refine_double
from .problem import (
    DEFAULT_SAMPLES,
    Coefficient,
    ProblemSpec,
    RegimeData,
    coefficient_values,
    derive_regime,
)
from .scheme import assemble

__all__ = [
    "DOUBLE_MESH_MODES",
    "SweepCellWarning",
    "ConvergenceTable",
    "MeshComparison",
    "solve_on_mesh",
    "double_mesh_error",
    "convergence_table",
    "compare_meshes",
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


@dataclass(frozen=True)
class MeshComparison:
    """Paired sweeps on the uniform-in-layers and graded families."""

    shishkin: ConvergenceTable
    shishkin_bakhvalov: ConvergenceTable


def solve_on_mesh(spec: ProblemSpec, mesh: Mesh) -> Solution:
    """Assemble and solve the discrete problem on one mesh."""
    return solve_thomas(assemble(spec, mesh))


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
    if mode not in DOUBLE_MESH_MODES:
        raise ValueError(f"double-mesh mode must be one of {DOUBLE_MESH_MODES}, got {mode!r}")
    coarse = solve_on_mesh(spec, mesh)
    if mode == "bisect":
        fine_mesh = refine_double(mesh)
    else:
        if regime is None and mesh.family is not MeshFamily.UNIFORM:
            regime = derive_regime(spec, DEFAULT_SAMPLES)
        fine_mesh = build_mesh(mesh.family, regime, 2 * mesh.n, spec.d)
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


def _regenerate_row(
    spec: ProblemSpec,
    regime: RegimeData,
    family: MeshFamily,
    n_values: tuple[int, ...],
    failed: Callable[[int, Exception], None],
) -> list[float]:
    """Regenerate-mode errors along one sweep row, in ``n_values`` order.

    The fine solve at 2N is kept, and a following cell at that N takes it
    as its coarse solve.  Meshing, assembly and the solve are deterministic,
    so every error equals ``double_mesh_error`` cell by cell.  A solve that
    raises is not kept; the next cell recomputes it and fails the same way.
    """
    errors = []
    kept = None  # (n, mesh, solution) of the last fine solve
    for n in n_values:
        reused, kept = kept, None
        try:
            if reused is not None and reused[0] == n:
                _, mesh, coarse = reused
            else:
                mesh = build_mesh(family, regime, n, spec.d)
                coarse = solve_on_mesh(spec, mesh)
            fine_mesh = build_mesh(family, regime, 2 * n, spec.d)
            fine = solve_on_mesh(spec, fine_mesh)
            kept = (2 * n, fine_mesh, fine)
            errors.append(_max_difference(mesh, coarse, fine_mesh, fine, "regenerate"))
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
    sweep_values = tuple(float(v) for v in sweep_values)
    n_values = tuple(int(n) for n in n_values)
    specs = [_sweep_spec(spec, sweep_param, value) for value in sweep_values]
    regimes = [derive_regime(s, samples) for s in specs]
    flat = []
    for value, row_spec, regime in zip(sweep_values, specs, regimes):
        failed = functools.partial(_warn_cell, family, sweep_param, value)
        if mode == "regenerate":
            flat += _regenerate_row(row_spec, regime, family, n_values, failed)
            continue
        for n in n_values:
            try:
                mesh = build_mesh(family, regime, n, row_spec.d)
                error, _, _ = double_mesh_error(row_spec, mesh, mode, regime)
            except _CELL_ERRORS as err:
                failed(n, err)
                error = math.nan
            flat.append(error)
    errors = np.array(flat).reshape(len(sweep_values), len(n_values))
    return ConvergenceTable(
        sweep_param=sweep_param,
        sweep_values=sweep_values,
        n_values=n_values,
        errors=errors,
        orders=_orders_from_errors(errors),
        mesh_family=family,
    )


def compare_meshes(
    spec: ProblemSpec,
    sweep_param: str,
    sweep_values: Sequence[float],
    n_values: Sequence[int],
    mode: str = "bisect",
    samples: int = DEFAULT_SAMPLES,
) -> MeshComparison:
    """Run the same sweep on both layer-adapted families."""
    shishkin = convergence_table(
        spec, sweep_param, sweep_values, n_values,
        family=MeshFamily.SHISHKIN, mode=mode, samples=samples,
    )
    graded = convergence_table(
        spec, sweep_param, sweep_values, n_values,
        family=MeshFamily.SHISHKIN_BAKHVALOV, mode=mode, samples=samples,
    )
    return MeshComparison(shishkin=shishkin, shishkin_bakhvalov=graded)


def _exact_side_rhs(
    spec: ProblemSpec,
    a: Coefficient,
    exact: Coefficient,
    exact_d1: Coefficient,
    exact_d2: Coefficient,
):
    # f = eps*y'' + mu*a*y' - b*y evaluated with this side's convection term
    def rhs(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        values = (
            spec.epsilon * coefficient_values(exact_d2, xs, "exact_d2")
            + spec.mu * coefficient_values(a, xs, "a") * coefficient_values(exact_d1, xs, "exact_d1")
            - coefficient_values(spec.b, xs, "b") * coefficient_values(exact, xs, "exact")
        )
        return values if np.ndim(x) else float(values[0])

    return rhs


def manufactured_convergence(
    spec: ProblemSpec,
    exact: Coefficient,
    exact_d1: Coefficient,
    exact_d2: Coefficient,
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
    forced = replace(
        spec,
        f_left=_exact_side_rhs(spec, spec.a_left, exact, exact_d1, exact_d2),
        f_right=_exact_side_rhs(spec, spec.a_right, exact, exact_d1, exact_d2),
        y0=float(coefficient_values(exact, np.array([0.0]), "exact")[0]),
        y1=float(coefficient_values(exact, np.array([1.0]), "exact")[0]),
    )
    regime = derive_regime(forced, samples)

    def cell(n: int) -> float:
        try:
            mesh = build_mesh(family, regime, n, forced.d)
            solution = solve_on_mesh(forced, mesh)
            exact_nodes = coefficient_values(exact, mesh.points, "exact")
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


def table_to_csv(table: ConvergenceTable) -> str:
    """CSV with header ``param,N,E,R``; R is empty in the final-N row."""
    lines = ["param,N,E,R"]
    for j, value in enumerate(table.sweep_values):
        for k, n in enumerate(table.n_values):
            order = table.orders[j, k] if k < len(table.n_values) - 1 else math.nan
            lines.append(
                f"{value!r},{n},{_format_cell(table.errors[j, k])},{_format_cell(order)}"
            )
    return "\n".join(lines) + "\n"


def _md_error(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.4e}"


def _md_order(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.5f}"


def table_to_markdown(table: ConvergenceTable) -> str:
    """Markdown table: per sweep value, one error row and one order row."""
    header = [table.sweep_param] + [f"N={n}" for n in table.n_values]
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for j, value in enumerate(table.sweep_values):
        error_cells = [_md_error(e) for e in table.errors[j]]
        order_cells = [_md_order(r) for r in table.orders[j]] + [""]
        lines.append("| " + " | ".join([f"{value:g}"] + error_cells) + " |")
        lines.append("| " + " | ".join(["order"] + order_cells) + " |")
    return "\n".join(lines) + "\n"


def comparison_to_csv(comparison: MeshComparison) -> str:
    """CSV with header ``param,mesh,N,E,R``; families paired per parameter."""
    lines = ["param,mesh,N,E,R"]
    tables = (comparison.shishkin, comparison.shishkin_bakhvalov)
    for j, value in enumerate(comparison.shishkin.sweep_values):
        for table in tables:
            for k, n in enumerate(table.n_values):
                order = table.orders[j, k] if k < len(table.n_values) - 1 else math.nan
                lines.append(
                    f"{value!r},{table.mesh_family.value},{n},"
                    f"{_format_cell(table.errors[j, k])},{_format_cell(order)}"
                )
    return "\n".join(lines) + "\n"


def comparison_to_markdown(comparison: MeshComparison) -> str:
    """Markdown comparison of observed orders, two rows per parameter."""
    n_values = comparison.shishkin.n_values
    header = [comparison.shishkin.sweep_param, "mesh"] + [f"N={n}" for n in n_values[:-1]]
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for j, value in enumerate(comparison.shishkin.sweep_values):
        for table in (comparison.shishkin, comparison.shishkin_bakhvalov):
            cells = [_md_order(r) for r in table.orders[j]]
            lines.append(
                "| " + " | ".join([f"{value:g}", table.mesh_family.value] + cells) + " |"
            )
    return "\n".join(lines) + "\n"
