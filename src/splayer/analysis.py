"""Double-mesh error estimation and convergence tables.

The error estimate compares the solution on a mesh against the solution on
its interval-bisection refinement at the shared (coarse) nodes; the
observed order between consecutive n is log2 of the error ratio.  Sweeps
over decades of mu or epsilon reproduce the usual error/order tables, one
table per mesh family, and a manufactured-solution harness measures true
nodal errors against a caller-supplied exact solution.

The coefficient constants behind the layer widths come from at most one
``problem.validate`` pass per table (see ``problem.with_constants``): the
filled spec carries them, and so does every row spec made from it.

A sweep table is computed row by row: each distinct mesh of a row is
built once, or once for rows with the same widths and epsilon (a mu sweep
in Case 1), and the row's systems are laid end to end and solved as one
chain, at most ``_CHAIN_ROWS`` rows at a time (see ``scheme.assemble``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .expressions import BinOp, Expression, Num, evaluate_array
from .linalg import Solution, solve_thomas
from .mesh import Mesh, MeshFamily, build_mesh, refine_double
from .problem import ProblemSpec, RegimeData, derive_regime, with_constants
from .scheme import _Chain, assemble

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

# failures that mark a sweep cell as missing instead of aborting the run;
# EvaluationError and LinAlgError are ValueErrors, PivotError an ArithmeticError
_CELL_ERRORS = (ValueError, ArithmeticError)

# most rows one chained assembly and solve takes, and so the most a kept stencil
# holds; a larger system runs alone.  A sweep row of ex2 (N = 64..4096, bisect) is
# 24 398 rows, one chain; without a cap a row with N up to 2^18 nearly doubled the peak memory
_CHAIN_ROWS = 1 << 16


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


def double_mesh_error(
    spec: ProblemSpec, mesh: Mesh, mode: str = "bisect"
) -> tuple[float, Solution, Solution]:
    """Double-mesh estimate: max difference at the coarse nodes.

    ``"bisect"`` refines by interval bisection, so every coarse node is
    shared with the fine mesh and compared directly.  ``"regenerate"``
    rebuilds a fresh mesh of the same family with twice the intervals and
    compares through linear interpolation; useful for sensitivity studies.
    The fresh mesh takes its regime from ``derive_regime(spec)``.
    """
    _check_mode(mode)
    coarse = solve_on_mesh(spec, mesh)
    regenerated = mode == "regenerate" and mesh.family is not MeshFamily.UNIFORM
    regime = derive_regime(spec) if regenerated else None
    fine_mesh = (refine_double(mesh) if mode == "bisect"
                 else build_mesh(mesh.family, regime, 2 * mesh.n, spec.d))
    fine = solve_on_mesh(spec, fine_mesh)
    return _max_difference(mesh, coarse.y, fine_mesh, fine.y, mode), coarse, fine


def _max_difference(
    mesh: Mesh, coarse: np.ndarray, fine_mesh: Mesh, fine: np.ndarray, mode: str
) -> float:
    if mode == "bisect":
        matched = fine[0::2]
    else:
        matched = np.interp(mesh.points, fine_mesh.points, fine)
    return float(np.max(np.abs(coarse - matched)))


def _solve_run(spec: ProblemSpec, meshes: list[Mesh]) -> list:
    """Each mesh's nodal values, or the exception its own solve raises, in order.

    The meshes' systems are assembled and solved as one chain, and each
    mesh's values are sliced out of it.  Should the chain raise, for
    instance on a zero pivot in one block, each system is solved alone, so
    a failure ends only its own cells, with the message of its own solve.
    """
    try:
        y = solve_thomas(assemble(spec, meshes)).y
    except _CELL_ERRORS as err:
        if len(meshes) == 1:
            return [err]
        return [result for mesh in meshes for result in _solve_run(spec, [mesh])]
    return np.split(y, np.cumsum([mesh.n + 1 for mesh in meshes[:-1]]))


def _runs(keys: list, meshes: dict) -> list[list]:
    """Consecutive keys of ``meshes``, in order, in runs of at most ``_CHAIN_ROWS`` rows."""
    runs = []
    for key in keys:
        if runs and sum(meshes[k].n + 1 for k in runs[-1]) + meshes[key].n + 1 <= _CHAIN_ROWS:
            runs[-1].append(key)
        else:  # a new run, which a mesh above the cap fills alone
            runs.append([key])
    return runs


def _row_meshes(
    spec: ProblemSpec, regime: RegimeData, family: MeshFamily, cells: list, shared: bool
) -> tuple:
    """Each distinct mesh of a row's cells, and the runs their systems are solved in.

    The meshes are the mesh for each N, and its bisection or, in regenerate
    mode, the mesh built for 2N, which is also the cell's own mesh where N
    is that 2N, or the exception building it raised.  When the next row
    shares them (``shared``) and the row is one run, that run is a
    ``scheme._Chain``, which keeps its stencil for the next row.
    """
    meshes = {}  # (n, bisected) -> Mesh, or the exception building it raised
    for key in dict.fromkeys(key for cell in cells for key in cell):
        n, bisected = key
        try:
            if not bisected:
                meshes[key] = build_mesh(family, regime, n, spec.d)
            else:  # the bisection of a mesh that failed fails with it
                coarse = meshes[n, False]
                meshes[key] = refine_double(coarse) if isinstance(coarse, Mesh) else coarse
        except _CELL_ERRORS as err:
            meshes[key] = err
    runs = _runs([key for key, mesh in meshes.items() if isinstance(mesh, Mesh)], meshes)
    kind = _Chain if shared and len(runs) == 1 else list
    return meshes, [(run, kind(meshes[key] for key in run)) for run in runs]


def _row_errors(spec: ProblemSpec, cells: list, meshes: dict, runs: list, mode: str) -> tuple:
    """Double-mesh errors of one sweep row, and the exception of each failed cell.

    The systems are solved run by run (``_solve_run``), each cell is computed
    as soon as its values are, and values no later cell reads are dropped.  A cell
    fails with the first exception of its mesh, its solve, its fine mesh and
    its fine solve, as ``double_mesh_error`` would raise.  Failures map the
    column to their exception.
    """
    runs = iter(runs)
    values = {}  # nodal values, or the exception solving raised
    errors = np.full(len(cells), math.nan)
    failures = {}
    for k, (coarse, fine) in enumerate(cells):
        while any(isinstance(meshes[key], Mesh) and key not in values for key in (coarse, fine)):
            keys, run = next(runs)
            values.update(zip(keys, _solve_run(spec, run)))
        steps = (meshes[coarse], values.get(coarse), meshes[fine], values.get(fine))
        failure = next((step for step in steps if isinstance(step, Exception)), None)
        if failure is not None:
            failures[k] = failure
        else:
            errors[k] = _max_difference(meshes[coarse], values[coarse], meshes[fine],
                                        values[fine], mode)
        later = {key for cell in cells[k + 1:] for key in cell}
        values = {key: y for key, y in values.items() if key in later}
    return errors, failures


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
) -> ConvergenceTable:
    """Fill the error/order grid for one mesh family.

    The coefficients are validated and sampled once for the table, and not
    at all when ``spec`` already holds the four constants (see
    :func:`~splayer.problem.with_constants`); a spec that breaks a sign
    hypothesis raises ``ValueError`` before any cell.  The cells are computed
    row by row, each row's systems in chains, rows with the same widths and
    epsilon on the same meshes (see ``_row_meshes``).  Cell failures are
    recorded as NaN, each named by a :class:`SweepCellWarning` in row-major
    order, and the sweep continues.  In regenerate mode a cell's fine solve
    is reused as the coarse solve of the cell whose N is twice that cell's.
    """
    _check_mode(mode)
    sweep_values = tuple(float(v) for v in sweep_values)
    n_values = tuple(int(n) for n in n_values)
    filled = with_constants(spec)
    specs = [_sweep_spec(filled, sweep_param, value) for value in sweep_values]
    regimes = [derive_regime(row_spec) for row_spec in specs]
    keys = [(r.theta1, r.theta2, s.epsilon) for s, r in zip(specs, regimes)] + [None]
    cells = [((n, False), (n, True) if mode == "bisect" else (2 * n, False)) for n in n_values]
    errors = np.empty((len(sweep_values), len(n_values)))
    for j, (value, row_spec, regime) in enumerate(zip(sweep_values, specs, regimes)):
        if j == 0 or keys[j] != keys[j - 1]:
            built = None  # the previous rows' meshes go before this row's are built
            built = _row_meshes(row_spec, regime, family, cells, keys[j] == keys[j + 1])
        errors[j], failures = _row_errors(row_spec, cells, *built, mode)
        for k in sorted(failures):
            _warn_cell(family, sweep_param, value, n_values[k], failures[k])
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
) -> ConvergenceTable:
    """True-error convergence against a caller-supplied exact solution.

    The source term is constructed from the exact solution and its first
    two derivatives (all supplied explicitly; nothing is differentiated
    symbolically), and the boundary values are taken from the exact
    solution.  Errors are max nodal errors, not double-mesh estimates.
    Only f changes, so the forced problem keeps the constants ``spec``
    carries; one that lacks some goes through
    :func:`~splayer.problem.validate` first.
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
    regime = derive_regime(forced)

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
