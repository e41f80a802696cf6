"""Command-line driver: solves, parameter sweeps, mesh dumps, and plots.

Exit status: 0 on success, 2 on configuration errors (flags, problem
files, ranges, an output path that cannot be written), 3 on numerical
failures (pivot breakdown, non-finite coefficients, singular systems) and
on mesh sizes whose arrays do not fit in memory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import signal
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator

from . import analysis
from .expressions import ExpressionSyntaxError, parse
from .mesh import MeshFamily, build_mesh, node_regions
from .problem import ProblemSpec, builtin_example, derive_regime, load_problem, validate
from .svg import polyline_plot

__all__ = ["main", "CLIError", "RunConfig"]

_FAMILIES = {
    "sb": MeshFamily.SHISHKIN_BAKHVALOV,
    "shishkin": MeshFamily.SHISHKIN,
    "uniform": MeshFamily.UNIFORM,
}

_COMPARED_FAMILIES = (MeshFamily.SHISHKIN, MeshFamily.SHISHKIN_BAKHVALOV)

_DEFAULT_OUTPUT = {
    "solve": "solution",
    "converge": "convergence",
    "compare": "comparison",
    "mesh": "mesh",
    "manufactured": "manufactured",
}


# rows of a solve or mesh CSV formatted from one slice of float lists and
# written as one chunk; at n = 2^20 streaming the chunks holds ~100 MB less
# at the peak than one joined string
_CSV_CHUNK = 4096

# a solve or mesh CSV of at least this many rows is formatted in two
# processes (see _write_csv); on an idle 2 vCPU host the fork pays from
# ~2^12 rows, but below 2^16 it saves under ~20 ms and a busy host turns
# that into a loss
_FORK_ROWS = 1 << 16


class CLIError(Exception):
    """Configuration problem reported with exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    spec: ProblemSpec
    sweep_param: str | None  # "mu" or "epsilon" for sweeps, None otherwise
    sweep_values: tuple[float, ...]
    n_values: tuple[int, ...]
    families: tuple[MeshFamily, ...]  # one, except for compare
    output: Path
    fmt: str  # csv | md
    plot: bool
    markers: bool
    double_mesh: str  # bisect | regenerate
    exact: tuple | None  # (y, y', y'') expressions for manufactured runs


def _umask() -> int:
    mask = os.umask(0)  # reading the umask means setting it; restore at once
    os.umask(mask)
    return mask


def write_atomic(path: Path, text: str | Iterable[str]) -> None:
    """Write via a temp file in the same directory, then rename.

    ``text`` is one string or an iterable of string chunks, written in
    order; the target is replaced only once every chunk is written.  The
    file gets the mode ``open()`` would give it under the current umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=path.parent, prefix=f".{path.name}.", delete=False, encoding="utf-8"
    )
    try:
        with handle:
            # the temp file is created 0600, and os.replace keeps that mode
            os.chmod(handle.name, 0o666 & ~_umask())
            if isinstance(text, str):
                handle.write(text)
            else:
                handle.writelines(text)
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


def _parse_decades(text: str, flag: str) -> tuple[float, ...]:
    """Expand ``A:B`` into powers of ten from A to B inclusive."""
    pieces = text.split(":")
    if len(pieces) > 2:
        raise CLIError(f"{flag}: expected VALUE or START:STOP, got {text!r}")
    try:
        endpoints = [float(p) for p in pieces]
    except ValueError:
        raise CLIError(f"{flag}: could not parse {text!r} as numbers") from None
    if len(endpoints) == 1:
        return (endpoints[0],)
    exponents = []
    for value in endpoints:
        if not (math.isfinite(value) and value > 0.0):
            raise CLIError(
                f"{flag}: decade range endpoints must be finite and positive, got {value}"
            )
        exponent = math.log10(value)
        if abs(exponent - round(exponent)) > 1e-9:
            raise CLIError(f"{flag}: range endpoints must be powers of ten, got {value}")
        exponents.append(round(exponent))
    lo, hi = exponents
    step = 1 if hi >= lo else -1
    return tuple(float(f"1e{k}") for k in range(lo, hi + step, step))


def _parse_n_values(text: str) -> tuple[int, ...]:
    """``64`` | ``64,128,256`` | ``64:1024`` (doubling range)."""
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":")
            lo, hi = int(lo_text), int(hi_text)
            if lo <= 0 or hi < lo:
                raise ValueError
            values = []
            n = lo
            while n <= hi:
                values.append(n)
                n *= 2
            if values[-1] != hi:
                raise CLIError(
                    f"--n: doubling range {text!r} does not land on its upper end"
                )
        else:
            values = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise CLIError(f"--n: could not parse {text!r}") from None
    for n in values:
        if n < 16 or n % 8:
            raise CLIError(f"--n: values must be multiples of 8 and at least 16, got {n}")
    return tuple(values)


def _load_spec(source: str, epsilon: float, mu: float) -> ProblemSpec:
    if source.lower() in ("ex1", "ex2"):
        return builtin_example(source, epsilon=epsilon, mu=mu)
    path = Path(source)
    if not path.exists():
        raise CLIError(f"--problem: {source!r} is not a built-in id (ex1, ex2) or a file")
    try:
        spec = load_problem(path)
    except (json.JSONDecodeError, ExpressionSyntaxError, ValueError, OSError) as err:
        raise CLIError(f"--problem: failed to load {source!r}: {err}") from err
    return replace(spec, epsilon=epsilon, mu=mu)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splayer",
        description=(
            "Finite-difference solver for two-parameter reaction-convection-"
            "diffusion problems whose convection coefficient and source jump "
            "at an interior point"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # a subcommand registers only the flags it reads: compare always runs
    # both layer-adapted families, and manufactured solves one (epsilon, mu)
    def common(p, *, mesh: bool = True, sweep: bool = False, table: bool = False):
        p.add_argument("--problem", required=True, help="ex1, ex2, or a JSON problem file")
        if mesh:
            p.add_argument("--mesh", default="sb", choices=sorted(_FAMILIES),
                           help="mesh family (default sb)")
        p.add_argument("--output", default=None, help="output file path")
        if sweep:
            p.add_argument("--epsilon", default=None, help="fixed diffusion parameter")
            p.add_argument("--mu", default=None, help="fixed convection parameter")
            p.add_argument("--epsilon-range", default=None,
                           help="decade sweep START:STOP, e.g. 1e-8:1e-14")
            p.add_argument("--mu-range", default=None,
                           help="decade sweep START:STOP, e.g. 1e-4:1e-17")
        else:
            p.add_argument("--epsilon", required=True, help="diffusion parameter")
            p.add_argument("--mu", required=True, help="convection parameter")
        if table:
            p.add_argument("--n", required=True,
                           help="mesh sizes: scalar, comma list, or doubling range 64:1024")
            p.add_argument("--format", default="csv", choices=("csv", "md"))
        else:
            p.add_argument("--n", required=True, help="mesh size (multiple of 8)")
        if sweep:
            p.add_argument("--double-mesh", default="bisect",
                           choices=analysis.DOUBLE_MESH_MODES)

    p_solve = sub.add_parser("solve", help="solve once and write nodal values")
    common(p_solve)
    p_solve.add_argument("--plot", action="store_true", help="also write an SVG plot")
    p_solve.add_argument("--markers", action="store_true", help="node markers in the plot")

    p_conv = sub.add_parser("converge", help="double-mesh error/order table")
    common(p_conv, sweep=True, table=True)

    p_comp = sub.add_parser("compare", help="graded vs piecewise-uniform mesh orders")
    common(p_comp, mesh=False, sweep=True, table=True)

    p_mesh = sub.add_parser("mesh", help="dump mesh nodes as CSV")
    common(p_mesh)

    p_man = sub.add_parser("manufactured", help="true-error table for a known solution")
    common(p_man, table=True)
    p_man.add_argument("--exact", required=True, help="exact solution expression in x")
    p_man.add_argument("--exact-d1", required=True, help="its first derivative")
    p_man.add_argument("--exact-d2", required=True, help="its second derivative")
    return parser


def _scalar(value: str | None, flag: str) -> float:
    if value is None:
        raise CLIError(f"{flag} is required here")
    try:
        return float(value)
    except ValueError:
        raise CLIError(f"{flag}: could not parse {value!r}") from None


def _check_output(output: Path) -> None:
    """Reject an output path that is a directory or whose parent cannot be made."""
    if output.is_dir():
        raise CLIError(f"--output: {str(output)!r} is a directory")
    ancestor = output.parent
    while not ancestor.exists() and ancestor != ancestor.parent:
        ancestor = ancestor.parent
    if not ancestor.is_dir():
        raise CLIError(
            f"--output: cannot create the directory of {str(output)!r}: "
            f"{str(ancestor)!r} is not a directory"
        )


def build_config(args: argparse.Namespace) -> RunConfig:
    sweeping = args.subcommand in ("converge", "compare")
    fmt = getattr(args, "format", "csv")
    plot = getattr(args, "plot", False)
    markers = getattr(args, "markers", False)
    double_mesh = getattr(args, "double_mesh", "bisect")
    # compare has no --mesh: it always runs both layer-adapted families
    families = _COMPARED_FAMILIES if args.subcommand == "compare" else (_FAMILIES[args.mesh],)

    if sweeping:
        if args.epsilon_range is not None and args.mu_range is not None:
            raise CLIError("sweep exactly one of --epsilon-range / --mu-range")
        if args.mu_range is not None:
            sweep_param = "mu"
            sweep_values = _parse_decades(args.mu_range, "--mu-range")
            epsilon = _scalar(args.epsilon, "--epsilon")
            mu = sweep_values[0]
        elif args.epsilon_range is not None:
            sweep_param = "epsilon"
            sweep_values = _parse_decades(args.epsilon_range, "--epsilon-range")
            epsilon = sweep_values[0]
            mu = _scalar(args.mu, "--mu")
        else:
            raise CLIError("converge/compare need --epsilon-range or --mu-range")
        n_values = _parse_n_values(args.n)
        exact = None
    elif args.subcommand == "manufactured":
        epsilon = _scalar(args.epsilon, "--epsilon")
        mu = _scalar(args.mu, "--mu")
        sweep_param = None
        sweep_values = ()
        n_values = _parse_n_values(args.n)
        try:
            exact = (parse(args.exact), parse(args.exact_d1), parse(args.exact_d2))
        except ExpressionSyntaxError as err:
            raise CLIError(f"--exact*: {err}") from err
    else:
        epsilon = _scalar(args.epsilon, "--epsilon")
        mu = _scalar(args.mu, "--mu")
        sweep_param = None
        sweep_values = ()
        n_values = _parse_n_values(args.n)
        if len(n_values) != 1:
            raise CLIError(f"{args.subcommand} takes a single --n value")
        exact = None

    try:
        spec = _load_spec(args.problem, epsilon, mu)
    except ValueError as err:
        raise CLIError(str(err)) from err

    output = Path(args.output) if args.output else Path(f"{_DEFAULT_OUTPUT[args.subcommand]}.{fmt}")
    _check_output(output)

    try:
        spec = validate(spec)  # the one sampling pass; later steps read the constants from spec
    except ValueError as err:
        raise CLIError(str(err)) from err

    return RunConfig(
        subcommand=args.subcommand,
        spec=spec,
        sweep_param=sweep_param,
        sweep_values=sweep_values,
        n_values=n_values,
        families=families,
        output=output,
        fmt=fmt,
        plot=plot,
        markers=markers,
        double_mesh=double_mesh,
        exact=exact,
    )


def _csv_chunks(format_rows, start: int, stop: int) -> Iterator[str]:
    for chunk in range(start, stop, _CSV_CHUNK):
        yield format_rows(chunk, min(chunk + _CSV_CHUNK, stop))


def _on_two_cores() -> bool:
    affinity = getattr(os, "sched_getaffinity", None)
    return hasattr(os, "fork") and affinity is not None and len(affinity(0)) >= 2


def _write_csv(path: Path, head: str, first: int, stop: int, format_rows) -> None:
    """Write ``head``, then rows [first, stop) as ``format_rows(start, stop)`` gives them.

    With at least ``_FORK_ROWS`` rows and two cores to run on, a forked
    child formats the upper half of the rows into a temp file beside the
    output while this process writes the lower half through
    ``write_atomic``, then waits for the child and appends its file.  Both
    halves use the same formatter, so the bytes are those of the serial
    write.  The child only formats and writes its own file, and leaves
    through ``os._exit``, so it flushes no inherited stdio and never returns
    into the caller.  It is reaped on every path (killed first if this
    process fails), no temp file outlives the call, and on failure the old
    target stays in place.
    """
    path = Path(path)
    if stop - first < _FORK_ROWS or not _on_two_cores():
        write_atomic(path, itertools.chain([head], _csv_chunks(format_rows, first, stop)))
        return
    half = (first + stop) // 2
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tail_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    pid, reaped = None, False

    def chunks():
        nonlocal reaped
        yield head
        yield from _csv_chunks(format_rows, first, half)
        _, status = os.waitpid(pid, 0)
        reaped = True
        if status:
            raise OSError(
                f"formatting rows {half}..{stop - 1} of {path} failed in a child "
                f"process (exit status {os.waitstatus_to_exitcode(status)})"
            )
        with open(tail_name, encoding="utf-8") as tail:
            yield from iter(lambda: tail.read(1 << 20), "")

    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                with open(tail_name, "w", encoding="utf-8") as tail:
                    tail.writelines(_csv_chunks(format_rows, half, stop))
                status = 0
            except BaseException as err:
                os.write(2, f"splayer: formatting rows {half}..{stop - 1}: {err!r}\n".encode())
            finally:
                os._exit(status)
        write_atomic(path, chunks())
    finally:
        if pid and not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.unlink(tail_name)


def _run_solve(config: RunConfig) -> None:
    regime = derive_regime(config.spec)
    mesh = build_mesh(config.families[0], regime, config.n_values[0], config.spec.d)
    solution = analysis.solve_on_mesh(config.spec, mesh)
    points, y = mesh.points, solution.y

    def rows(start: int, stop: int) -> str:
        return "".join([
            f"{i},{x!r},{v!r}\n"
            for i, x, v in zip(
                range(start, stop), points[start:stop].tolist(), y[start:stop].tolist()
            )
        ])

    _write_csv(config.output, "i,x,Y\n", 0, mesh.n + 1, rows)
    if config.plot:
        svg = polyline_plot(
            mesh.points.tolist(),
            solution.y.tolist(),
            title=f"solution, epsilon={config.spec.epsilon:g}, mu={config.spec.mu:g}, n={mesh.n}",
            xlabel="x",
            ylabel="Y",
            markers=config.markers,
        )
        write_atomic(config.output.with_suffix(".svg"), svg)


def _sweep(config: RunConfig, family: MeshFamily) -> analysis.ConvergenceTable:
    return analysis.convergence_table(
        config.spec,
        config.sweep_param,
        config.sweep_values,
        config.n_values,
        family=family,
        mode=config.double_mesh,
    )


def _run_converge(config: RunConfig) -> None:
    table = _sweep(config, config.families[0])
    text = analysis.table_to_markdown(table) if config.fmt == "md" else analysis.table_to_csv(table)
    write_atomic(config.output, text)


def _run_compare(config: RunConfig) -> None:
    tables = [_sweep(config, family) for family in config.families]
    text = (
        analysis.comparison_to_markdown(tables)
        if config.fmt == "md"
        else analysis.comparison_to_csv(tables)
    )
    write_atomic(config.output, text)


def _run_mesh(config: RunConfig) -> None:
    regime = derive_regime(config.spec)
    mesh = build_mesh(config.families[0], regime, config.n_values[0], config.spec.d)
    points, steps, regions = mesh.points, mesh.steps(), node_regions(mesh)

    def rows(start: int, stop: int) -> str:
        return "".join([
            f"{i},{x!r},{h!r},{region}\n"
            for i, x, h, region in zip(
                range(start, stop),
                points[start:stop].tolist(),
                steps[start - 1:stop - 1].tolist(),
                regions[start:stop],
            )
        ])

    head = f"i,x_i,h_i,region\n0,{float(points[0])!r},,{regions[0]}\n"
    _write_csv(config.output, head, 1, mesh.n + 1, rows)


def _run_manufactured(config: RunConfig) -> None:
    exact, exact_d1, exact_d2 = config.exact
    table = analysis.manufactured_convergence(
        config.spec,
        exact,
        exact_d1,
        exact_d2,
        config.n_values,
        family=config.families[0],
    )
    text = analysis.table_to_markdown(table) if config.fmt == "md" else analysis.table_to_csv(table)
    write_atomic(config.output, text)


_RUNNERS = {
    "solve": _run_solve,
    "converge": _run_converge,
    "compare": _run_compare,
    "mesh": _run_mesh,
    "manufactured": _run_manufactured,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        config = build_config(args)
    except CLIError as err:
        print(f"splayer: {err}", file=sys.stderr)
        return 2
    try:
        _RUNNERS[config.subcommand](config)
    except OSError as err:  # a failed write: write_atomic left the old target in place
        target = err.filename2 or config.output  # os.replace names the target second
        print(f"splayer: cannot write {target}: {err.strerror or err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as err:  # PivotError, EvaluationError, LinAlgError, ...
        print(f"splayer: numerical failure: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        print(f"splayer: {config.subcommand} --n {args.n} does not fit in memory: {err}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
