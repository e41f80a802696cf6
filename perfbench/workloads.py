"""The three benchmark workloads: argv generation from a seed, and output checks.

A job is one ``splayer.cli.main(argv)`` call.  The seed draws the mantissas
of the scalar epsilon/mu flags within a fixed decade (the CLI's decade
ranges only take powers of ten), so every job of a run solves a different
problem of the same size.  The checks re-derive the expected output without
trusting the solve path: dense LAPACK solves for the sweep cells, and an
independent residual for the large solve.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# matches acceptance criterion 7's oracle and residual bounds
ORACLE_TOL = 1e-10
RESIDUAL_TOL = 1e-10
# largest refined system the dense oracle recomputes (2N <= 1024)
ORACLE_MAX_FINE_N = 1024


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    output: Path
    problem: str
    epsilon: float
    mu: float
    # (sweep row, mesh family) pairs recomputed with the dense oracle
    oracle_rows: tuple[tuple[int, int], ...]


def _mantissa(rng: random.Random, decade: int) -> str:
    return f"{rng.uniform(1.0, 10.0):.4f}e{decade}"


def _decades(lo: int, hi: int) -> tuple[float, ...]:
    step = 1 if hi >= lo else -1
    return tuple(float(f"1e{k}") for k in range(lo, hi + step, step))


def _doubling(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(lo << k for k in range((hi // lo).bit_length()))


def _rows_solved(n_values, sweep_len: int, families: int) -> int:
    # each cell solves the coarse (N+1 rows) and the doubled (2N+1 rows) system
    return families * sweep_len * sum(3 * n + 2 for n in n_values)


class Workload:
    name: str
    suffix: str  # output file extension
    cells_per_job: int
    rows_per_job: int

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.count = 0

    def next_job(self) -> Job:
        self.count += 1
        return self._job(self.workdir / f"job{self.count:04d}{self.suffix}")

    def _oracle_rows(self, families: int) -> tuple[tuple[int, int], ...]:
        # the first job is recomputed in full, later ones on one seeded row
        if self.count == 1:
            return tuple((j, f) for j in range(len(self.mu_values)) for f in range(families))
        return ((self.rng.randrange(len(self.mu_values)), self.rng.randrange(families)),)

    def warmup_argv(self, output: Path) -> list[str]:
        raise NotImplementedError

    def check(self, job: Job) -> list[str]:
        raise NotImplementedError


class Sweep(Workload):
    """``converge`` on ex2: 14 mu decades x 7 mesh sizes, bisect, CSV."""

    name = "sweep"
    suffix = ".csv"
    mu_values = _decades(-4, -17)
    n_values = _doubling(64, 4096)
    cells_per_job = len(mu_values) * len(n_values)
    rows_per_job = _rows_solved(n_values, len(mu_values), 1)

    def _job(self, output: Path) -> Job:
        epsilon = _mantissa(self.rng, -6)
        argv = ("converge", "--problem", "ex2", "--epsilon", epsilon,
                "--mu-range", "1e-4:1e-17", "--n", "64:4096", "--output", str(output))
        return Job(argv, output, "ex2", float(epsilon), math.nan, self._oracle_rows(1))

    def warmup_argv(self, output: Path) -> list[str]:
        return ["converge", "--problem", "ex2", "--epsilon", "1e-6",
                "--mu-range", "1e-4:1e-5", "--n", "64:128", "--output", str(output)]

    def check(self, job: Job) -> list[str]:
        from splayer.mesh import MeshFamily

        lines = job.output.read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != "param,N,E,R":
            return [f"{job.output.name}: bad header"]
        body = [line.split(",") for line in lines[1:]]
        expected = [(mu, n) for mu in self.mu_values for n in self.n_values]
        if len(body) != len(expected) or any(len(row) != 4 for row in body):
            return [f"{job.output.name}: expected {len(expected)} rows of 4 fields"]
        problems = []
        errors = np.full((len(self.mu_values), len(self.n_values)), math.nan)
        for index, ((mu, n), (param, n_text, e_text, r_text)) in enumerate(zip(expected, body)):
            j, k = divmod(index, len(self.n_values))
            if float(param) != mu or int(n_text) != n:
                problems.append(f"row {index + 1}: expected mu={mu!r} N={n}")
                continue
            last = k == len(self.n_values) - 1
            if not e_text or not math.isfinite(float(e_text)) or (r_text == "") != last:
                problems.append(f"mu={mu:g} N={n}: missing or non-finite cell")
                continue
            errors[j, k] = float(e_text)
        if problems:
            return problems
        problems += _check_orders(errors, body)
        for j, _ in job.oracle_rows:
            mu = self.mu_values[j]
            oracle = _oracle_errors(job.problem, job.epsilon, mu, MeshFamily.SHISHKIN_BAKHVALOV,
                                    self.n_values, "bisect")
            for k, value in enumerate(oracle):
                if abs(value - errors[j, k]) > ORACLE_TOL:
                    problems.append(
                        f"mu={mu:g} N={self.n_values[k]}: E={errors[j, k]!r} "
                        f"but the dense oracle gives {value!r}"
                    )
        return problems


class CompareRegen(Workload):
    """``compare`` on ex1: 10 mu decades x 6 sizes x 2 families, regenerate, Markdown."""

    name = "compare_regen"
    suffix = ".md"
    mu_values = _decades(-5, -14)
    n_values = _doubling(64, 2048)
    families = ("shishkin", "shishkin-bakhvalov")
    cells_per_job = len(mu_values) * len(n_values) * len(families)
    rows_per_job = _rows_solved(n_values, len(mu_values), len(families))

    def _job(self, output: Path) -> Job:
        epsilon = _mantissa(self.rng, -8)
        argv = ("compare", "--problem", "ex1", "--epsilon", epsilon,
                "--mu-range", "1e-5:1e-14", "--n", "64:2048",
                "--double-mesh", "regenerate", "--format", "md", "--output", str(output))
        return Job(argv, output, "ex1", float(epsilon), math.nan,
                   self._oracle_rows(len(self.families)))

    def warmup_argv(self, output: Path) -> list[str]:
        return ["compare", "--problem", "ex1", "--epsilon", "1e-8",
                "--mu-range", "1e-5:1e-6", "--n", "64:128",
                "--double-mesh", "regenerate", "--format", "md", "--output", str(output)]

    def check(self, job: Job) -> list[str]:
        from splayer.mesh import MeshFamily

        lines = job.output.read_text(encoding="utf-8").splitlines()
        header = ["mu", "mesh"] + [f"N={n}" for n in self.n_values[:-1]]
        if len(lines) < 2 or _md_cells(lines[0]) != header:
            return [f"{job.output.name}: bad header"]
        body = [_md_cells(line) for line in lines[2:]]
        expected = [(mu, fam) for mu in self.mu_values for fam in self.families]
        if len(body) != len(expected) or any(len(row) != len(header) for row in body):
            return [f"{job.output.name}: expected {len(expected)} rows of {len(header)} cells"]
        problems = []
        for index, ((mu, family), row) in enumerate(zip(expected, body)):
            if row[0] != f"{mu:g}" or row[1] != family:
                problems.append(f"row {index + 1}: expected {mu:g} {family}")
            elif not all(cell and math.isfinite(float(cell)) for cell in row[2:]):
                problems.append(f"mu={mu:g} {family}: missing or non-finite order")
        if problems:
            return problems
        for j, f in job.oracle_rows:
            mu, family = self.mu_values[j], self.families[f]
            oracle = _oracle_errors(job.problem, job.epsilon, mu, MeshFamily(family),
                                    self.n_values, "regenerate")
            printed = body[2 * j + f][2:]
            for k in range(len(oracle) - 1):
                order = math.log2(oracle[k] / oracle[k + 1])
                # orders are printed with 5 decimals
                if abs(float(printed[k]) - order) > 0.5e-5 + 1e-8:
                    problems.append(
                        f"mu={mu:g} {family} N={self.n_values[k]}: order {printed[k]} "
                        f"but the dense oracle gives {order:.7f}"
                    )
        return problems


class BigSolve(Workload):
    """``solve`` on ex1 at n = 2^20: one large system, 48 MB of CSV."""

    name = "big_solve"
    suffix = ".csv"
    n = 1 << 20
    cells_per_job = 1
    rows_per_job = n + 1

    def _job(self, output: Path) -> Job:
        epsilon = _mantissa(self.rng, -8)
        mu = _mantissa(self.rng, -6)
        argv = ("solve", "--problem", "ex1", "--epsilon", epsilon, "--mu", mu,
                "--n", str(self.n), "--output", str(output))
        return Job(argv, output, "ex1", float(epsilon), float(mu), ())

    def warmup_argv(self, output: Path) -> list[str]:
        return ["solve", "--problem", "ex1", "--epsilon", "1e-8", "--mu", "1e-6",
                "--n", "1024", "--output", str(output)]

    def check(self, job: Job) -> list[str]:
        from splayer.mesh import shishkin_bakhvalov_mesh
        from splayer.problem import builtin_example, derive_regime
        from splayer.scheme import apply_operator, assemble

        with job.output.open(encoding="utf-8") as handle:
            if handle.readline().rstrip("\n") != "i,x,Y":
                return [f"{job.output.name}: bad header"]
            # numpy's text reader rounds correctly, so x round-trips bitwise
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
        if data.shape != (self.n + 1, 3):
            return [f"{job.output.name}: expected {self.n + 1} rows of i,x,Y, got {data.shape}"]
        spec = builtin_example(job.problem, epsilon=job.epsilon, mu=job.mu)
        mesh = shishkin_bakhvalov_mesh(derive_regime(spec), self.n, spec.d)
        index, x, y = data.T
        problems = []
        if not np.array_equal(index, np.arange(self.n + 1)):
            problems.append("node index column is not 0..n")
        if not np.array_equal(x.view(np.int64), mesh.points.view(np.int64)):
            problems.append("x differs bitwise from shishkin_bakhvalov_mesh nodes")
        if not np.all(np.isfinite(y)):
            return problems + ["Y has non-finite values"]
        system = assemble(spec, mesh)
        residual = apply_operator(system, y) - system.rhs
        scale = np.abs(system.diag * y) + np.abs(system.rhs)
        scale[1:] += np.abs(system.lower[1:] * y[:-1])
        scale[:-1] += np.abs(system.upper[:-1] * y[1:])
        worst = float(np.max(np.abs(residual) / scale))
        if not worst <= RESIDUAL_TOL:
            problems.append(f"rowwise residual {worst:.3e} exceeds {RESIDUAL_TOL:g}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Sweep, BigSolve, CompareRegen)}


def _md_cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def _check_orders(errors: np.ndarray, body) -> list[str]:
    """The printed R column must be log2 of consecutive printed E values."""
    problems = []
    width = errors.shape[1]
    for index, row in enumerate(body):
        j, k = divmod(index, width)
        if k == width - 1:
            continue
        order = math.log2(errors[j, k] / errors[j, k + 1])
        if not math.isclose(float(row[3]), order, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"row {index + 1}: R={row[3]} but log2 ratio is {order!r}")
    return problems


def _oracle_errors(problem, epsilon, mu, family, n_values, mode) -> list[float]:
    """Double-mesh errors recomputed with dense solves, for 2N <= 1024."""
    from splayer.linalg import solve_dense_oracle
    from splayer.mesh import build_mesh, refine_double
    from splayer.problem import builtin_example, derive_regime
    from splayer.scheme import assemble

    spec = builtin_example(problem, epsilon=epsilon, mu=mu)
    regime = derive_regime(spec)
    errors = []
    for n in n_values:
        if 2 * n > ORACLE_MAX_FINE_N:
            break
        mesh = build_mesh(family, regime, n, spec.d)
        fine_mesh = refine_double(mesh) if mode == "bisect" else build_mesh(
            family, regime, 2 * n, spec.d)
        coarse = solve_dense_oracle(assemble(spec, mesh)).y
        fine = solve_dense_oracle(assemble(spec, fine_mesh)).y
        on_coarse = fine[0::2] if mode == "bisect" else np.interp(
            mesh.points, fine_mesh.points, fine)
        errors.append(float(np.max(np.abs(coarse - on_coarse))))
    return errors
