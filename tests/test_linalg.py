"""Cyclic reduction, single and chained, against the LAPACK oracle, an
elimination reference in float64 and in extended precision, residuals and
pivot failures."""

import math
import sys

import numpy as np
import pytest

from splayer import (
    PivotError,
    Solution,
    TridiagonalSystem,
    assemble,
    builtin_example,
    derive_regime,
    problem_from_dict,
    shishkin_bakhvalov_mesh,
    solve_dense_oracle,
    solve_thomas,
    uniform_mesh,
)
from splayer.linalg import _rowwise_residual


def _reference_thomas(system):
    """Elementwise float64 elimination, one row at a time.

    Python floats are IEEE doubles, so each operation rounds as it would on
    numpy float64 scalars, only faster.
    """
    n = system.n
    lower, diag, upper, rhs = (v.tolist() for v in
                               (system.lower, system.diag, system.upper, system.rhs))
    pivot_floor = sys.float_info.min

    c = [0.0] * (n + 1)
    g = [0.0] * (n + 1)
    pivot = diag[0]
    if abs(pivot) < pivot_floor:
        raise PivotError(0, pivot)
    c[0] = upper[0] / pivot
    g[0] = rhs[0] / pivot
    for i in range(1, n + 1):
        pivot = diag[i] - lower[i] * c[i - 1]
        if abs(pivot) < pivot_floor:
            raise PivotError(i, pivot)
        c[i] = upper[i] / pivot
        g[i] = (rhs[i] - lower[i] * g[i - 1]) / pivot

    y = [0.0] * (n + 1)
    y[n] = g[n]
    for i in range(n - 1, -1, -1):
        y[i] = g[i] - c[i] * y[i + 1]
    y = np.array(y)
    return Solution(y, _rowwise_residual(system, y))


def _random_dominant_system(rng, n):
    lower = -rng.uniform(0.1, 1.0, n + 1)
    upper = -rng.uniform(0.1, 1.0, n + 1)
    lower[0] = 0.0
    upper[n] = 0.0
    diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.2, 2.0, n + 1)
    rhs = rng.normal(size=n + 1)
    return TridiagonalSystem(lower, diag, upper, rhs, n)


def test_identity_system():
    n = 7
    rhs = np.arange(n + 1, dtype=float)
    system = TridiagonalSystem(np.zeros(n + 1), np.ones(n + 1), np.zeros(n + 1), rhs, n)
    solution = solve_thomas(system)
    np.testing.assert_array_equal(solution.y, rhs)
    assert solution.residual_inf == 0.0


def test_thomas_matches_dense_oracle_on_random_systems():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(8, 129))
        system = _random_dominant_system(rng, n)
        thomas = solve_thomas(system)
        dense = solve_dense_oracle(system)
        scale = np.max(np.abs(dense.y)) or 1.0
        assert np.max(np.abs(thomas.y - dense.y)) <= 1e-12 * scale


@pytest.mark.parametrize("n", [257, 258, 513, 700, 1023, 1024])
def test_cyclic_reduction_matches_dense_oracle(n):
    # odd and even row counts at every level: the last odd row either has an
    # even neighbour on both sides or is the last row of the system
    rng = np.random.default_rng(n)
    system = _random_dominant_system(rng, n)
    reduced = solve_thomas(system)
    dense = solve_dense_oracle(system)
    assert np.max(np.abs(reduced.y - dense.y)) <= 1e-12 * np.max(np.abs(dense.y))
    assert reduced.residual_inf <= 1e-15


@pytest.mark.parametrize("n", [16, 255, 256])
def test_small_solve_matches_the_reference_elimination(n):
    # small systems take the same cyclic reduction as large ones
    system = _random_dominant_system(np.random.default_rng(n), n)
    reduced = solve_thomas(system)
    reference = _reference_thomas(system)
    assert np.max(np.abs(reduced.y - reference.y)) <= 1e-14 * np.max(np.abs(reference.y))
    assert reduced.residual_inf <= 1e-15


def test_assembled_system_residual():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    regime = derive_regime(spec)
    mesh = shishkin_bakhvalov_mesh(regime, 16, spec.d)
    solution = solve_thomas(assemble(spec, mesh))
    assert solution.residual_inf <= 1e-10


def test_known_vector_recovery():
    rng = np.random.default_rng(3)
    from splayer.scheme import apply_operator

    for n in (8, 32, 128, 1027):
        system = _random_dominant_system(rng, n)
        v = rng.normal(size=n + 1)
        forced = TridiagonalSystem(
            system.lower, system.diag, system.upper, apply_operator(system, v), n
        )
        solution = solve_thomas(forced)
        assert np.max(np.abs(solution.y - v)) <= 1e-10 * max(1.0, np.max(np.abs(v)))


def test_zero_pivot_names_row():
    n = 4
    diag = np.ones(n + 1)
    diag[2] = 0.0
    system = TridiagonalSystem(np.zeros(n + 1), diag, np.zeros(n + 1), np.ones(n + 1), n)
    with pytest.raises(PivotError) as err:
        solve_thomas(system)
    assert err.value.row == 2


def _chain(systems):
    """The systems laid end to end, and the first row of each."""
    starts = np.cumsum([0] + [s.n + 1 for s in systems[:-1]])
    chain = TridiagonalSystem(*(np.concatenate([getattr(s, name) for s in systems])
                                for name in ("lower", "diag", "upper", "rhs")),
                              sum(s.n + 1 for s in systems) - 1)
    return chain, starts


def _assert_chain_is_single_solves(systems):
    chain, starts = _chain(systems)
    y = solve_thomas(chain).y
    for system, start in zip(systems, starts):
        single = solve_thomas(system).y
        block = y[start : start + system.n + 1]
        assert np.max(np.abs(block - single)) <= 1e-14 * np.max(np.abs(single))


# a sweep row's systems are laid end to end and solved as one chain of at
# most analysis._CHAIN_ROWS rows: each block must solve as its system does
# alone, up to rounding, since the blocks do not couple


@pytest.mark.parametrize("n", [4095, 4096, 4097, 12293])
def test_blocked_loop_matches_single_solves_on_random_systems(n):
    rng = np.random.default_rng(n)
    _assert_chain_is_single_solves([_random_dominant_system(rng, n + k) for k in range(3)])


@pytest.mark.filterwarnings("ignore::splayer.TransitionClampWarning")
@pytest.mark.parametrize("example", ["ex1", "ex2"])
@pytest.mark.parametrize("mu", [1e-4, 1e-17])
def test_blocked_loop_matches_single_solves_on_assembled_systems(example, mu):
    # the chain's blocks are bitwise the single assemblies; each chain mixes
    # sizes, and the three chains differ in epsilon and mu
    for eps, scale in ((1e-8, 1.0), (1e-6, 10.0), (1e-10, 0.1)):
        spec = builtin_example(example, epsilon=eps, mu=mu * scale)
        regime = derive_regime(spec)
        meshes = [shishkin_bakhvalov_mesh(regime, n, spec.d) for n in (64, 504, 4096)]
        singles = [assemble(spec, mesh) for mesh in meshes]
        chain = assemble(spec, meshes)
        for name in ("lower", "diag", "upper", "rhs"):
            laid = np.concatenate([getattr(single, name) for single in singles])
            assert getattr(chain, name).tobytes() == laid.tobytes()
        _assert_chain_is_single_solves(singles)


def _coupled_system(n):
    lower = np.full(n + 1, -1.0)
    upper = np.full(n + 1, -1.0)
    lower[0] = upper[n] = 0.0
    diag = np.full(n + 1, 2.5)
    return lower, diag, upper, np.ones(n + 1)


def _pivot_error(solve, system):
    with pytest.raises(PivotError) as err:
        solve(system)
    return err.value.row, err.value.value


@pytest.mark.parametrize("row", [4097, 4098])
def test_zero_pivot_in_one_system_of_a_batch(row):
    # the middle system has a zero pivot at level 1 (odd row) or, cancelling
    # exactly, at level 2 (even row); in the chain the error names the chain
    # row, the block's first row plus the row within the system, and the
    # system alone names its own row
    n = 2 * 4096 + 3
    systems = [TridiagonalSystem(*_coupled_system(n), n) for _ in range(3)]
    lower, diag, upper, rhs = _coupled_system(n)
    diag[:] = 2.0
    diag[row] = 1.0 if row % 2 == 0 else 0.0
    systems[1] = TridiagonalSystem(lower, diag, upper, rhs, n)
    assert _pivot_error(solve_thomas, systems[1]) == (row, 0.0)
    chain, starts = _chain(systems)
    assert starts[1] == n + 1  # even, so the row keeps its parity and level
    assert _pivot_error(solve_thomas, chain) == (starts[1] + row, 0.0)


@pytest.mark.parametrize("n, row, stage", [(1000, 602, "reduction"), (512, 0, "last")])
def test_zero_reduced_pivot_names_system_row(n, row, stage):
    #   reduction: (-1, 2, -1) rows sum to 0, so one level gives row 602,
    #   odd after it, the pivot s - lower' - upper' from its own row sum s,
    #   exactly -1 + 0.5 + 0.5 = 0
    #   last: row 0 is the row left after the last level; a zero diagonal
    #   without couplings stays zero through every level
    lower, diag, upper, rhs = _coupled_system(n)
    diag[:] = 2.0
    if stage == "reduction":
        diag[row] = 1.0
    else:
        upper[row] = 0.0
        diag[row] = 0.0
    system = TridiagonalSystem(lower, diag, upper, rhs, n)
    assert _pivot_error(solve_thomas, system) == (row, 0.0)


def test_system_is_one_dimensional():
    lower, diag, upper, rhs = _coupled_system(8)
    with pytest.raises(ValueError, match="vector of length n \\+ 1"):
        TridiagonalSystem(*(np.stack([v, v]) for v in (lower, diag, upper, rhs)), 8)


def _longdouble_thomas(system):
    """Elementwise elimination in extended precision."""
    a, b, c, r = (list(v.astype(np.longdouble)) for v in
                  (system.lower, system.diag, system.upper, system.rhs))
    n = system.n
    cs, gs = [None] * (n + 1), [None] * (n + 1)
    cs[0] = c_prev = c[0] / b[0]
    gs[0] = g_prev = r[0] / b[0]
    for i in range(1, n + 1):
        pivot = b[i] - a[i] * c_prev
        cs[i] = c_prev = c[i] / pivot
        gs[i] = g_prev = (r[i] - a[i] * g_prev) / pivot
    y = [None] * (n + 1)
    y[n] = y_next = g_prev
    for i in range(n - 1, -1, -1):
        y[i] = y_next = gs[i] - cs[i] * y_next
    return np.array(y, dtype=np.longdouble)


def test_solve_is_as_accurate_as_the_loop_against_extended_precision():
    # the loop is the float64 elimination of _reference_thomas
    # the reference only resolves double rounding with a 64-bit mantissa
    assert np.finfo(np.longdouble).nmant >= 63
    cases = [(example, 1e-8, mu, 1 << 14)
             for example in ("ex1", "ex2") for mu in (1e-4, 1e-10, 1e-17)]
    cases.append(("ex1", 1e-8, 1e-6, 1 << 20))
    for example, epsilon, mu, n in cases:
        spec = builtin_example(example, epsilon=epsilon, mu=mu)
        mesh = shishkin_bakhvalov_mesh(derive_regime(spec), n, spec.d)
        system = assemble(spec, mesh)
        reference = _longdouble_thomas(system)
        scale = np.max(np.abs(reference))

        def error(y):
            return float(np.max(np.abs(y.astype(np.longdouble) - reference)) / scale)

        loop = error(_reference_thomas(system).y)
        assert error(solve_thomas(system).y) <= 3.0 * loop, (example, mu, n, loop)


def test_subnormal_pivot_names_row_and_value():
    n = 2 * 4096 + 3
    row = 4096 + 1
    lower, diag, upper, rhs = _coupled_system(n)
    lower[row] = 0.0
    diag[row] = 1e-310
    system = TridiagonalSystem(lower, diag, upper, rhs, n)
    assert _pivot_error(solve_thomas, system) == (row, 1e-310) == _pivot_error(
        _reference_thomas, system
    )


def test_dense_oracle_rejects_singular():
    n = 4
    diag = np.ones(n + 1)
    diag[2] = 0.0  # all-zero row
    system = TridiagonalSystem(np.zeros(n + 1), diag, np.zeros(n + 1), np.ones(n + 1), n)
    with pytest.raises(np.linalg.LinAlgError):
        solve_dense_oracle(system)


def test_dense_oracle_size_limit():
    n = 2048
    system = TridiagonalSystem(
        np.zeros(n + 1), np.ones(n + 1), np.zeros(n + 1), np.ones(n + 1), n
    )
    with pytest.raises(ValueError):
        solve_dense_oracle(system)


def test_single_interior_unknown_degenerates_correctly():
    # n = 2: one interior row between two identity rows
    lower = np.array([0.0, -1.0, 0.0])
    diag = np.array([1.0, 3.0, 1.0])
    upper = np.array([0.0, -1.0, 0.0])
    rhs = np.array([2.0, 1.0, 4.0])
    system = TridiagonalSystem(lower, diag, upper, rhs, 2)
    thomas = solve_thomas(system)
    dense = solve_dense_oracle(system)
    np.testing.assert_allclose(thomas.y, dense.y, rtol=1e-14)
    np.testing.assert_allclose(thomas.y, [2.0, 7.0 / 3.0, 4.0], rtol=1e-14)


def test_solution_array_is_frozen():
    n = 2
    system = TridiagonalSystem(
        np.zeros(n + 1), np.ones(n + 1), np.zeros(n + 1), np.ones(n + 1), n
    )
    solution = solve_thomas(system)
    with pytest.raises(ValueError):
        solution.y[0] = 99.0


def _dense_matrix(system):
    n = system.n
    matrix = np.zeros((n + 1, n + 1))
    idx = np.arange(n + 1)
    matrix[idx, idx] = system.diag
    matrix[idx[1:], idx[1:] - 1] = system.lower[1:]
    matrix[idx[:-1], idx[:-1] + 1] = system.upper[:-1]
    return matrix


@pytest.mark.parametrize("example", ["ex1", "ex2"])
def test_oracle_matches_a_dense_solve_on_assembled_systems(example):
    # the banded oracle against LU of the full matrix (np.linalg.solve), in
    # the sweeps' regimes; wide layers (epsilon = mu = 1e-2) are worse
    # conditioned, and there the two differ by up to ~2e-11 at n = 1024
    for epsilon, mu in ((1e-6, 1e-4), (1e-6, 1e-10), (1e-8, 1e-5), (1e-8, 1e-14)):
        spec = builtin_example(example, epsilon=epsilon, mu=mu)
        regime = derive_regime(spec)
        for n in (16, 128, 512):
            system = assemble(spec, shishkin_bakhvalov_mesh(regime, n, spec.d))
            dense = np.linalg.solve(_dense_matrix(system), system.rhs)
            oracle = solve_dense_oracle(system).y
            assert np.max(np.abs(oracle - dense)) <= 1e-13 * np.max(np.abs(dense)), (mu, n)


def _longdouble_ratios(system, y):
    """|A y - rhs| / (|A||y| + |rhs|) per row, in extended precision."""
    a, b, c, r, v = (np.asarray(w, dtype=np.longdouble) for w in
                     (system.lower, system.diag, system.upper, system.rhs, y))
    terms = [b * v, -r, np.zeros_like(v), np.zeros_like(v)]
    terms[2][1:] = a[1:] * v[:-1]
    terms[3][:-1] = c[:-1] * v[1:]
    return np.abs(sum(terms)) / sum(np.abs(t) for t in terms)


def test_residual_of_values_near_the_float_limit(recwarn):
    # y0 = 1e308, y1 = -1e308 on a mesh where epsilon / h^2 = 41: products
    # like lower * y overflow, in the solve and in the residual, but the
    # solve stays finite and the scaled rows give the extended-precision
    # ratios, without a RuntimeWarning
    assert np.finfo(np.longdouble).maxexp > np.finfo(float).maxexp
    doc = dict(a_left="-2", a_right="2", b="1", f_left="-1", f_right="1",
               d=0.5, y0=1e308, y1=-1e308, epsilon=1e-2, mu=1e-2)
    spec = problem_from_dict(doc)
    system = assemble(spec, uniform_mesh(64, 0.5))
    solution = solve_thomas(system)
    assert np.all(np.isfinite(solution.y))
    assert np.max(np.abs(solution.y)) == 1e308
    reference = float(np.max(_longdouble_ratios(system, solution.y)))
    assert solution.residual_inf <= 1e-15
    assert abs(solution.residual_inf - reference) <= 1e-15
    # a perturbed vector has ratios far above rounding: they must match too
    perturbed = solution.y * (1.0 - 1e-3 * np.cos(np.arange(system.n + 1)))
    ratios = _longdouble_ratios(system, perturbed)
    assert float(np.max(ratios)) > 1e-6
    assert math.isclose(_rowwise_residual(system, perturbed), float(np.max(ratios)),
                        rel_tol=1e-12)
    assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]
