"""Cyclic reduction and the Thomas loop against the dense oracle, an
extended-precision reference, residuals and pivot failures."""

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
    shishkin_bakhvalov_mesh,
    solve_dense_oracle,
    solve_thomas,
)
from splayer.linalg import _BLOCK, _CUTOVER, _rowwise_residual, _thomas_loop


def _reference_thomas(system):
    """Elementwise float64 elimination on numpy scalars, one row at a time."""
    n = system.n
    lower, diag, upper, rhs = system.lower, system.diag, system.upper, system.rhs
    pivot_floor = sys.float_info.min

    c = np.empty(n + 1)
    g = np.empty(n + 1)
    pivot = diag[0]
    if abs(pivot) < pivot_floor:
        raise PivotError(0, float(pivot))
    c[0] = upper[0] / pivot
    g[0] = rhs[0] / pivot
    for i in range(1, n + 1):
        pivot = diag[i] - lower[i] * c[i - 1]
        if abs(pivot) < pivot_floor:
            raise PivotError(i, float(pivot))
        c[i] = upper[i] / pivot
        g[i] = (rhs[i] - lower[i] * g[i - 1]) / pivot

    y = np.empty(n + 1)
    y[n] = g[n]
    for i in range(n - 1, -1, -1):
        y[i] = g[i] - c[i] * y[i + 1]
    return Solution(y, _rowwise_residual(system, y))


def _loop_stage(system):
    """The Thomas loop alone, as solve_thomas runs it below the cutover."""
    y = _thomas_loop(system.lower, system.diag, system.upper, system.rhs)
    return Solution(y, _rowwise_residual(system, y))


def _assert_bitwise_equal_to_reference(system, solve=_loop_stage):
    solution = solve(system)
    reference = _reference_thomas(system)
    assert solution.y.tobytes() == reference.y.tobytes()
    assert solution.residual_inf == reference.residual_inf


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


@pytest.mark.parametrize("n", [16, _CUTOVER - 1, _CUTOVER])
def test_solve_at_or_below_cutover_is_the_loop(n):
    _assert_bitwise_equal_to_reference(_random_dominant_system(np.random.default_rng(n), n),
                                       solve=solve_thomas)


def test_assembled_system_residual():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    regime = derive_regime(spec, samples=200)
    mesh = shishkin_bakhvalov_mesh(regime, 16, spec.d)
    solution = solve_thomas(assemble(spec, mesh))
    assert solution.residual_inf <= 1e-10


def test_known_vector_recovery():
    rng = np.random.default_rng(3)
    from splayer.scheme import apply_operator

    for n in (8, 32, 128, 4 * _CUTOVER + 3):
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


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_blocked_loop_is_bitwise_equal_on_random_systems(n):
    rng = np.random.default_rng(n)
    _assert_bitwise_equal_to_reference(_random_dominant_system(rng, n))


@pytest.mark.parametrize("example", ["ex1", "ex2"])
@pytest.mark.parametrize("mu", [1e-4, 1e-17])
def test_blocked_loop_is_bitwise_equal_on_assembled_systems(example, mu):
    spec = builtin_example(example, epsilon=1e-8, mu=mu)
    regime = derive_regime(spec, samples=200)
    # SB meshes need n divisible by 8: straddle the block from both sides
    base = _BLOCK // 8 * 8
    for n in (base - 8, base, base + 8, 3 * base + 8):
        mesh = shishkin_bakhvalov_mesh(regime, n, spec.d)
        _assert_bitwise_equal_to_reference(assemble(spec, mesh))


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


@pytest.mark.parametrize("row", [_BLOCK, _BLOCK + 1])
def test_zero_pivot_across_block_boundary(row):
    n = 2 * _BLOCK + 3
    lower, diag, upper, rhs = _coupled_system(n)
    # the modified upper diagonal at row - 1 is the reference's c[row - 1]
    c = np.empty(row)
    c[0] = upper[0] / diag[0]
    for i in range(1, row):
        c[i] = upper[i] / (diag[i] - lower[i] * c[i - 1])
    diag[row] = lower[row] * c[row - 1]  # pivot cancels exactly
    system = TridiagonalSystem(lower, diag, upper, rhs, n)
    assert _pivot_error(_loop_stage, system) == (row, 0.0) == _pivot_error(
        _reference_thomas, system
    )


@pytest.mark.parametrize("n, row, stage", [(1000, 602, "reduction"), (512, 400, "loop")])
def test_zero_reduced_pivot_names_system_row(n, row, stage):
    # (-1, 2, -1) rows sum to 0, so one level gives row ``row`` the pivot
    # s - lower' - upper' from its own row sum s, exactly:
    #   reduction: row 602 is odd at level 1, -1 + 0.5 + 0.5 = 0
    #   loop: row 400 is row 200 of the loop stage; its lower coupling is
    #   cut, so its loop pivot is its reduced diagonal, -0.5 + 0.5 = 0
    lower, diag, upper, rhs = _coupled_system(n)
    diag[:] = 2.0
    if stage == "reduction":
        diag[row] = 1.0
    else:
        lower[row] = 0.0
        diag[row] = 0.5
    system = TridiagonalSystem(lower, diag, upper, rhs, n)
    assert _pivot_error(solve_thomas, system) == (row, 0.0)


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
    # the reference only resolves double rounding with a 64-bit mantissa
    assert np.finfo(np.longdouble).nmant >= 63
    cases = [(example, 1e-8, mu, 1 << 14)
             for example in ("ex1", "ex2") for mu in (1e-4, 1e-10, 1e-17)]
    cases.append(("ex1", 1e-8, 1e-6, 1 << 20))
    for example, epsilon, mu, n in cases:
        spec = builtin_example(example, epsilon=epsilon, mu=mu)
        mesh = shishkin_bakhvalov_mesh(derive_regime(spec, samples=200), n, spec.d)
        system = assemble(spec, mesh)
        reference = _longdouble_thomas(system)
        scale = np.max(np.abs(reference))

        def error(y):
            return float(np.max(np.abs(y.astype(np.longdouble) - reference)) / scale)

        loop = error(_loop_stage(system).y)
        assert error(solve_thomas(system).y) <= 3.0 * loop, (example, mu, n, loop)


def test_subnormal_pivot_names_row_and_value():
    n = 2 * _BLOCK + 3
    row = _BLOCK + 1
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
