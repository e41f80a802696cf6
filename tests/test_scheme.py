"""Assembly structure: probes, sign pattern, minimum-principle witness."""

from dataclasses import replace

import numpy as np
import pytest

from splayer import (
    EvaluationError,
    TridiagonalSystem,
    apply_operator,
    assemble,
    builtin_example,
    check_m_matrix,
    derive_regime,
    evaluate_array,
    parse,
    shishkin_bakhvalov_mesh,
    solve_thomas,
    uniform_mesh,
)


def _system(epsilon=1e-6, mu=1e-10, n=64, example="ex1"):
    spec = builtin_example(example, epsilon=epsilon, mu=mu)
    regime = derive_regime(spec, samples=400)
    mesh = shishkin_bakhvalov_mesh(regime, n, spec.d)
    return spec, mesh, assemble(spec, mesh)


def test_boundary_rows_are_identity():
    spec, _, system = _system()
    assert system.diag[0] == 1.0 and system.upper[0] == 0.0 and system.lower[0] == 0.0
    assert system.diag[-1] == 1.0 and system.lower[-1] == 0.0 and system.upper[-1] == 0.0
    assert system.rhs[0] == spec.y0 and system.rhs[-1] == spec.y1


def test_constant_probe_recovers_reaction_coefficient():
    # row-sum applied to the all-ones vector telescopes to b(x_i)
    spec, mesh, system = _system(example="ex2", epsilon=1e-8, mu=1e-6)
    ones = np.ones(system.n + 1)
    result = apply_operator(system, ones)
    m = mesh.d_index
    interior = np.r_[1:m, m + 1 : system.n]
    b_vals = evaluate_array(spec.b, mesh.points[interior])
    scale = np.abs(system.diag) + np.abs(system.lower) + np.abs(system.upper)
    np.testing.assert_allclose(
        (result[interior] - b_vals) / scale[interior], 0.0, atol=1e-12
    )


def test_interface_row_annihilates_linear_sequences():
    _, mesh, system = _system(epsilon=1e-12, mu=1e-4)
    m = mesh.d_index
    for p, q in ((1.0, 0.0), (-3.5, 2.0)):
        linear = p * mesh.points + q
        value = (
            system.lower[m] * linear[m - 1]
            + system.diag[m] * linear[m]
            + system.upper[m] * linear[m + 1]
        )
        scale = abs(system.lower[m]) + abs(system.diag[m]) + abs(system.upper[m])
        assert abs(value) <= 1e-12 * scale * max(abs(p), abs(q), 1.0)
    assert system.rhs[m] == 0.0


def test_uniform_mesh_row_is_strictly_dominant():
    spec = builtin_example("ex1", epsilon=1e-2, mu=1e-2)
    system = assemble(spec, uniform_mesh(8, spec.d))
    i = 1
    margin = system.diag[i] - abs(system.lower[i]) - abs(system.upper[i])
    assert margin > 0.5  # b = 1 on this row


def test_exact_on_constants_away_from_interface():
    # with f = -b*c the constant vector solves every interior row
    c = 3.25
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    spec = replace(spec, f_left=parse(f"-{c}"), f_right=parse(f"-{c}"))
    regime = derive_regime(spec, samples=200)
    mesh = shishkin_bakhvalov_mesh(regime, 32, spec.d)
    system = assemble(spec, mesh)
    residual = apply_operator(system, np.full(system.n + 1, c)) - system.rhs
    m = mesh.d_index
    interior = np.r_[1:m, m + 1 : system.n]
    scale = np.abs(system.diag[interior]) * c
    np.testing.assert_allclose(residual[interior] / scale, 0.0, atol=1e-12)


def test_minimum_principle_on_random_nonpositive_data():
    # rhs <= 0 rowwise must produce a nonpositive solution
    rng = np.random.default_rng(7)
    spec = builtin_example("ex1", epsilon=1e-8, mu=1e-6)
    regime = derive_regime(spec, samples=200)
    mesh = shishkin_bakhvalov_mesh(regime, 64, spec.d)
    for _ in range(25):
        f_left = float(rng.uniform(0.0, 5.0))
        f_right = float(rng.uniform(0.0, 5.0))
        trial = replace(
            spec,
            f_left=parse(repr(f_left)),
            f_right=parse(repr(f_right)),
            y0=-float(rng.uniform(0.0, 2.0)),
            y1=-float(rng.uniform(0.0, 2.0)),
        )
        system = assemble(trial, mesh)
        assert np.all(system.rhs <= 0.0)
        solution = solve_thomas(system)
        assert np.all(solution.y <= 1e-12)


def test_check_m_matrix_on_paper_problems():
    for example in ("ex1", "ex2"):
        for epsilon, mu in ((1e-6, 1e-10), (1e-12, 1e-4)):
            _, _, system = _system(epsilon=epsilon, mu=mu, example=example)
            report = check_m_matrix(system)
            assert report.is_sign_valid
            assert report.is_diag_dominant


def test_check_m_matrix_zero_reaction_is_nonstrict():
    spec = builtin_example("ex1", epsilon=1e-4, mu=1e-4)
    spec = replace(spec, b=parse("0"))
    system = assemble(spec, uniform_mesh(16, spec.d))
    report = check_m_matrix(system)
    assert report.is_sign_valid
    assert report.is_diag_dominant  # equality rows allowed
    assert report.worst_margin == pytest.approx(0.0, abs=1e-12)


def test_check_m_matrix_negative_control():
    system = TridiagonalSystem(
        lower=np.array([0.0, -1.0, -1.0]),
        diag=np.array([1.0, 4.0, 1.0]),
        upper=np.array([0.0, 0.5, 0.0]),  # positive off-diagonal entry
        rhs=np.zeros(3),
        n=2,
    )
    report = check_m_matrix(system)
    assert not report.is_sign_valid


def test_check_m_matrix_reports_worst_row():
    system = TridiagonalSystem(
        lower=np.array([0.0, -1.0, 0.0]),
        diag=np.array([1.0, 1.5, 1.0]),
        upper=np.array([0.0, -1.0, 0.0]),
        rhs=np.zeros(3),
        n=2,
    )
    report = check_m_matrix(system)
    assert report.worst_row == 1
    assert not report.is_diag_dominant


def test_mismatched_interface_rejected():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-6)
    mesh = uniform_mesh(16, 0.25)
    with pytest.raises(ValueError, match="does not match"):
        assemble(spec, mesh)


def test_non_finite_coefficient_rejected():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-6)
    spec = replace(spec, f_left=parse("sqrt(x-0.3)"))
    mesh = uniform_mesh(16, spec.d)
    with pytest.raises(EvaluationError):
        assemble(spec, mesh)


def test_apply_operator_identity_zero_and_length():
    _, _, system = _system(n=16)
    zeros = np.zeros(system.n + 1)
    np.testing.assert_array_equal(apply_operator(system, zeros), zeros)
    y = np.linspace(0.0, 1.0, system.n + 1)
    assert apply_operator(system, y)[0] == y[0]  # identity row
    with pytest.raises(ValueError):
        apply_operator(system, np.zeros(3))
