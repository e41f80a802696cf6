"""Assembly structure: probes, sign pattern, minimum-principle witness."""

from dataclasses import replace

import numpy as np
import pytest

from splayer import (
    EvaluationError,
    MeshFamily,
    TridiagonalSystem,
    apply_operator,
    assemble,
    builtin_example,
    check_m_matrix,
    derive_regime,
    evaluate_array,
    build_mesh,
    parse,
    refine_double,
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


def test_finite_system_whose_sums_overflow_assembles():
    # the sum of the right-hand side overflows, so the finiteness check scans
    # the arrays in full and finds every entry finite
    spec = replace(builtin_example("ex1"), y0=1e308, y1=1e308)
    system = assemble(spec, uniform_mesh(64, spec.d))
    assert system.rhs[0] == system.rhs[-1] == 1e308
    assert np.isfinite(system.rhs).all()


def test_chain_of_one_mesh_is_the_single_system():
    _, mesh, system = _system(example="ex2", epsilon=1e-8, mu=1e-6)
    spec = builtin_example("ex2", epsilon=1e-8, mu=1e-6)
    chain = assemble(spec, [mesh])
    assert chain.n == system.n
    for name in ("lower", "diag", "upper", "rhs"):
        assert getattr(chain, name).tobytes() == getattr(system, name).tobytes()


def test_chain_blocks_are_single_systems_without_couplings_between_them():
    # families, sizes and bisected meshes mixed in one chain
    spec = builtin_example("ex2", epsilon=1e-8, mu=1e-6)
    regime = derive_regime(spec, samples=400)
    meshes = []
    for family, n in zip(MeshFamily, (16, 64, 40)):
        mesh = build_mesh(family, regime, n, spec.d)
        meshes += [mesh, refine_double(mesh)]
    chain = assemble(spec, meshes)
    assert chain.n + 1 == sum(mesh.n + 1 for mesh in meshes)
    first = 0
    for mesh in meshes:
        last = first + mesh.n
        single = assemble(spec, mesh)
        for name in ("lower", "diag", "upper", "rhs"):
            block = getattr(chain, name)[first : last + 1]
            assert block.tobytes() == getattr(single, name).tobytes()
        for row in (first, last):
            assert chain.lower[row] == chain.upper[row] == 0.0
            assert chain.diag[row] == 1.0
        first = last + 1


def test_chain_interface_mismatch_names_the_mesh_node():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-6)
    meshes = [uniform_mesh(16, spec.d), uniform_mesh(32, 0.25)]
    with pytest.raises(ValueError, match=r"mesh interface node x_16 = 0\.25 does not match"):
        assemble(spec, meshes)


def test_chain_keeps_its_stencil_only_for_another_mu(monkeypatch):
    import splayer.scheme as scheme

    spec = builtin_example("ex2", epsilon=1e-6, mu=1e-4)
    regime = derive_regime(spec, samples=400)
    meshes = [shishkin_bakhvalov_mesh(regime, n, spec.d) for n in (64, 128)]
    meshes.append(refine_double(meshes[-1]))
    specs = [spec, replace(spec, mu=1e-8), replace(spec, epsilon=1e-8),
             replace(spec, epsilon=1e-8, mu=1e-12)]
    expected = [assemble(each, meshes) for each in specs]
    builds = []
    real = scheme._stencil
    monkeypatch.setattr(scheme, "_stencil", lambda *args: builds.append(args) or real(*args))
    chain = scheme._Chain(meshes)
    for each, system in zip(specs, expected):
        kept = assemble(each, chain)
        for name in ("lower", "diag", "upper", "rhs"):
            assert getattr(kept, name).tobytes() == getattr(system, name).tobytes(), name
    # a new mu reuses the stencil; a new epsilon builds another
    assert [args[0].epsilon for args in builds] == [1e-6, 1e-8]
