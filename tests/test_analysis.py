"""Double-mesh estimates, sweep tables, manufactured solutions, emission."""

import math

import numpy as np
import pytest

from splayer import (
    MeshFamily,
    builtin_example,
    compare_meshes,
    comparison_to_csv,
    comparison_to_markdown,
    convergence_table,
    derive_regime,
    double_mesh_error,
    manufactured_convergence,
    parse,
    shishkin_bakhvalov_mesh,
    table_to_csv,
    table_to_markdown,
    uniform_mesh,
)
from splayer import analysis


def test_double_mesh_error_is_deterministic():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    mesh = shishkin_bakhvalov_mesh(derive_regime(spec), 64, spec.d)
    first, coarse1, fine1 = double_mesh_error(spec, mesh)
    second, coarse2, fine2 = double_mesh_error(spec, mesh)
    assert first == second
    assert np.array_equal(coarse1.y, coarse2.y)
    assert np.array_equal(fine1.y, fine2.y)


def test_double_mesh_error_positive_and_shared_nodes():
    spec = builtin_example("ex1", epsilon=1e-8, mu=1e-8)
    mesh = shishkin_bakhvalov_mesh(derive_regime(spec), 32, spec.d)
    error, coarse, fine = double_mesh_error(spec, mesh)
    assert error > 0.0
    assert fine.y.size == 2 * coarse.y.size - 1
    assert error == pytest.approx(float(np.max(np.abs(coarse.y - fine.y[0::2]))))


def test_double_mesh_regenerate_mode():
    spec = builtin_example("ex1", epsilon=1e-8, mu=1e-8)
    mesh = shishkin_bakhvalov_mesh(derive_regime(spec), 32, spec.d)
    error, _, _ = double_mesh_error(spec, mesh, mode="regenerate")
    assert error > 0.0
    with pytest.raises(ValueError):
        double_mesh_error(spec, mesh, mode="bogus")


def test_single_pair_order_matches_definition():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    table = convergence_table(spec, "mu", [1e-10], [64, 128], samples=400)
    assert table.orders.shape == (1, 1)
    expected = math.log2(table.errors[0, 0] / table.errors[0, 1])
    assert table.orders[0, 0] == expected  # identity holds bit for bit


def test_orders_identity_across_full_table():
    spec = builtin_example("ex2", epsilon=1e-8, mu=1e-6)
    table = convergence_table(spec, "mu", [1e-6, 1e-8], [64, 128, 256], samples=400)
    recomputed = np.log2(table.errors[:, :-1] / table.errors[:, 1:])
    assert np.array_equal(table.orders, recomputed)
    assert np.all(table.errors > 0.0)


def test_errors_decrease_for_paper_problem():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    table = convergence_table(spec, "mu", [1e-10], [64, 128, 256, 512, 1024], samples=400)
    assert np.all(np.diff(table.errors[0]) < 0.0)


def test_epsilon_uniformity_band():
    # errors at fixed n stay within a small band across epsilon decades
    spec = builtin_example("ex1", epsilon=1e-8, mu=1e-10)
    eps_values = [1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14]
    table = convergence_table(spec, "epsilon", eps_values, [512], samples=400)
    column = table.errors[:, 0]
    assert float(np.max(column) / np.min(column)) <= 3.0


def test_cell_failure_recorded_as_missing(monkeypatch):
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    real = analysis.double_mesh_error

    def flaky(spec_, mesh, mode="bisect", regime=None):
        if mesh.n == 128:
            raise ValueError("synthetic cell failure")
        return real(spec_, mesh, mode, regime)

    monkeypatch.setattr(analysis, "double_mesh_error", flaky)
    table = convergence_table(spec, "mu", [1e-10], [64, 128, 256], samples=400)
    assert math.isnan(table.errors[0, 1])
    assert not math.isnan(table.errors[0, 0])
    assert not math.isnan(table.errors[0, 2])
    assert math.isnan(table.orders[0, 0]) and math.isnan(table.orders[0, 1])


def test_compare_meshes_pairs_families():
    spec = builtin_example("ex1", epsilon=1e-8, mu=1e-8)
    comparison = compare_meshes(spec, "mu", [1e-8], [64, 128], samples=400)
    assert comparison.shishkin.mesh_family is MeshFamily.SHISHKIN
    assert comparison.shishkin_bakhvalov.mesh_family is MeshFamily.SHISHKIN_BAKHVALOV
    assert comparison.shishkin.errors.shape == comparison.shishkin_bakhvalov.errors.shape


def test_manufactured_smooth_solution_first_order():
    spec = builtin_example("ex1", epsilon=1e-2, mu=1e-2)
    exact = parse("cos(pi*x)")
    d1 = parse("-pi*sin(pi*x)")
    d2 = parse("-pi^2*cos(pi*x)")
    with pytest.warns(UserWarning):
        table = manufactured_convergence(spec, exact, d1, d2, [64, 128, 256, 512], samples=400)
    assert np.all(np.diff(table.errors[0]) < 0.0)
    assert table.orders[0, -1] == pytest.approx(1.0, abs=0.1)


def test_manufactured_constant_is_exact():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-6)
    table = manufactured_convergence(
        spec, parse("4"), parse("0"), parse("0"), [16, 32], samples=400
    )
    assert np.all(table.errors[0] <= 1e-10)


def test_manufactured_linear_is_exact():
    # both difference operators and the interface row are exact on linears
    spec = builtin_example("ex1", epsilon=1e-4, mu=1e-4)
    table = manufactured_convergence(
        spec, parse("x"), parse("1"), parse("0"), [64, 128, 256],
        family=MeshFamily.UNIFORM, samples=400,
    )
    assert np.all(table.errors[0] <= 1e-12)


def test_table_csv_schema_round_trips():
    spec = builtin_example("ex1", epsilon=1e-8, mu=1e-8)
    table = convergence_table(spec, "mu", [1e-8, 1e-9], [64, 128], samples=400)
    text = table_to_csv(table)
    lines = text.strip().splitlines()
    assert lines[0] == "param,N,E,R"
    assert len(lines) == 1 + 2 * 2
    for j, value in enumerate(table.sweep_values):
        for k, n in enumerate(table.n_values):
            param, n_text, e_text, r_text = lines[1 + j * 2 + k].split(",")
            assert float(param) == value
            assert int(n_text) == n
            assert float(e_text) == table.errors[j, k]
            if k < len(table.n_values) - 1:
                assert float(r_text) == table.orders[j, k]
            else:
                assert r_text == ""


def test_table_markdown_layout():
    spec = builtin_example("ex1", epsilon=1e-8, mu=1e-8)
    table = convergence_table(spec, "mu", [1e-8], [64, 128], samples=400)
    text = table_to_markdown(table)
    lines = text.strip().splitlines()
    assert lines[0].startswith("| mu | N=64 | N=128 |")
    assert len(lines) == 4  # header, rule, error row, order row
    assert lines[3].startswith("| order |")


def test_comparison_csv_and_markdown():
    spec = builtin_example("ex1", epsilon=1e-8, mu=1e-8)
    comparison = compare_meshes(spec, "mu", [1e-8], [64, 128], samples=400)
    csv_text = comparison_to_csv(comparison)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "param,mesh,N,E,R"
    assert [line.split(",")[1] for line in lines[1:]] == [
        "shishkin", "shishkin", "shishkin-bakhvalov", "shishkin-bakhvalov",
    ]
    md_text = comparison_to_markdown(comparison)
    assert "| shishkin |" in md_text.replace("shishkin-bakhvalov", "SB")
    assert "shishkin-bakhvalov" in md_text


def test_double_mesh_uniform_family_regenerate():
    spec = builtin_example("ex1", epsilon=1e-4, mu=1e-4)
    mesh = uniform_mesh(32, spec.d)
    error, _, _ = double_mesh_error(spec, mesh, mode="regenerate")
    assert error > 0.0
