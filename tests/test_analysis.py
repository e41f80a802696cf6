"""Double-mesh estimates, sweep tables, manufactured solutions, emission."""

import math

import numpy as np
import pytest

from splayer import (
    MeshFamily,
    PivotError,
    SweepCellWarning,
    build_mesh,
    builtin_example,
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

COMPARED = (MeshFamily.SHISHKIN, MeshFamily.SHISHKIN_BAKHVALOV)


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
    with pytest.raises(ValueError, match="double-mesh mode"):
        convergence_table(spec, "mu", [1e-8], [32], mode="bogus", samples=50)


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
    real = analysis.refine_double

    def flaky(mesh):
        if mesh.n == 128:
            raise ValueError("synthetic cell failure")
        return real(mesh)

    monkeypatch.setattr(analysis, "refine_double", flaky)
    with pytest.warns(SweepCellWarning, match="N = 128 left empty: ValueError: synthetic"):
        table = convergence_table(spec, "mu", [1e-10], [64, 128, 256], samples=400)
    assert math.isnan(table.errors[0, 1])
    assert not math.isnan(table.errors[0, 0])
    assert not math.isnan(table.errors[0, 2])
    assert math.isnan(table.orders[0, 0]) and math.isnan(table.orders[0, 1])


def _family_tables(spec, mu_values, n_values, families=COMPARED):
    return [
        convergence_table(spec, "mu", mu_values, n_values, family=family, samples=400)
        for family in families
    ]


def test_comparison_pairs_families():
    # the writers list the tables in the order given, once per parameter
    spec = builtin_example("ex1", epsilon=1e-8, mu=1e-8)
    families = (MeshFamily.SHISHKIN_BAKHVALOV, MeshFamily.UNIFORM, MeshFamily.SHISHKIN)
    tables = _family_tables(spec, [1e-8, 1e-9], [64, 128], families)
    rows = comparison_to_csv(tables).splitlines()[1:]
    assert [row.split(",")[1] for row in rows[:6]] == [
        "shishkin-bakhvalov", "shishkin-bakhvalov", "uniform", "uniform", "shishkin", "shishkin",
    ]
    md_rows = comparison_to_markdown(tables).splitlines()[2:]
    assert [row.split(" | ")[1] for row in md_rows] == [f.value for f in families] * 2
    # tables of different sweeps cannot be paired
    other = convergence_table(spec, "mu", [1e-8, 1e-9], [64, 256], samples=400)
    for writer in (comparison_to_csv, comparison_to_markdown):
        with pytest.raises(ValueError, match="must share the sweep"):
            writer([tables[0], other])


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
    mu_values, n_values = (1e-8, 1e-9), (64, 128, 256)
    tables = _family_tables(spec, mu_values, n_values)
    lines = comparison_to_csv(tables).splitlines()
    assert lines[0] == "param,mesh,N,E,R"
    expected = [
        (mu, table, k) for j, mu in enumerate(mu_values) for table in tables
        for k in range(len(n_values))
    ]
    assert len(lines) == 1 + len(expected)
    for line, (mu, table, k) in zip(lines[1:], expected):
        param, mesh, n_text, e_text, r_text = line.split(",")
        j = mu_values.index(mu)
        assert (float(param), mesh, int(n_text)) == (mu, table.mesh_family.value, n_values[k])
        assert float(e_text) == table.errors[j, k]
        if k < len(n_values) - 1:
            assert float(r_text) == table.orders[j, k]
        else:
            assert r_text == ""
    md_lines = comparison_to_markdown(tables).splitlines()
    assert md_lines[0] == "| mu | mesh | N=64 | N=128 |"
    assert len(md_lines) == 2 + len(mu_values) * len(tables)
    for index, line in enumerate(md_lines[2:]):
        j, f = divmod(index, len(tables))
        table = tables[f]
        cells = line.strip("| ").split(" | ")
        assert cells[:2] == [f"{mu_values[j]:g}", table.mesh_family.value]
        assert cells[2:] == [f"{r:.5f}" for r in table.orders[j]]


def test_double_mesh_uniform_family_regenerate():
    spec = builtin_example("ex1", epsilon=1e-4, mu=1e-4)
    mesh = uniform_mesh(32, spec.d)
    error, _, _ = double_mesh_error(spec, mesh, mode="regenerate")
    assert error > 0.0


REUSE_N_LISTS = [(32, 64, 128, 256), (64, 96, 192, 256)]


@pytest.mark.parametrize("family", list(MeshFamily))
@pytest.mark.parametrize("example", ["ex1", "ex2"])
@pytest.mark.parametrize("n_values", REUSE_N_LISTS)
def test_regenerate_reuse_matches_cell_by_cell(family, example, n_values):
    # one row walk serves both modes, and in regenerate mode it reuses a fine
    # solve as the next coarse solve; the table must equal a fresh
    # double_mesh_error per cell, bit for bit.  The modes are looped here
    # rather than parametrized so that the test ids stay as they were.
    spec = builtin_example(example, epsilon=1e-6, mu=1e-4)
    mu_values = [1e-4, 1e-10]
    for mode in analysis.DOUBLE_MESH_MODES:
        table = convergence_table(
            spec, "mu", mu_values, n_values, family=family, mode=mode, samples=400
        )
        expected = np.empty((len(mu_values), len(n_values)))
        for j, mu in enumerate(mu_values):
            row_spec = builtin_example(example, epsilon=1e-6, mu=mu)
            regime = derive_regime(row_spec, 400)
            for k, n in enumerate(n_values):
                mesh = build_mesh(family, regime, n, row_spec.d)
                expected[j, k], _, _ = double_mesh_error(row_spec, mesh, mode, regime)
        assert table.errors.tobytes() == expected.tobytes(), mode
        assert np.all(np.isfinite(table.errors)), mode


def _count_solves(monkeypatch):
    sizes = []
    real = analysis.solve_thomas

    def counting(system):
        sizes.append(system.n)
        return real(system)

    monkeypatch.setattr(analysis, "solve_thomas", counting)
    return sizes


@pytest.mark.parametrize("mode", analysis.DOUBLE_MESH_MODES)
def test_solves_per_row(monkeypatch, mode):
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    n_values = (64, 128, 256, 512)
    k = len(n_values)
    sizes = _count_solves(monkeypatch)
    convergence_table(spec, "mu", [1e-10, 1e-12], n_values, mode=mode, samples=400)
    per_row = {"regenerate": k + 1, "bisect": 2 * k}[mode]
    assert len(sizes) == 2 * per_row
    if mode == "regenerate":
        assert sizes == [64, 128, 256, 512, 1024] * 2


def test_regenerate_reuse_only_on_doubling(monkeypatch):
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    sizes = _count_solves(monkeypatch)
    convergence_table(spec, "mu", [1e-10], (64, 96, 192, 256), mode="regenerate", samples=400)
    # 64 and 96 solve both meshes, 192 reuses the fine solve of 96, 256 does not
    assert sizes == [64, 128, 96, 192, 384, 256, 512]


def test_failed_fine_solve_is_not_reused(monkeypatch):
    spec = builtin_example("ex2", epsilon=1e-8, mu=1e-6)
    n_values = (64, 128, 256, 512)
    real = analysis.solve_thomas

    def failing_at_256(system):
        if system.n == 256:
            raise PivotError(7, 0.0)
        return real(system)

    monkeypatch.setattr(analysis, "solve_thomas", failing_at_256)
    with pytest.warns(SweepCellWarning):
        table = convergence_table(
            spec, "mu", [1e-6], n_values, mode="regenerate", samples=400
        )
    # the 2N solve of N = 128 fails, and so does the coarse solve of N = 256
    regime = derive_regime(spec, 400)
    expected = []
    for n in n_values:
        mesh = build_mesh(MeshFamily.SHISHKIN_BAKHVALOV, regime, n, spec.d)
        try:
            expected.append(double_mesh_error(spec, mesh, "regenerate", regime)[0])
        except PivotError:
            expected.append(math.nan)
    assert [math.isnan(e) for e in table.errors[0]] == [False, True, True, False]
    assert table.errors[0].tobytes() == np.array(expected).tobytes()


def test_failed_cells_are_named_by_warnings():
    spec = builtin_example("ex1", epsilon=1e-16, mu=1e-4)
    with pytest.warns(SweepCellWarning) as caught:
        table = convergence_table(spec, "epsilon", [1e-16, 1e-20], [64, 128], samples=400)
    assert np.all(np.isfinite(table.errors[0]))
    assert np.all(np.isnan(table.errors[1]))
    messages = [str(w.message) for w in caught if w.category is SweepCellWarning]
    assert len(messages) == 2
    for message, n in zip(messages, (64, 128)):
        assert message.startswith(f"shishkin-bakhvalov sweep cell epsilon = 1e-20, N = {n} ")
        assert "ValueError: mesh nodes must be strictly increasing" in message
