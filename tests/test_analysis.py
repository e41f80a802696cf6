"""Double-mesh estimates, sweep tables, manufactured solutions, emission."""

import math
from dataclasses import replace

import numpy as np
import pytest

from splayer import (
    Mesh,
    MeshFamily,
    PivotError,
    SweepCellWarning,
    TridiagonalSystem,
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
        convergence_table(spec, "mu", [1e-8], [32], mode="bogus")


def test_single_pair_order_matches_definition():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    table = convergence_table(spec, "mu", [1e-10], [64, 128])
    assert table.orders.shape == (1, 1)
    expected = math.log2(table.errors[0, 0] / table.errors[0, 1])
    assert table.orders[0, 0] == expected  # identity holds bit for bit


def test_orders_identity_across_full_table():
    spec = builtin_example("ex2", epsilon=1e-8, mu=1e-6)
    table = convergence_table(spec, "mu", [1e-6, 1e-8], [64, 128, 256])
    recomputed = np.log2(table.errors[:, :-1] / table.errors[:, 1:])
    assert np.array_equal(table.orders, recomputed)
    assert np.all(table.errors > 0.0)


def test_errors_decrease_for_paper_problem():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    table = convergence_table(spec, "mu", [1e-10], [64, 128, 256, 512, 1024])
    assert np.all(np.diff(table.errors[0]) < 0.0)


def test_epsilon_uniformity_band():
    # errors at fixed n stay within a small band across epsilon decades
    spec = builtin_example("ex1", epsilon=1e-8, mu=1e-10)
    eps_values = [1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14]
    table = convergence_table(spec, "epsilon", eps_values, [512])
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
        table = convergence_table(spec, "mu", [1e-10], [64, 128, 256])
    assert math.isnan(table.errors[0, 1])
    assert not math.isnan(table.errors[0, 0])
    assert not math.isnan(table.errors[0, 2])
    assert math.isnan(table.orders[0, 0]) and math.isnan(table.orders[0, 1])


def _family_tables(spec, mu_values, n_values, families=COMPARED):
    return [
        convergence_table(spec, "mu", mu_values, n_values, family=family)
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
    other = convergence_table(spec, "mu", [1e-8, 1e-9], [64, 256])
    for writer in (comparison_to_csv, comparison_to_markdown):
        with pytest.raises(ValueError, match="must share the sweep"):
            writer([tables[0], other])


def test_manufactured_smooth_solution_first_order():
    spec = builtin_example("ex1", epsilon=1e-2, mu=1e-2)
    exact = parse("cos(pi*x)")
    d1 = parse("-pi*sin(pi*x)")
    d2 = parse("-pi^2*cos(pi*x)")
    with pytest.warns(UserWarning):
        table = manufactured_convergence(spec, exact, d1, d2, [64, 128, 256, 512])
    assert np.all(np.diff(table.errors[0]) < 0.0)
    assert table.orders[0, -1] == pytest.approx(1.0, abs=0.1)


def test_manufactured_constant_is_exact():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-6)
    table = manufactured_convergence(
        spec, parse("4"), parse("0"), parse("0"), [16, 32]
    )
    assert np.all(table.errors[0] <= 1e-10)


def test_manufactured_linear_is_exact():
    # both difference operators and the interface row are exact on linears
    spec = builtin_example("ex1", epsilon=1e-4, mu=1e-4)
    table = manufactured_convergence(
        spec, parse("x"), parse("1"), parse("0"), [64, 128, 256],
        family=MeshFamily.UNIFORM,
    )
    assert np.all(table.errors[0] <= 1e-12)


def test_table_csv_schema_round_trips():
    spec = builtin_example("ex1", epsilon=1e-8, mu=1e-8)
    table = convergence_table(spec, "mu", [1e-8, 1e-9], [64, 128])
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
    table = convergence_table(spec, "mu", [1e-8], [64, 128])
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
    # double_mesh_error per cell, up to the rounding of the chained solve.
    # The modes are looped here rather than parametrized so that the test
    # ids stay as they were.
    spec = builtin_example(example, epsilon=1e-6, mu=1e-4)
    mu_values = [1e-4, 1e-10]
    for mode in analysis.DOUBLE_MESH_MODES:
        table = convergence_table(
            spec, "mu", mu_values, n_values, family=family, mode=mode
        )
        expected = np.empty((len(mu_values), len(n_values)))
        for j, mu in enumerate(mu_values):
            row_spec = builtin_example(example, epsilon=1e-6, mu=mu)
            regime = derive_regime(row_spec)
            for k, n in enumerate(n_values):
                mesh = build_mesh(family, regime, n, row_spec.d)
                expected[j, k], _, _ = double_mesh_error(row_spec, mesh, mode)
        assert_same_cells(table.errors, expected)
        assert np.all(np.isfinite(table.errors)), mode


# a chained solve rounds a little differently from the single solves
CHAIN_ATOL = 1e-13


def assert_same_cells(errors, expected):
    errors, expected = np.asarray(errors), np.asarray(expected)
    assert np.array_equal(np.isnan(errors), np.isnan(expected))
    np.testing.assert_allclose(errors, expected, rtol=0.0, atol=CHAIN_ATOL)


def _blocks(mesh):
    """(first row, mesh) of each block of the system ``assemble`` lays out for ``mesh``."""
    meshes = [mesh] if isinstance(mesh, Mesh) else list(mesh)
    return zip(np.cumsum([0] + [m.n + 1 for m in meshes[:-1]]), meshes)


def _count_meshes(monkeypatch):
    sizes = []
    real = analysis.assemble

    def counting(spec, mesh):
        sizes.extend(m.n for _, m in _blocks(mesh))
        return real(spec, mesh)

    monkeypatch.setattr(analysis, "assemble", counting)
    return sizes


@pytest.mark.parametrize("mode", analysis.DOUBLE_MESH_MODES)
def test_solves_per_row(monkeypatch, mode):
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    n_values = (64, 128, 256, 512)
    k = len(n_values)
    sizes = _count_meshes(monkeypatch)
    convergence_table(spec, "mu", [1e-10, 1e-12], n_values, mode=mode)
    per_row = {"regenerate": k + 1, "bisect": 2 * k}[mode]
    assert len(sizes) == 2 * per_row
    # row by row, each distinct mesh once, in the order of the cells
    row = {
        "regenerate": [64, 128, 256, 512, 1024],
        "bisect": [64, 128, 128, 256, 256, 512, 512, 1024],
    }[mode]
    assert sizes == 2 * row


def test_regenerate_reuse_only_on_doubling(monkeypatch):
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    sizes = _count_meshes(monkeypatch)
    convergence_table(spec, "mu", [1e-10], (64, 96, 192, 256), mode="regenerate")
    # 64 and 96 solve both meshes, 192 reuses the fine solve of 96, 256 does not
    assert sizes == [64, 128, 96, 192, 384, 256, 512]


def _zero_pivot(monkeypatch, row, failing):
    """Make ``analysis.assemble`` zero the pivot at ``row`` of each block that ``failing`` picks."""
    real = analysis.assemble

    def assemble(spec, mesh):
        system = real(spec, mesh)
        diag = system.diag.copy()
        for first, block in _blocks(mesh):
            if failing(spec, block):
                diag[first + row] = 0.0
        return TridiagonalSystem(system.lower, diag, system.upper, system.rhs, system.n)

    monkeypatch.setattr(analysis, "assemble", assemble)


def test_failed_fine_solve_is_not_reused(monkeypatch):
    spec = builtin_example("ex2", epsilon=1e-8, mu=1e-6)
    n_values = (64, 128, 256, 512)
    _zero_pivot(monkeypatch, 7, lambda spec, mesh: mesh.n == 256)
    with pytest.warns(SweepCellWarning):
        table = convergence_table(
            spec, "mu", [1e-6], n_values, mode="regenerate"
        )
    # the 2N solve of N = 128 fails, and so does the coarse solve of N = 256
    regime = derive_regime(spec)
    expected = []
    for n in n_values:
        mesh = build_mesh(MeshFamily.SHISHKIN_BAKHVALOV, regime, n, spec.d)
        try:
            expected.append(double_mesh_error(spec, mesh, "regenerate")[0])
        except PivotError:
            expected.append(math.nan)
    assert [math.isnan(e) for e in table.errors[0]] == [False, True, True, False]
    assert_same_cells(table.errors[0], expected)


def test_failed_cells_are_named_by_warnings():
    spec = builtin_example("ex1", epsilon=1e-16, mu=1e-4)
    with pytest.warns(SweepCellWarning) as caught:
        table = convergence_table(spec, "epsilon", [1e-16, 1e-20], [64, 128])
    assert np.all(np.isfinite(table.errors[0]))
    assert np.all(np.isnan(table.errors[1]))
    messages = [str(w.message) for w in caught if w.category is SweepCellWarning]
    assert len(messages) == 2
    for message, n in zip(messages, (64, 128)):
        assert message.startswith(f"shishkin-bakhvalov sweep cell epsilon = 1e-20, N = {n} ")
        assert "ValueError: mesh nodes must be strictly increasing" in message


@pytest.mark.parametrize("mode", analysis.DOUBLE_MESH_MODES)
@pytest.mark.parametrize("family", [MeshFamily.SHISHKIN_BAKHVALOV, MeshFamily.UNIFORM])
def test_table_does_not_depend_on_the_batches(monkeypatch, mode, family):
    # the cap decides which systems share a chain, never more than their rounding
    spec = builtin_example("ex2", epsilon=1e-6, mu=1e-4)
    args = (spec, "mu", [1e-4, 1e-8, 1e-12], (64, 128, 256))
    chained = convergence_table(*args, family=family, mode=mode)
    monkeypatch.setattr(analysis, "_CHAIN_ROWS", 1)
    alone = convergence_table(*args, family=family, mode=mode)
    assert_same_cells(chained.errors, alone.errors)
    assert np.all(np.isfinite(chained.errors))


def test_deep_row_is_solved_in_more_than_one_run(monkeypatch):
    # a row with N up to 2^18 exceeds the cap: its meshes are solved in
    # several chains, the largest systems alone, in row order
    spec = builtin_example("ex2", epsilon=1e-6, mu=1e-6)
    n_values = tuple(64 << k for k in range(13))
    runs = []
    real = analysis.assemble

    def recording(spec, mesh):
        runs.append([m.n for _, m in _blocks(mesh)])
        return real(spec, mesh)

    monkeypatch.setattr(analysis, "assemble", recording)
    table = convergence_table(spec, "mu", [1e-6], n_values)
    assert np.all(np.isfinite(table.errors))
    assert len(runs) > 1
    assert all(sum(n + 1 for n in run) <= analysis._CHAIN_ROWS or len(run) == 1 for run in runs)
    assert [n for run in runs for n in run] == [m for n in n_values for m in (n, 2 * n)]
    assert runs[-2:] == [[2**18], [2**19]]


def test_zero_pivot_fails_only_its_cells(monkeypatch):
    # rows mu = 1e-8 and 1e-12 get a zero pivot in every system of n = 64
    # and 128: their cells at N = 64 and 128 fail, each named in row-major
    # order with the text its own solve raises; every other cell is untouched
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-4)
    args = (spec, "mu", [1e-4, 1e-8, 1e-12], (64, 128, 256))
    clean = convergence_table(*args)
    _zero_pivot(monkeypatch, 5, lambda spec, mesh: spec.mu in (1e-8, 1e-12)
                and mesh.n in (64, 128))
    with pytest.warns(SweepCellWarning) as caught:
        table = convergence_table(*args)
    failed = np.isnan(table.errors)
    assert failed.tolist() == [[False, False, False], [True, True, False], [True, True, False]]
    assert_same_cells(table.errors[~failed], clean.errors[~failed])
    messages = [str(w.message) for w in caught if w.category is SweepCellWarning]
    cause = f"PivotError: {PivotError(5, 0.0)}"
    assert messages == [
        f"shishkin-bakhvalov sweep cell mu = {mu!r}, N = {n} left empty: {cause}"
        for mu in (1e-8, 1e-12) for n in (64, 128)
    ]


def _one_row_tables(spec, mu_values, n_values, family=MeshFamily.SHISHKIN_BAKHVALOV,
                    mode="bisect"):
    return np.vstack([convergence_table(spec, "mu", [mu], n_values, family, mode).errors
                      for mu in mu_values])


@pytest.mark.parametrize("example", ["ex1", "ex2"])
@pytest.mark.parametrize("mode", analysis.DOUBLE_MESH_MODES)
@pytest.mark.parametrize("family", list(MeshFamily))
def test_rows_sharing_meshes_are_bitwise_the_rows_alone(example, mode, family):
    # in Case 1 the widths do not depend on mu: these rows share their
    # meshes and the mu-free part of their chain, and lose no bit by it
    spec = builtin_example(example, epsilon=1e-6, mu=1e-4)
    mu_values, n_values = [1e-4, 1e-6, 1e-8, 1e-10], (64, 128, 256)
    table = convergence_table(spec, "mu", mu_values, n_values, family, mode)
    alone = _one_row_tables(spec, mu_values, n_values, family, mode)
    assert table.errors.tobytes() == alone.tobytes()
    assert np.all(np.isfinite(table.errors))


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(analysis, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(analysis, name, counting)
    return calls


@pytest.mark.filterwarnings("ignore::splayer.TransitionClampWarning")
@pytest.mark.parametrize("mu_values, runs", [
    ([10.0**-k for k in range(1, 9)], 4),  # three Case 2 rows, then Case 1 from mu = 1e-4
    ([1e-8, 1e-1, 1e-9], 3),  # the third row's key is not the second's: it builds again
])
def test_rows_share_meshes_only_while_the_widths_hold(monkeypatch, mu_values, runs):
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-4)
    n_values = (64, 128, 256)
    calls = _count_calls(monkeypatch, "build_mesh", "refine_double")
    table = convergence_table(spec, "mu", mu_values, n_values)
    assert calls == {"build_mesh": runs * 3, "refine_double": runs * 3}
    assert table.errors.tobytes() == _one_row_tables(spec, mu_values, n_values).tobytes()


@pytest.mark.filterwarnings("ignore::splayer.TransitionClampWarning")
def test_meshes_are_built_once_per_run_of_rows(monkeypatch):
    spec = builtin_example("ex2", epsilon=3.7e-6, mu=1e-4)
    n_values = (64, 128, 256)
    calls = _count_calls(monkeypatch, "build_mesh", "refine_double")
    convergence_table(spec, "mu", [10.0**-k for k in range(4, 12)], n_values)  # all in Case 1
    assert calls == {"build_mesh": 3, "refine_double": 3}
    calls.update(build_mesh=0, refine_double=0)
    convergence_table(spec, "epsilon", [10.0**-k for k in range(4, 9)], n_values)
    assert calls == {"build_mesh": 5 * 3, "refine_double": 5 * 3}


def test_zero_pivot_in_a_shared_row_fails_only_that_row(monkeypatch):
    # the middle row of a shared run fails in every system; the next row
    # still assembles from the run's stencil, and its cells are untouched
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-4)
    args = (spec, "mu", [1e-4, 1e-6, 1e-8], (64, 128, 256))
    clean = convergence_table(*args)
    _zero_pivot(monkeypatch, 5, lambda spec, mesh: spec.mu == 1e-6)
    with pytest.warns(SweepCellWarning):
        table = convergence_table(*args)
    assert np.isnan(table.errors).tolist() == [[False] * 3, [True] * 3, [False] * 3]
    assert table.errors[[0, 2]].tobytes() == clean.errors[[0, 2]].tobytes()


def test_table_samples_the_coefficients_once(monkeypatch):
    import splayer.problem as problem

    calls = []
    real = problem._grids
    monkeypatch.setattr(problem, "_grids", lambda *args: calls.append(args) or real(*args))
    spec = builtin_example("ex2", epsilon=1e-6, mu=1e-4)
    mu_values = [10.0**-k for k in range(4, 10)]
    table = convergence_table(spec, "mu", mu_values, (64, 128))
    assert len(calls) == 1
    # a spec holding the four constants is not sampled again, and every
    # row's regime is bitwise the one sampled for that row alone
    filled = problem.with_constants(spec)
    calls.clear()
    again = convergence_table(filled, "mu", mu_values, (64, 128))
    assert calls == []
    assert again.errors.tobytes() == table.errors.tobytes()
    for mu in mu_values:
        row_spec = builtin_example("ex2", epsilon=1e-6, mu=mu)
        assert repr(derive_regime(replace(filled, mu=mu))) == repr(derive_regime(row_spec))


def test_table_of_a_spec_that_breaks_a_hypothesis_raises_before_any_cell(monkeypatch):
    # a raw spec is validated, not only sampled for its constants
    monkeypatch.setattr(analysis, "assemble", lambda *args: pytest.fail("assembled"))
    spec = replace(builtin_example("ex1", epsilon=1e-6, mu=1e-4), a_left=parse("1"))
    with pytest.raises(ValueError, match=r"a not negative on \(0, d\)"):
        convergence_table(spec, "mu", [1e-4, 1e-5], (64, 128))


@pytest.mark.filterwarnings("ignore::splayer.TransitionClampWarning")
def test_non_finite_system_fails_only_its_cells():
    # at epsilon = 1e305, epsilon / (h * hbar) overflows: assembly names the
    # row, and the chain retries its systems one by one
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-4)
    with pytest.warns(SweepCellWarning) as caught:
        table = convergence_table(spec, "epsilon", [1e-6, 1e305, 1e-8], [64, 128])
    assert np.isnan(table.errors).tolist() == [[False, False], [True, True], [False, False]]
    alone = convergence_table(spec, "epsilon", [1e-6, 1e-8], [64, 128])
    assert table.errors[[0, 2]].tobytes() == alone.errors.tobytes()
    messages = [str(w.message) for w in caught if w.category is SweepCellWarning]
    assert messages == [
        f"shishkin-bakhvalov sweep cell epsilon = 1e+305, N = {n} left empty: ValueError: "
        "assembled lower[1] = -inf is the first non-finite entry: products and quotients "
        "of the mesh steps leave the float range there"
        for n in (64, 128)
    ]
