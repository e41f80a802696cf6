"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import splayer
import splayer.cli as cli
from splayer.cli import _build_parser, build_config, main, write_atomic
from splayer.mesh import MeshFamily
from splayer.svg import polyline_plot


def run(args, cwd):
    import os

    old = os.getcwd()
    os.chdir(cwd)
    try:
        return main(args)
    finally:
        os.chdir(old)


def test_solve_writes_csv_and_svg(tmp_path):
    status = run(
        ["solve", "--problem", "ex1", "--epsilon", "1e-8", "--mu", "1e-6",
         "--n", "256", "--plot"],
        tmp_path,
    )
    assert status == 0
    lines = (tmp_path / "solution.csv").read_text().strip().splitlines()
    assert lines[0] == "i,x,Y"
    assert len(lines) == 258
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0 and float(first[2]) == 2.0
    svg = (tmp_path / "solution.svg").read_text()
    assert svg.startswith("<svg") and "<polyline" in svg


def test_mesh_dump_pins_interface(tmp_path):
    status = run(
        ["mesh", "--problem", "ex1", "--epsilon", "1e-6", "--mu", "1e-10", "--n", "64"],
        tmp_path,
    )
    assert status == 0
    lines = (tmp_path / "mesh.csv").read_text().strip().splitlines()
    assert lines[0] == "i,x_i,h_i,region"
    assert len(lines) == 66
    row32 = lines[33].split(",")
    assert row32[0] == "32" and float(row32[1]) == 0.5
    assert lines[1].split(",")[2] == ""  # h undefined at i = 0


def test_converge_table_shape_and_determinism(tmp_path):
    args = ["converge", "--problem", "ex1", "--epsilon", "1e-6",
            "--mu-range", "1e-9:1e-10", "--n", "64:128"]
    assert run(args, tmp_path) == 0
    first = (tmp_path / "convergence.csv").read_bytes()
    assert run(args, tmp_path) == 0
    assert (tmp_path / "convergence.csv").read_bytes() == first
    lines = first.decode().strip().splitlines()
    assert lines[0] == "param,N,E,R"
    assert len(lines) == 1 + 2 * 2


def test_converge_markdown_format(tmp_path):
    status = run(
        ["converge", "--problem", "ex1", "--epsilon", "1e-8",
         "--mu-range", "1e-8", "--n", "64,128", "--format", "md"],
        tmp_path,
    )
    assert status == 0
    text = (tmp_path / "convergence.md").read_text()
    assert text.startswith("| mu | N=64 | N=128 |")


def test_converge_regenerate_mode(tmp_path):
    status = run(
        ["converge", "--problem", "ex1", "--epsilon", "1e-8",
         "--mu-range", "1e-8", "--n", "64,128", "--double-mesh", "regenerate"],
        tmp_path,
    )
    assert status == 0


def test_compare_writes_paired_rows(tmp_path):
    status = run(
        ["compare", "--problem", "ex1", "--epsilon", "1e-8",
         "--mu-range", "1e-8:1e-9", "--n", "64:128"],
        tmp_path,
    )
    assert status == 0
    lines = (tmp_path / "comparison.csv").read_text().strip().splitlines()
    assert lines[0] == "param,mesh,N,E,R"
    meshes = {line.split(",")[1] for line in lines[1:]}
    assert meshes == {"shishkin", "shishkin-bakhvalov"}


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_manufactured_table(tmp_path):
    status = run(
        ["manufactured", "--problem", "ex1", "--epsilon", "1e-2", "--mu", "1e-2",
         "--n", "64,128", "--exact", "cos(pi*x)",
         "--exact-d1=-pi*sin(pi*x)", "--exact-d2=-pi^2*cos(pi*x)"],
        tmp_path,
    )
    assert status == 0
    lines = (tmp_path / "manufactured.csv").read_text().strip().splitlines()
    assert lines[0] == "param,N,E,R"
    assert len(lines) == 3


def test_json_problem_file(tmp_path):
    doc = {
        "a_left": "-2", "a_right": "2", "b": "1", "f_left": "-1", "f_right": "1",
        "d": 0.5, "y0": 2.0, "y1": 1.0, "epsilon": 1.0, "mu": 1.0,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    status = run(
        ["solve", "--problem", str(path), "--epsilon", "1e-6", "--mu", "1e-8",
         "--n", "64"],
        tmp_path,
    )
    assert status == 0
    assert (tmp_path / "solution.csv").exists()


def test_custom_output_path(tmp_path):
    status = run(
        ["solve", "--problem", "ex1", "--epsilon", "1e-6", "--mu", "1e-8",
         "--n", "64", "--output", "out/custom.csv"],
        tmp_path,
    )
    assert status == 0
    assert (tmp_path / "out" / "custom.csv").exists()


def test_unknown_problem_exits_2(tmp_path, capsys):
    assert run(["solve", "--problem", "nope", "--epsilon", "1e-6",
                "--mu", "1e-8", "--n", "64"], tmp_path) == 2
    assert "not a built-in id" in capsys.readouterr().err


def test_bad_n_exits_2(tmp_path):
    assert run(["solve", "--problem", "ex1", "--epsilon", "1e-6",
                "--mu", "1e-8", "--n", "63"], tmp_path) == 2


def test_bad_range_exits_2(tmp_path):
    assert run(["converge", "--problem", "ex1", "--epsilon", "1e-6",
                "--mu-range", "3e-4:1e-6", "--n", "64"], tmp_path) == 2
    assert run(["converge", "--problem", "ex1", "--epsilon", "1e-6",
                "--n", "64"], tmp_path) == 2


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert run(["solve", "--problem", str(path), "--epsilon", "1e-6",
                "--mu", "1e-8", "--n", "64"], tmp_path) == 2


def test_sign_violation_exits_2(tmp_path, capsys):
    doc = {
        "a_left": "2", "a_right": "2", "b": "1", "f_left": "-1", "f_right": "1",
        "d": 0.5, "y0": 2.0, "y1": 1.0, "epsilon": 1.0, "mu": 1.0,
    }
    path = tmp_path / "bad_sign.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", "--problem", str(path), "--epsilon", "1e-6",
                "--mu", "1e-8", "--n", "64"], tmp_path) == 2
    assert "sign hypotheses" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    # theta1 overflows to inf at this epsilon: numerical failure, not config
    assert run(["solve", "--problem", "ex1", "--epsilon", "1e-320",
                "--mu", "1e-10", "--n", "64"], tmp_path) == 3
    assert "numerical failure" in capsys.readouterr().err


_EX1_DOC = {
    "a_left": "-2", "a_right": "2", "b": "1", "f_left": "-1", "f_right": "1",
    "d": 0.5, "y0": 2.0, "y1": 1.0, "epsilon": 1.0, "mu": 1.0,
}


@pytest.mark.parametrize("epsilon, mu, doc, message", [
    ("nan", "1e-6", None, "epsilon must be finite and positive, got nan"),
    ("inf", "1e-6", None, "epsilon must be finite and positive, got inf"),
    ("1e-8", "nan", None, "mu must be finite and positive, got nan"),
    ("1e-8", "inf", None, "mu must be finite and positive, got inf"),
    ("1e-8", "1e-6", {"y0": math.nan}, "y0 must be finite, got nan"),
    ("1e-8", "1e-6", {"y1": -math.inf}, "y1 must be finite, got -inf"),
    ("1e-8", "1e-6", {"overrides": {"rho": math.nan}},
     "override rho must be finite and positive, got nan"),
    ("1e-8", "1e-6", {"overrides": {"gamma": 0.0}},
     "override gamma must be finite and positive, got 0.0"),
], ids=["epsilon-nan", "epsilon-inf", "mu-nan", "mu-inf", "y0-nan", "y1-inf",
        "override-nan", "override-zero"])
def test_non_finite_input_exits_2_naming_the_field(tmp_path, capsys, epsilon, mu, doc, message):
    problem = "ex1"
    if doc is not None:
        problem = str(tmp_path / "problem.json")
        Path(problem).write_text(json.dumps({**_EX1_DOC, **doc}))
    assert run(["solve", "--problem", problem, "--epsilon", epsilon, "--mu", mu,
                "--n", "64"], tmp_path) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "numerical failure" not in err
    assert not (tmp_path / "solution.csv").exists()


@pytest.mark.parametrize("argv, families", [
    (["compare", "--mu-range", "1e-4:1e-6"],
     (MeshFamily.SHISHKIN, MeshFamily.SHISHKIN_BAKHVALOV)),
    (["converge", "--mu-range", "1e-4:1e-6"], (MeshFamily.SHISHKIN_BAKHVALOV,)),
    (["converge", "--mu-range", "1e-4:1e-6", "--mesh", "shishkin"], (MeshFamily.SHISHKIN,)),
], ids=["compare", "converge-default", "converge-shishkin"])
def test_build_config_records_the_families_run(argv, families):
    args = _build_parser().parse_args(
        argv + ["--problem", "ex1", "--epsilon", "1e-8", "--n", "64:128"]
    )
    assert build_config(args).families == families


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert run(["solve", "--problem", "ex1", "--epsilon", "1e-6",
                "--mu", "1e-8", "--n", "64", "--frobnicate"], tmp_path) == 2
    capsys.readouterr()


def test_compare_rejects_mesh_flag(tmp_path, capsys):
    # compare always runs both layer-adapted families; --mesh would be ignored
    assert run(["compare", "--problem", "ex1", "--epsilon", "1e-8",
                "--mu-range", "1e-8", "--n", "64,128", "--mesh", "uniform"], tmp_path) == 2
    assert "unrecognized arguments: --mesh uniform" in capsys.readouterr().err
    assert not (tmp_path / "comparison.csv").exists()


@pytest.mark.parametrize("flag, value", [
    ("--mu-range", "1e-3:1e-9"),
    ("--epsilon-range", "1e-2:1e-4"),
    ("--double-mesh", "regenerate"),
])
def test_manufactured_rejects_sweep_flags(tmp_path, capsys, flag, value):
    # manufactured solves one (epsilon, mu) with true errors; these would be ignored
    assert run(["manufactured", "--problem", "ex1", "--epsilon", "1e-2", "--mu", "1e-2",
                "--n", "64,128", "--exact", "x", "--exact-d1", "1", "--exact-d2", "0",
                flag, value], tmp_path) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "manufactured.csv").exists()



def test_layer_below_float_spacing_names_the_cause(tmp_path, capsys):
    # the interface layer width (~3e-19) is below the spacing of floats at d = 0.5
    assert run(["solve", "--problem", "ex1", "--epsilon", "1e-24",
                "--mu", "1e-4", "--n", "2048"], tmp_path) == 3
    err = capsys.readouterr().err
    assert "mesh nodes must be strictly increasing" in err
    assert "n = 2048" in err
    assert f"float spacing is {float(np.spacing(0.5))!r}" in err
    assert not (tmp_path / "solution.csv").exists()


def test_write_atomic_streams_chunks(tmp_path):
    target = tmp_path / "out.csv"
    write_atomic(target, (f"{i}\n" for i in range(3)))
    assert target.read_text() == "0\n1\n2\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_write_atomic_mode_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_atomic(tmp_path / "text.csv", "a\n")
        write_atomic(tmp_path / "chunks.csv", iter(["a\n"]))
    finally:
        os.umask(old)
    for name in ("text.csv", "chunks.csv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode


def test_write_atomic_failed_chunks_leave_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def chunks():
        yield "new first chunk\n"
        raise ValueError("formatting failed")

    with pytest.raises(ValueError, match="formatting failed"):
        write_atomic(target, chunks())
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_size_beyond_memory_exits_3_naming_the_run(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "build_mesh", out_of_memory)
    assert run(["solve", "--problem", "ex1", "--epsilon", "1e-6", "--mu", "1e-4",
                "--n", "1000000000000"], tmp_path) == 3
    err = capsys.readouterr().err
    assert "solve --n 1000000000000 does not fit in memory" in err
    assert "Unable to allocate 7.28 TiB" in err
    assert "Traceback" not in err


def _counted_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("subcommand, first", [("solve", 0), ("mesh", 1)])
@pytest.mark.parametrize("n, fork_rows", [
    (65528, None), (65536, None),  # both sides of the row threshold
    (16, 1), (24, 1), (4104, 1),  # forced forks: splits inside and across chunks
])
def test_large_csv_matches_serial_formatting(tmp_path, monkeypatch, subcommand, first, n,
                                             fork_rows):
    if fork_rows is not None:
        monkeypatch.setattr(cli, "_FORK_ROWS", fork_rows)
    argv = [subcommand, "--problem", "ex1", "--epsilon", "1.234e-8", "--mu", "5.6e-6",
            "--n", str(n), "--output"]
    forks = _counted_forks(monkeypatch)
    assert run(argv + ["split.csv"], tmp_path) == 0
    rows = n + 1 - first  # the mesh CSV's row 0 is part of its header
    assert len(forks) == int(rows >= cli._FORK_ROWS and cli._on_two_cores())
    monkeypatch.setattr(cli, "_FORK_ROWS", 1 << 62)
    assert run(argv + ["serial.csv"], tmp_path) == 0
    assert len(forks) <= 1
    split = (tmp_path / "split.csv").read_bytes()
    assert split == (tmp_path / "serial.csv").read_bytes()
    assert split.count(b"\n") == n + 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["serial.csv", "split.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Injected(Exception):
    pass


@pytest.mark.parametrize("subcommand, first", [("solve", 0), ("mesh", 1)])
@pytest.mark.parametrize("side", ["child", "parent"])
def test_failed_split_csv_leaves_old_target_and_no_child(tmp_path, monkeypatch, subcommand,
                                                         first, side):
    monkeypatch.setattr(cli, "_FORK_ROWS", 1)
    monkeypatch.setattr(cli, "_on_two_cores", lambda: True)
    real_chunks = cli._csv_chunks

    def failing_chunks(format_rows, start, stop):
        # the parent formats from the first row, the child from the split
        if (start == first) == (side == "parent"):
            raise _Injected(side)
        return real_chunks(format_rows, start, stop)

    monkeypatch.setattr(cli, "_csv_chunks", failing_chunks)
    forks = _counted_forks(monkeypatch)
    target = tmp_path / f"{subcommand}.csv"
    target.write_text("old\n")
    argv = [subcommand, "--problem", "ex1", "--epsilon", "1e-6", "--mu", "1e-4",
            "--n", "4096", "--output", str(target)]
    if side == "parent":
        with pytest.raises(_Injected):
            run(argv, tmp_path)
    else:  # the child's failure reaches the parent as an OSError: a failed write
        assert run(argv, tmp_path) == 2
    assert len(forks) == 1
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [target.name]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_sweep_cells_named_on_stderr(tmp_path):
    # the warnings go through Python's default display, so run a real process
    src = str(Path(splayer.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    done = subprocess.run(
        [sys.executable, "-m", "splayer.cli", "converge", "--problem", "ex1",
         "--mu", "1e-4", "--epsilon-range", "1e-16:1e-24", "--n", "64:256"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "param,N,E,R"
    # the row's systems are solved as one chain, which rounds a little
    # differently from single solves: E within 1e-13, R within 1e-11
    param, n, error, order = lines[1].split(",")
    assert (param, n) == ("1e-16", "64")
    assert abs(float(error) - 0.16214710118202014) <= 1e-13
    assert abs(float(order) - 0.623467209652506) <= 1e-11
    assert len(lines) == 1 + 9 * 3
    for line in lines[1:]:
        param, n, error, order = line.split(",")
        if float(param) >= 1e-19:
            assert error and (order or n == "256")
        else:
            assert error == "" and order == ""
    named = [line for line in done.stderr.splitlines() if "SweepCellWarning" in line]
    assert len(named) == 5 * 3
    cell = next(line for line in named if "epsilon = 1e-20, N = 64 " in line)
    assert "strictly increasing" in cell


def _one_line_exit_2(capsys, argv, tmp_path, *fragments):
    assert run(argv, tmp_path) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("splayer: "), err
    for fragment in fragments:
        assert fragment in lines[0]


@pytest.mark.parametrize("mu_range", ["1e0:1e400", "nan:1e-3"])
def test_non_finite_range_endpoint_exits_2(tmp_path, capsys, mu_range):
    argv = ["converge", "--problem", "ex1", "--epsilon", "1e-6", "--mu-range", mu_range,
            "--n", "64:128"]
    _one_line_exit_2(capsys, argv, tmp_path, "--mu-range", "must be finite and positive")


def test_overrides_of_the_wrong_type_exit_2(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**_EX1_DOC, "overrides": [1]}))
    argv = ["solve", "--problem", str(path), "--epsilon", "1e-6", "--mu", "1e-8", "--n", "64"]
    _one_line_exit_2(capsys, argv, tmp_path, "overrides must be an object of numbers")


def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    (tmp_path / "plain.txt").write_text("a file, not a directory\n")
    base = ["converge", "--problem", "ex1", "--epsilon", "1e-6", "--mu-range", "1e-4:1e-5",
            "--n", "64"]
    directory = str(tmp_path / "taken")
    _one_line_exit_2(capsys, base + ["--output", directory], tmp_path, repr(directory),
                     "is a directory")
    nested = str(tmp_path / "plain.txt" / "sub" / "out.csv")
    _one_line_exit_2(capsys, base + ["--output", nested], tmp_path, repr(nested),
                     repr(str(tmp_path / "plain.txt")))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.txt", "taken"]
    assert not any((tmp_path / "taken").iterdir())


def test_solve_with_boundary_values_near_the_float_limit(tmp_path, capsys):
    # products like lower * y overflow; the solve and its residual stay finite
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**_EX1_DOC, "y0": 1e308, "y1": -1e308}))
    argv = ["solve", "--problem", str(path), "--epsilon", "1e-2", "--mu", "1e-2", "--n", "64",
            "--mesh", "uniform"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv, tmp_path) == 0
    assert capsys.readouterr().err == ""
    rows = (tmp_path / "solution.csv").read_text().splitlines()[1:]
    y = [float(row.split(",")[2]) for row in rows]
    assert y[0] == 1e308 and y[-1] == -1e308 and all(math.isfinite(v) for v in y)


def _svg_numbers(svg, *names):
    return [float(v) for name in names for v in re.findall(rf'\b{name}="([^"]*)"', svg)]


@pytest.mark.filterwarnings("ignore::splayer.TransitionClampWarning")
def test_plot_at_the_float_limits_stays_in_the_view_box(tmp_path):
    # y spans 2e308, more than the float range; every coordinate and tick
    # label must still be finite, and every point inside the picture
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**_EX1_DOC, "y0": 1e308, "y1": -1e308}))
    argv = ["solve", "--problem", str(path), "--epsilon", "1e-2", "--mu", "1e-2", "--n", "64",
            "--plot", "--markers"]
    assert run(argv, tmp_path) == 0
    svg = (tmp_path / "solution.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    points = [float(v) for pair in re.search(r'points="([^"]*)"', svg)[1].split()
              for v in pair.split(",")]
    xs = points[0::2] + _svg_numbers(svg, "x", "x1", "x2", "cx")
    ys = points[1::2] + _svg_numbers(svg, "y", "y1", "y2", "cy")
    assert all(0.0 <= x <= 760.0 for x in xs) and all(0.0 <= y <= 480.0 for y in ys)
    labels = re.findall(r'font-size="11">([^<]*)</text>', svg)
    assert labels[-5:] == ["-1.00e+308", "-5.00e+307", "0", "5.00e+307", "1.00e+308"]


def test_readme_plot_is_unchanged(tmp_path):
    # the SVG of README's solve --plot, pinned by its digest
    argv = ["solve", "--problem", "ex1", "--epsilon", "1e-8", "--mu", "1e-6", "--n", "256",
            "--plot"]
    assert run(argv, tmp_path) == 0
    digest = hashlib.sha256((tmp_path / "solution.svg").read_bytes()).hexdigest()
    assert digest == "7c97dba558b338007465a035085c07fd052fd606dfe63844053f251b35c5dd60"


@pytest.mark.parametrize("value", [1e20, -1e20, 2.0**53, 1.7976931348623157e308,
                                   -1.7976931348623157e308])
def test_flat_plot_of_large_values_keeps_an_axis_span(value):
    # a pad of 0.25 is below the float spacing once |y| passes 2^53, so the
    # span of a flat series stayed 0 and the map divided by it
    svg = polyline_plot([0.0, 1.0], [value, value])
    assert "nan" not in svg and "inf" not in svg
    ys = [float(pair.split(",")[1]) for pair in re.search(r'points="([^"]*)"', svg)[1].split()]
    assert ys[0] == ys[1] and 40.0 <= ys[0] <= 430.0


_CLAMPED = "TransitionClampWarning: transition widths clamped to quarter regions ({}); " \
    "the layers are resolvable by a uniform mesh at n = {}"


def test_clamped_compare_names_each_clamp_once_in_order(tmp_path):
    # Python's default display shows each warning text once, at its first
    # appearance; rows that share their meshes build them, and warn, once
    src = str(Path(splayer.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    done = subprocess.run(
        [sys.executable, "-m", "splayer.cli", "compare", "--problem", "ex1", "--epsilon", "1e-3",
         "--mu-range", "1e-1:1e-8", "--n", "16:2048", "--double-mesh", "regenerate"],
        cwd=tmp_path, env=dict(env, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0
    every = "sigma1, sigma2, sigma3, sigma4"
    clamps = [("sigma1, sigma4", 16)] + [(every, 32 << k) for k in range(8)] + [(every, 16)]
    source = "  return _layer_adapted_mesh(family, regime, n, d)"
    expected = [line for clamp in clamps for line in (_CLAMPED.format(*clamp), source)]
    assert [re.sub(r"^.*mesh\.py:\d+: ", "", line) for line in done.stderr.splitlines()] == expected


def test_importing_the_cli_does_not_load_scipy():
    # scipy serves the test oracle only; it must not slow down every run
    src = str(Path(splayer.__file__).resolve().parent.parent)
    code = "import sys, splayer.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


_EX1 = ["--problem", "ex1", "--epsilon", "1e-8"]


@pytest.mark.parametrize("argv", [
    ["solve", *_EX1, "--mu", "1e-6", "--n", "64", "--plot"],
    ["converge", *_EX1, "--mu-range", "1e-5:1e-8", "--n", "64:128"],
    ["compare", *_EX1, "--mu-range", "1e-5:1e-14", "--n", "64:128", "--double-mesh", "regenerate",
     "--format", "md"],
    ["mesh", *_EX1, "--mu", "1e-6", "--n", "64"],
    ["manufactured", *_EX1, "--mu", "1e-6", "--n", "64:128", "--exact", "1+x",
     "--exact-d1", "1", "--exact-d2", "0"],
], ids=lambda argv: argv[0])
def test_subcommand_samples_the_coefficients_twice(tmp_path, monkeypatch, argv):
    import splayer.problem as problem

    calls = []
    real = problem._grids
    monkeypatch.setattr(problem, "_grids", lambda *args: calls.append(args) or real(*args))
    assert run(argv, tmp_path) == 0
    # validate samples once, and the constants once; the spec then carries them
    assert len(calls) == 2


@pytest.mark.parametrize("samples", ["1", "1000000000"])
def test_samples_outside_the_range_exit_2_before_sampling(tmp_path, capsys, monkeypatch, samples):
    # 10^9 samples would allocate two 8 GB grids: the flag is refused first
    import splayer.problem as problem

    monkeypatch.setattr(problem, "_grids", lambda *args: pytest.fail("sampled"))
    argv = ["solve", *_EX1, "--mu", "1e-6", "--n", "64", "--samples", samples]
    _one_line_exit_2(capsys, argv, tmp_path, "--samples", str(cli._MAX_SAMPLES))
    assert list(tmp_path.iterdir()) == []


def test_failed_write_exits_2_and_keeps_the_old_target(tmp_path, capsys, monkeypatch):
    # a rename that is denied stands for any write error; chmod cannot show one to root
    def denied(src, dst):
        raise PermissionError(13, "Permission denied", src, None, dst)

    target = tmp_path / "solution.csv"
    target.write_text("old\n")
    monkeypatch.setattr(os, "replace", denied)
    argv = ["solve", *_EX1, "--mu", "1e-6", "--n", "64", "--output", str(target)]
    _one_line_exit_2(capsys, argv, tmp_path, f"cannot write {target}", "Permission denied")
    assert target.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [target.name]


@pytest.mark.parametrize("doc, cause", [
    ({"d": 1e-300}, "assembled lower[1] = -inf is the first non-finite entry: products and "
     "quotients of the mesh steps leave the float range there"),
    ({"f_left": "-1e308", "f_right": "1e308"}, "solution Y[0] = nan is the first non-finite "
     "value: the elimination left the float range"),
], ids=["steps-underflow", "elimination-overflow"])
def test_non_finite_system_exits_3_naming_the_row(tmp_path, capsys, doc, cause):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**_EX1_DOC, **doc}))
    argv = ["solve", "--problem", str(path), "--epsilon", "1e-6", "--mu", "1e-6", "--n", "64"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", splayer.TransitionClampWarning)
        assert run(argv, tmp_path) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert err.strip().splitlines()[-1] == f"splayer: numerical failure: {cause}"


def test_constant_that_underflows_exits_2(tmp_path, capsys):
    # every sampled b/a underflows to 0: the signs hold, but rho does not exist
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({**_EX1_DOC, "a_left": "-1e300", "a_right": "1e300",
                                "b": "1e-300"}))
    argv = ["solve", "--problem", str(path), "--epsilon", "1e-6", "--mu", "1e-6", "--n", "64"]
    _one_line_exit_2(capsys, argv, tmp_path, "derived rho = 0.0 is not positive")
