"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import json

import numpy as np
import pytest

from splayer.cli import main


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


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert run(["solve", "--problem", "ex1", "--epsilon", "1e-6",
                "--mu", "1e-8", "--n", "64", "--frobnicate"], tmp_path) == 2
    capsys.readouterr()



def test_layer_below_float_spacing_names_the_cause(tmp_path, capsys):
    # the interface layer width (~3e-19) is below the spacing of floats at d = 0.5
    assert run(["solve", "--problem", "ex1", "--epsilon", "1e-24",
                "--mu", "1e-4", "--n", "2048"], tmp_path) == 3
    err = capsys.readouterr().err
    assert "mesh nodes must be strictly increasing" in err
    assert "n = 2048" in err
    assert f"float spacing is {float(np.spacing(0.5))!r}" in err
    assert not (tmp_path / "solution.csv").exists()
