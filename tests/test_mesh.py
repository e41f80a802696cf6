"""Mesh construction: transitions, junction pinning, grading structure."""

import math

import numpy as np
import pytest
from conftest import draw_regimes

from splayer import (
    Case,
    Mesh,
    MeshFamily,
    RegimeData,
    TransitionClampWarning,
    builtin_example,
    derive_regime,
    refine_double,
    shishkin_bakhvalov_mesh,
    shishkin_mesh,
    transition_points,
    uniform_mesh,
)
from splayer.mesh import node_regions


def _regime(epsilon, mu, example="ex1"):
    return derive_regime(builtin_example(example, epsilon=epsilon, mu=mu), samples=400)


def test_transition_widths_case_one():
    regime = _regime(1e-6, 1e-10)  # theta2 = 500
    s1, s2, s3, s4 = transition_points(regime, 64, 0.5)
    # oracle: direct formula 4/500 * ln 64
    assert s1 == pytest.approx(0.033271064666877376, rel=1e-14)
    assert s1 == s2 == s3 == s4  # case one: theta1 == theta2, d = 1/2


def test_transition_widths_case_two():
    regime = _regime(1e-12, 1e-4)  # theta1 = 1e8
    _, s2, _, _ = transition_points(regime, 64, 0.5)
    assert s2 == pytest.approx(1.6635532333438687e-07, rel=1e-14)


def test_clamp_hits_quarter_width_exactly():
    ln64 = math.log(64)
    theta = 4.0 * ln64 / 0.5  # raw width equals d, forcing the d/4 clamp
    regime = RegimeData(
        alpha1=1.0, alpha2=1.0, alpha=1.0, rho=1.0, gamma=1.0,
        case=Case.ONE, theta1=theta, theta2=theta,
    )
    with pytest.warns(TransitionClampWarning):
        s1, s2, s3, s4 = transition_points(regime, 64, 0.5)
    assert s1 == 0.125
    assert (s1, s2, s3, s4) == (0.125, 0.125, 0.125, 0.125)


def test_rejects_bad_n():
    regime = _regime(1e-6, 1e-10)
    with pytest.raises(ValueError):
        transition_points(regime, 20, 0.5)
    with pytest.raises(ValueError):
        shishkin_bakhvalov_mesh(regime, 8, 0.5)


def test_graded_first_node():
    regime = _regime(1e-6, 1e-10)
    mesh = shishkin_bakhvalov_mesh(regime, 64, 0.5)
    # oracle: -(8/500) * log(1 + (8/64)(1/8 - 1)) evaluated directly
    assert mesh.points[1] == pytest.approx(0.0018533090484019472, rel=1e-13)


def test_junctions_are_pinned_bitwise():
    regime = _regime(1e-6, 1e-10)
    for n in (16, 64, 256):
        mesh = shishkin_bakhvalov_mesh(regime, n, 0.5)
        s1, s2, s3, s4 = mesh.sigma
        assert mesh.points[0] == 0.0
        assert mesh.points[n // 8] == s1
        assert mesh.points[3 * n // 8] == 0.5 - s2
        assert mesh.points[n // 2] == 0.5
        assert mesh.points[5 * n // 8] == 0.5 + s3
        assert mesh.points[7 * n // 8] == 1.0 - s4
        assert mesh.points[n] == 1.0


def _graded_regions(mesh):
    n = mesh.n
    n8 = n // 8
    s1, s2, s3, s4 = mesh.sigma
    # (index range, sigma, affine target of the characterizing function, anchor)
    r = 1.0 / math.sqrt(n)
    i = np.arange(n + 1)
    return [
        (np.arange(0, n8 + 1), s1, 1.0 + (8.0 * i[: n8 + 1] / n) * (r - 1.0), 0.0),
        (np.arange(3 * n8, n // 2 + 1), s2,
         (8.0 * i[3 * n8: n // 2 + 1] / n) * (1.0 - r) + 4.0 * r - 3.0, mesh.d),
        (np.arange(n // 2, 5 * n8 + 1), s3,
         (8.0 * i[n // 2: 5 * n8 + 1] / n) * (r - 1.0) + 5.0 - 4.0 * r, mesh.d),
        (np.arange(7 * n8, n + 1), s4,
         (8.0 * i[7 * n8: n + 1] / n) * (1.0 - r) + 8.0 * r - 7.0, 1.0),
    ]


def test_characterizing_functions_are_affine():
    # exp(-theta * distance-to-anchor / 8) must interpolate the affine span
    regime = _regime(1e-6, 1e-10)
    for n in (16, 64, 512):
        mesh = shishkin_bakhvalov_mesh(regime, n, 0.5)
        ln_n = math.log(n)
        for idx, sigma, target, anchor in _graded_regions(mesh):
            theta_eff = 4.0 * ln_n / sigma
            psi = np.exp(-theta_eff * np.abs(mesh.points[idx] - anchor) / 8.0)
            np.testing.assert_allclose(psi, target, rtol=1e-10)


def test_graded_step_bound():
    # h_i * theta_eff <= 8 inside every layer region
    for epsilon, mu in ((1e-6, 1e-10), (1e-12, 1e-4), (1e-8, 1e-8)):
        regime = _regime(epsilon, mu)
        for n in (16, 64, 256):
            mesh = shishkin_bakhvalov_mesh(regime, n, 0.5)
            h = mesh.steps()
            ln_n = math.log(n)
            for idx, sigma, _, _ in _graded_regions(mesh):
                theta_eff = 4.0 * ln_n / sigma
                assert np.max(h[idx[0]: idx[-1]]) * theta_eff <= 8.0 + 1e-12


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_monotone_over_random_draws():
    cases_seen = set()
    for regime, n, d in draw_regimes(200):
        cases_seen.add(regime.case)
        mesh = shishkin_bakhvalov_mesh(regime, n, d)  # constructor checks order
        assert mesh.points[mesh.d_index] == d
    assert cases_seen == {Case.ONE, Case.TWO}


def test_shishkin_layer_regions_are_uniform():
    regime = _regime(1e-6, 1e-10)
    mesh = shishkin_mesh(regime, 64, 0.5)
    h = mesh.steps()
    s1 = mesh.sigma[0]
    np.testing.assert_allclose(h[:8], s1 / 8.0, rtol=1e-12)
    assert mesh.points[32] == 0.5


def test_shishkin_matches_paper_comparison_shape():
    regime = _regime(1e-8, 1e-8)
    mesh = shishkin_mesh(regime, 64, 0.5)
    assert mesh.family is MeshFamily.SHISHKIN
    assert mesh.n == 64


def test_uniform_mesh_values():
    mesh = uniform_mesh(8, 0.5)
    np.testing.assert_array_equal(
        mesh.points, [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0]
    )
    mesh_odd_d = uniform_mesh(4, 0.3)
    np.testing.assert_allclose(mesh_odd_d.points, [0.0, 0.15, 0.3, 0.65, 1.0], rtol=1e-15)
    assert mesh_odd_d.points[2] == 0.3


def test_refine_double_bisects():
    base = Mesh(np.array([0.0, 0.5, 1.0]), 2, 1, MeshFamily.UNIFORM, (0, 0, 0, 0))
    fine = refine_double(base)
    np.testing.assert_array_equal(fine.points, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert fine.d_index == 2


def test_refine_double_nests_nodes_bitwise():
    regime = _regime(1e-12, 1e-4)
    mesh = shishkin_bakhvalov_mesh(regime, 64, 0.5)
    fine = refine_double(mesh)
    assert np.array_equal(fine.points[0::2], mesh.points)
    assert np.all(np.diff(fine.points) > 0.0)
    assert fine.points[fine.d_index] == 0.5


def test_mesh_constructor_rejects_disorder():
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.6, 0.5, 1.0]), 3, 1, MeshFamily.UNIFORM, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.5, 0.5, 1.0]), 3, 1, MeshFamily.UNIFORM, (0, 0, 0, 0))
    # even n, so the ordering check itself is reached and names the collision
    with pytest.raises(ValueError, match=r"uniform mesh, n = 4, x_3 = 0\.5 does not exceed x_2"):
        Mesh(np.array([0.0, 0.3, 0.5, 0.5, 1.0]), 4, 2, MeshFamily.UNIFORM, (0, 0, 0, 0))


def _node_regions_loop(mesh):
    # the per-node labelling that node_regions replaced with region bounds
    n = mesh.n
    labels = []
    for i in range(n + 1):
        if mesh.family is MeshFamily.UNIFORM:
            labels.append("left" if i <= n // 2 else "right")
        elif i <= n // 8:
            labels.append("left-layer")
        elif i <= 3 * n // 8:
            labels.append("left-outer")
        elif i <= n // 2:
            labels.append("interior-left")
        elif i <= 5 * n // 8:
            labels.append("interior-right")
        elif i <= 7 * n // 8:
            labels.append("right-outer")
        else:
            labels.append("right-layer")
    return labels


@pytest.mark.parametrize("n", [16, 64, 1024])
def test_node_regions_match_per_node_loop(n):
    regime = _regime(1e-6, 1e-10)
    for mesh in (
        shishkin_bakhvalov_mesh(regime, n, 0.5),
        shishkin_mesh(regime, n, 0.5),
        uniform_mesh(n, 0.5),
    ):
        assert node_regions(mesh) == _node_regions_loop(mesh)


def test_node_regions_labels():
    regime = _regime(1e-6, 1e-10)
    mesh = shishkin_bakhvalov_mesh(regime, 64, 0.5)
    labels = node_regions(mesh)
    assert labels[0] == "left-layer"
    assert labels[32] == "interior-left"
    assert labels[64] == "right-layer"
    assert len(labels) == 65
    assert node_regions(uniform_mesh(8, 0.5))[0] == "left"
