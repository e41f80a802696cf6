"""Layer-adapted meshes on [0, 1] with a pinned interior interface node.

Three families are provided.  The graded family packs nodes into the four
layer regions by inverting the layer exponentials (the node map keeps
``exp(-theta * distance) `` affine in the node index), the piecewise-uniform
family uses the same transition widths with uniform sub-meshes, and a
plain two-block uniform mesh serves as a baseline.  All families place the
interface node exactly at ``d`` with index ``n // 2``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .problem import RegimeData

__all__ = [
    "MeshFamily",
    "Mesh",
    "TransitionClampWarning",
    "transition_points",
    "shishkin_bakhvalov_mesh",
    "shishkin_mesh",
    "uniform_mesh",
    "refine_double",
    "build_mesh",
    "node_regions",
]


class MeshFamily(Enum):
    SHISHKIN_BAKHVALOV = "shishkin-bakhvalov"
    SHISHKIN = "shishkin"
    UNIFORM = "uniform"


class TransitionClampWarning(UserWarning):
    """A transition width hit its quarter-region cap.

    The layers are then wide enough to be resolved by a uniform mesh; the
    graded construction stays valid but uses the clamped width.
    """


@dataclass(frozen=True, eq=False)
class Mesh:
    """An ordered node sequence with the interface pinned at index n/2."""

    points: np.ndarray
    n: int
    d_index: int
    family: MeshFamily
    sigma: tuple[float, float, float, float]

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        if self.n != points.size - 1:
            raise ValueError(f"n = {self.n} does not match {points.size} nodes")
        if self.n < 2 or self.n % 2:
            raise ValueError(f"n must be even and at least 2, got {self.n}")
        if self.d_index != self.n // 2:
            raise ValueError(f"d_index must be n/2 = {self.n // 2}, got {self.d_index}")
        if points[0] != 0.0 or points[-1] != 1.0:
            raise ValueError("mesh must span [0, 1] exactly")
        increasing = np.diff(points) > 0.0
        if not np.all(increasing):
            k = int(np.argmin(increasing)) + 1
            x = float(points[k - 1])
            raise ValueError(
                f"mesh nodes must be strictly increasing: {self.family.value} mesh, "
                f"n = {self.n}, x_{k} = {float(points[k])!r} does not exceed "
                f"x_{k - 1} = {x!r}, where the float spacing is {float(np.spacing(x))!r}; "
                f"transition widths sigma = {self.sigma} (a layer thinner than the "
                "float spacing cannot be meshed)"
            )
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    @property
    def d(self) -> float:
        return float(self.points[self.d_index])

    def steps(self) -> np.ndarray:
        """Interval lengths h_i = x_i - x_{i-1} (length n)."""
        return np.diff(self.points)


def _check_layer_n(n: int) -> None:
    if n < 16 or n % 8:
        raise ValueError(
            f"layer-adapted meshes need n divisible by 8 and at least 16, got {n}"
        )


def transition_points(
    regime: RegimeData, n: int, d: float
) -> tuple[float, float, float, float]:
    """Transition widths of the four layer regions, clamped at quarter regions.

    The raw widths are ``4 ln(n) / theta`` with ``theta2`` at the domain ends
    and ``theta1`` around the interface.  A clamp means the smallness
    assumptions behind the graded construction do not hold at this ``n``;
    it is reported through :class:`TransitionClampWarning`.
    """
    _check_layer_n(n)
    ln_n = math.log(n)
    outer = 4.0 / regime.theta2 * ln_n
    inner = 4.0 / regime.theta1 * ln_n
    sigma1 = min(outer, d / 4.0)
    sigma2 = min(inner, d / 4.0)
    sigma3 = min(inner, (1.0 - d) / 4.0)
    sigma4 = min(outer, (1.0 - d) / 4.0)
    clamped = [
        name
        for name, value, raw in (
            ("sigma1", sigma1, outer),
            ("sigma2", sigma2, inner),
            ("sigma3", sigma3, inner),
            ("sigma4", sigma4, outer),
        )
        if value != raw
    ]
    if clamped:
        warnings.warn(
            f"transition widths clamped to quarter regions ({', '.join(clamped)}); "
            f"the layers are resolvable by a uniform mesh at n = {n}",
            TransitionClampWarning,
            stacklevel=2,
        )
    return (sigma1, sigma2, sigma3, sigma4)


def shishkin_bakhvalov_mesh(regime: RegimeData, n: int, d: float) -> Mesh:
    """Graded mesh: four layer regions inverting the layer exponentials.

    Node counts per region: n/8, n/4, n/8, n/8, n/4, n/8 intervals.  Region
    junctions and the interface are assigned their closed-form values
    directly so they are exact bitwise.  A region whose transition width was
    clamped carries a uniform submesh instead of the graded formula: the
    clamp means the layer is already resolvable at uniform spacing, and
    rescaled grading there would still leave near-root(n) coarse steps.
    """
    sigma = transition_points(regime, n, d)
    s1, s2, s3, s4 = sigma
    ln_n = math.log(n)
    outer = 4.0 / regime.theta2 * ln_n
    inner = 4.0 / regime.theta1 * ln_n

    n8, n4, n2 = n // 8, n // 4, n // 2
    r = 1.0 / math.sqrt(n)
    points = np.empty(n + 1)

    i = np.arange(1, n8)
    if s1 == outer:
        points[i] = -(8.0 / regime.theta2) * np.log(1.0 + (8.0 * i / n) * (r - 1.0))
    else:
        points[i] = s1 * i / n8
    points[0] = 0.0
    points[n8] = s1

    j = np.arange(1, n4)
    points[n8 + j] = s1 + (d - s1 - s2) * j / n4
    points[3 * n8] = d - s2

    i = np.arange(3 * n8 + 1, n2)
    if s2 == inner:
        points[i] = d + (8.0 / regime.theta1) * np.log(
            (8.0 * i / n) * (1.0 - r) + 4.0 * r - 3.0
        )
    else:
        points[i] = (d - s2) + s2 * (i - 3 * n8) / n8
    points[n2] = d

    i = np.arange(n2 + 1, 5 * n8)
    if s3 == inner:
        points[i] = d - (8.0 / regime.theta1) * np.log(
            (8.0 * i / n) * (r - 1.0) + 5.0 - 4.0 * r
        )
    else:
        points[i] = d + s3 * (i - n2) / n8
    points[5 * n8] = d + s3

    j = np.arange(1, n4)
    points[5 * n8 + j] = (d + s3) + (1.0 - d - s3 - s4) * j / n4
    points[7 * n8] = 1.0 - s4

    i = np.arange(7 * n8 + 1, n)
    if s4 == outer:
        points[i] = 1.0 + (8.0 / regime.theta2) * np.log(
            (8.0 * i / n) * (1.0 - r) + 8.0 * r - 7.0
        )
    else:
        points[i] = (1.0 - s4) + s4 * (i - 7 * n8) / n8
    points[n] = 1.0

    return Mesh(points, n, n2, MeshFamily.SHISHKIN_BAKHVALOV, sigma)


def shishkin_mesh(regime: RegimeData, n: int, d: float) -> Mesh:
    """Piecewise-uniform mesh with the same transition widths.

    Each of the four layer regions carries n/8 uniform intervals and each
    outer region n/4; the comparison baseline for the graded family.
    """
    sigma = transition_points(regime, n, d)
    s1, s2, s3, s4 = sigma
    n8, n4 = n // 8, n // 4
    segments = (
        (0.0, s1, n8),
        (s1, d - s2, n4),
        (d - s2, d, n8),
        (d, d + s3, n8),
        (d + s3, 1.0 - s4, n4),
        (1.0 - s4, 1.0, n8),
    )
    pieces = [np.linspace(lo, hi, count + 1) for lo, hi, count in segments]
    points = np.concatenate([pieces[0]] + [p[1:] for p in pieces[1:]])
    return Mesh(points, n, n // 2, MeshFamily.SHISHKIN, sigma)


def uniform_mesh(n: int, d: float) -> Mesh:
    """Two-block uniform mesh: n/2 intervals on [0, d] and n/2 on [d, 1]."""
    if n < 2 or n % 2:
        raise ValueError(f"uniform mesh needs an even n of at least 2, got {n}")
    left = np.linspace(0.0, d, n // 2 + 1)
    right = np.linspace(d, 1.0, n // 2 + 1)
    points = np.concatenate([left, right[1:]])
    return Mesh(points, n, n // 2, MeshFamily.UNIFORM, (0.0, 0.0, 0.0, 0.0))


def refine_double(mesh: Mesh) -> Mesh:
    """Insert the midpoint of every interval; original nodes keep even index."""
    old = mesh.points
    points = np.empty(2 * mesh.n + 1)
    points[0::2] = old
    points[1::2] = 0.5 * (old[:-1] + old[1:])
    return Mesh(points, 2 * mesh.n, mesh.n, mesh.family, mesh.sigma)


def build_mesh(family: MeshFamily, regime: RegimeData | None, n: int, d: float) -> Mesh:
    """Construct a mesh of the given family (regime unused for UNIFORM)."""
    if family is MeshFamily.UNIFORM:
        return uniform_mesh(n, d)
    if regime is None:
        raise ValueError(f"{family.value} mesh construction needs regime data")
    if family is MeshFamily.SHISHKIN:
        return shishkin_mesh(regime, n, d)
    return shishkin_bakhvalov_mesh(regime, n, d)


_LAYER_REGIONS = (
    "left-layer",
    "left-outer",
    "interior-left",
    "interior-right",
    "right-outer",
    "right-layer",
)


def node_regions(mesh: Mesh) -> list[str]:
    """Region label per node, for mesh dumps.

    A region takes the nodes after the previous region's last node up to
    and including its own boundary: n/8, 3n/8, n/2, 5n/8, 7n/8 and n for
    the layer-adapted families, n/2 and n for the uniform one.
    """
    n = mesh.n
    if mesh.family is MeshFamily.UNIFORM:
        names, bounds = ("left", "right"), (n // 2, n)
    else:
        names, bounds = _LAYER_REGIONS, (n // 8, 3 * n // 8, n // 2, 5 * n // 8, 7 * n // 8, n)
    labels = []
    last = -1
    for name, bound in zip(names, bounds):
        labels += [name] * (bound - last)
        last = bound
    return labels
