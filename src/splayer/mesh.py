"""Layer-adapted meshes on [0, 1] with a pinned interior interface node.

One builder makes both layer-adapted families.  It splits [0, 1] into six
regions with the same transition widths and pinned junctions, and lays
each of the four layer regions out as offsets from its anchor (0, d, d or
1).  The graded family's offsets invert the layer exponentials (the node
map keeps ``exp(-theta * offset / 8)`` affine in the node index); the
piecewise-uniform Shishkin family is the same mesh with grading off, so
its offsets are uniform.  A plain two-block uniform mesh serves as a
baseline.  All families place the interface node exactly at ``d`` with
index ``n // 2``.
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


def _widths(
    regime: RegimeData, n: int, d: float
) -> tuple[tuple[float, float, float, float], tuple[bool, bool, bool, bool]]:
    """Clamped transition widths, and whether each region kept its raw width."""
    _check_layer_n(n)
    ln_n = math.log(n)
    outer = 4.0 / regime.theta2 * ln_n
    inner = 4.0 / regime.theta1 * ln_n
    raw = (outer, inner, inner, outer)
    caps = (d / 4.0, d / 4.0, (1.0 - d) / 4.0, (1.0 - d) / 4.0)
    sigma = tuple(min(width, cap) for width, cap in zip(raw, caps))
    kept = tuple(s == width for s, width in zip(sigma, raw))
    if not all(kept):
        clamped = [f"sigma{i}" for i, keep in enumerate(kept, 1) if not keep]
        warnings.warn(
            f"transition widths clamped to quarter regions ({', '.join(clamped)}); "
            f"the layers are resolvable by a uniform mesh at n = {n}",
            TransitionClampWarning,
            stacklevel=3,
        )
    return sigma, kept


def transition_points(
    regime: RegimeData, n: int, d: float
) -> tuple[float, float, float, float]:
    """Transition widths of the four layer regions, clamped at quarter regions.

    The raw widths are ``4 ln(n) / theta`` with ``theta2`` at the domain ends
    and ``theta1`` around the interface.  A clamp means the smallness
    assumptions behind the graded construction do not hold at this ``n``;
    it is reported through :class:`TransitionClampWarning`.
    """
    return _widths(regime, n, d)[0]


def _layer_adapted_mesh(family: MeshFamily, regime: RegimeData, n: int, d: float) -> Mesh:
    """Six regions of n/8, n/4, n/8 | n/8, n/4, n/8 intervals.

    Each layer region is ``anchor +- offsets(k)``, k = 1 .. n/8 - 1, about
    its anchor 0, d, d or 1.  The graded family inverts the layer
    exponential there (``exp(-theta * offset / 8)`` is affine in k); a
    Shishkin mesh, or a region whose width was clamped, takes uniform
    offsets: the clamp means the layer is already resolvable at uniform
    spacing, and rescaled grading would still leave near-root(n) coarse
    steps.  Junctions and the interface take their closed-form values, so
    they are exact bitwise.
    """
    sigma, kept = _widths(regime, n, d)
    s1, s2, s3, s4 = sigma
    n8, n4 = n // 8, n // 4
    k = np.arange(1, n8)
    j = np.arange(1, n4)
    r = 1.0 / math.sqrt(n)
    thetas = (regime.theta2, regime.theta1, regime.theta1, regime.theta2)

    def offsets(region: int) -> np.ndarray:
        if family is MeshFamily.SHISHKIN_BAKHVALOV and kept[region]:
            return -(8.0 / thetas[region]) * np.log(1.0 + (8.0 * k / n) * (r - 1.0))
        return sigma[region] * k / n8

    points = np.concatenate((
        [0.0], offsets(0),
        [s1], s1 + (d - s1 - s2) * j / n4,
        [d - s2], d - offsets(1)[::-1],
        [d], d + offsets(2),
        [d + s3], (d + s3) + (1.0 - d - s3 - s4) * j / n4,
        [1.0 - s4], 1.0 - offsets(3)[::-1],
        [1.0],
    ))
    return Mesh(points, n, n // 2, family, sigma)


def shishkin_bakhvalov_mesh(regime: RegimeData, n: int, d: float) -> Mesh:
    """Graded mesh: four layer regions inverting the layer exponentials."""
    return _layer_adapted_mesh(MeshFamily.SHISHKIN_BAKHVALOV, regime, n, d)


def shishkin_mesh(regime: RegimeData, n: int, d: float) -> Mesh:
    """Piecewise-uniform baseline: the graded mesh's widths, without grading."""
    return _layer_adapted_mesh(MeshFamily.SHISHKIN, regime, n, d)


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
    return _layer_adapted_mesh(family, regime, n, d)


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
