"""Two-parameter reaction-convection-diffusion problems with a data jump.

The continuous problem lives on (0, 1) with Dirichlet values at both ends:

    epsilon * y'' + mu * a(x) * y' - b(x) * y = f(x),

where ``a`` and ``f`` are given one-sidedly about an interior point ``d``
and may jump there, ``a < 0`` left of ``d``, ``a > 0`` right of it, and
``b > 0`` throughout.  This module validates those sign hypotheses by
sampling and derives the constants that control the layer widths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .expressions import EvaluationError, Expression, evaluate_array, parse

__all__ = [
    "Case",
    "ProblemSpec",
    "RegimeData",
    "validate",
    "derive_regime",
    "builtin_example",
    "problem_from_dict",
    "load_problem",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLES = 10_000

# Coefficients are defined one-sidedly at 0, d, and 1; sampling backs off
# from those points by this fraction of the subinterval length.
ENDPOINT_OFFSET = 1.0e-12

OVERRIDE_KEYS = ("alpha1", "alpha2", "rho", "gamma")

_COEFFICIENT_FIELDS = ("a_left", "a_right", "b", "f_left", "f_right")


class Case(Enum):
    """Layer-width regime, selected by the size of mu relative to epsilon."""

    ONE = "one"  # sqrt(alpha) * mu <= sqrt(rho * epsilon): widths ~ sqrt(epsilon)
    TWO = "two"  # otherwise: widths ~ epsilon/mu near d and ~ mu at the ends


@dataclass(frozen=True)
class ProblemSpec:
    """Continuous problem data.

    The five coefficients are parsed :class:`Expression` trees (see
    :func:`~splayer.expressions.parse`).  Instances are immutable and safe
    to share across threads; use :func:`dataclasses.replace` to vary
    epsilon and mu in parameter sweeps.
    """

    a_left: Expression
    a_right: Expression
    b: Expression
    f_left: Expression
    f_right: Expression
    d: float
    y0: float
    y1: float
    epsilon: float
    mu: float
    overrides: Mapping[str, float] | None = None

    def __post_init__(self):
        for name in _COEFFICIENT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, Expression):
                raise TypeError(
                    f"{name} must be an Expression parsed with parse(), "
                    f"got {type(value).__name__}"
                )
        if not 0.0 < self.d < 1.0:
            raise ValueError(f"d must lie in (0, 1), got {self.d}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.mu <= 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.overrides:
            unknown = set(self.overrides) - set(OVERRIDE_KEYS)
            if unknown:
                raise ValueError(f"unknown override keys: {sorted(unknown)}")


@dataclass(frozen=True)
class RegimeData:
    """Constants derived from the coefficients and perturbation parameters.

    ``theta1`` controls the interface-layer width (reciprocal scale) and
    ``theta2`` the boundary-layer width.
    """

    alpha1: float
    alpha2: float
    alpha: float
    rho: float
    gamma: float
    case: Case
    theta1: float
    theta2: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alpha", "rho", "gamma", "theta1", "theta2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


def _sample_grid(lo: float, hi: float, samples: int) -> np.ndarray:
    offset = ENDPOINT_OFFSET * (hi - lo)
    return np.linspace(lo + offset, hi - offset, samples)


def _grids(spec: ProblemSpec, samples: int) -> tuple[np.ndarray, np.ndarray]:
    return (
        _sample_grid(0.0, spec.d, samples),
        _sample_grid(spec.d, 1.0, samples),
    )


def validate(spec: ProblemSpec, samples: int = DEFAULT_SAMPLES) -> list[str]:
    """Check the sign hypotheses by sampling; returns violation messages.

    An empty list means the problem data is admissible.  Coefficient
    evaluation failures are reported as violations rather than raised.
    """
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    left, right = _grids(spec, samples)
    violations: list[str] = []

    def sampled(fn, xs, name):
        try:
            return evaluate_array(fn, xs)
        except EvaluationError as err:
            violations.append(f"{name} failed to evaluate: {err}")
            return None

    a_l = sampled(spec.a_left, left, "a_left")
    if a_l is not None and (a_l >= 0.0).any():
        i = int(np.argmax(a_l))
        violations.append(
            f"a not negative on (0, d): a({left[i]:.17g}) = {a_l[i]:.17g}"
        )
    a_r = sampled(spec.a_right, right, "a_right")
    if a_r is not None and (a_r <= 0.0).any():
        i = int(np.argmin(a_r))
        violations.append(
            f"a not positive on (d, 1): a({right[i]:.17g}) = {a_r[i]:.17g}"
        )
    for side, xs in (("left", left), ("right", right)):
        b_vals = sampled(spec.b, xs, "b")
        if b_vals is not None and (b_vals <= 0.0).any():
            i = int(np.argmin(b_vals))
            violations.append(
                f"b not positive at x = {xs[i]:.17g}: b = {b_vals[i]:.17g}"
            )
    for name, fn in (("f_left", spec.f_left), ("f_right", spec.f_right)):
        sampled(fn, left if name == "f_left" else right, name)
    return violations


def derive_regime(spec: ProblemSpec, samples: int = DEFAULT_SAMPLES) -> RegimeData:
    """Derive the layer-regime constants by sampling the coefficients.

    Values supplied in ``spec.overrides`` (keys ``alpha1``, ``alpha2``,
    ``rho``, ``gamma``) take precedence over sampled estimates.  The spec
    must satisfy :func:`validate`; constants that come out non-positive
    raise ``ValueError``.
    """
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    left, right = _grids(spec, samples)
    overrides = dict(spec.overrides or {})

    a_l = evaluate_array(spec.a_left, left)
    a_r = evaluate_array(spec.a_right, right)
    b_l = evaluate_array(spec.b, left)
    b_r = evaluate_array(spec.b, right)

    alpha1 = overrides.get("alpha1", -float(np.max(a_l)))
    alpha2 = overrides.get("alpha2", float(np.min(a_r)))
    if "rho" in overrides:
        rho = overrides["rho"]
    else:
        with np.errstate(divide="ignore"):
            ratios = np.concatenate([np.abs(b_l / a_l), np.abs(b_r / a_r)])
        rho = float(np.min(ratios))
    gamma = overrides.get("gamma", float(min(np.min(b_l), np.min(b_r))))

    for name, value in (("alpha1", alpha1), ("alpha2", alpha2), ("rho", rho), ("gamma", gamma)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(
                f"derived {name} = {value} is not positive; the problem violates "
                "the sign hypotheses (see validate())"
            )

    alpha = abs(min(alpha1, alpha2))
    if math.sqrt(alpha) * spec.mu <= math.sqrt(rho * spec.epsilon):
        case = Case.ONE
        theta1 = theta2 = math.sqrt(rho * alpha) / (2.0 * math.sqrt(spec.epsilon))
    else:
        case = Case.TWO
        theta1 = alpha * spec.mu / (2.0 * spec.epsilon)
        theta2 = rho / (2.0 * spec.mu)
    return RegimeData(
        alpha1=alpha1,
        alpha2=alpha2,
        alpha=alpha,
        rho=rho,
        gamma=gamma,
        case=case,
        theta1=theta1,
        theta2=theta2,
    )


_BUILTINS = {
    "ex1": dict(
        a_left="-2", a_right="2", b="1", f_left="-1", f_right="1",
        d=0.5, y0=2.0, y1=1.0,
    ),
    "ex2": dict(
        a_left="-(1+x)", a_right="2+x^2", b="2", f_left="-(14*x+1)", f_right="2-2*x",
        d=0.5, y0=0.0, y1=-1.0,
    ),
}


def builtin_example(name: str, epsilon: float = 1.0e-6, mu: float = 1.0e-6) -> ProblemSpec:
    """Return one of the built-in test problems (``"ex1"`` or ``"ex2"``).

    ``epsilon`` and ``mu`` default to mid-range values; sweeps replace them.
    """
    key = name.lower()
    if key not in _BUILTINS:
        raise ValueError(f"unknown built-in problem {name!r}; choose from ex1, ex2")
    data = _BUILTINS[key]
    return ProblemSpec(
        a_left=parse(data["a_left"]),
        a_right=parse(data["a_right"]),
        b=parse(data["b"]),
        f_left=parse(data["f_left"]),
        f_right=parse(data["f_right"]),
        d=data["d"],
        y0=data["y0"],
        y1=data["y1"],
        epsilon=epsilon,
        mu=mu,
    )


_REQUIRED_JSON_KEYS = (
    "a_left", "a_right", "b", "f_left", "f_right",
    "d", "y0", "y1", "epsilon", "mu",
)


def problem_from_dict(doc: Mapping) -> ProblemSpec:
    """Build a :class:`ProblemSpec` from a JSON problem document.

    Expression-valued keys hold strings in the variable ``x``; see the
    README for the exact schema.
    """
    missing = [k for k in _REQUIRED_JSON_KEYS if k not in doc]
    if missing:
        raise ValueError(f"problem document is missing keys: {missing}")
    unknown = set(doc) - set(_REQUIRED_JSON_KEYS) - {"overrides"}
    if unknown:
        raise ValueError(f"problem document has unknown keys: {sorted(unknown)}")
    overrides = doc.get("overrides")
    if overrides is not None:
        overrides = {k: float(v) for k, v in overrides.items()}
    return ProblemSpec(
        a_left=parse(str(doc["a_left"])),
        a_right=parse(str(doc["a_right"])),
        b=parse(str(doc["b"])),
        f_left=parse(str(doc["f_left"])),
        f_right=parse(str(doc["f_right"])),
        d=float(doc["d"]),
        y0=float(doc["y0"]),
        y1=float(doc["y1"]),
        epsilon=float(doc["epsilon"]),
        mu=float(doc["mu"]),
        overrides=overrides,
    )


def load_problem(path: str | Path) -> ProblemSpec:
    """Load a JSON problem document from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return problem_from_dict(json.load(handle))
