"""Two-parameter reaction-convection-diffusion problems with a data jump.

The continuous problem lives on (0, 1) with Dirichlet values at both ends:

    epsilon * y'' + mu * a(x) * y' - b(x) * y = f(x),

where ``a`` and ``f`` are given one-sidedly about an interior point ``d``
and may jump there, ``a < 0`` left of ``d``, ``a > 0`` right of it, and
``b > 0`` throughout.  This module checks those sign hypotheses by
sampling and derives the constants that control the layer widths.

The constants alpha1, alpha2, rho and gamma depend on the coefficients
only, so a problem carries them in ``ProblemSpec.overrides``.  One pass,
:func:`validate`, samples the coefficients on a fixed grid, checks every
hypothesis and fills in, from the same samples, the constants the user did
not give; :func:`with_constants` returns a filled spec as it is, so it is
never sampled again, whatever epsilon and mu it is later given.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
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
    "with_constants",
    "derive_regime",
    "builtin_example",
    "problem_from_dict",
    "load_problem",
]

# sample points per subinterval in validate()
_SAMPLES = 10_000

# Coefficients are defined one-sidedly at 0, d, and 1; sampling backs off
# from those points by this fraction of the subinterval length.
_ENDPOINT_OFFSET = 1.0e-12

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
        for name in ("y0", "y1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        positive = [("epsilon", self.epsilon), ("mu", self.mu)]
        if self.overrides:
            unknown = set(self.overrides) - set(OVERRIDE_KEYS)
            if unknown:
                raise ValueError(f"unknown override keys: {sorted(unknown)}")
            positive += [(f"override {k}", v) for k, v in self.overrides.items()]
        for name, value in positive:
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class RegimeData:
    """The layer regime at one (epsilon, mu); the constants it rests on are in the spec.

    ``alpha = |min(alpha1, alpha2)|``; ``theta1`` controls the interface-layer
    width (reciprocal scale) and ``theta2`` the boundary-layer width.
    """

    alpha: float
    case: Case
    theta1: float
    theta2: float

    def __post_init__(self):
        for name in ("alpha", "theta1", "theta2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


def _sample_grid(lo: float, hi: float) -> np.ndarray:
    offset = _ENDPOINT_OFFSET * (hi - lo)
    return np.linspace(lo + offset, hi - offset, _SAMPLES)


def _grids(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    return _sample_grid(0.0, spec.d), _sample_grid(spec.d, 1.0)


def validate(spec: ProblemSpec) -> ProblemSpec:
    """Check the sign hypotheses by sampling; return ``spec`` with its four constants.

    The coefficients are sampled once, at ``_SAMPLES`` points per
    subinterval, even when ``spec`` gives all four constants: the sampling
    is the check.  Constants not given come from the same samples.  Every
    violation, including a coefficient that fails to evaluate, is listed in
    one ``ValueError``; a derived constant that is not positive raises too.
    """
    left, right = _grids(spec)
    violations: list[str] = []

    def sampled(fn, xs, name, sign=0, violation=""):
        # fn at xs; a failure to evaluate, or a sample with sign * fn <= 0, is a violation
        try:
            values = evaluate_array(fn, xs)
        except EvaluationError as err:
            violations.append(f"{name} failed to evaluate: {err}")
            return None
        if sign and (sign * values <= 0.0).any():
            i = int(np.argmin(sign * values))
            violations.append(violation.format(x=xs[i], v=values[i]))
        return values

    a_l = sampled(spec.a_left, left, "a_left", -1,
                  "a not negative on (0, d): a({x:.17g}) = {v:.17g}")
    a_r = sampled(spec.a_right, right, "a_right", 1,
                  "a not positive on (d, 1): a({x:.17g}) = {v:.17g}")
    b_l, b_r = (sampled(spec.b, xs, "b", 1, "b not positive at x = {x:.17g}: b = {v:.17g}")
                for xs in (left, right))
    sampled(spec.f_left, left, "f_left")
    sampled(spec.f_right, right, "f_right")
    if violations:
        details = "\n  ".join(violations)
        raise ValueError(f"problem data violates the sign hypotheses:\n  {details}")

    with np.errstate(divide="ignore"):
        ratios = np.concatenate([np.abs(b_l / a_l), np.abs(b_r / a_r)])
    constants = {
        "alpha1": -float(np.max(a_l)),
        "alpha2": float(np.min(a_r)),
        "rho": float(np.min(ratios)),
        "gamma": float(min(np.min(b_l), np.min(b_r))),
        **(spec.overrides or {}),
    }
    for name, value in constants.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(
                f"derived {name} = {value} is not positive; the problem violates "
                "the sign hypotheses (see validate())"
            )
    return replace(spec, overrides=constants)


def with_constants(spec: ProblemSpec) -> ProblemSpec:
    """``spec`` with all four constants (alpha1, alpha2, rho, gamma) in ``overrides``.

    A spec that already holds all four (ProblemSpec checks the keys) is
    returned as it is, unchecked, so a sweep that varies epsilon or mu by
    :func:`dataclasses.replace` samples once; any other goes through :func:`validate`.
    """
    return spec if len(spec.overrides or {}) == len(OVERRIDE_KEYS) else validate(spec)


def derive_regime(spec: ProblemSpec) -> RegimeData:
    """Derive the layer-regime constants of ``spec``.

    The coefficient constants come from :func:`with_constants`, so a spec
    that holds all four is not sampled; the case and the widths then follow
    from epsilon and mu in closed form.
    """
    constants = with_constants(spec).overrides
    alpha = abs(min(constants["alpha1"], constants["alpha2"]))
    rho = constants["rho"]
    if math.sqrt(alpha) * spec.mu <= math.sqrt(rho * spec.epsilon):
        case = Case.ONE
        theta1 = theta2 = math.sqrt(rho * alpha) / (2.0 * math.sqrt(spec.epsilon))
    else:
        case = Case.TWO
        theta1 = alpha * spec.mu / (2.0 * spec.epsilon)
        theta2 = rho / (2.0 * spec.mu)
    return RegimeData(alpha=alpha, case=case, theta1=theta1, theta2=theta2)


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
    return problem_from_dict({**_BUILTINS[key], "epsilon": epsilon, "mu": mu})


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
        if not isinstance(overrides, Mapping):
            raise ValueError(
                f"overrides must be an object of numbers, got {type(overrides).__name__}"
            )
        overrides = {k: _number(f"override {k}", v) for k, v in overrides.items()}
    return ProblemSpec(
        a_left=parse(str(doc["a_left"])),
        a_right=parse(str(doc["a_right"])),
        b=parse(str(doc["b"])),
        f_left=parse(str(doc["f_left"])),
        f_right=parse(str(doc["f_right"])),
        d=_number("d", doc["d"]),
        y0=_number("y0", doc["y0"]),
        y1=_number("y1", doc["y1"]),
        epsilon=_number("epsilon", doc["epsilon"]),
        mu=_number("mu", doc["mu"]),
        overrides=overrides,
    )


def _number(name: str, value) -> float:
    """``float(value)``, with a ``ValueError`` naming the field for any other type."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def load_problem(path: str | Path) -> ProblemSpec:
    """Load a JSON problem document from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return problem_from_dict(json.load(handle))
