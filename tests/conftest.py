"""Shared test helpers: randomized regimes and a closed-form ex1 oracle."""

import math
from typing import NamedTuple

import numpy as np

from splayer import Case, RegimeData
from splayer.expressions import evaluate_array


def draw_regimes(count: int, seed: int = 20240811):
    """Yield (regime, n, d) triples spanning both layer-width cases."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        alpha1 = float(rng.uniform(0.5, 4.0))
        alpha2 = float(rng.uniform(0.5, 4.0))
        rho = float(rng.uniform(0.1, 2.0))
        gamma = float(rng.uniform(0.3, 3.0))
        epsilon = float(10.0 ** rng.uniform(-14.0, -3.0))
        mu = float(10.0 ** rng.uniform(-12.0, -0.5))
        alpha = abs(min(alpha1, alpha2))
        if math.sqrt(alpha) * mu <= math.sqrt(rho * epsilon):
            case = Case.ONE
            theta1 = theta2 = math.sqrt(rho * alpha) / (2.0 * math.sqrt(epsilon))
        else:
            case = Case.TWO
            theta1 = alpha * mu / (2.0 * epsilon)
            theta2 = rho / (2.0 * mu)
        regime = RegimeData(alpha=alpha, case=case, theta1=theta1, theta2=theta2)
        n = 8 * int(rng.integers(2, 65))  # 16 .. 512
        d = float(rng.uniform(0.15, 0.85))
        draws.append((regime, n, d))
    return draws


class _Side(NamedTuple):
    """One side of d: a particular solution plus two exponential terms."""

    particular: float
    terms: tuple  # ((coefficient, rate, anchor), ...): c * exp(rate * (x - anchor))

    def summands(self, x, order: int) -> list:
        """Summands of the order-th derivative of y at x (order 0, 1 or 2)."""
        homogeneous = [c * rate**order * np.exp(rate * (x - anchor)) for c, rate, anchor in self.terms]
        return ([self.particular] if order == 0 else []) + homogeneous


class ExactSolution:
    """Closed-form solution of a problem with constant coefficients on each side of d.

    ex1 is such a problem.  On each side the roots of
    ``epsilon*s^2 + mu*a*s - b = 0`` are a layer root, of size
    ``1/sqrt(epsilon)`` or ``mu/epsilon``, and a smooth root, of size 1 or
    ``1/mu``.  With the particular solutions ``p = -f/b``::

        left of d:   y = p_left  + A*exp(l2*x)       + B*exp(l1*(x - d))
        right of d:  y = p_right + C*exp(r2*(x - d)) + D*exp(r1*(x - 1))

    For ex1, ``l1 = (mu+q)/epsilon``, ``l2 = -1/(mu+q)``, ``r1 = 1/(mu+q)`` and
    ``r2 = -(mu+q)/epsilon`` with ``q = sqrt(mu^2 + epsilon)``: the smooth
    roots are written without the cancelling difference ``(q-mu)/epsilon``.
    Every exponential is at most 1 on its own side, so the 4x4 system for
    A..D (both boundary values, continuity of y and y' at d) is well
    conditioned.  Construction checks those four conditions to a relative
    ``CHECK_RTOL``; ``exact(x)`` evaluates the solution on an array.
    """

    CHECK_RTOL = 1.0e-12

    def __init__(self, spec):
        eps, mu, d = spec.epsilon, spec.mu, spec.d
        a_left = _side_constant(spec.a_left, 0.0, d, "a_left")
        a_right = _side_constant(spec.a_right, d, 1.0, "a_right")
        b = _side_constant(spec.b, 0.0, d, "b")
        if b != _side_constant(spec.b, d, 1.0, "b") or not (a_left < 0.0 < a_right and b > 0.0):
            raise ValueError("the closed form needs a_left < 0 < a_right and one constant b > 0")
        p_left, p_right = -mu * a_left, mu * a_right
        q_left = math.sqrt(p_left**2 + 4.0 * eps * b)
        q_right = math.sqrt(p_right**2 + 4.0 * eps * b)
        left_rates = ((-2.0 * b / (p_left + q_left), 0.0), ((p_left + q_left) / (2.0 * eps), d))
        right_rates = ((-(p_right + q_right) / (2.0 * eps), d), (2.0 * b / (p_right + q_right), 1.0))
        particular_left = -_side_constant(spec.f_left, 0.0, d, "f_left") / b
        particular_right = -_side_constant(spec.f_right, d, 1.0, "f_right") / b

        def unit(rates, x, order):
            return [rate**order * math.exp(rate * (x - anchor)) for rate, anchor in rates]

        slope = unit(left_rates, d, 1) + [-v for v in unit(right_rates, d, 1)]
        slope_scale = max(abs(v) for v in slope)
        matrix = np.array([
            unit(left_rates, 0.0, 0) + [0.0, 0.0],
            [0.0, 0.0] + unit(right_rates, 1.0, 0),
            unit(left_rates, d, 0) + [-v for v in unit(right_rates, d, 0)],
            [v / slope_scale for v in slope],
        ])
        rhs = [spec.y0 - particular_left, spec.y1 - particular_right,
               particular_right - particular_left, 0.0]
        coefficients = np.linalg.solve(matrix, rhs)
        self.d = d
        self.left = _Side(particular_left, tuple(
            (float(c), rate, anchor) for c, (rate, anchor) in zip(coefficients[:2], left_rates)))
        self.right = _Side(particular_right, tuple(
            (float(c), rate, anchor) for c, (rate, anchor) in zip(coefficients[2:], right_rates)))

        conditions = (
            ("y(0) = y0", self.left.summands(0.0, 0), [spec.y0]),
            ("y(1) = y1", self.right.summands(1.0, 0), [spec.y1]),
            ("y(d-) = y(d+)", self.left.summands(d, 0), self.right.summands(d, 0)),
            ("y'(d-) = y'(d+)", self.left.summands(d, 1), self.right.summands(d, 1)),
        )
        for label, lhs, rhs_terms in conditions:
            gap = abs(math.fsum(lhs) - math.fsum(rhs_terms))
            scale = math.fsum(abs(t) for t in lhs + rhs_terms)
            if not gap <= self.CHECK_RTOL * scale:
                raise AssertionError(
                    f"exact solution misses {label} by {gap:.3e} (scale {scale:.3e}) "
                    f"at epsilon={eps!r}, mu={mu!r}"
                )

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.empty_like(x)
        for side, mask in ((self.left, x <= self.d), (self.right, x > self.d)):
            y[mask] = sum(side.summands(x[mask], 0))
        return y


def _side_constant(fn, lo: float, hi: float, name: str) -> float:
    """The value of a coefficient that is constant on (lo, hi); raises otherwise."""
    values = evaluate_array(fn, np.linspace(lo, hi, 9)[1:-1])
    if np.ptp(values) != 0.0:
        raise ValueError(f"{name} is not constant on ({lo}, {hi})")
    return float(values[0])
