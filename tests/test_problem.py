"""Problem validation, regime constants, built-ins, and JSON loading."""

import json
import math
from dataclasses import replace

import pytest

from splayer import (
    Case,
    ProblemSpec,
    builtin_example,
    derive_regime,
    evaluate_array,
    load_problem,
    parse,
    problem_from_dict,
    validate,
)
from splayer.problem import with_constants


def test_builtin_ex1_is_valid():
    assert validate(builtin_example("ex1"), samples=200) == []


def test_builtin_ex2_is_valid():
    assert validate(builtin_example("ex2"), samples=200) == []


def test_negative_b_reports_violation():
    spec = replace(builtin_example("ex1"), b=parse("-1"))
    violations = validate(spec, samples=50)
    assert any("b not positive at x" in v for v in violations)


def test_positive_a_left_reports_violation():
    spec = replace(builtin_example("ex1"), a_left=parse("1"))
    violations = validate(spec, samples=50)
    assert any("a not negative" in v for v in violations)


def test_negative_a_right_reports_violation():
    spec = replace(builtin_example("ex1"), a_right=parse("-1"))
    violations = validate(spec, samples=50)
    assert any("a not positive" in v for v in violations)


def test_evaluation_failure_is_a_violation_not_a_crash():
    spec = replace(builtin_example("ex1"), f_left=parse("sqrt(x-0.3)"))
    violations = validate(spec, samples=50)
    assert any("f_left failed to evaluate" in v for v in violations)


def test_validate_requires_two_samples():
    with pytest.raises(ValueError):
        validate(builtin_example("ex1"), samples=1)


def test_constructor_invariants():
    good = builtin_example("ex1")
    with pytest.raises(ValueError):
        replace(good, d=0.0)
    with pytest.raises(ValueError):
        replace(good, epsilon=0.0)
    with pytest.raises(ValueError):
        replace(good, mu=-1.0)


def test_regime_case_one_constants():
    spec = builtin_example("ex1", epsilon=1e-6, mu=1e-10)
    regime = derive_regime(spec, samples=500)
    assert regime.alpha == pytest.approx(2.0, abs=0)
    assert regime.rho == pytest.approx(0.5, abs=0)
    assert regime.gamma == pytest.approx(1.0, abs=0)
    assert regime.case is Case.ONE
    # sqrt(rho*alpha)/(2*sqrt(eps)) with rho*alpha = 1
    assert regime.theta1 == pytest.approx(500.0, rel=1e-15)
    assert regime.theta2 == pytest.approx(500.0, rel=1e-15)


def test_regime_case_two_constants():
    spec = builtin_example("ex1", epsilon=1e-12, mu=1e-4)
    regime = derive_regime(spec, samples=500)
    assert regime.case is Case.TWO
    # theta1 = alpha*mu/(2 eps); theta2 = rho/(2 mu)
    assert regime.theta1 == pytest.approx(1.0e8, rel=1e-15)
    assert regime.theta2 == pytest.approx(2500.0, rel=1e-15)


def test_constant_coefficients_are_sampled_exactly():
    spec = ProblemSpec(
        a_left=parse("-2"), a_right=parse("2"), b=parse("2"),
        f_left=parse("-1"), f_right=parse("1"),
        d=0.5, y0=0.0, y1=0.0, epsilon=1e-8, mu=1e-8,
    )
    regime = derive_regime(spec, samples=321)
    assert regime.alpha1 == 2.0
    assert regime.alpha2 == 2.0
    assert regime.rho == 1.0
    assert regime.gamma == 2.0


def test_derive_regime_is_deterministic():
    spec = builtin_example("ex2", epsilon=1e-9, mu=1e-5)
    assert derive_regime(spec, samples=400) == derive_regime(spec, samples=400)


def test_case_boundary_survives_parameter_scaling():
    # a = -1/1, b = 1 gives alpha = rho = 1 exactly, so the classification
    # tie is mu == sqrt(eps); scaling eps by t^2 and mu by t keeps the tie.
    base = ProblemSpec(
        a_left=parse("-1"), a_right=parse("1"), b=parse("1"),
        f_left=parse("-1"), f_right=parse("1"),
        d=0.5, y0=0.0, y1=0.0, epsilon=2.0 ** -20, mu=2.0 ** -10,
    )
    assert math.sqrt(base.epsilon) == base.mu
    scaled = replace(base, epsilon=base.epsilon * 4.0, mu=base.mu * 2.0)
    assert derive_regime(base, samples=100).case is Case.ONE
    assert derive_regime(scaled, samples=100).case is Case.ONE


def test_overrides_take_precedence():
    spec = replace(builtin_example("ex1"), overrides={"rho": 0.25, "gamma": 0.5})
    regime = derive_regime(spec, samples=100)
    assert regime.rho == 0.25
    assert regime.gamma == 0.5
    assert regime.alpha1 == 2.0  # still sampled


def test_coefficients_must_be_expressions():
    good = builtin_example("ex1")
    for name in ("a_left", "a_right", "b", "f_left", "f_right"):
        with pytest.raises(TypeError, match=f"^{name} must be an Expression"):
            replace(good, **{name: lambda x: 1.0})
    with pytest.raises(TypeError, match="got str"):
        replace(good, b="1")


def test_unknown_override_key_rejected():
    with pytest.raises(ValueError):
        replace(builtin_example("ex1"), overrides={"beta": 1.0})


def test_builtin_example_values():
    def at(expression, x):
        return float(evaluate_array(expression, [x])[0])

    ex1 = builtin_example("ex1")
    assert at(ex1.f_left, 0.3) == -1.0
    assert at(ex1.a_left, 0.1) == -2.0
    assert (ex1.y0, ex1.y1, ex1.d) == (2.0, 1.0, 0.5)

    ex2 = builtin_example("ex2")
    assert at(ex2.a_right, 1.0) == 3.0
    assert at(ex2.f_right, 1.0) == 0.0
    assert at(ex2.f_left, 0.5) == -8.0
    assert (ex2.y0, ex2.y1) == (0.0, -1.0)


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError):
        builtin_example("ex3")


_DOC = {
    "a_left": "-2", "a_right": "2", "b": "1", "f_left": "-1", "f_right": "1",
    "d": 0.5, "y0": 2.0, "y1": 1.0, "epsilon": 1e-6, "mu": 1e-10,
}


def test_problem_from_dict_round_trip():
    spec = problem_from_dict(dict(_DOC, overrides={"rho": 0.5}))
    assert spec.d == 0.5
    assert spec.overrides == {"rho": 0.5}
    assert validate(spec, samples=50) == []


def test_problem_from_dict_missing_and_unknown_keys():
    with pytest.raises(ValueError, match="missing keys"):
        problem_from_dict({k: v for k, v in _DOC.items() if k != "mu"})
    with pytest.raises(ValueError, match="unknown keys"):
        problem_from_dict(dict(_DOC, extra=1))


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_DOC))
    spec = load_problem(path)
    assert spec.epsilon == 1e-6
    assert spec.mu == 1e-10


@pytest.mark.parametrize("doc, message", [
    ({"overrides": [1]}, "overrides must be an object of numbers, got list"),
    ({"overrides": {"rho": "x"}}, "override rho must be a number, got 'x'"),
    ({"d": [0.5]}, "d must be a number, got [0.5]"),
    ({"mu": None}, "mu must be a number, got None"),
], ids=["overrides-list", "override-text", "d-list", "mu-null"])
def test_problem_from_dict_rejects_wrong_types(doc, message):
    with pytest.raises(ValueError) as err:
        problem_from_dict(dict(_DOC, **doc))
    assert str(err.value) == message


@pytest.mark.parametrize("example, overrides", [
    ("ex1", None), ("ex2", None), ("ex2", {"rho": 0.25, "alpha1": 3.0}),
])
def test_regime_from_bounds_is_the_sampled_regime(example, overrides, monkeypatch):
    # one sampling serves every (epsilon, mu): the regime is bitwise the same
    import splayer.problem as problem

    base = replace(builtin_example(example), overrides=overrides)
    filled = with_constants(base, samples=300)
    assert set(filled.overrides) == {"alpha1", "alpha2", "rho", "gamma"}
    assert {k: filled.overrides[k] for k in overrides or {}} == (overrides or {})
    calls = []
    real = problem._grids
    monkeypatch.setattr(problem, "_grids", lambda *args: calls.append(args) or real(*args))
    assert with_constants(filled) is filled
    for epsilon in (1e-2, 1e-8, 1e-14):
        for mu in (1.0, 1e-4, 1e-9, 1e-17):
            spec = replace(base, epsilon=epsilon, mu=mu)
            sampled = derive_regime(spec, samples=300)
            assert repr(derive_regime(replace(filled, epsilon=epsilon, mu=mu))) == repr(sampled)
    assert len(calls) == 12  # the raw specs only
