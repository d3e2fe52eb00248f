"""Expression language: parsing, printing, and first-order differentials.

The differential oracle is central finite differences on the plain evaluator,
so the compiled value-and-gradient path (`MetricField.values_and_grads`) is
checked against an independent route through the same AST.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geodequiv.catalog import battery, resolve_pair
from geodequiv.dsl import (
    Add,
    DomainError,
    DslSyntaxError,
    Lit,
    Pow,
    Sub,
    UnknownIdentifierError,
    Var,
    eval_env,
    parse,
)
from geodequiv.geometry import Chart, MetricField

NAMES3 = ("x1", "x2", "x3")


def value_at(expr, names, x):
    return float(expr.evaluate(eval_env(names, list(x))))


def value_grad(expr, names, x):
    """Value and gradient of expr at x, as entry (0, 0) of a diagonal metric."""
    diag = [expr] + [Lit(1.0)] * (len(names) - 1)
    vals, grads = MetricField.from_diagonal(Chart(tuple(names)), diag).values_and_grads(x)
    return vals[0, 0], grads[0, 0]


# ---------------------------------------------------------------------------
# parsing


def test_parse_sum_of_power_and_variable():
    e = parse("x1^2 + x2", ("x1", "x2"))
    assert isinstance(e, Add)
    assert isinstance(e.l, Pow)
    assert isinstance(e.l.base, Var) and e.l.base.name == "x1"
    assert e.l.exponent_value == 2.0
    assert isinstance(e.r, Var) and e.r.name == "x2"


def test_parse_unbalanced_call_reports_offset():
    with pytest.raises(DslSyntaxError) as info:
        parse("sin(", ("x1",))
    assert info.value.offset == 4


def test_parse_undeclared_variable():
    with pytest.raises(UnknownIdentifierError) as info:
        parse("x3", ("x1", "x2"))
    assert info.value.name == "x3"


def test_precedence_and_unary_minus():
    names = ("x1",)
    checks = {
        "2*x1+3": 2 * 1.5 + 3,
        "2+x1*3": 2 + 1.5 * 3,
        "-x1^2": -(1.5**2),
        "(2+x1)*3": (2 + 1.5) * 3,
        "x1^2^3": 1.5**8,  # right associative
        "6/3/2": 1.0,
        "1 - 2 - 3": -4.0,
    }
    for src, want in checks.items():
        assert value_at(parse(src, names), names, [1.5]) == pytest.approx(want, rel=1e-15)


def test_variable_exponent_is_rejected():
    from geodequiv.dsl import DslError

    with pytest.raises(DslError):
        parse("2^x1", ("x1",))


def test_known_functions_and_domains():
    names = ("x1",)
    assert value_at(parse("sqrt(x1)", names), names, [4.0]) == 2.0
    with pytest.raises(DomainError):
        value_at(parse("sqrt(x1)", names), names, [-1.0])
    with pytest.raises(DomainError):
        value_at(parse("log(x1)", names), names, [0.0])
    with pytest.raises(UnknownIdentifierError):
        parse("sinh(x1)", names)


# ---------------------------------------------------------------------------
# derivatives


def test_square_at_three():
    value, grad = value_grad(parse("x1^2", ("x1",)), ("x1",), [3.0])
    assert value == 9.0
    assert np.allclose(grad, [6.0])


def test_sine_at_zero():
    value, grad = value_grad(parse("sin(x1)", ("x1",)), ("x1",), [0.0])
    assert value == 0.0
    assert np.allclose(grad, [1.0])


def _random_poly(rng) -> str:
    """A random polynomial of degree <= 4 in three variables, as source text."""
    terms = []
    for _ in range(rng.integers(3, 7)):
        c = rng.uniform(-2, 2)
        powers = rng.integers(0, 3, size=3)
        while powers.sum() > 4:
            powers = rng.integers(0, 3, size=3)
        factors = [f"{c:.6f}"]
        factors += [f"{n}^{p}" for n, p in zip(NAMES3, powers) if p > 0]
        terms.append("*".join(factors))
    return " + ".join(terms)


def test_poly_derivatives_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(4):
        expr = parse(_random_poly(rng), NAMES3)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=3)
            value, grad = value_grad(expr, NAMES3, x)
            scale = 1.0 + abs(value)
            for i in range(3):
                ei = np.eye(3)[i] * h
                fd = (value_at(expr, NAMES3, x + ei) - value_at(expr, NAMES3, x - ei)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6 * scale)


def test_transcendental_derivatives_match_finite_differences():
    names = ("x1", "x2")
    srcs = [
        "sin(x1)*exp(x2)",
        "cos(x1*x2) + abs(x1 + 2)",
        "log(2 + x1) * sqrt(1 + x2^2)",
        "exp(-x1^2) / (1 + x2^2)",
    ]
    rng = np.random.default_rng(3)
    h = 1e-6
    for src in srcs:
        expr = parse(src, names)
        for _ in range(5):
            x = rng.uniform(-0.9, 0.9, size=2)
            _, grad = value_grad(expr, names, x)
            for i in range(2):
                ei = np.eye(2)[i] * h
                fd = (value_at(expr, names, x + ei) - value_at(expr, names, x - ei)) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-7, abs=1e-8)


# ---------------------------------------------------------------------------
# printing round trip and batched evaluation


@st.composite
def expressions(draw, depth=0):
    names = ("x1", "x2")
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x1", "x2", "lit"]))
        if leaf == "lit":
            return Lit(float(draw(st.integers(min_value=-4, max_value=4))))
        return Var(leaf)
    kind = draw(st.sampled_from(["add", "sub", "mul", "div", "neg", "pow", "call"]))
    a = draw(expressions(depth=depth + 1))
    if kind == "neg":
        from geodequiv.dsl import Neg

        return Neg(a)
    if kind == "pow":
        from geodequiv.dsl import pow_expr

        return pow_expr(a, Lit(float(draw(st.integers(min_value=0, max_value=3)))))
    if kind == "call":
        fn = draw(st.sampled_from(["sin", "cos", "exp"]))
        from geodequiv.dsl import Call

        return Call(fn, a)
    b = draw(expressions(depth=depth + 1))
    from geodequiv.dsl import Add, Div, Mul, Sub

    ctor = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
    return ctor(a, b)


@given(expressions(), st.floats(-2, 2), st.floats(-2, 2))
def test_print_parse_round_trip(expr, v1, v2):
    names = ("x1", "x2")
    back = parse(str(expr), names)
    env = eval_env(names, [v1, v2])
    try:
        want = expr.evaluate(env)
    except (ZeroDivisionError, DomainError, OverflowError):
        return
    got = back.evaluate(env)
    if math.isnan(float(want)):
        assert math.isnan(float(got))
    else:
        assert float(got) == pytest.approx(float(want), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("value", [-0.3, -2.0, -0.0])
def test_a_negative_literal_prints_so_that_it_parses_back(value):
    """A literal whose sign bit is set prints as a unary minus would: as a ^
    base or exponent, on either side of each binary operator, and under Neg,
    the printed tree parses back to its value, the sign of a zero included."""
    from geodequiv.dsl import Div, Mul, Neg, pow_expr

    lit, x = Lit(value), Var("x1")
    trees = [lit, Neg(lit), pow_expr(lit, Lit(2.0)), pow_expr(Lit(2.0), lit), pow_expr(x, lit)]
    trees += [op(a, b) for op in (Add, Sub, Mul, Div) for a, b in ((lit, x), (x, lit))]
    env = eval_env(("x1",), [np.float64(1.7)])
    with np.errstate(divide="ignore"):
        for e in trees:
            want, got = e.evaluate(env), parse(str(e), ("x1",)).evaluate(env)
            assert repr(float(got)) == repr(float(want)), (str(e), got, want)


CATALOG_TREE_PAIRS = ("sphere", "euclidean:3", "ellipsoid:1,2,3", "ellipsoid:1,2,3,5",
                      *(f"lc-demo:{key}" for key in battery()),
                      "falsify:perturbed-lc", "falsify:random-conformal")


def test_catalog_trees_print_and_parse_back_to_the_same_tree():
    trees = 0
    for name in CATALOG_TREE_PAIRS:
        pair = resolve_pair(name)
        names = pair.g.chart.names
        entries = [e for metric in (pair.g, pair.gbar) for row in metric.upper for e in row]
        for e in entries + list(pair.g.chart.domain or ()):
            assert parse(str(e), names) == e, (name, str(e))
            trees += 1
    assert trees == 116
    x, y = Var("x1"), Var("x2")
    assert Add(x, y) != Sub(x, y)
    assert repr(Sub(x, y)) == "Sub(l=Var(name='x1'), r=Var(name='x2'))"


def test_batched_evaluation_matches_scalar_loop():
    names = ("x1", "x2")
    expr = parse("sin(x1)*x2 + x1^3 / (2 + cos(x2))", names)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2, 2, size=(40, 2))
    batch = expr.evaluate(eval_env(names, list(xs.T)))
    single = np.array([value_at(expr, names, x) for x in xs])
    assert np.allclose(batch, single, rtol=1e-15, atol=0)


def test_integer_powers_of_negative_bases():
    names = ("x1",)
    e = parse("x1^3", names)
    assert value_at(e, names, [-2.0]) == -8.0
    value, grad = value_grad(e, names, [-2.0])
    assert value == -8.0
    assert grad[0] == pytest.approx(12.0, rel=1e-14)
    with pytest.raises(DomainError):
        value_at(parse("x1^0.5", names), names, [-2.0])
