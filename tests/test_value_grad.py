"""Compiled metric entries against the Dual1 tree walk, and the one (x, xi)
dual pass against an inline one.

`MetricField.values_and_grads` runs code generated by
`dsl.compile_value_grad`, which records the `Dual1` walk once on symbolic
cells.  The tree walk with `Dual1` seeds, which `dsl.phase_jacobian` and the
catalog module still use, stays the reference for that code's execution: the
two must agree bit for bit, at single points and on batches, and raise the
same domain errors.  `dsl.phase_jacobian` feeds `integrals_jacobian`,
`PhaseFunction.grad_batch` and the factory forms; each must be bitwise the
dual pass written out inline.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geodequiv import factory, integrals, matops, resolve_pair
from geodequiv.cli import sample_phase_points
from geodequiv.dsl import (
    Add,
    Call,
    Div,
    DomainError,
    Dual1,
    Lit,
    Mul,
    Neg,
    Sub,
    Var,
    dual1_seeds,
    parse,
    pow_expr,
)
from geodequiv.geometry import Chart, MetricField
from geodequiv.hamilton import PhaseFunction, hamiltonian

PAIRS = (
    "sphere",
    "euclidean:3",
    "ellipsoid:1,2,3",
    "ellipsoid:1,2,3,4",
    "lc-demo:m1n2",
    "lc-demo:m2n2",
    "lc-demo:m2n3",
    "lc-demo:m3n3",
    "lc-demo:m3n4",
    "falsify:perturbed-lc",
    "falsify:random-conformal",
)


def tree_walk(metric, xs):
    """values_and_grads through Dual1 seeds over the entry ASTs."""
    xs = np.asarray(xs, dtype=float)
    squeeze = xs.ndim == 1
    if squeeze:
        xs = xs[None, :]
    n, N = metric.dim, xs.shape[0]
    cells = metric.eval_cells(dual1_seeds(xs))
    vals = np.empty((N, n, n))
    grads = np.zeros((N, n, n, n))
    for i in range(n):
        for j in range(n):
            c = cells[i, j]
            if isinstance(c, Dual1):
                vals[:, i, j] = np.broadcast_to(np.asarray(c.value), (N,))
                grad = np.moveaxis(np.asarray(c.grad), 0, -1)
                grads[:, i, j, :] = np.broadcast_to(grad, (N, n))
            else:
                vals[:, i, j] = np.broadcast_to(np.asarray(c, dtype=float), (N,))
    if squeeze:
        return vals[0], grads[0]
    return vals, grads


def outcome(fn, *args):
    """The bytes of both returned arrays, or the class of the exception.

    NaNs are made canonical first: when both operands of an addition are NaN,
    numpy's scalar and array loops return different ones of the two (IEEE 754
    leaves that open), so a single point, which the compiled code evaluates
    on scalars, can differ from the tree walk's arrays in the NaN sign bit.
    Every other bit, signed zeros included, must match.
    """
    try:
        with np.errstate(all="ignore"):
            vals, grads = fn(*args)
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc)
    return tuple((a.shape, np.where(np.isnan(a), np.nan, a).tobytes()) for a in (vals, grads))


def test_every_catalog_pair_is_bitwise_equal():
    rng = np.random.default_rng(20)
    for name in PAIRS:
        pair = resolve_pair(name)
        for metric in (pair.g, pair.gbar):
            xs = metric.chart.box_points(50, rng)
            for x in xs[:10]:
                assert outcome(metric.values_and_grads, x) == outcome(tree_walk, metric, x), name
            assert outcome(metric.values_and_grads, xs) == outcome(tree_walk, metric, xs), name


NAMES = ("x1", "x2")


@st.composite
def expressions(draw, depth=0):
    if depth >= 4 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.sampled_from(NAMES + ("lit",)))
        if leaf == "lit":  # both signed zeros, so *0.0 and *-0.0 products occur
            return Lit(draw(st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 3.0])))
        return Var(leaf)
    kind = draw(st.sampled_from(["add", "sub", "mul", "div", "neg", "pow", "call", "zero"]))
    a = draw(expressions(depth=depth + 1))
    if kind == "neg":
        return Neg(a)
    if kind == "zero":
        return Mul(a, Lit(0.0))
    if kind == "pow":
        return pow_expr(a, Lit(draw(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 0.5, 1.5]))))
    if kind == "call":
        return Call(draw(st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"])), a)
    b = draw(expressions(depth=depth + 1))
    return {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](a, b)


coords = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.3, 1.0, 1.7, 2.5])


@given(expressions(), expressions(), expressions(), coords, coords, coords, coords)
def test_random_expressions_are_bitwise_equal(e1, e2, e3, a, b, c, d):
    # entries share subtrees, so structurally equal pieces are merged across them
    metric = MetricField(Chart(NAMES), [[e1, Add(e1, e2)], [e3]])
    for xs in ([a, b], [[a, b], [c, d], [b, a]]):
        assert outcome(metric.values_and_grads, xs) == outcome(tree_walk, metric, xs)


@pytest.mark.parametrize("src", ["log(x1)", "sqrt(x1)", "x1^0.5", "x1^1.5 + x2"])
@pytest.mark.parametrize("bad", [0.0, -0.5])
def test_domain_errors_match(src, bad):
    chart = Chart(NAMES)
    metric = MetricField(chart, [[chart.parse(src), Lit(0.0)], [Lit(1.0)]])
    assert outcome(metric.values_and_grads, [1.0, 1.0]) == outcome(tree_walk, metric, [1.0, 1.0])
    for xs in ([bad, 1.0], [[1.0, 1.0], [bad, 1.0]]):
        with pytest.raises(DomainError) as compiled:
            metric.values_and_grads(xs)
        with pytest.raises(DomainError) as walked:
            tree_walk(metric, xs)
        got, want = compiled.value, walked.value
        assert got.function == want.function and want.argument == bad  # the first value <= 0
        assert np.asarray(got.argument).tobytes() == np.asarray(want.argument).tobytes()


def test_a_failing_constant_raises_where_the_walk_does():
    """A variable-free subtree that fails, here 1/0, fails on every input,
    but only after the domain tests that come before it in the walk."""
    chart = Chart(NAMES)
    metric = MetricField(chart, [[chart.parse("log(x1) + 1/0"), Lit(0.0)], [Lit(1.0)]])
    for xs in ([-1.0, 1.0], [1.0, 1.0]):
        assert outcome(metric.values_and_grads, xs) == outcome(tree_walk, metric, xs)
    assert outcome(tree_walk, metric, [-1.0, 1.0]) is DomainError


def test_variable_free_entries_have_zero_gradients():
    chart = Chart(NAMES)
    metric = MetricField(chart, [[parse("exp(1) + 2^3", NAMES), Lit(-0.0)], [parse("x2", NAMES)]])
    xs = np.zeros((3, 2))
    assert outcome(metric.values_and_grads, xs) == outcome(tree_walk, metric, xs)
    vals, grads = metric.values_and_grads(xs)
    assert vals[0, 0, 0] == np.exp(1.0) + 8.0
    assert not grads[:, 0].any()


# ---------------------------------------------------------------------------
# the (x, xi) dual pass


def reference_jacobian(fn, xs, xis):
    """The dual pass written out: 2n Dual1 cells seeded from an identity with
    one trailing axis per batch axis, then each output's gradient moved to the
    last axis and broadcast over the batch, a zero row for a plain value."""
    xs, xis = np.asarray(xs, dtype=float), np.asarray(xis, dtype=float)
    n, batch = xs.shape[-1], xs.shape[:-1]
    seed = np.eye(2 * n).reshape((2 * n, 2 * n) + (1,) * len(batch)) * np.ones(batch)
    x_cells = [Dual1(xs[..., i], seed[i]) for i in range(n)]
    xi_cells = [Dual1(xis[..., i], seed[n + i]) for i in range(n)]
    rows = [np.broadcast_to(np.moveaxis(out.grad, 0, -1) if isinstance(out, Dual1) else 0.0,
                            batch + (2 * n,))
            for out in fn(x_cells, xi_cells)]
    return np.stack(rows, axis=-2)


def phase_sample(name, count, shape=None):
    pair = resolve_pair(name)
    xs, xis = sample_phase_points(pair, count, np.random.default_rng(41))
    if shape is not None:
        xs, xis = xs.reshape(shape + (pair.dim,)), xis.reshape(shape + (pair.dim,))
    return pair, xs, xis


@pytest.mark.parametrize("name", ["ellipsoid:1,2,3", "lc-demo:m3n4"])
def test_integrals_jacobian_is_the_reference_dual_pass(name):
    pair, xs, xis = phase_sample(name, 7)
    want = reference_jacobian(
        lambda x, xi: integrals._pipeline(pair, x, xi, range(pair.dim)), xs, xis)
    got = integrals.integrals_jacobian(pair, xs, xis)
    assert got.shape == (7, pair.dim, 2 * pair.dim)
    assert got.tobytes() == want.tobytes()


def test_grad_batch_of_a_constant_is_zero_rows():
    pair, xs, xis = phase_sample("sphere", 5)
    constant = PhaseFunction(lambda x, xi: 2.5, pair.dim)
    got = constant.grad_batch(xs, xis)
    assert got.shape == (5, 4) and not got.any()
    assert got.tobytes() == reference_jacobian(lambda x, xi: [2.5], xs, xis)[:, 0].tobytes()
    H = hamiltonian(pair.g)
    want = reference_jacobian(lambda x, xi: [H.fn(x, xi)], xs, xis)[:, 0]
    assert H.grad_batch(xs, xis).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["ellipsoid:1,2,3", "lc-demo:m3n4"])
def test_factory_forms_are_the_reference_dual_pass(name):
    pair, xs, xis = phase_sample(name, 6, shape=(2, 3))
    n = pair.dim

    def form(theta):
        jac = reference_jacobian(theta, xs, xis)
        dx, dxi = jac[..., :n], jac[..., n:]
        upper = np.zeros((2, 3, 2 * n, 2 * n))
        upper[..., :n, :n] = dx - dx.swapaxes(-1, -2)
        upper[..., :n, n:] = dxi
        U = np.triu(upper, k=1)
        return (U - U.swapaxes(-1, -2)).tobytes()

    omega = factory.omega_g_at(pair.g, xs, xis)
    assert omega.shape == (2, 3, 2 * n, 2 * n)
    assert omega.tobytes() == form(lambda x, xi: matops.matvec(pair.g.eval_cells(x), xi))
    pulled = factory.pullback_phi_omega(pair, xs, xis)
    assert pulled.tobytes() == form(factory._pullback_theta(pair))
