"""Compiled metric entries against the Dual1 tree walk, and the one (x, xi)
dual pass against a dense one.

`MetricField.values_and_grads` runs code generated by
`dsl.compile_value_grad`, which records the `Dual1` walk once on symbolic
cells.  The tree walk with `Dual1` seeds, which `dsl.phase_jacobian` and the
catalog module still use, stays the reference for that code's execution: the
two must agree bit for bit, at single points and on batches, and raise the
same domain errors.

A `Dual1` carries only the gradient slots that can be non-zero.  `DenseDual`
below is the dense pass it replaced, every slot of every gradient computed.
A missing slot is an exact zero, so the sparse results must equal the dense
ones up to the sign of an exact zero, except where the dense pass made NaN
from 0 * inf.  `dsl.phase_jacobian` feeds `integrals_jacobian`,
`PhaseFunction.grad_batch` and the factory forms; each is compared with the
dense pass on every pair.  It, `canonical_gradients`, `MetricField.norm`,
`verify`'s involution-and-rank stage and `factory_integrals` run the points
in blocks of `dsl.BLOCK_ROWS` rows, which must give the bits of a single
block.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import PAIRS
from geodequiv import dsl, factory, integrals, matops, resolve_pair
from geodequiv.cli import main, pair_from_inline, sample_phase_points
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
    compile_value_grad,
    dual1_seeds,
    parse,
    pow_expr,
    scalar_value,
)
from geodequiv.geometry import Chart, MetricField
from geodequiv.hamilton import PhaseFunction, canonical_gradients, hamiltonian


class DenseDual(Dual1):
    """The dense dual number: `grad` has the derivative axis first, shape
    (nvars,) + batch, and each rule runs on every slot at once.  It keeps
    `Dual1`'s operation order, so a present slot of a `Dual1` gets the same
    operations, and `_pow_dual` and `apply_function` reach these rules."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, Dual1):
            return DenseDual(self.value + other.value, self.grad + other.grad)
        return DenseDual(self.value + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual1):
            return DenseDual(self.value - other.value, self.grad - other.grad)
        return DenseDual(self.value - other, self.grad)

    def __rsub__(self, other):
        return DenseDual(other - self.value, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Dual1):
            return DenseDual(self.value * other.value,
                             self.value * other.grad + other.value * self.grad)
        return DenseDual(self.value * other, other * self.grad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual1):
            qv = self.value / other.value
            return DenseDual(qv, (self.grad - qv * other.grad) / other.value)
        return DenseDual(self.value / other, self.grad / other)

    def __rtruediv__(self, other):
        rv = other / self.value
        return DenseDual(rv, -(rv / self.value) * self.grad)

    def __neg__(self):
        return DenseDual(-self.value, -self.grad)

    def _chain(self, fv, d1):
        return DenseDual(fv, d1 * self.grad)


def dense_seeds(x):
    """One DenseDual per component of x (shape (..., k)): component i gets
    row i of a (k, k) + batch identity; a 1-D x gives float values."""
    x = np.asarray(x, dtype=float)
    k, batch = x.shape[-1], x.shape[:-1]
    eye = np.broadcast_to(np.eye(k).reshape((k, k) + (1,) * len(batch)), (k, k) + batch)
    values = x.tolist() if x.ndim == 1 else np.moveaxis(x, -1, 0)
    return [DenseDual(v, e) for v, e in zip(values, eye)]


def grad_rows(c, n, batch):
    """The gradient of c with the derivative axis last, shape batch + (n,):
    zero for a plain value and in each slot a sparse gradient lacks."""
    if isinstance(c, DenseDual):
        return np.broadcast_to(np.moveaxis(c.grad, 0, -1), batch + (n,))
    rows = np.zeros(batch + (n,))
    for i, g in (c.grad.items() if isinstance(c, Dual1) else ()):
        rows[..., i] = g
    return rows


def tree_walk(metric, xs, seeds=dual1_seeds):
    """values_and_grads through dual seeds over the entry ASTs: `Dual1` ones
    by default, or `dense_seeds`."""
    xs = np.asarray(xs, dtype=float)
    squeeze = xs.ndim == 1
    if squeeze:
        xs = xs[None, :]
    n, N = metric.dim, xs.shape[0]
    cells = metric.eval_cells(seeds(xs))
    vals = np.empty((N, n, n))
    grads = np.zeros((N, n, n, n))
    for i in range(n):
        for j in range(n):
            vals[:, i, j] = np.broadcast_to(np.asarray(scalar_value(cells[i][j])), (N,))
            grads[:, i, j, :] = grad_rows(cells[i][j], n, (N,))
    if squeeze:
        return vals[0], grads[0]
    return vals, grads


def canonical(a, signed_zeros=True):
    """a with one NaN for every NaN and, unless signed_zeros, +0.0 for -0.0.

    NaNs are made canonical because, when both operands of an addition are
    NaN, numpy's scalar and array loops return different ones of the two
    (IEEE 754 leaves that open), so a single point, which the compiled code
    evaluates on scalars, can differ from the tree walk's arrays in the NaN
    sign bit.  Zeros are made canonical only against the dense pass: a slot a
    sparse gradient lacks is +0.0 where the dense pass may have computed
    -0.0.
    """
    a = np.where(np.isnan(a), np.nan, a)
    return a if signed_zeros else a + 0.0


def run(fn, *args):
    """fn's returned arrays, or the class of the domain error it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn(*args)
    except (DomainError, ZeroDivisionError) as exc:
        return type(exc)


def outcome(fn, *args, signed_zeros=True):
    """The bytes of every returned array after `canonical`, or the class of
    the exception."""
    arrays = run(fn, *args)
    if isinstance(arrays, type):
        return arrays
    return tuple((a.shape, canonical(a, signed_zeros).tobytes()) for a in arrays)


def assert_dense_agrees(metric, xs):
    """values_and_grads against the dense tree walk: the same exception, or
    the same values and the same gradients up to the sign of an exact zero,
    except where the dense walk made NaN from 0 * inf: it multiplied the zero
    of a slot that the sparse walk, which the compiled code records, lacks."""
    got, want = run(metric.values_and_grads, xs), run(tree_walk, metric, xs, dense_seeds)
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
        return
    (vals, grads), (dvals, dgrads) = got, want
    assert canonical(vals).tobytes() == canonical(dvals).tobytes()
    differ = canonical(grads, False) != canonical(dgrads, False)
    differ &= ~(np.isnan(grads) & np.isnan(dgrads))
    assert np.all(np.isnan(dgrads[differ]))


def test_every_catalog_pair_is_bitwise_equal():
    rng = np.random.default_rng(20)
    for name in PAIRS:
        pair = resolve_pair(name)
        for metric in (pair.g, pair.gbar):
            xs = metric.chart.box_points(50, rng)
            for x in xs[:10]:
                assert outcome(metric.values_and_grads, x) == outcome(tree_walk, metric, x), name
            assert outcome(metric.values_and_grads, xs) == outcome(tree_walk, metric, xs), name


def test_every_catalog_pair_is_the_dense_pass_up_to_zero_signs():
    rng = np.random.default_rng(20)
    for name in PAIRS:
        pair = resolve_pair(name)
        for metric in (pair.g, pair.gbar):
            xs = metric.chart.box_points(50, rng)
            want = outcome(tree_walk, metric, xs, dense_seeds, signed_zeros=False)
            assert outcome(metric.values_and_grads, xs, signed_zeros=False) == want, name


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
        assert_dense_agrees(metric, xs)


def test_a_single_point_dual_times_a_batch_has_per_point_gradients():
    """Float-valued seeds times an array as long as their slot count: each
    point gets its own partials.  A dense (nvars,) gradient broadcast against
    that array would have scaled slot k by point k's weight instead."""
    x = dual1_seeds([0.5, 1.5, 2.5])
    w = np.array([10.0, 20.0, 30.0])
    z = x[0] * x[1] * w
    assert z.value.tolist() == (0.75 * w).tolist()
    assert sorted(z.grad) == [0, 1]
    assert z.grad[0].tolist() == (1.5 * w).tolist() and z.grad[1].tolist() == (0.5 * w).tolist()


def test_the_generated_code_computes_no_structural_zero():
    """A partial whose slot the walk never fills is the constant zero, and no
    line computes it.  lc-demo:m3n4's entry code had 92 lines for g and 179
    for gbar while every seed carried all n slots (55 and 110 with one)."""
    pair = resolve_pair("lc-demo:m3n4")
    for metric, all_slots_lines in ((pair.g, 92), (pair.gbar, 179)):
        fn = compile_value_grad([e for row in metric.upper for e in row], metric.chart.names)
        lines = max(line for *_, line in fn.__code__.co_lines() if line) - 1  # after the def
        assert lines < all_slots_lines


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
    """The dense dual pass written out: 2n DenseDual cells, then each
    output's gradient with the derivative axis last, a zero row for a plain
    value."""
    xs, xis = np.asarray(xs, dtype=float), np.asarray(xis, dtype=float)
    n, batch = xs.shape[-1], xs.shape[:-1]
    cells = dense_seeds(np.concatenate([xs, xis], axis=-1))
    return np.stack([grad_rows(out, 2 * n, batch) for out in fn(cells[:n], cells[n:])], axis=-2)


def same_up_to_zero_signs(got, want):
    """Equal shapes and bytes once -0.0 reads +0.0: where the dense pass
    computed -0.0 in a slot, the sparse pass may lack the slot."""
    return got.shape == want.shape and (got + 0.0).tobytes() == (want + 0.0).tobytes()


def phase_sample(name, count, shape=None):
    pair = resolve_pair(name)
    xs, xis = sample_phase_points(pair, count, np.random.default_rng(41))
    if shape is not None:
        xs, xis = xs.reshape(shape + (pair.dim,)), xis.reshape(shape + (pair.dim,))
    return pair, xs, xis


@pytest.mark.parametrize("name", PAIRS)
def test_integrals_jacobian_is_the_reference_dual_pass(name):
    pair, xs, xis = phase_sample(name, 7)
    want = reference_jacobian(
        lambda x, xi: integrals._pipeline(pair, x, xi, range(pair.dim)), xs, xis)
    got = integrals.integrals_jacobian(pair, xs, xis)
    assert got.shape == (7, pair.dim, 2 * pair.dim)
    assert same_up_to_zero_signs(got, want)


def test_grad_batch_of_a_constant_is_zero_rows():
    pair, xs, xis = phase_sample("sphere", 5)
    constant = PhaseFunction(lambda x, xi: 2.5, pair.dim)
    got = constant.grad_batch(xs, xis)
    assert got.shape == (5, 4) and not got.any()
    assert got.tobytes() == reference_jacobian(lambda x, xi: [2.5], xs, xis)[:, 0].tobytes()
    H = hamiltonian(pair.g)
    want = reference_jacobian(lambda x, xi: [H.fn(x, xi)], xs, xis)[:, 0]
    assert same_up_to_zero_signs(H.grad_batch(xs, xis), want)


@pytest.mark.parametrize("name", PAIRS)
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
        return U - U.swapaxes(-1, -2)

    omega = factory.omega_g_at(pair.g, xs, xis)
    assert omega.shape == (2, 3, 2 * n, 2 * n)
    g_theta = form(lambda x, xi: matops.matvec(pair.g.eval_cells(x), xi))
    assert same_up_to_zero_signs(omega, g_theta)
    pulled = factory.pullback_phi_omega(pair, xs, xis)
    assert same_up_to_zero_signs(pulled, form(factory._pullback_theta(pair)))


# ---------------------------------------------------------------------------
# blocks of rows


def single_and_blocked(monkeypatch, compute, rows=7):
    """compute() with every point in one block, then with blocks of `rows`."""
    monkeypatch.setattr(dsl, "BLOCK_ROWS", 1 << 40)
    single = compute()
    monkeypatch.setattr(dsl, "BLOCK_ROWS", rows)
    return single, compute()


def same_bits(got, want):
    return all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("name", PAIRS)
def test_blocks_of_rows_are_the_single_pass(name, monkeypatch):
    """Three 7-row blocks and a 2-row one give every dual and canonical
    pass, all four factory fields, and the g-norm, the bits of one block
    holding all 23 points."""
    pair, xs, xis = phase_sample(name, 3 * 7 + 2)

    def passes():
        jac = integrals.integrals_jacobian(pair, xs, xis)
        fi = factory.factory_integrals(pair, xs, xis)
        return (jac, *canonical_gradients(jac, pair.g, xs, xis),
                integrals.involution_matrix(jac, pair.g, xs, xis),
                factory.omega_g_at(pair.g, xs, xis),
                fi.coeffs, fi.remainder, fi.a, fi.delta,
                pair.g.norm(xs, xis))

    single, blocked = single_and_blocked(monkeypatch, passes)
    assert same_bits(blocked, single)


@pytest.mark.parametrize("name", PAIRS)
def test_blocks_of_rows_keep_the_batch_shape(name, monkeypatch):
    """A (2, 5) batch runs as its 10 rows in blocks; an empty batch and a
    single (n,) point keep their shapes."""
    pair, xs, xis = phase_sample(name, 10, shape=(2, 5))
    n = pair.dim
    empty = np.zeros((0, n))

    def passes():
        jac0 = integrals.integrals_jacobian(pair, empty, empty)
        return (integrals.integrals_jacobian(pair, xs, xis),
                factory.omega_g_at(pair.g, xs, xis),
                factory.factory_integrals(pair, xs, xis).coeffs,
                jac0, *canonical_gradients(jac0, pair.g, empty, empty),
                integrals.integrals_jacobian(pair, xs[1, 2], xis[1, 2]),
                factory.omega_g_at(pair.g, xs[1, 2], xis[1, 2]))

    single, blocked = single_and_blocked(monkeypatch, passes, rows=3)
    assert same_bits(blocked, single)
    shapes = [a.shape for a in blocked]
    assert shapes == [(2, 5, n, 2 * n), (2, 5, 2 * n, 2 * n), (2, 5, n), (0, n, 2 * n),
                      (0, n, n), (0, n, n), (n, 2 * n), (2 * n, 2 * n)]


LOG_PAIR = {"coordinates": ["x1", "x2"], "box": [[0.5, 1.5], [0.5, 1.5]],
            "g[1][1]": "2 + log(x1)", "g[2][2]": "1 + sqrt(x2)",
            "gbar[1][1]": "1", "gbar[2][2]": "1"}


def test_a_domain_error_in_the_last_block_is_the_single_pass_error(monkeypatch):
    """One bad point in the last 7-row block raises what the single pass
    raised.  Two bad points failing at different operations in different
    blocks raise the first block's error, which the single pass need not."""
    pair = pair_from_inline(LOG_PAIR)
    xs, xis = np.ones((3 * 7 + 2, 2)), np.ones((3 * 7 + 2, 2))
    xs[-1, 0] = -0.5  # log(x1) fails in the last block

    def message():
        with pytest.raises(DomainError) as err:
            integrals.integrals_jacobian(pair, xs, xis)
        return str(err.value)

    single, blocked = single_and_blocked(monkeypatch, message)
    assert blocked == single == "domain error in 'log' at argument -0.5"
    xs[1, 1] = -2.0  # sqrt(x2), evaluated after log(x1), fails in the first block
    single, blocked = single_and_blocked(monkeypatch, message)
    assert single == "domain error in 'log' at argument -0.5"
    assert blocked == "domain error in 'sqrt' at argument -2.0"


def test_the_dual_pass_memory_does_not_grow_with_the_points(monkeypatch):
    """integrals_jacobian's traced peak, less its output, at 8 blocks of
    rows stays below twice the peak at one block."""
    monkeypatch.setattr(dsl, "BLOCK_ROWS", 512)
    pair, xs, xis = phase_sample("lc-demo:m3n4", 8 * 512)
    integrals.integrals_jacobian(pair, xs[:2], xis[:2])  # first-use set-up

    def peak(count):
        tracemalloc.start()
        try:
            jac = integrals.integrals_jacobian(pair, xs[:count], xis[:count])
            return tracemalloc.get_traced_memory()[1] - jac.nbytes
        finally:
            tracemalloc.stop()

    assert peak(8 * 512) < 2 * peak(512)


@pytest.mark.parametrize("name", PAIRS)
def test_the_streamed_stage_is_the_whole_stack(name, monkeypatch):
    """involution_and_rank over three 7-row blocks and a 2-row one gives the
    brackets and rank of the whole (23, n, 2n) differential stack."""
    pair, xs, xis = phase_sample(name, 3 * 7 + 2)
    jac = integrals.integrals_jacobian(pair, xs, xis)
    monkeypatch.setattr(dsl, "BLOCK_ROWS", 7)
    brackets, rank = integrals.involution_and_rank(pair, xs, xis, 1e-8)
    assert np.array_equal(brackets, integrals.involution_matrix(jac, pair.g, xs, xis))
    assert rank == integrals.independence_rank(jac, 1e-8)


def report_lines(capsys, *argv):
    """The exit code and the printed report lines of one command, but for
    its timestamp."""
    code = main(list(argv))
    lines = capsys.readouterr().out.splitlines()
    return code, [line for line in lines if '"timestamp"' not in line]


@pytest.mark.parametrize("name", ["lc-demo:m3n4", "ellipsoid:1,2,3"])
def test_a_verify_report_in_blocks_is_the_single_block_report(name, monkeypatch, capsys):
    """verify at 23 points prints the same bytes, but for its timestamp,
    in 7-row blocks as in one block."""
    argv = ["verify", "--pair", name, "--points", "23", "--trajectories", "1"]
    single, blocked = single_and_blocked(monkeypatch, lambda: report_lines(capsys, *argv))
    assert single[0] == 0
    assert blocked == single


@pytest.mark.parametrize("name", ["lc-demo:m3n4", "ellipsoid:1,2,3"])
def test_a_factory_report_in_blocks_is_the_single_block_report(name, monkeypatch, capsys):
    """factory at 23 points prints the same bytes, but for its timestamp,
    in 7-row blocks as in one block."""
    argv = ["factory", "--pair", name, "--points", "23", "--trajectories", "1"]
    single, blocked = single_and_blocked(monkeypatch, lambda: report_lines(capsys, *argv))
    assert single[0] == 0
    assert blocked == single


def test_the_involution_and_rank_memory_does_not_grow_with_the_points(monkeypatch):
    """The streamed stage's traced peak at 16 blocks of rows stays below
    twice its peak at one block: no (N, n, 2n) stack or (N, n, n) canonical
    gradients are held whole.  Holding them reads 3.9x."""
    monkeypatch.setattr(dsl, "BLOCK_ROWS", 512)
    pair, xs, xis = phase_sample("lc-demo:m3n4", 16 * 512)
    integrals.involution_and_rank(pair, xs[:2], xis[:2], 1e-8)  # first-use set-up

    def peak(count):
        tracemalloc.start()
        try:
            integrals.involution_and_rank(pair, xs[:count], xis[:count], 1e-8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16 * 512) < 2 * peak(512)


def test_the_factory_memory_does_not_grow_with_the_points(monkeypatch):
    """factory_integrals' traced peak at 16 blocks of rows stays below twice
    its peak at one block: no (N, n + 2, 2n, 2n) form and pencil stack is
    held whole.  Holding it reads 15.8x."""
    monkeypatch.setattr(dsl, "BLOCK_ROWS", 512)
    pair, xs, xis = phase_sample("lc-demo:m3n4", 16 * 512)
    factory.factory_integrals(pair, xs[:2], xis[:2])  # first-use set-up

    def peak(count):
        tracemalloc.start()
        try:
            factory.factory_integrals(pair, xs[:count], xis[:count])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16 * 512) < 2 * peak(512)
