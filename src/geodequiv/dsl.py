"""Expression language for metric entries, plus forward-mode dual arithmetic.

Metric components are given as small closed-form expressions in the chart
coordinates.  This module provides the parser (recursive descent, no implicit
multiplication), the immutable AST, a precedence-aware printer whose output
re-parses to a structurally identical tree, and first-order dual numbers used
to push exact first derivatives through evaluations in the package.

Scalars flowing through `Expression.evaluate` may be plain floats, numpy
arrays (vectorised evaluation over many points at once), or `Dual1`
instances, vectorised too as `dual1_seeds` makes them: a value of shape (N,)
and a gradient mapping each slot that can be non-zero to a partial of (N,).

`compile_value_grad` turns a set of expressions into one generated Python
function computing their values and gradients as straight-line code.  It
records the `Dual1` walk itself on symbolic cells, so each derivative rule
lives in `Dual1` only and the code runs the walk's operations without its
per-call tree traversal; `MetricField.values_and_grads` runs on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import reduce
from typing import Callable, Mapping, Sequence

import numpy as np


class DslError(Exception):
    """Base class for expression language errors."""


class DslSyntaxError(DslError):
    def __init__(self, offset: int, expected: tuple[str, ...], message: str = ""):
        self.offset = offset
        self.expected = tuple(expected)
        text = message or f"syntax error at byte {offset}, expected one of: {', '.join(expected)}"
        super().__init__(text)


class UnknownIdentifierError(DslError):
    def __init__(self, name: str, offset: int):
        self.name = name
        self.offset = offset
        super().__init__(f"unknown identifier '{name}' at byte {offset}")


class DomainError(DslError):
    """Evaluation left the real domain of a function (log of <= 0 and so on)."""

    def __init__(self, function: str, argument):
        self.function = function
        self.argument = argument
        super().__init__(f"domain error in '{function}' at argument {argument!r}")


# ---------------------------------------------------------------------------
# dual numbers


class Dual1:
    """Value and first-order gradient with respect to a fixed variable set.

    `grad` maps each variable slot that can be non-zero to the partial in it,
    shaped like the value or broadcasting to it; a missing slot is an exact
    zero.  Each rule runs per present slot in its dense form's order, so the
    results differ from a dense gradient's only in the sign of an exact zero
    or where the dense form made NaN from 0 * inf.
    """

    __slots__ = ("value", "grad")
    __array_ufunc__ = None  # keep numpy from absorbing us into object arrays

    def __init__(self, value, grad):
        self.value = value
        self.grad = grad

    def __add__(self, other):
        if isinstance(other, Dual1):
            g1, g2 = self.grad, other.grad
            grad = {i: g + g2[i] if i in g2 else g for i, g in g1.items()}
            return Dual1(self.value + other.value, {**g2, **grad})
        return Dual1(self.value + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual1):
            g1, g2 = self.grad, other.grad
            grad = {i: g - g2[i] if i in g2 else g for i, g in g1.items()}
            return Dual1(self.value - other.value,
                         {**{i: -g for i, g in g2.items() if i not in g1}, **grad})
        return Dual1(self.value - other, self.grad)

    def __rsub__(self, other):
        return Dual1(other - self.value, {i: -g for i, g in self.grad.items()})

    def __mul__(self, other):
        a = self.value
        if isinstance(other, Dual1):
            b, g1, g2 = other.value, self.grad, other.grad
            grad = {i: a * g2[i] + b * g if i in g2 else b * g for i, g in g1.items()}
            return Dual1(a * b, {**{i: a * g for i, g in g2.items() if i not in g1}, **grad})
        return Dual1(a * other, {i: other * g for i, g in self.grad.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual1):
            b, g1, g2 = other.value, self.grad, other.grad
            qv = self.value / b
            grad = {i: (g - qv * g2[i]) / b if i in g2 else g / b for i, g in g1.items()}
            return Dual1(qv, {**{i: -(qv * g) / b for i, g in g2.items() if i not in g1}, **grad})
        return Dual1(self.value / other, {i: g / other for i, g in self.grad.items()})

    def __rtruediv__(self, other):
        rv = other / self.value
        return self._chain(rv, -(rv / self.value))

    def __neg__(self):
        return Dual1(-self.value, {i: -g for i, g in self.grad.items()})

    def __pow__(self, e):
        return _pow_dual(self, e)

    def _chain(self, fv, d1):
        return Dual1(fv, {i: d1 * g for i, g in self.grad.items()})


def _pow_dual(z: Dual1, e) -> Dual1:
    """z**e for dual z and constant real e."""
    if isinstance(e, Dual1):
        raise DomainError("^", "non-constant exponent")
    e = float(e)
    v = z.value
    if e == int(e):
        k = int(e)
        if k == 0:
            return z * 0.0 + 1.0
        vkm1 = np.power(v, k - 1)
        return z._chain(vkm1 * v, k * vkm1)
    _refuse_nonpos("^", v)
    return z._chain(np.power(v, e), e * np.power(v, e - 1.0))


def _pow_plain(v, e: float):
    if e == int(e):
        return np.power(v, int(e))
    _refuse_nonpos("^", v)
    return np.power(v, e)


def _refuse_nonpos(function: str, v) -> None:
    """Raise DomainError at the first value of v that is <= 0.  On a recorded
    `_Name` the generated code makes this call instead, once per distinct line."""
    if isinstance(v, _Name):
        v.tape.write(None, f"_refuse_nonpos({function!r}, {{0}})", (v.text,))
    elif np.any(bad := np.asarray(v) <= 0.0):
        raise DomainError(function, float(np.asarray(v)[bad][0]))


# unary functions: plain callable, derivative, whether the argument must be > 0
_FUNCTIONS: dict[str, tuple] = {
    "sin": (np.sin, np.cos, False),
    "cos": (np.cos, lambda v: -np.sin(v), False),
    "exp": (np.exp, np.exp, False),
    "log": (np.log, lambda v: 1.0 / v, True),
    "sqrt": (np.sqrt, lambda v: 0.5 / np.sqrt(v), True),
    "abs": (np.abs, np.sign, False),
}


def apply_function(name: str, z):
    """Apply a builtin unary function to a scalar-like argument."""
    f, d1, guarded = _FUNCTIONS[name]
    v = z.value if isinstance(z, Dual1) else z
    if guarded:
        _refuse_nonpos(name, v)
    if isinstance(z, Dual1):
        return z._chain(f(v), d1(v))
    return f(v)


def scalar_value(z):
    """Strip any dual payload, returning the plain float/array value."""
    if isinstance(z, Dual1):
        return z.value
    return z


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expression:
    """A node of the immutable AST.  `prec` is the node's printing precedence
    (add 1, mul 2, unary 3, pow 4, atom 5); each node prints itself with
    `__str__`, parenthesizing a child exactly where re-parsing needs it."""

    prec = 5

    def variables(self) -> frozenset:
        # getattr, not vars(self): building the instance __dict__ would slow
        # every later attribute read in evaluate
        kids = (getattr(self, f.name) for f in fields(self))
        return frozenset().union(*(k.variables() for k in kids if isinstance(k, Expression)))

    def evaluate(self, env: Mapping[str, object]):
        raise NotImplementedError


def _par(e: Expression, prec: int) -> str:
    """e printed as an operand that needs precedence at least prec."""
    return f"({e})" if e.prec < prec else str(e)


@dataclass(frozen=True)
class Lit(Expression):
    value: float

    @property
    def prec(self):
        return 3 if np.signbit(self.value) else 5  # a negative literal prints as unary minus

    def evaluate(self, env):
        return self.value

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expression):
    name: str

    def variables(self):
        return frozenset((self.name,))

    def evaluate(self, env):
        return env[self.name]

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class _Binary(Expression):
    """l sym r, left-associative; the subclasses give sym and prec."""

    l: Expression
    r: Expression

    def __str__(self):
        sep = f" {self.sym} " if self.prec == 1 else self.sym
        return _par(self.l, self.prec) + sep + _par(self.r, self.prec + 1)


class Add(_Binary):
    sym = "+"
    prec = 1

    def evaluate(self, env):
        return self.l.evaluate(env) + self.r.evaluate(env)


class Sub(_Binary):
    sym = "-"
    prec = 1

    def evaluate(self, env):
        return self.l.evaluate(env) - self.r.evaluate(env)


class Mul(_Binary):
    sym = "*"
    prec = 2

    def evaluate(self, env):
        return self.l.evaluate(env) * self.r.evaluate(env)


class Div(_Binary):
    sym = "/"
    prec = 2

    def evaluate(self, env):
        return self.l.evaluate(env) / self.r.evaluate(env)


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression

    prec = 3

    def evaluate(self, env):
        return -self.arg.evaluate(env)

    def __str__(self):
        return "-" + _par(self.arg, self.prec)


@dataclass(frozen=True)
class Pow(Expression):
    """base ^ exponent.  The exponent subtree must be variable-free; its folded
    value is cached so evaluation sees a constant real exponent."""

    base: Expression
    exponent: Expression
    exponent_value: float

    prec = 4

    def evaluate(self, env):
        b = self.base.evaluate(env)
        if isinstance(b, Dual1):
            return _pow_dual(b, self.exponent_value)
        return _pow_plain(b, self.exponent_value)

    def __str__(self):
        # base binds tighter than ^ only for atoms; ^ is right-associative
        return _par(self.base, self.prec + 1) + "^" + _par(self.exponent, self.prec)


@dataclass(frozen=True)
class Call(Expression):
    func: str
    arg: Expression

    def evaluate(self, env):
        return apply_function(self.func, self.arg.evaluate(env))

    def __str__(self):
        return f"{self.func}({self.arg})"


def pow_expr(base: Expression, exponent: Expression) -> Pow:
    if exponent.variables():
        raise DslError("exponent must be a constant expression")
    return Pow(base, exponent, float(exponent.evaluate({})))


def product(factors: Sequence[Expression]) -> Expression:
    """The factors multiplied from the first, Mul(Mul(f0, f1), f2) and so on;
    Lit(1.0) for none."""
    return reduce(Mul, factors) if factors else Lit(1.0)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _byte_offset(src: str, idx: int) -> int:
    return len(src[:idx].encode("utf-8"))


def _tokenize(src: str):
    toks = []
    i = 0
    n = len(src)
    while i < n:
        m = _TOKEN_RE.match(src, i)
        if m is None or m.end() == i:
            j = i
            while j < n and src[j].isspace():
                j += 1
            if j >= n:
                break
            raise DslSyntaxError(
                _byte_offset(src, j),
                ("number", "identifier", "operator"),
                f"unexpected character {src[j]!r} at byte {_byte_offset(src, j)}",
            )
        if m.lastgroup == "num":
            toks.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "ident":
            toks.append(("ident", m.group("ident"), m.start("ident")))
        else:
            toks.append((m.group("op"), m.group("op"), m.start("op")))
        i = m.end()
    toks.append(("eof", None, n))
    return toks


class _Parser:
    def __init__(self, src: str, names: Sequence[str]):
        self.src = src
        self.names = frozenset(names)
        self.toks = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: tuple[str, ...]):
        kind, _val, idx = self.peek()
        raise DslSyntaxError(_byte_offset(self.src, idx), expected)

    def expect(self, kind: str):
        if self.peek()[0] != kind:
            self.fail((f"'{kind}'",))
        return self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        if self.peek()[0] != "eof":
            self.fail(("end of input", "'+'", "'-'", "'*'", "'/'", "'^'"))
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expression:
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self) -> Expression:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek()[0] == "^":
            idx = self.peek()[2]
            self.advance()
            exponent = self.unary()  # right-associative, tighter than unary minus
            if exponent.variables():
                raise DslSyntaxError(
                    _byte_offset(self.src, idx),
                    ("constant exponent",),
                    f"exponent after '^' at byte {_byte_offset(self.src, idx)} must be constant",
                )
            return pow_expr(base, exponent)
        return base

    def atom(self) -> Expression:
        kind, val, idx = self.peek()
        if kind == "num":
            self.advance()
            return Lit(float(val))
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if val not in _FUNCTIONS:
                    raise UnknownIdentifierError(val, _byte_offset(self.src, idx))
                self.advance()
                arg = self.expr()
                self.expect(")")
                return Call(val, arg)
            if val in self.names:
                return Var(val)
            raise UnknownIdentifierError(val, _byte_offset(self.src, idx))
        if kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        self.fail(("number", "identifier", "'('", "'-'"))


def parse(src: str, names: Sequence[str]) -> Expression:
    """Parse a metric-entry expression over the declared coordinate names."""
    return _Parser(src, names).parse()


# ---------------------------------------------------------------------------
# evaluation entry points


BLOCK_ROWS = 2048  # points per block of every N-point pass over phase points


def row_blocks(count: int):
    """Consecutive slices of BLOCK_ROWS rows that cover count rows."""
    for s in range(0, count, BLOCK_ROWS):
        yield slice(s, s + BLOCK_ROWS)


def eval_env(names: Sequence[str], cells: Sequence) -> dict:
    return dict(zip(names, cells))


def dual1_seeds(x) -> list[Dual1]:
    """One Dual1 per component of x (shape (..., k)), seeded at consecutive
    variable slots: component i has the one slot i, holding 1.0 for a 1-D x,
    whose values are floats, and otherwise ones of shape x.shape[:-1]."""
    x = np.asarray(x, dtype=float)
    one = 1.0 if x.ndim == 1 else np.ones(x.shape[:-1])
    values = x.tolist() if x.ndim == 1 else np.moveaxis(x, -1, 0)
    return [Dual1(v, {i: one}) for i, v in enumerate(values)]


def phase_jacobian(fn: Callable, xs, xis) -> np.ndarray:
    """Differentials in (x, xi) of the m outputs of fn(x_cells, xi_cells), by
    a forward dual pass over phase points xs, xis of shape (..., n).

    Returns shape (..., m, 2n), the x slots first; the slots an output's
    gradient lacks, all of them for a plain value, are zero.  The points run
    in consecutive blocks of BLOCK_ROWS, each filling its rows of the output,
    so the pass's temporaries do not grow with the number of points; points
    are independent, so the bits are those of a single pass over them all.
    """
    z = np.concatenate([xs, xis], axis=-1)
    rows = z.reshape(-1, z.shape[-1])
    jac = None
    for b in row_blocks(max(len(rows), 1)):  # one block for no rows
        cells = dual1_seeds(rows[b] if z.ndim > 1 else z)
        n = len(cells) // 2
        outs = fn(cells[:n], cells[n:])
        if jac is None:
            jac = np.zeros((len(rows), len(outs), 2 * n))
        for k, out in enumerate(outs):
            for i, g in (out.grad.items() if isinstance(out, Dual1) else ()):
                jac[b, k, i] = g
    return jac.reshape(z.shape[:-1] + jac.shape[1:])


# ---------------------------------------------------------------------------
# compiled forward mode


def compile_value_grad(exprs: Sequence[Expression], names: Sequence[str]) -> Callable:
    """Compile expressions to one straight-line value-and-gradient function.

    The result f(*cells) returns a flat tuple holding, for each expression in
    turn, its value and then its n partial derivatives.  Cells may be float64
    scalars or equally shaped arrays.  The code is a recording of the `Dual1`
    tree walk itself: the walk runs once over seeds whose value and gradient
    slot are `_Name`s, every operation on a name writes one line, and
    variable-free subtrees fold to the constants the walk computes.  So each
    derivative rule lives in `Dual1` alone, and the outputs are bitwise those
    of the walk over `dual1_seeds`, domain errors included.  A partial whose
    slot the walk never fills is the constant `zero`, computed by no line.  A
    repeated line keeps its first name, so shared subtrees are computed once
    across all expressions.
    """
    tape = _Tape()
    n = len(names)
    zero, one = _Name("zero", tape), _Name("one", tape)
    env = eval_env(names, [Dual1(_Name(f"x{i}", tape), {i: one}) for i in range(n)])
    out = []
    try:
        for e in exprs:
            v = e.evaluate(env)
            grad = v.grad if isinstance(v, Dual1) else {}
            out += [scalar_value(v)] + [grad.get(i, zero) for i in range(n)]
    except (DomainError, ZeroDivisionError) as exc:
        # a variable-free subtree fails on every input, so the code raises
        # there, after the domain tests recorded before it, as the walk does
        tape.scope["failure"] = exc
        tape.write(None, "raise failure.with_traceback(None)", ())
    values = tuple(tape.operand(v) for v in out)
    tape.write(None, "return (" + "{}, " * len(values) + ")", values)
    args = ", ".join(f"x{i}" for i in range(n))
    body = "".join(f"    {line}\n" for line in _reuse_temps(tape.lines))
    exec(compile(f"def value_grad({args}):\n{body}", "<value_grad>", "exec"), tape.scope)
    return tape.scope["value_grad"]


def _reuse_temps(lines) -> list[str]:
    """The code of recorded lines (target, format, operands), with the
    temporaries renamed so that each takes over the variable of one no later
    line reads.  On array cells the dead value is then freed at once and its
    memory reused, rather than every temporary living to the return."""
    last = {o: k for k, (_, _, ops) in enumerate(lines) for o in ops}
    free, slot, code = [], {}, []
    for k, (target, fmt, ops) in enumerate(lines):
        free += [slot[o] for o in dict.fromkeys(ops) if o in slot and last[o] == k]
        text = fmt.format(*(slot.get(o, o) for o in ops))
        if target:
            slot[target] = free.pop() if free else target
            text = f"{slot[target]} = {text}"
        code.append(text)
    return code


# the code of the ufuncs written as operators; every other one is a call
_OPERATORS = {np.add: "{} + {}", np.subtract: "{} - {}", np.multiply: "{} * {}",
              np.true_divide: "{} / {}", np.negative: "-{}"}


class _Tape:
    """The lines and namespace of one function `compile_value_grad` generates."""

    def __init__(self):
        self.lines: dict[tuple, None] = {}  # in order, each distinct line once
        self.names: dict[tuple, _Name] = {}  # (format, operands) -> its name
        self.consts: dict[tuple, str] = {}
        self.scope = {"_refuse_nonpos": _refuse_nonpos,
                      "zero": np.float64(0.0), "one": np.float64(1.0)}

    def write(self, target: str | None, fmt: str, operands: tuple) -> None:
        self.lines.setdefault((target, fmt, operands))

    def operand(self, v) -> str:
        """v's name in the code.  Constants are keyed by type and repr, which
        keeps 0.0 and -0.0 apart."""
        if isinstance(v, _Name):
            return v.text
        key = (type(v), repr(v))
        if key not in self.consts:
            self.consts[key] = f"c{len(self.consts)}"
            self.scope[self.consts[key]] = v
        return self.consts[key]

    def record(self, ufunc, args) -> _Name:
        ops = tuple(map(self.operand, args))
        fmt = _OPERATORS.get(ufunc)
        if fmt is None:
            self.scope[ufunc.__name__] = ufunc
            fmt = ufunc.__name__ + "(" + ", ".join(["{}"] * len(ops)) + ")"
        if (fmt, ops) not in self.names:
            self.names[fmt, ops] = _Name(f"t{len(self.names)}", self)
            self.write(self.names[fmt, ops].text, fmt, ops)
        return self.names[fmt, ops]


class _Name(np.lib.mixins.NDArrayOperatorsMixin):
    """One value of a generated function.  An arithmetic operation or numpy
    function applied to it records one line and returns the result's name."""

    __slots__ = ("text", "tape")

    def __init__(self, text: str, tape: _Tape):
        self.text = text
        self.tape = tape

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        return self.tape.record(ufunc, args)
