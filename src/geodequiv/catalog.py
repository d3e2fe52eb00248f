"""Built-in metric pairs: the ellipsoid with its classical companion metric
in elliptic coordinates, flat pairs, normal-form demos, and deliberately
broken pairs for falsification runs.

The star example is the ellipsoid sum_i x_i^2 / a_i = 1 with semi-axis
parameters 0 < a_1 < ... < a_n, charted by elliptic coordinates: the full
coordinate vector is (nu_1 = 0, nu_2, ..., nu_n) with a_{i-1} < nu_i < a_i,
and the positive-quadrant patch of the surface is

    x_k(nu) = sqrt( prod_{j=1}^{n} (a_k - nu_j) / prod_{j != k} (a_k - a_j) ).

The frozen nu_1 = 0 slot is what pins the image to the ellipsoid: expanding
prod_j (t - nu_j) / prod_k (t - a_k) = 1 + sum_k x_k^2 / (t - a_k) at t = 0
gives sum x_k^2 / a_k = 1 identically.  The pair consists of the induced
metric g together with the weighted restriction

    gbar = ( sum_k dx_k^2 / a_k ) / eta,    eta = sum_k (x_k / a_k)^2,

which shares all unparametrised geodesics with g.  Both are diagonal in the
chart with closed-form entries (i runs over the chart slots nu_2 .. nu_n)

    g_ii    = -(1/4) nu_i prod_{j != i} (nu_i - nu_j) / prod_k (nu_i - a_k),
    gbar_ii = g_ii * prod(a) / (nu_i * prod_{chart} nu_j).

Both metrics blow up at the coordinate walls nu_i = a_{i-1}, a_i, so the
chart domain is shrunk away from the walls by a small relative margin and
sampling stays further inside still.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dsl
from .dsl import Add, Call, Div, Expression, Lit, Mul, Neg, Sub, Var, apply_function, product
from .geometry import Chart, MetricField
from .integrals import MetricPair
from .levicivita import LCPair, LCSpec, build_pair, lcspec_from_json


# relative margins keeping the elliptic chart's domain and its sampling box
# away from the coordinate walls
DOMAIN_MARGIN = 0.02
SAMPLE_MARGIN = 0.15


@dataclass(frozen=True)
class EllipsoidSpec:
    """Semi-axis parameters of the ellipsoid."""

    semi_axes: tuple[float, ...]

    def __post_init__(self):
        a = self.semi_axes
        if len(a) < 2:
            raise ValueError("need at least two semi-axis parameters")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"semi-axis parameters must be finite, got {list(a)}")
        if a[0] <= 0 or any(hi <= lo for lo, hi in zip(a, a[1:])):
            raise ValueError("semi-axis parameters must be positive and strictly increasing")

    @property
    def dim(self) -> int:
        """Chart dimension: one elliptic coordinate per gap (a_{i-1}, a_i)."""
        return len(self.semi_axes) - 1


def _check_interlacing(spec: EllipsoidSpec, cells: Sequence) -> None:
    a = spec.semi_axes
    v0 = np.asarray(dsl.scalar_value(cells[0]))
    if np.any(v0 != 0.0):
        raise ValueError("the first elliptic coordinate must be frozen at 0")
    for i, c in enumerate(cells[1:], start=1):
        v = np.asarray(dsl.scalar_value(c))
        if np.any(v <= a[i - 1]) or np.any(v >= a[i]):
            raise ValueError(
                f"elliptic coordinate {i+1} must lie in ({a[i-1]}, {a[i]})"
            )


def elliptic_to_cartesian(spec: EllipsoidSpec, nu_cells: Sequence) -> list:
    """Ambient coordinates of a chart point, on scalar-like cells.

    nu_cells holds the full coordinate vector (nu_1, ..., nu_n) with the
    first entry frozen at 0 and a_{i-1} < nu_i < a_i for the rest.  The
    result satisfies sum x_k^2 / a_k = 1 identically.
    """
    a = spec.semi_axes
    n = len(a)
    if len(nu_cells) != n:
        raise ValueError(f"need {n} elliptic coordinates (the first one 0)")
    _check_interlacing(spec, nu_cells)
    out = []
    for k in range(n):
        num = 1.0
        for v in nu_cells:
            num = num * (a[k] - v)
        den = 1.0
        for j in range(n):
            if j != k:
                den *= a[k] - a[j]
        out.append(apply_function("sqrt", num / den))
    return out


def constraint_residual(spec: EllipsoidSpec, nu) -> float:
    """|sum x_k^2 / a_k - 1| at a point; zero up to rounding by construction."""
    xs = elliptic_to_cartesian(spec, list(np.asarray(nu, dtype=float)))
    return abs(float(sum(x * x / ak for x, ak in zip(xs, spec.semi_axes))) - 1.0)


def _nu_chart(spec: EllipsoidSpec) -> Chart:
    """Chart on the coordinates nu_2 .. nu_n, walls shrunk by the margins."""
    a = spec.semi_axes
    n = spec.dim
    names = tuple(f"nu{i+2}" for i in range(n))
    factors: list[Expression] = []
    box = []
    for i in range(n):
        lo, hi = a[i], a[i + 1]
        w = hi - lo
        dlo, dhi = lo + DOMAIN_MARGIN * w, hi - DOMAIN_MARGIN * w
        factors.append(Sub(Var(names[i]), Lit(dlo)))
        factors.append(Sub(Lit(dhi), Var(names[i])))
        box.append((lo + SAMPLE_MARGIN * w, hi - SAMPLE_MARGIN * w))
    return Chart(names, domain=tuple(factors), sample_box=tuple(box))


def ellipsoid_pair(spec: EllipsoidSpec) -> MetricPair:
    """The induced/weighted pair on the elliptic chart, entries in closed form."""
    a = spec.semi_axes
    n = spec.dim
    chart = _nu_chart(spec)
    nus = [Var(name) for name in chart.names]

    def g_diag(i: int) -> Expression:
        # -(1/4) nu_i prod_{j != i} (nu_i - nu_j) / prod_k (nu_i - a_k)
        num = product([nus[i]] + [Sub(nus[i], nus[j]) for j in range(n) if j != i])
        den = product([Lit(4.0)] + [Sub(nus[i], Lit(ak)) for ak in a])
        return Neg(Div(num, den))

    g_entries = [g_diag(i) for i in range(n)]
    g = MetricField.from_diagonal(chart, g_entries)

    prod_nu = product(nus)
    prod_a = Lit(float(np.prod(a)))
    gbar_entries = [
        Div(Mul(prod_a, g_entries[i]), Mul(nus[i], prod_nu)) for i in range(n)
    ]
    gbar = MetricField.from_diagonal(chart, gbar_entries)
    return MetricPair(g, gbar, pair_id="ellipsoid:" + ",".join(_fmt(v) for v in a))


def ambient_pullbacks(spec: EllipsoidSpec, nu) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for the pair: push the chart point to ambient coordinates with
    exact derivatives and pull both ambient metrics back through the Jacobian.

    nu holds the chart coordinates (nu_2 .. nu_n).  The first form is J^T J,
    the induced metric; the second is J^T diag(1/a) J / eta with
    eta = sum_k (x_k / a_k)^2, the weighted companion.  Independent of the
    closed-form chart entries.
    """
    a = np.asarray(spec.semi_axes, dtype=float)
    nu = np.asarray(nu, dtype=float)
    cells = [0.0] + dsl.dual1_seeds(nu)
    xs = elliptic_to_cartesian(spec, cells)
    J = np.array([[x.grad.get(k, 0.0) for k in range(nu.size)] for x in xs])  # rows d x_k / d nu
    vals = np.array([x.value for x in xs])
    g = J.T @ J
    eta = float(np.sum((vals / a) ** 2))
    gbar = J.T @ np.diag(1.0 / a) @ J / eta
    return g, gbar


# ---------------------------------------------------------------------------
# flat and round trivial pairs


def euclidean_pair(n: int) -> MetricPair:
    """The flat metric paired with itself; every quotient check degenerates
    to its fixed point here, which makes it a good null case."""
    if n < 1:
        raise ValueError("dimension must be positive")
    chart = Chart(
        tuple(f"x{i+1}" for i in range(n)),
        sample_box=tuple((-1.0, 1.0) for _ in range(n)),
    )
    diag = [Lit(1.0) for _ in range(n)]
    g = MetricField.from_diagonal(chart, diag)
    gbar = MetricField.from_diagonal(chart, diag)
    return MetricPair(g, gbar, pair_id=f"euclidean:{n}")


def sphere_pair() -> MetricPair:
    """Round 2-sphere in polar coordinates, paired with itself; the chart
    excludes neighbourhoods of the poles where the metric degenerates."""
    names = ("th", "ph")
    lo, hi = 0.2, np.pi - 0.2
    factors = (Sub(Var("th"), Lit(lo)), Sub(Lit(hi), Var("th")))
    chart = Chart(names, domain=factors,
                  sample_box=((0.4, np.pi - 0.4), (-2.0, 2.0)))
    diag = [Lit(1.0), Mul(Call("sin", Var("th")), Call("sin", Var("th")))]
    g = MetricField.from_diagonal(chart, diag)
    gbar = MetricField.from_diagonal(chart, diag)
    return MetricPair(g, gbar, pair_id="sphere")


# ---------------------------------------------------------------------------
# normal-form demos


def battery() -> dict[str, LCSpec]:
    """Named normal-form specs covering block layouts up to dimension four."""
    return {
        "m1n2": LCSpec(sizes=(2,), phi=("2",)),
        "m2n2": LCSpec(
            sizes=(1, 1),
            phi=("1 + 0.3*sin(x1)", "2 + 0.3*cos(x2)"),
        ),
        "m2n3": LCSpec(
            sizes=(2, 1),
            phi=("1", "2 + 0.3*sin(x3)"),
            blocks=(
                (
                    ("1 + 0.2*x2^2", "0.1*x1*x2"),
                    ("0", "1 + 0.1*x1^2"),
                ),
                (("1",),),
            ),
        ),
        "m3n3": LCSpec(
            sizes=(1, 1, 1),
            phi=("1 + 0.25*sin(x1)", "2 + 0.25*cos(x2)", "3 + 0.25*sin(x3)"),
        ),
        "m3n4": LCSpec(
            sizes=(2, 1, 1),
            phi=("1", "2 + 0.3*sin(x3)", "3 + 0.3*cos(x4)"),
            blocks=(
                (
                    ("1 + 0.15*x2^2", "0"),
                    ("0", "1 + 0.15*x1^2"),
                ),
                (("1",),),
                (("1",),),
            ),
        ),
    }


def demo_pair(key: str) -> LCPair:
    specs = battery()
    if key not in specs:
        raise KeyError(f"unknown demo key {key!r}; have {sorted(specs)}")
    return build_pair(specs[key], pair_id=f"lc-demo:{key}")


# ---------------------------------------------------------------------------
# falsification pairs


def falsification_pair(kind: str, amplitude: float | None = None) -> MetricPair:
    """Pairs that deliberately break geodesic equivalence.

    perturbed-lc       a valid normal-form pair whose second metric is scaled
                       by (1 + amplitude sin(x1 x2)), destroying the shared
                       geodesics while keeping both metrics Riemannian.
                       Default amplitude 0.1.
    random-conformal   flat g with gbar = exp(amplitude x1) g; nonconstant
                       conformal rescaling is never geodesic-preserving in
                       dimension two or higher.  Default amplitude 1.

    Amplitude 0 is allowed as a continuity control: it reproduces the
    unbroken equivalent pair.
    """
    if amplitude is None:
        amplitude = 1.0 if kind == "random-conformal" else 0.1
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    if kind == "perturbed-lc":
        base = build_pair(battery()["m2n2"], pair_id="base")
        chart = base.chart
        bump = Add(
            Lit(1.0),
            Mul(Lit(float(amplitude)), Call("sin", Mul(Var("x1"), Var("x2")))),
        )
        n = base.dim
        upper = [
            [Mul(bump, base.pair.gbar.entry(i, j)) for j in range(i, n)]
            for i in range(n)
        ]
        gbar = MetricField(chart, upper)
        return MetricPair(base.pair.g, gbar, pair_id=f"falsify:perturbed-lc:{_fmt(amplitude)}")
    if kind == "random-conformal":
        chart = Chart(("x1", "x2"), sample_box=((-1.0, 1.0), (-1.0, 1.0)))
        one = Lit(1.0)
        factor = Call("exp", Mul(Lit(float(amplitude)), Var("x1")))
        g = MetricField.from_diagonal(chart, [one, one])
        gbar = MetricField.from_diagonal(chart, [factor, factor])
        return MetricPair(g, gbar, pair_id=f"falsify:random-conformal:{_fmt(amplitude)}")
    raise KeyError(f"unknown falsification kind {kind!r}")


# ---------------------------------------------------------------------------
# name resolution for the command line


def _fmt(v: float) -> str:
    return f"{v:g}"


def resolve_pair(name: str) -> MetricPair:
    """Map a catalog name to a metric pair.

    Recognised forms: "ellipsoid:1,2,3", "euclidean:2", "sphere",
    "lc-demo:m2n3", "lc:<path to a normal-form JSON config>",
    "falsify:perturbed-lc:0.05".
    """
    if name == "sphere":
        return sphere_pair()
    head, _, rest = name.partition(":")
    if head == "lc":
        with open(rest) as fh:
            doc = json.load(fh)
        return build_pair(lcspec_from_json(doc), pair_id=name).pair
    if head == "ellipsoid":
        try:
            axes = tuple(float(v) for v in rest.split(","))
        except ValueError:
            raise ValueError(f"bad semi-axis list in {name!r}")
        return ellipsoid_pair(EllipsoidSpec(axes))
    if head == "euclidean":
        return euclidean_pair(int(rest))
    if head == "lc-demo":
        return demo_pair(rest).pair
    if head == "falsify":
        kind, _, amp = rest.partition(":")
        return falsification_pair(kind, float(amp) if amp else None)
    raise KeyError(f"unknown catalog pair {name!r}")
