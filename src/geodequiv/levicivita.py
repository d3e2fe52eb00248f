"""Block normal forms that generate geodesically equivalent metric pairs.

A normal-form pair on n coordinates is assembled from m blocks of sizes
k_1 + ... + k_m = n.  Block i carries a positive function phi_i of the
block's first coordinate (constant whenever k_i > 1) and a positive quadratic
form A_i in the block's own coordinates and velocities.  With

    Pi_i = prod_{j < i} (phi_i - phi_j) * prod_{j > i} (phi_j - phi_i),
    rho_i = 1 / (phi_1 ... phi_m * phi_i),

the pair g = sum_i Pi_i A_i and gbar = sum_i rho_i Pi_i A_i shares all
unparametrised geodesics.  The construction requires 0 < phi_1 < ... < phi_m
on the chart, which keeps every Pi_i positive and both metrics Riemannian;
this ordering is spot checked on sampled points at build time.

The same ingredients give closed-form conserved quantities

    L_k = sum_i sigma_{k-1}(phi values other than i) Pi_i A_i,  k = 1..m,

with sigma the elementary symmetric polynomials, so L_1 is the g-energy.
The quotient-family integrals of the pair decompose over the L_k with
coefficients that are explicit in the phi's; `decompose` and
`predicted_integral` implement that dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from . import dsl
from .dsl import Add, Div, Expression, Lit, Mul, Sub, eval_env, product
from .geometry import Chart, MetricField
from .hamilton import PhaseFunction
from .integrals import MetricPair


def elementary_symmetric(values: Sequence, k: int):
    """sigma_k of the given scalar-like values (sigma_0 = 1), by the usual
    one-pass recurrence."""
    if k < 0:
        raise ValueError("order must be nonnegative")
    e = [1.0] + [0.0] * k
    for v in values:
        for j in range(min(k, len(e) - 1), 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e[k]


def pi_values(phis: Sequence):
    """The block weights Pi_i = prod_{j<i}(phi_i - phi_j) prod_{j>i}(phi_j - phi_i),
    on scalar-like phi values."""
    m = len(phis)
    out = []
    for i in range(m):
        acc = 1.0
        for j in range(m):
            if j < i:
                acc = acc * (phis[i] - phis[j])
            elif j > i:
                acc = acc * (phis[j] - phis[i])
        out.append(acc)
    return out


@dataclass(frozen=True)
class LCSpec:
    """Declarative description of a normal-form pair.

    sizes   block sizes, each at least 1.
    phi     one DSL source per block, over the block's first coordinate only;
            blocks of size > 1 must use a constant.
    blocks  optional square grids of DSL sources for the quadratic forms A_i
            (lower triangles ignored); None means identity blocks.
    box     per-coordinate sampling intervals, default (-1, 1) everywhere.
    """

    sizes: tuple[int, ...]
    phi: tuple[str, ...]
    blocks: tuple[tuple[tuple[str, ...], ...], ...] | None = None
    box: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("block sizes must be positive integers")
        if len(self.phi) != len(self.sizes):
            raise ValueError("need exactly one phi per block")
        if self.blocks is not None:
            if len(self.blocks) != len(self.sizes):
                raise ValueError("need exactly one block form per block")
            for grid, s in zip(self.blocks, self.sizes):
                if len(grid) != s or any(len(row) != s for row in grid):
                    raise ValueError("block grids must be square of the block size")
        if self.box is not None and len(self.box) != self.dim:
            raise ValueError("box must give one interval per coordinate")

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    @property
    def block_count(self) -> int:
        return len(self.sizes)

    def spans(self) -> list[tuple[int, int]]:
        """(start, size) per block in coordinate order."""
        out, s = [], 0
        for k in self.sizes:
            out.append((s, k))
            s += k
        return out


def _mul_expr(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Lit) and a.value == 1.0:
        return b
    if isinstance(b, Lit) and b.value == 1.0:
        return a
    return Mul(a, b)


@dataclass(frozen=True)
class LCPair:
    """A fully parsed and validated normal-form pair.

    Built through `build_pair`; carries the metric pair plus the phi and block
    expressions needed for the closed-form integrals.
    """

    spec: LCSpec
    chart: Chart
    phi_exprs: tuple[Expression, ...]
    block_grids: tuple[tuple[tuple[Expression, ...], ...], ...]
    pair: MetricPair

    @property
    def dim(self) -> int:
        return self.spec.dim

    def phi_values(self, x_cells) -> list:
        env = eval_env(self.chart.names, x_cells)
        return [e.evaluate(env) for e in self.phi_exprs]

    def rho_values(self, x) -> np.ndarray:
        phis = np.array([dsl.scalar_value(v) for v in self.phi_values(list(np.asarray(x, dtype=float)))])
        return 1.0 / (np.prod(phis) * phis)

    def _block_quad(self, i: int, env, xi_cells):
        """A_i evaluated on the block's velocity components."""
        start, size = self.spec.spans()[i]
        grid = self.block_grids[i]
        total = 0.0
        for a in range(size):
            for b in range(size):
                total = total + grid[a][b].evaluate(env) * (xi_cells[start + a] * xi_cells[start + b])
        return total

    def linear_integrals(self) -> list[PhaseFunction]:
        """The closed-form conserved quantities L_1 .. L_m."""
        m = self.spec.block_count

        def make(k: int) -> PhaseFunction:
            def fn(x_cells, xi_cells):
                env = eval_env(self.chart.names, x_cells)
                phis = [e.evaluate(env) for e in self.phi_exprs]
                pis = pi_values(phis)
                total = 0.0
                for i in range(m):
                    others = [phis[j] for j in range(m) if j != i]
                    sigma = elementary_symmetric(others, k - 1)
                    total = total + sigma * (pis[i] * self._block_quad(i, env, xi_cells))
                return total

            return PhaseFunction(fn, self.dim)

        return [make(k) for k in range(1, m + 1)]

    def decompose(self, k: int, x) -> tuple[float, list[float]]:
        """Coefficients (C_k, [B_0..B_{n-m}]) of the quotient-integral
        decomposition at the base point x.

        C_k = (prod_l phi_l^(k_l - 1))^((k+2)/(n+1)) and B_j is the t^j
        coefficient of prod_l (1 + t/phi_l)^(k_l - 1), so only blocks of size
        above one contribute beyond B_0 = 1.
        """
        n, m = self.dim, self.spec.block_count
        if not 0 <= k <= n - 1:
            raise ValueError("integral index out of range")
        env = eval_env(self.chart.names, list(np.asarray(x, dtype=float)))
        phis = [float(dsl.scalar_value(e.evaluate(env))) for e in self.phi_exprs]
        base = 1.0
        B = np.array([1.0])
        for phi, size in zip(phis, self.spec.sizes):
            base *= phi ** (size - 1)
            B = np.convolve(B, [comb(size - 1, a) / phi**a for a in range(size)])
        C_k = base ** ((k + 2.0) / (n + 1.0))
        return C_k, [float(b) for b in B]

    def predicted_integral(self, k: int, x, xi) -> float:
        """The quotient-family integral I_k at the phase point (x, xi),
        written in the L basis:

        I_k = (-1)^(n+k) C_k sum_{j=0}^{m-1} B_{k-j} L_{m-j},

        with B indices outside [0, n-m] read as zero."""
        n, m = self.dim, self.spec.block_count
        C_k, B = self.decompose(k, x)
        xs, xis = np.asarray(x, dtype=float)[None], np.asarray(xi, dtype=float)[None]
        Ls = [float(L.value_batch(xs, xis)[0]) for L in self.linear_integrals()]
        total = 0.0
        for j in range(m):
            idx = k - j
            if 0 <= idx < len(B):
                total += B[idx] * Ls[m - j - 1]
        return (-1.0) ** (n + k) * C_k * total

    def gc_metric(self, c: float) -> MetricField:
        """The shifted metric with entries Pi_i A_i / ((phi_i + c) prod_j (phi_j + c)).

        At c = 0 this is gbar itself; as c grows, c^(m+1) times it approaches g.
        Positive definite for any c > -phi_1."""
        return _shifted_metric(self.chart, self.spec.spans(), self.phi_exprs, self.block_grids, c)


def _block_metric(chart: Chart, spans, phi_exprs, block_grids, denoms=None) -> MetricField:
    """The block-diagonal metric with blocks Pi_i A_i, each divided by
    denoms[i] when given."""
    n = chart.dim
    zero = Lit(0.0)
    grid: list[list[Expression]] = [[zero] * n for _ in range(n)]
    for i, (start, size) in enumerate(spans):
        pi_expr = _pi_expr(phi_exprs, i)
        for a in range(size):
            for b in range(a, size):
                e = _mul_expr(pi_expr, block_grids[i][a][b])
                grid[start + a][start + b] = e if denoms is None else Div(e, denoms[i])
    return MetricField(chart, [[grid[i][j] for j in range(i, n)] for i in range(n)])


def _shifted_metric(chart: Chart, spans, phi_exprs, block_grids, c: float) -> MetricField:
    """sum_i Pi_i A_i / ((phi_i + c) prod_j (phi_j + c)); gbar at c = 0."""
    shifted = [Add(e, Lit(float(c))) if c != 0.0 else e for e in phi_exprs]
    P = product(shifted)
    return _block_metric(chart, spans, phi_exprs, block_grids, [Mul(P, e) for e in shifted])


def _pi_expr(phi_exprs: Sequence[Expression], i: int) -> Expression:
    factors = []
    for j in range(len(phi_exprs)):
        if j < i:
            factors.append(Sub(phi_exprs[i], phi_exprs[j]))
        elif j > i:
            factors.append(Sub(phi_exprs[j], phi_exprs[i]))
    return product(factors)


def build_pair(spec: LCSpec, pair_id: str = "lc") -> LCPair:
    """Parse a spec into a metric pair, validating block shapes, the phi
    ordering and positive definiteness on 32 sampled points."""
    n = spec.dim
    names = tuple(f"x{i+1}" for i in range(n))
    box = spec.box if spec.box is not None else tuple((-1.0, 1.0) for _ in range(n))
    chart = Chart(names, domain=None, sample_box=box)
    spans = spec.spans()

    phi_exprs = []
    for i, ((start, size), src) in enumerate(zip(spans, spec.phi)):
        e = chart.parse(src)
        allowed = {names[start]} if size == 1 else set()
        if not e.variables() <= allowed:
            if size > 1:
                raise ValueError(f"phi[{i}] must be constant (its block has size {size})")
            raise ValueError(f"phi[{i}] may only depend on {names[start]}")
        phi_exprs.append(e)

    block_grids = []
    for i, (start, size) in enumerate(spans):
        grid = [[None] * size for _ in range(size)]
        block_names = set(names[start:start + size])
        for a in range(size):
            for b in range(a, size):
                if spec.blocks is None:
                    e = Lit(1.0) if a == b else Lit(0.0)
                else:
                    e = chart.parse(spec.blocks[i][a][b])
                    if not e.variables() <= block_names:
                        raise ValueError(
                            f"block {i} entry ({a},{b}) may only depend on {sorted(block_names)}"
                        )
                grid[a][b] = grid[b][a] = e
        block_grids.append(tuple(map(tuple, grid)))

    g = _block_metric(chart, spans, phi_exprs, block_grids)
    gbar = _shifted_metric(chart, spans, phi_exprs, block_grids, 0.0)
    pair = MetricPair(g, gbar, pair_id=pair_id)
    built = LCPair(spec, chart, tuple(phi_exprs), tuple(block_grids), pair)

    xs = chart.box_points(32, np.random.default_rng(0))
    table = np.column_stack([np.broadcast_to(v, len(xs)) for v in built.phi_values(list(xs.T))])
    for x, phis in zip(xs, table.tolist()):
        if phis[0] <= 0.0 or any(hi <= lo for lo, hi in zip(phis, phis[1:])):
            raise ValueError(
                f"phi values must be positive and strictly increasing; got {phis} at {x.tolist()}"
            )
    pair.check_positive_definite()
    return built


def lcspec_from_json(doc: dict) -> LCSpec:
    """Build an LCSpec from its JSON form: keys sizes[], phi[], and the
    optional blocks[] (null entries mean identity) and box[]."""
    if not isinstance(doc, dict):
        raise ValueError("normal-form config must be a JSON object")
    unknown = set(doc) - {"sizes", "phi", "blocks", "box"}
    if unknown:
        raise ValueError(f"unknown normal-form config keys: {sorted(unknown)}")
    try:
        sizes = tuple(doc["sizes"])
        phi = tuple(str(p) for p in doc["phi"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"normal-form config needs sizes[] and phi[]: {exc}")
    if any(type(s) is not int for s in sizes):
        raise ValueError(f"normal-form config: sizes[] must hold integers, not {list(sizes)}")
    blocks = None
    if doc.get("blocks") is not None:
        grids = []
        try:
            for grid, size in zip(doc["blocks"], sizes):
                if grid is None:
                    grid = [["1" if i == j else "0" for j in range(size)] for i in range(size)]
                grids.append(tuple(tuple(str(e) for e in row) for row in grid))
        except TypeError:
            raise ValueError("normal-form config: blocks[] must hold square grids or null")
        blocks = tuple(grids)
    box = None
    if doc.get("box") is not None:
        try:
            box = tuple((float(lo), float(hi)) for lo, hi in doc["box"])
        except (TypeError, ValueError):
            raise ValueError("normal-form config: box[] must hold [lo, hi] pairs")
    return LCSpec(sizes=sizes, phi=phi, blocks=blocks, box=box)
