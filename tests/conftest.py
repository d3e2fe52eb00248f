"""Shared fixtures: the standard pair battery, cached geodesics, and seeded
phase-point samples.  Everything heavy is session-scoped so the acceptance
module and the unit modules share one set of integrations."""

from __future__ import annotations

from dataclasses import fields, replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from geodequiv import (
    GeodesicOptions,
    integrate_geodesic,
    resolve_pair,
)
from geodequiv.catalog import battery
from geodequiv.cli import pair_from_inline, sample_phase_points
from geodequiv.dsl import Add, Expression, Lit, Mul, Var
from geodequiv.levicivita import build_pair

settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# the equivalent pairs every flow-level check runs on: the curved benchmark
# plus three normal-form pairs, two of which carry a size-2 block
EQUIV_PAIR_NAMES = (
    "ellipsoid:1,2,3",
    "lc-demo:m2n2",
    "lc-demo:m2n3",
    "lc-demo:m3n4",
)

# every catalog pair: each block of dual and canonical passes, and the
# geodesic right-hand side, is checked on all of them
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

GEODESIC_SEED = 101
PHASE_SEED = 202
T_END = 5.0


@pytest.fixture(scope="session")
def equiv_pairs():
    return {name: resolve_pair(name) for name in EQUIV_PAIR_NAMES}


@pytest.fixture(scope="session")
def battery_pairs():
    return {key: build_pair(spec, pair_id=f"lc-demo:{key}") for key, spec in battery().items()}


@pytest.fixture(scope="session")
def geodesic_sets(equiv_pairs):
    """20 seeded unit-speed geodesics per equivalent pair at integrator
    tolerance 1e-10, integrated as one lockstep stack per pair.  The energy self-check runs at 1e-7: the RK45 scheme
    legitimately accumulates ~1e-8 relative energy error near chart walls,
    and the conservation checks judge drift themselves."""
    opts = GeodesicOptions(tol=1e-10, energy_tol=1e-7)
    out = {}
    for name, pair in equiv_pairs.items():
        rng = np.random.default_rng(GEODESIC_SEED)
        xs, xis = sample_phase_points(pair, 20, rng)
        out[name] = integrate_geodesic(pair.g, xs, xis, T_END, opts)
    return out


@pytest.fixture(scope="session")
def phase_sets(equiv_pairs):
    """100 seeded phase points per equivalent pair as (xs, xis) arrays, unit
    g-norm directions."""
    out = {}
    for name, pair in equiv_pairs.items():
        rng = np.random.default_rng(PHASE_SEED)
        out[name] = sample_phase_points(pair, 100, rng)
    return out


def substitute(e: Expression, env: dict) -> Expression:
    """e with every variable replaced by its expression in env."""
    if isinstance(e, Var):
        return env[e.name]
    kids = {f.name: substitute(getattr(e, f.name), env) for f in fields(e)
            if isinstance(getattr(e, f.name), Expression)}
    return replace(e, **kids) if kids else e


def dense_pullback(name: str, seed: int = 7) -> tuple[dict, np.ndarray]:
    """The catalog pair `name` under the linear change of coordinates
    x = A y, A = I + 0.25 R with R standard normal, as an inline pair
    document, and A.

    Both metrics become dense: g'_ij(y) = sum_ab A_ai A_bj g_ab(A y), written
    through the expression printer.  The sample box [-s, s]^n, with
    s = 1 / max_i sum_j |A_ij|, maps into the catalog's [-1, 1]^n.  The
    operator G of the pair becomes A^-1 G A, which does not commute with the
    pulled-back gbar, unlike on every catalog pair.
    """
    pair = resolve_pair(name)
    n = pair.dim
    A = np.eye(n) + 0.25 * np.random.default_rng(seed).standard_normal((n, n))
    s = float(1.0 / np.max(np.sum(np.abs(A), axis=1)))
    ys = [f"y{i + 1}" for i in range(n)]
    env = {x: reduce(Add, [Mul(Lit(float(A[a, b])), Var(y)) for b, y in enumerate(ys)])
           for a, x in enumerate(pair.chart.names)}
    doc = {"id": f"dense:{name}", "coordinates": ys, "box": [[-s, s]] * n}
    for tag, metric in (("g", pair.g), ("gbar", pair.gbar)):
        for i in range(n):
            for j in range(i, n):
                terms = [Mul(Lit(float(A[a, i] * A[b, j])), substitute(metric.entry(a, b), env))
                         for a in range(n) for b in range(n) if metric.entry(a, b) != Lit(0.0)]
                doc[f"{tag}[{i + 1}][{j + 1}]"] = str(reduce(Add, terms))
    return doc, A


# the dense pullbacks that the contraction checks run on besides PAIRS
DENSE_PAIRS = tuple(f"dense:{name}" for name in (
    "lc-demo:m2n2", "lc-demo:m2n3", "lc-demo:m3n4", "falsify:perturbed-lc"))


def resolve_test_pair(name: str):
    """A catalog pair, or for "dense:<catalog name>" its dense pullback."""
    if name.startswith("dense:"):
        return pair_from_inline(dense_pullback(name[len("dense:"):])[0])
    return resolve_pair(name)


def report_line(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}  {detail}")
