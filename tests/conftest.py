"""Shared fixtures: the standard pair battery, cached geodesics, and seeded
phase-point samples.  Everything heavy is session-scoped so the acceptance
module and the unit modules share one set of integrations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from geodequiv import (
    GeodesicOptions,
    battery,
    build_pair,
    integrate_geodesic,
    resolve_pair,
)
from geodequiv.cli import sample_phase_points

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
    tolerance 1e-10.  The energy self-check runs at 1e-7: the RK45 scheme
    legitimately accumulates ~1e-8 relative energy error near chart walls,
    and the conservation checks judge drift themselves."""
    opts = GeodesicOptions(tol=1e-10, energy_tol=1e-7)
    out = {}
    for name, pair in equiv_pairs.items():
        rng = np.random.default_rng(GEODESIC_SEED)
        xs, xis = sample_phase_points(pair, 20, rng)
        out[name] = [integrate_geodesic(pair.g, x, xi, T_END, opts) for x, xi in zip(xs, xis)]
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


def report_line(ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}  {detail}")
