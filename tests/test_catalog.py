"""Built-in pairs: the confocal-coordinate ellipsoid pair with its ambient
pullback oracle, the flat and sphere sanity pairs, the falsification pairs,
and name resolution.

The ambient oracle differentiates the coordinate map into Euclidean space and
pulls both ambient metrics back by hand; the chart-level closed forms must
agree with it.
"""

import json

import numpy as np
import pytest

from geodequiv.catalog import (
    EllipsoidSpec,
    ambient_pullbacks,
    constraint_residual,
    elliptic_to_cartesian,
    ellipsoid_pair,
    euclidean_pair,
    falsification_pair,
    resolve_pair,
    sphere_pair,
)
from geodequiv.cli import sample_phase_points
from geodequiv.geometry import GeodesicOptions, integrate_geodesic
from geodequiv.hamilton import conservation_drift
from geodequiv.integrals import eigen_profile, integral_phase_function


def sample_cells(spec, count, seed=0):
    """Admissible interior coordinate tuples (the fixed zero slot included)."""
    rng = np.random.default_rng(seed)
    a = np.array(spec.semi_axes)
    lo = np.concatenate([[0.0], a[:-1]])
    hi = a
    out = []
    for _ in range(count):
        u = rng.uniform(0.15, 0.85, size=len(a))
        cells = lo + u * (hi - lo)
        cells[0] = 0.0
        out.append(cells)
    return out


# ---------------------------------------------------------------------------
# coordinate map


def test_frozen_coordinates_two_axes():
    spec = EllipsoidSpec((1.0, 4.0))
    x = elliptic_to_cartesian(spec, [0.0, 2.0])
    assert x[0] == pytest.approx(np.sqrt(1.0 / 3.0), rel=1e-15)
    assert x[1] == pytest.approx(np.sqrt(8.0 / 3.0), rel=1e-15)
    assert constraint_residual(spec, [0.0, 2.0]) <= 1e-15


def test_coordinate_plane_limit():
    spec = EllipsoidSpec((1.0, 4.0))
    x = elliptic_to_cartesian(spec, [0.0, 1.0 + 1e-12])
    assert x[0] <= 1e-6
    assert x[0] > 0


def test_constraint_residual_random_three_axes():
    spec = EllipsoidSpec((1.0, 2.0, 3.0))
    for cells in sample_cells(spec, 100, seed=1):
        assert constraint_residual(spec, cells) <= 1e-12


def test_coordinate_validation():
    spec = EllipsoidSpec((1.0, 4.0))
    with pytest.raises(ValueError):
        elliptic_to_cartesian(spec, [0.5, 2.0])  # first slot must stay zero
    with pytest.raises(ValueError):
        elliptic_to_cartesian(spec, [0.0, 5.0])  # outside the band
    with pytest.raises(ValueError):
        EllipsoidSpec((2.0, 1.0))  # axes must increase
    with pytest.raises(ValueError):
        EllipsoidSpec((1.0,))  # need at least two axes


# ---------------------------------------------------------------------------
# metric displays against the ambient pullback


def test_metric_entries_match_ambient_pullbacks():
    spec = EllipsoidSpec((1.0, 2.0, 3.0))
    pair = ellipsoid_pair(spec)
    for cells in sample_cells(spec, 20, seed=2):
        nu = cells[1:]
        g_o, gb_o = ambient_pullbacks(spec, nu)
        g_c = pair.g.values(nu)
        gb_c = pair.gbar.values(nu)
        assert np.allclose(g_c, g_o, rtol=1e-8, atol=1e-12)
        assert np.allclose(gb_c, gb_o, rtol=1e-8, atol=1e-12)


def test_metric_entries_match_ambient_pullbacks_four_axes():
    spec = EllipsoidSpec((0.5, 1.5, 2.5, 4.0))
    pair = ellipsoid_pair(spec)
    for cells in sample_cells(spec, 10, seed=3):
        nu = cells[1:]
        g_o, gb_o = ambient_pullbacks(spec, nu)
        assert np.allclose(pair.g.values(nu), g_o, rtol=1e-8, atol=1e-12)
        assert np.allclose(pair.gbar.values(nu), gb_o, rtol=1e-8, atol=1e-12)


def test_transfer_eigenvalues_are_fully_distinct():
    spec = EllipsoidSpec((1.0, 2.0, 3.0))
    pair = ellipsoid_pair(spec)
    for cells in sample_cells(spec, 10, seed=4):
        prof = eigen_profile(pair, cells[1:])
        assert prof.m == pair.dim
        assert prof.strictly_nonproportional
        # eigenvalues in closed form: (prod a) / (nu_i prod_chart nu_j)
        nu = cells[1:]
        want = np.sort(np.prod(spec.semi_axes) / (nu * np.prod(nu)))
        assert np.allclose(np.sort(prof.values), want, rtol=1e-8)


# ---------------------------------------------------------------------------
# flat and sphere sanity pairs


def test_euclidean_pair_dimensions():
    pair = euclidean_pair(3)
    assert pair.dim == 3
    assert np.array_equal(pair.g.values([0.1, 0.2, 0.3]), np.eye(3))


def test_sphere_pair_has_domain_guard():
    pair = sphere_pair()
    assert pair.chart.domain is not None
    assert pair.chart.contains([1.0, 0.0])
    assert not pair.chart.contains([0.05, 0.0])


# ---------------------------------------------------------------------------
# falsification pairs


def test_amplitude_zero_is_a_continuity_control():
    pair = falsification_pair("perturbed-lc", amplitude=0.0)
    rng = np.random.default_rng(5)
    xs, xis = sample_phase_points(pair, 1, rng)
    traj = integrate_geodesic(pair.g, xs[0], xis[0], 5.0, GeodesicOptions(rtol=1e-10, atol=1e-10))
    F = integral_phase_function(pair, 0)
    assert conservation_drift(F.value_batch(traj.xs, traj.xis)) <= 1e-6


def test_conformal_amplitude_zero_is_identity_pair():
    pair = falsification_pair("random-conformal", amplitude=0.0)
    x = [0.3, -0.4]
    assert np.allclose(pair.g.values(x), pair.gbar.values(x), atol=1e-15)


def test_default_amplitudes():
    assert falsification_pair("perturbed-lc").pair_id.endswith(":0.1")
    assert falsification_pair("random-conformal").pair_id.endswith(":1")
    with pytest.raises(KeyError):
        falsification_pair("no-such-kind")


# ---------------------------------------------------------------------------
# name resolution


def test_resolve_known_names():
    assert resolve_pair("sphere").pair_id == "sphere"
    assert resolve_pair("euclidean:3").dim == 3
    assert resolve_pair("ellipsoid:1,2,3").dim == 2
    assert resolve_pair("lc-demo:m2n3").dim == 3
    assert resolve_pair("falsify:perturbed-lc:0.05").pair_id == "falsify:perturbed-lc:0.05"


def test_resolve_normal_form_config(tmp_path):
    doc = {"sizes": [1, 1], "phi": ["1 + 0.2*sin(x1)", "2"]}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    pair = resolve_pair(f"lc:{path}")
    assert pair.dim == 2


def test_resolve_unknown_name():
    with pytest.raises(KeyError):
        resolve_pair("torus")
    with pytest.raises(ValueError):
        resolve_pair("ellipsoid:3,2,1")
