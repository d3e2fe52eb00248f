"""The checks on dense metrics: catalog pairs pulled back by a linear change
of coordinates x = A y (`conftest.dense_pullback`).

Every catalog pair is diagonal or block-diagonal with G scalar on each
block, so gbar commutes with every operator the integrals are built from.
Under x = A y it does not, and both metrics become dense.  The integrals
must be coordinate independent, the equivalent pullbacks must pass
`verify`, `factory` and `geodesic`, and the broken one must keep failing.
"""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from conftest import dense_pullback
from geodequiv import resolve_pair
from geodequiv.cli import main, pair_from_inline
from geodequiv.integrals import integrals_at


def run_on(tmp_path, name, command, *argv):
    """command on the dense pullback of name: its exit code and report."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"pair": dense_pullback(name)[0]}))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, "--config", str(config), *argv])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("name", ["lc-demo:m2n2", "lc-demo:m2n3", "lc-demo:m3n4",
                                  "falsify:perturbed-lc"])
def test_the_integrals_are_coordinate_independent(name):
    """I'_k(y, eta) = I_k(A y, A eta): the pulled-back pair's integrals are
    the catalog pair's at the image phase point."""
    doc, A = dense_pullback(name)
    dense = pair_from_inline(doc)
    rng = np.random.default_rng(3)
    ys = dense.chart.box_points(20, rng)
    etas = rng.standard_normal(ys.shape)
    got = integrals_at(dense, ys, etas)
    want = integrals_at(resolve_pair(name), ys @ A.T, etas @ A.T)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["lc-demo:m2n3", "lc-demo:m3n4"])
@pytest.mark.parametrize("command", ["verify", "factory"])
def test_a_dense_equivalent_pair_passes(tmp_path, name, command):
    code, report = run_on(tmp_path, name, command, "--trajectories", "3", "--points", "10")
    assert code == 0, report["violations"]
    assert report["pass"]


def test_dense_geodesics_coincide(tmp_path):
    code, report = run_on(tmp_path, "lc-demo:m3n4", "geodesic", "--trajectories", "2")
    assert code == 0
    assert report["curve_distance_max"] <= 1e-5


@pytest.mark.parametrize("command, violations", [
    ("verify", ["conservation", "involution"]),
    ("factory", ["factory-conservation"]),
])
def test_the_dense_broken_pair_still_fails(tmp_path, command, violations):
    code, report = run_on(tmp_path, "falsify:perturbed-lc", command,
                          "--trajectories", "3", "--points", "10")
    assert code == 1
    assert report["violations"] == violations
