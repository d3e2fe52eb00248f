"""Normal-form pair construction: block validation, the closed-form conserved
quantities, the quotient-family decomposition, and the shifted-metric family.

The decomposition identity is the module's primary correctness statement: the
integral family of the built pair must match the predicted combination of the
closed-form quantities at every phase point.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from geodequiv import GeodesicOptions, integrate_geodesic
from geodequiv.cli import sample_phase_points
from geodequiv.dsl import scalar_value
from geodequiv.hamilton import conservation_drift
from geodequiv.integrals import MetricPair, integrals_at, involution_matrix
from geodequiv.levicivita import (
    LCSpec,
    build_pair,
    elementary_symmetric,
    lcspec_from_json,
    pi_values,
)


# ---------------------------------------------------------------------------
# small algebra helpers


def test_elementary_symmetric_base_cases():
    assert elementary_symmetric([4.0, 9.0, 2.0], 0) == 1.0
    assert elementary_symmetric([1.0, 2.0, 3.0], 2) == 11.0
    assert elementary_symmetric([1.0, 2.0], 3) == 0.0


@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=6))
def test_elementary_symmetric_matches_polynomial_expansion(vals):
    # prod (t + v_i) = sum_k sigma_k t^(m-k)
    coeffs = np.poly([-v for v in vals])  # descending, monic
    for k in range(len(vals) + 1):
        assert elementary_symmetric(vals, k) == pytest.approx(
            coeffs[k], rel=1e-12, abs=1e-12
        )


def test_pi_values_cases():
    assert [float(v) for v in pi_values([5.0])] == [1.0]
    assert [float(v) for v in pi_values([1.0, 2.0])] == [1.0, 1.0]
    assert [float(v) for v in pi_values([1.0, 2.0, 4.0])] == [3.0, 2.0, 6.0]


def test_rho_values_match_their_formula():
    spec = LCSpec(sizes=(1, 1, 1), phi=("1 + 0.2*sin(x1)", "2", "4 + 0.1*x3"))
    lc = build_pair(spec)
    x = np.array([0.3, -0.2, 0.5])
    phis = np.array([1.0 + 0.2 * np.sin(0.3), 2.0, 4.05])
    # rho_i = 1 / (phi_1 ... phi_m phi_i)
    assert np.allclose(lc.rho_values(x), 1.0 / (np.prod(phis) * phis), rtol=1e-12)


# ---------------------------------------------------------------------------
# construction and validation


def test_single_block_constant_weight_gives_identity_pair():
    lc = build_pair(LCSpec(sizes=(2,), phi=("1",)))
    x = [0.4, -0.7]
    assert np.allclose(lc.pair.g.values(x), np.eye(2), atol=1e-15)
    assert np.allclose(lc.pair.gbar.values(x), np.eye(2), atol=1e-15)
    assert np.allclose(lc.rho_values(np.asarray(x)), [1.0], atol=1e-15)


def test_weights_must_increase():
    with pytest.raises(ValueError):
        build_pair(LCSpec(sizes=(1, 1), phi=("2", "1")))


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        build_pair(LCSpec(sizes=(1, 1), phi=("-1", "2")))


def test_blockwise_weight_variable_restrictions():
    with pytest.raises(ValueError):
        # a size-2 block demands a constant weight
        build_pair(LCSpec(sizes=(2, 1), phi=("1 + 0.1*sin(x1)", "3")))
    with pytest.raises(ValueError):
        # a size-1 weight may only depend on its own coordinate
        build_pair(LCSpec(sizes=(1, 1), phi=("1 + 0.1*sin(x2)", "3")))


def test_block_entries_restricted_to_block_coordinates():
    with pytest.raises(ValueError):
        build_pair(
            LCSpec(
                sizes=(2, 1),
                phi=("1", "2"),
                blocks=((("1 + x3^2", "0"), ("0", "1")), (("1",),)),
            )
        )


def test_spec_shape_validation():
    with pytest.raises(ValueError):
        LCSpec(sizes=(1, 1), phi=("1",))
    with pytest.raises(ValueError):
        LCSpec(sizes=(), phi=())
    with pytest.raises(ValueError):
        LCSpec(sizes=(0, 2), phi=("1", "2"))


def test_lcspec_from_json_round_trip_and_errors():
    doc = {
        "sizes": [2, 1],
        "phi": ["1", "2 + 0.3*sin(x3)"],
        "blocks": [[["1 + 0.2*x2^2", "0.1*x1*x2"], ["0", "1 + 0.1*x1^2"]], None],
        "box": [[-1, 1], [-1, 1], [-1, 1]],
    }
    spec = lcspec_from_json(doc)
    assert spec.sizes == (2, 1)
    assert spec.blocks[1] is None or spec.blocks[1] == (("1",),)
    built = build_pair(spec)
    assert built.dim == 3
    with pytest.raises(ValueError):
        lcspec_from_json({"sizes": [1], "phi": ["1"], "bogus": 1})
    with pytest.raises(ValueError):
        lcspec_from_json({"phi": ["1"]})
    with pytest.raises(ValueError):
        lcspec_from_json([1, 2])
    # values of the wrong JSON type are refused, not coerced
    for bad, message in [({"box": [[True, 2], [-1, 1]]}, r"box\[\] must"),
                         ({"box": [["0", "1"], [-1, 1]]}, r"box\[\] must"),
                         ({"phi": [1, 2]}, r"phi\[\] must"),
                         ({"blocks": [[[1]], None]}, r"blocks\[\] cells must")]:
        with pytest.raises(ValueError, match=message):
            lcspec_from_json({"sizes": [1, 1], "phi": ["1", "2"], **bad})


# ---------------------------------------------------------------------------
# closed-form conserved quantities


def test_first_linear_integral_is_energy(battery_pairs):
    for key in ("m2n2", "m2n3", "m3n4"):
        lc = battery_pairs[key]
        L1 = lc.linear_integrals()[0]
        rng = np.random.default_rng(5)
        xs, xis = sample_phase_points(lc.pair, 5, rng)
        gxx = lc.pair.g.norm(xs, xis) ** 2
        assert L1.value_batch(xs, xis) == pytest.approx(gxx, rel=1e-12)


def test_second_linear_integral_formula_m2():
    spec = LCSpec(sizes=(1, 1), phi=("1", "2"))
    lc = build_pair(spec)
    L2 = lc.linear_integrals()[1]
    # with two singleton blocks: L_2 = phi_2 Pi_1 A_1 + phi_1 Pi_2 A_2
    pis = [float(scalar_value(v)) for v in pi_values([1.0, 2.0])]
    want = 2.0 * pis[0] * 0.7**2 + 1.0 * pis[1] * 0.4**2
    assert L2.value_batch([[0.2, -0.3]], [[0.7, 0.4]])[0] == pytest.approx(want, rel=1e-13)


def test_linear_integrals_conserved_and_commuting(battery_pairs):
    lc = battery_pairs["m2n2"]
    fns = lc.linear_integrals()
    rng = np.random.default_rng(7)
    xs, xis = sample_phase_points(lc.pair, 4, rng)
    for traj in integrate_geodesic(lc.pair.g, xs, xis, 5.0, GeodesicOptions(tol=1e-10)):
        for L in fns:
            assert conservation_drift(L.value_batch(traj.xs, traj.xis)) <= 1e-6
    jac = np.stack([L.grad_batch(xs, xis) for L in fns], axis=1)
    mat = involution_matrix(jac, lc.pair.g, xs, xis)
    assert np.max(mat) <= 1e-8


# ---------------------------------------------------------------------------
# decomposition of the quotient family


def test_decomposition_coefficients_structure(battery_pairs):
    lc = battery_pairs["m2n3"]  # blocks (2, 1): one size-2 block
    C0, B = lc.decompose(0, [0.2, -0.1, 0.4])
    assert len(B) == lc.dim - lc.spec.block_count + 1
    assert B[0] == 1.0


def test_predicted_matches_integrals_on_battery(battery_pairs):
    for key, lc in battery_pairs.items():
        rng = np.random.default_rng(11)
        xs, xis = sample_phase_points(lc.pair, 10, rng)
        for x, xi, Ik in zip(xs, xis, integrals_at(lc.pair, xs, xis)):
            for k in range(lc.dim):
                want = lc.predicted_integral(k, x, xi)
                assert Ik[k] == pytest.approx(want, rel=1e-9, abs=1e-11), (key, k)


def test_degenerate_all_singletons_alternating_signs(battery_pairs):
    """With every block of size one the combination collapses to a single
    term: (-1)^n I_k = (-1)^k L_{m-k}.  The overall (-1)^n comes from the
    leading-coefficient convention that makes the top integral exactly minus
    the energy in every dimension."""
    for key in ("m2n2", "m3n3"):
        lc = battery_pairs[key]
        n = lc.dim
        m = lc.spec.block_count
        fns = lc.linear_integrals()
        rng = np.random.default_rng(13)
        xs, xis = sample_phase_points(lc.pair, 5, rng)
        Ik = integrals_at(lc.pair, xs, xis)
        for k in range(lc.dim):
            want = (-1.0) ** (n + k) * fns[m - k - 1].value_batch(xs, xis)
            assert Ik[:, k] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# the shifted-metric family


def test_shift_zero_reproduces_second_metric(battery_pairs):
    lc = battery_pairs["m2n2"]
    g0 = lc.gc_metric(0.0)
    rng = np.random.default_rng(17)
    xs = lc.chart.box_points(10, rng)
    for x in xs:
        assert np.array_equal(g0.values(x), lc.pair.gbar.values(x))


def test_shift_large_approaches_first_metric(battery_pairs):
    lc = battery_pairs["m2n2"]
    c = 1e6
    gc = lc.gc_metric(c)
    m = lc.spec.block_count
    rng = np.random.default_rng(19)
    for x in lc.chart.box_points(5, rng):
        scaled = gc.values(x) * c ** (m + 1)
        assert np.allclose(scaled, lc.pair.g.values(x), rtol=1e-4)


def test_shifted_pairs_stay_equivalent(battery_pairs):
    lc = battery_pairs["m2n2"]
    rng = np.random.default_rng(23)
    xs, xis = sample_phase_points(lc.pair, 3, rng)
    trajs = integrate_geodesic(lc.pair.g, xs, xis, 5.0, GeodesicOptions(tol=1e-10))
    for c in (0.5, 1.0, 2.0):
        pair_c = MetricPair(lc.pair.g, lc.gc_metric(c), pair_id=f"shift:{c}")
        for traj in trajs:
            Ik = integrals_at(pair_c, traj.xs, traj.xis)
            drift = np.max(
                np.abs(Ik - Ik[0]) / np.maximum(np.abs(Ik[0]), 1e-12), axis=0
            )
            assert np.max(drift) <= 1e-6, c
