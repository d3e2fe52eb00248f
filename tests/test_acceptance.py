"""End-to-end acceptance battery.

Eleven independent checks, each printing one PASS/FAIL line: conservation and
involution of the quotient integral family, the energy identity, the division
factory (pointwise remainder, closed-form cross-check via conservation),
Pfaffian and rank-one determinant identities, geodesic coincidence with a
falsification control, the ellipsoid chart against ambient pullbacks, the
normal-form decomposition, the 2D discriminator, and functional independence.

Heavy inputs (20 geodesics and 100 phase points per equivalent pair) come from
the session fixtures in conftest.
"""

import numpy as np

from geodequiv import (
    EllipsoidSpec,
    GeodesicOptions,
    ambient_pullbacks,
    eigen_profile,
    ellipsoid_pair,
    geodesic_coincidence,
    independence_rank,
    integrals_at,
    integrals_jacobian,
    integrate_geodesic,
    involution_matrix,
    resolve_pair,
)
from geodequiv.cli import sample_phase_points
from geodequiv.factory import factory_integrals, pfaffian, rank_one_delta

from conftest import EQUIV_PAIR_NAMES, report_line

COINCIDENCE_SEED = 303
DECOMP_SEED = 505
RANK_SEED = 606


def family_drift(pair, traj, step=1):
    """Per-integral relative drift of I_0..I_{n-1} along one trajectory."""
    idx = np.arange(0, len(traj.ts), step)
    vals = integrals_at(pair, traj.xs[idx], traj.xis[idx])
    return np.max(np.abs(vals - vals[0]), axis=0) / np.maximum(np.abs(vals[0]), 1e-12)


def test_01_integrals_conserved_along_geodesics(equiv_pairs, geodesic_sets):
    worst = 0.0
    for name in EQUIV_PAIR_NAMES:
        pair = equiv_pairs[name]
        for traj in geodesic_sets[name]:
            worst = max(worst, float(np.max(family_drift(pair, traj))))
    ok = worst <= 1e-6
    report_line(ok, "conservation", f"max relative drift {worst:.3e} (tol 1e-06)")
    assert ok


def test_02_integrals_pairwise_commute(equiv_pairs, phase_sets):
    worst = 0.0
    for name in EQUIV_PAIR_NAMES:
        pair, (xs, xis) = equiv_pairs[name], phase_sets[name]
        mat = involution_matrix(integrals_jacobian(pair, xs, xis), pair.g, xs, xis)
        assert np.all(np.diag(mat) == 0.0)
        off = mat[~np.eye(mat.shape[0], dtype=bool)]
        if off.size:
            worst = max(worst, float(np.max(off)))
    ok = worst <= 1e-8
    report_line(ok, "involution", f"max normalized bracket {worst:.3e} (tol 1e-08)")
    assert ok


def test_03_top_integral_is_minus_energy(equiv_pairs, phase_sets):
    worst = 0.0
    for name in EQUIV_PAIR_NAMES:
        pair = equiv_pairs[name]
        xs, xis = phase_sets[name]
        vals = integrals_at(pair, xs, xis)
        for x, xi, row in zip(xs, xis, vals):
            energy = float(xi @ pair.g.values(x) @ xi)
            rel = abs(row[-1] + energy) / max(abs(energy), 1e-12)
            worst = max(worst, rel)
    ok = worst <= 1e-10
    report_line(ok, "energy-identity", f"max relative residual {worst:.3e} (tol 1e-10)")
    assert ok


def test_04_factory_divides_and_conserves(equiv_pairs, phase_sets, geodesic_sets):
    worst_rem = 0.0
    for name in EQUIV_PAIR_NAMES:
        pair = equiv_pairs[name]
        fi = factory_integrals(pair, *phase_sets[name])
        for coeffs, remainder in zip(fi.coeffs, fi.remainder):
            scale = float(np.linalg.norm(coeffs))
            worst_rem = max(worst_rem, abs(remainder) / scale)

    worst_drift = 0.0
    for name in EQUIV_PAIR_NAMES:
        pair = equiv_pairs[name]
        for traj in geodesic_sets[name]:
            step = max(1, len(traj) // 26)
            cs = factory_integrals(pair, traj.xs[::step], traj.xis[::step]).coeffs
            drift = np.max(np.abs(cs - cs[0]), axis=0) / np.maximum(np.abs(cs[0]), 1e-12)
            worst_drift = max(worst_drift, float(np.max(drift)))

    ok = worst_rem <= 1e-8 and worst_drift <= 1e-6
    report_line(ok, "factory",
                f"max remainder {worst_rem:.3e} (tol 1e-08), "
                f"max coefficient drift {worst_drift:.3e} (tol 1e-06)")
    assert ok


def test_05_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(1000):
        d = 2 * (1 + trial % 5)  # even sizes 2, 4, 6, 8, 10
        raw = rng.standard_normal((d, d))
        skew = raw - raw.T
        pf = pfaffian(skew)
        det = float(np.linalg.det(skew))
        worst = max(worst, abs(pf * pf - det) / max(abs(det), 1e-12))
    block = np.array([[0.0, 1.0], [-1.0, 0.0]])
    signs_ok = all(
        pfaffian(np.kron(np.eye(k), block)) == 1.0 for k in range(1, 6)
    )
    ok = worst <= 1e-10 and signs_ok
    report_line(ok, "pfaffian",
                f"max |Pf^2 - det| rel {worst:.3e} (tol 1e-10), canonical sign +1: {signs_ok}")
    assert ok


def test_06_rank_one_determinant_identity():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        mu, A, B = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n)
        for t in rng.standard_normal(10) * 2.0:
            direct = float(np.linalg.det(np.diag(t + mu) - np.outer(A, B)))
            rel = abs(rank_one_delta(mu, A, B, t) - direct) / max(abs(direct), 1e-12)
            worst = max(worst, rel)
    ok = worst <= 1e-10
    report_line(ok, "rank-one-identity", f"max relative error {worst:.3e} (tol 1e-10)")
    assert ok


def test_07_geodesics_coincide_as_unparameterized_curves(equiv_pairs):
    worst = 0.0
    for name in EQUIV_PAIR_NAMES:
        pair = equiv_pairs[name]
        rng = np.random.default_rng(COINCIDENCE_SEED)
        for x, xi in zip(*sample_phase_points(pair, 20, rng)):
            worst = max(worst, geodesic_coincidence(pair.g, pair.gbar, x, xi))
    broken = resolve_pair("falsify:random-conformal")
    rng = np.random.default_rng(COINCIDENCE_SEED)
    broken_min = min(
        geodesic_coincidence(broken.g, broken.gbar, x, xi)
        for x, xi in zip(*sample_phase_points(broken, 5, rng))
    )
    ok = worst <= 1e-5 and broken_min > 1e-2
    report_line(ok, "geodesic-coincidence",
                f"max distance {worst:.3e} (tol 1e-05), "
                f"falsification min {broken_min:.3e} (must exceed 1e-02)")
    assert ok


def test_08_ellipsoid_chart_matches_ambient_pullbacks():
    spec = EllipsoidSpec((1.0, 2.0, 3.0))
    pair = ellipsoid_pair(spec)
    rng = np.random.default_rng(31)
    worst = 0.0
    for x in pair.chart.box_points(100, rng):
        g_oracle, gbar_oracle = ambient_pullbacks(spec, x)
        for got, want in ((pair.g.values(x), g_oracle),
                          (pair.gbar.values(x), gbar_oracle)):
            err = np.abs(got - want) / np.maximum(np.abs(want), 1e-4)
            worst = max(worst, float(np.max(err)))
    ok = worst <= 1e-8
    report_line(ok, "ellipsoid-validation", f"max entry error {worst:.3e} (tol 1e-08)")
    assert ok


def test_09_integrals_decompose_over_linear_family(battery_pairs):
    worst = 0.0
    for key, lc in battery_pairs.items():
        pair = lc.pair
        rng = np.random.default_rng(DECOMP_SEED)
        xs, xis = sample_phase_points(pair, 100, rng)
        Iks = integrals_at(pair, xs, xis)
        for k in range(pair.dim):
            for x, xi, Ik in zip(xs, xis, Iks):
                pred = lc.predicted_integral(k, x, xi)
                act = Ik[k]
                worst = max(worst, abs(pred - act) / max(abs(act), 1e-2))

    # fully degenerate pairs: each I_k collapses onto a single linear integral,
    # with the sign (-1)^(n+k) fixed by the energy convention I_{n-1} = -g(xi, xi)
    worst_deg = 0.0
    for key in ("m2n2", "m3n3"):
        lc = battery_pairs[key]
        pair, n = lc.pair, lc.pair.dim
        Ls = lc.linear_integrals()
        rng = np.random.default_rng(DECOMP_SEED)
        xs, xis = sample_phase_points(pair, 100, rng)
        Iks = integrals_at(pair, xs, xis)
        for k in range(n):
            wants = (-1.0) ** (n + k) * Ls[n - k - 1].value_batch(xs, xis)
            for want, got in zip(wants, Iks[:, k]):
                worst_deg = max(worst_deg, abs(got - want) / max(abs(want), 1e-12))

    ok = worst <= 1e-9 and worst_deg <= 1e-12
    report_line(ok, "decomposition",
                f"max relative error {worst:.3e} (tol 1e-09), "
                f"degenerate case {worst_deg:.3e} (tol 1e-12)")
    assert ok


def test_10_first_integral_discriminates_in_2d(equiv_pairs, geodesic_sets):
    worst_equiv = 0.0
    for name in ("ellipsoid:1,2,3", "lc-demo:m2n2"):
        pair = equiv_pairs[name]
        for traj in geodesic_sets[name]:
            worst_equiv = max(worst_equiv, float(family_drift(pair, traj)[0]))

    broken = resolve_pair("falsify:perturbed-lc:0.1")
    rng = np.random.default_rng(101)
    opts = GeodesicOptions(tol=1e-10, energy_tol=1e-7)
    broken_max = 0.0
    for x, xi in zip(*sample_phase_points(broken, 10, rng)):
        traj = integrate_geodesic(broken.g, x, xi, 5.0, opts)
        broken_max = max(broken_max, float(family_drift(broken, traj)[0]))

    ok = worst_equiv <= 1e-6 and broken_max > 1e-2
    report_line(ok, "2d-discriminator",
                f"equivalent-pair drift {worst_equiv:.3e} (tol 1e-06), "
                f"perturbed-pair drift {broken_max:.3e} (must exceed 1e-02)")
    assert ok


def test_11_integrals_functionally_independent(battery_pairs):
    results = []
    for key, lc in battery_pairs.items():
        pair = lc.pair
        rng = np.random.default_rng(RANK_SEED)
        xs, xis = sample_phase_points(pair, 20, rng)
        m = max(eigen_profile(pair, x).m for x in xs[:5])
        jac = integrals_jacobian(pair, xs, xis)
        rank = independence_rank(jac)
        results.append((key, rank, m))
    ok = all(rank >= m for _, rank, m in results)
    detail = ", ".join(f"{key}: rank {rank} >= m {m}" for key, rank, m in results)
    report_line(ok, "independence-rank", detail)
    assert ok
