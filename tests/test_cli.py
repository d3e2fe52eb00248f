"""Command line contract: exit codes, report determinism, config merging, the
inline pair form, the normal-form build round trip, and the worker-pool cap
of geodesic.

All invocations go through main(argv) in-process; stdout is captured per call.
"""

import csv
import io
import json
import re

import numpy as np
import pytest

from geodequiv.cli import (
    ConfigError,
    RunConfig,
    cmd_factory,
    cmd_verify,
    main,
    pair_from_inline,
    sample_phase_points,
)

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timestamp(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": "-"', text)


# ---------------------------------------------------------------------------
# exit codes


def test_verify_passes_on_equivalent_pair(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--pair", "lc-demo:m2n2", "--seed", "7",
        "--trajectories", "3", "--points", "20",
    )
    assert code == 0, err
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["seed"] == 7
    assert doc["violations"] == []
    assert max(max(r["drift"]) for r in doc["trajectories"]) <= 1e-6


def test_verify_fails_on_broken_pair_and_names_check(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--pair", "falsify:perturbed-lc", "--seed", "1",
        "--trajectories", "3", "--points", "10",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert "conservation" in doc["violations"]


@pytest.mark.parametrize("command, violations", [
    ("verify", ["conservation", "involution"]),
    ("factory", ["factory-conservation"]),
])
def test_checks_have_the_power_to_fail_a_small_perturbation(capsys, command, violations):
    # gbar scaled by 1 + 1e-4 sin(x1 x2): at seed 0 and the default sizes the
    # drift reaches 6.1e-5 (factory 7.7e-5) against 1e-6 and the brackets
    # 1.6e-5 against 1e-8, so a check made vacuous passes here and fails the
    # test; the factory remainder and cross-check hold for any smooth pair
    code, out, err = run_cli(capsys, command, "--pair", "falsify:perturbed-lc:1e-4", "--seed", "0")
    assert code == 1, err
    assert json.loads(out)["violations"] == violations


def test_verify_rejects_zero_trajectories(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"sizes": [1, 1], "phi": ["1", "2"]}))
    code, out, err = run_cli(
        capsys, "verify", "--pair", f"lc:{spec}", "--trajectories", "0"
    )
    assert code == 2
    assert "error" in err


def test_unknown_pair_is_config_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--pair", "torus")
    assert code == 2
    assert "torus" in err


@pytest.mark.parametrize("name", ["ellipsoid:1,nan,3", "ellipsoid:1,2,inf",
                                  "falsify:random-conformal:nan", "falsify:perturbed-lc:inf"])
def test_non_finite_number_in_a_pair_name_is_a_config_error(capsys, monkeypatch, name):
    """Refused while the name resolves, before any geodesic is integrated."""
    from geodequiv import cli, geometry

    def no_integration(*args):
        pytest.fail("a geodesic was integrated before the config error")

    monkeypatch.setattr(cli, "integrate_geodesic", no_integration)
    monkeypatch.setattr(geometry, "integrate_geodesic", no_integration)
    code, out, err = run_cli(capsys, "verify", "--pair", name, "--trajectories", "2",
                             "--points", "5")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot resolve pair '{name}': ")
    assert "finite" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_pair_is_config_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--points", "5")
    assert code == 2
    assert "pair" in err


def test_float_overflow_exits_2_with_named_error(capsys, tmp_path):
    # a**(k + 2) on Python floats in coeffs_from_closed_form overflows for
    # an eigenvalue exp(800 x) near x = 1
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"pair": {
        "coordinates": ["x", "y"], "box": [[-1, 1], [-1, 1]],
        "g[1][1]": "1", "g[2][2]": "1", "gbar[1][1]": "exp(800*x)", "gbar[2][2]": "1",
    }}))
    code, out, err = run_cli(capsys, "factory", "--config", str(config),
                             "--points", "5", "--trajectories", "2")
    assert code == 2
    assert err.startswith("error [OverflowError]: ")
    assert out == ""


def test_nan_drift_row_fails_conservation(capsys, tmp_path):
    # exp(1000 x) overflows past x ~ 0.71, so gbar[1][1] = inf/inf is NaN
    # there; at seed 1 the second trajectory's drift row is NaN and the first
    # is finite, so a maximum that drops NaN would pass the check
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"pair": {
        "coordinates": ["x", "y"], "box": [[-1, 0.6], [-1, 1]],
        "g[1][1]": "1", "g[2][2]": "1", "gbar[1][1]": "exp(1000*x)/exp(1000*x)",
        "gbar[2][2]": "1",
    }}))
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, "verify", "--config", str(config), "--seed", "1",
                                 "--trajectories", "6", "--points", "5", "--t-end", "0.5")
    assert code == 1, err

    def refuse(token):
        raise ValueError(f"bare {token} in the report")

    doc = json.loads(out, parse_constant=refuse)
    assert "conservation" in doc["violations"]
    check = next(c for c in doc["checks"] if c["name"] == "conservation")
    assert check["value"] is None and check["pass"] is False


UNIT_PAIR = {"coordinates": ["u", "v"], "g[1][1]": "1", "g[2][2]": "1",
             "gbar[1][1]": "1", "gbar[2][2]": "1"}


@pytest.mark.parametrize("command, run, spec, message", [
    ("verify", {"points": 1.5}, {}, "points must be an integer"),
    ("verify", {"trajectories": 1.5}, {}, "trajectories must be an integer"),
    ("verify", {"seed": 1.5}, {}, "seed must be an integer"),
    ("verify", {"t_end": "5"}, {}, "t_end must be a positive number"),
    ("verify", {"drift_tol": "1e-6"}, {}, "drift_tol must be a positive number"),
    ("verify", {"out": 5}, {}, "out must be a path string"),
    ("verify", {"out": ""}, {}, "out must name a file in an existing directory"),
    ("verify", {"out": "missing/r.json"}, {}, "out must name a file in an existing directory"),
    ("factory", {"out": "."}, {}, "out must name a file in an existing directory"),
    ("geodesic", {"out": ""}, {}, "out must name a directory"),
    ("geodesic", {"out": "spec.json"}, {}, "out must name a directory"),
    ("geodesic", {"out": "spec.json/sub"}, {}, "out must name a directory"),
    ("verify", {"pair": {"coordinates": ["u", "v"], "box": [1, 2], "g[1][1]": "1",
                         "g[2][2]": "1", "gbar[1][1]": "1", "gbar[2][2]": "1"}},
     {}, '"box" must'),
    ("verify", {}, {"box": [1, 2]}, "box[] must"),
    ("verify", {}, {"blocks": [5, None]}, "blocks[] must"),
    ("levi-civita-build", None, {"box": [1, 2]}, "box[] must"),
    ("levi-civita-build", None, {"blocks": [5, None]}, "blocks[] must"),
    ("verify", {}, {"sizes": [1.7, 1]}, "sizes[] must hold integers"),
    ("levi-civita-build", None, {"sizes": [1.7, 1]}, "sizes[] must hold integers"),
    ("levi-civita-build", None, {"sizes": [True, 1]}, "sizes[] must hold integers"),
    ("levi-civita-build", None, {"sizes": ["2"]}, "sizes[] must hold integers"),
    ("verify", {"pair": {"coordinates": ["u", "v"], "box": [[1, -1], [-1, 1]], "g[1][1]": "1",
                         "g[2][2]": "1", "gbar[1][1]": "1", "gbar[2][2]": "1"}},
     {}, "sample_box interval [1.0, -1.0] must be finite with lo < hi"),
    ("levi-civita-build", None, {"box": [[float("nan"), 1], [-1, 1]]},
     "sample_box interval [nan, 1.0] must be finite with lo < hi"),
    ("verify", {"pair": {**UNIT_PAIR, "g[1][2]": "0.5", "g[2][1]": "-0.5"}},
     {}, "'g[1][2]' and 'g[2][1]' give different entries"),
    ("verify", {"pair": {**UNIT_PAIR, "coordinates": "uv"}}, {}, '"coordinates" list'),
    ("verify", {"pair": {**UNIT_PAIR, "coordinates": [1, 2]}}, {}, '"coordinates" list'),
    ("verify", {"pair": {**UNIT_PAIR, "box": [["0", "1"], ["0", "1"]]}}, {}, '"box" must'),
    ("verify", {"pair": {**UNIT_PAIR, "box": [[True, 2], [-1, 1]]}}, {}, '"box" must'),
], ids=["points", "trajectories", "seed", "t_end", "drift_tol", "out", "out-empty",
        "out-missing-dir", "out-dir", "geodesic-out-empty", "geodesic-out-file",
        "geodesic-out-below-file", "inline-box", "lc-box", "lc-blocks", "build-box",
        "build-blocks", "lc-sizes-float", "build-sizes-float", "build-sizes-bool",
        "build-sizes-str", "inline-box-reversed", "build-box-nan", "inline-conflicting-entries",
        "inline-coordinates-str", "inline-coordinates-int", "inline-box-str",
        "inline-box-bool"])
def test_malformed_config_is_a_config_error(capsys, monkeypatch, tmp_path, command, run, spec,
                                            message):
    """Each is refused with exit 2 before any geodesic is integrated; relative
    out paths resolve in tmp_path, which holds the file spec.json."""
    from geodequiv import cli, geometry

    def no_integration(*args):
        pytest.fail("a geodesic was integrated before the config error")

    monkeypatch.setattr(cli, "integrate_geodesic", no_integration)
    monkeypatch.setattr(geometry, "integrate_geodesic", no_integration)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({"sizes": [1, 1], "phi": ["1", "2"], **spec}))
    if run is not None:
        run = {"pair": f"lc:{config}", "trajectories": 2, "points": 5, **run}
        config = tmp_path / "run.json"
        config.write_text(json.dumps(run))
    code, out, err = run_cli(capsys, command, "--config", str(config))
    assert code == 2
    assert err.startswith("error")
    assert message in err


def test_malformed_thread_cap_is_a_config_error(capsys, monkeypatch, tmp_path):
    """A GEODEQUIV_THREADS that is no integer is refused with exit 2, naming
    it, before out is made or any geodesic is integrated; an integer is
    clamped to 1 .. jobs."""
    from geodequiv import cli, geometry

    def no_integration(*args):
        pytest.fail("a geodesic was integrated before the config error")

    monkeypatch.setattr(cli, "integrate_geodesic", no_integration)
    monkeypatch.setattr(geometry, "integrate_geodesic", no_integration)
    monkeypatch.setenv("GEODEQUIV_THREADS", "abc")
    out_dir = tmp_path / "d"
    code, _, err = run_cli(capsys, "geodesic", "--pair", "sphere", "--trajectories", "2",
                           "--out", str(out_dir))
    assert code == 2
    assert err.startswith("error") and "GEODEQUIV_THREADS" in err
    assert not out_dir.exists()
    for cap, workers in (("-3", 1), ("0", 1), ("3", 3), ("99", 5)):
        monkeypatch.setenv("GEODEQUIV_THREADS", cap)
        assert cli._max_workers(5) == workers


@pytest.mark.parametrize("argv", [
    ["catalog", "--out", ""],
    ["catalog", "--format", "csv", "--out", "missing/c.csv"],
    ["catalog", "--out", "."],
    ["levi-civita-build", "--config", "spec.json", "--out", ""],
    ["levi-civita-build", "--config", "spec.json", "--out", "missing/pair.json"],
], ids=["catalog-empty", "catalog-missing-dir", "catalog-dir", "build-empty", "build-missing-dir"])
def test_unwritable_out_of_catalog_and_build_is_a_config_error(capsys, monkeypatch, tmp_path,
                                                               argv):
    """catalog and levi-civita-build refuse the out paths that the other
    commands refuse, naming out, before any pair is built."""
    from geodequiv import cli

    def no_build(*args):
        pytest.fail("a pair was built before the config error")

    monkeypatch.setattr(cli, "build_pair", no_build)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps({"sizes": [1, 1], "phi": ["1", "2"]}))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: out must name a file in an existing directory")


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_deterministic_up_to_timestamp(capsys):
    args = ("verify", "--pair", "lc-demo:m2n2", "--seed", "3",
            "--trajectories", "2", "--points", "10")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert strip_timestamp(first) == strip_timestamp(second)
    assert first != second or json.loads(first)["timestamp"] == json.loads(second)["timestamp"]


def test_thread_cap_does_not_change_results(capsys, monkeypatch, tmp_path):
    """geodesic runs its directions on the worker pool: one thread and four
    write the same report and the same curves."""
    written = []
    for threads in ("1", "4"):
        monkeypatch.setenv("GEODEQUIV_THREADS", threads)
        out_dir = tmp_path / threads
        code, _, _ = run_cli(capsys, "geodesic", "--pair", "lc-demo:m2n2", "--seed", "3",
                             "--trajectories", "4", "--out", str(out_dir))
        assert code == 0
        written.append({f.name: strip_timestamp(f.read_text()) for f in out_dir.iterdir()})
    assert len(written[0]) == 9  # summary.json and two curves per direction
    assert written[0] == written[1]


def test_seed_changes_results(capsys):
    base = ("verify", "--pair", "lc-demo:m2n2", "--trajectories", "2", "--points", "5")
    _, a, _ = run_cli(capsys, *base, "--seed", "1")
    _, b, _ = run_cli(capsys, *base, "--seed", "2")
    assert strip_timestamp(a) != strip_timestamp(b)


# ---------------------------------------------------------------------------
# config handling


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "pair": "lc-demo:m2n2", "seed": 11, "trajectories": 2, "points": 5,
    }))
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--seed", "99")
    assert code == 0
    assert json.loads(out)["seed"] == 99


def test_config_file_values_and_their_flag_overrides(capsys, tmp_path):
    cfg = tmp_path / "tols.json"
    cfg.write_text(json.dumps({
        "pair": "lc-demo:m2n2", "seed": 11, "trajectories": 2, "points": 5,
        "drift_tol": 1e-3, "bracket_tol": 1e-4, "rank_tol": 1e-6, "t_end": 2.0,
        "format": "csv",
    }))
    # every value from the file: a csv report, one row per trajectory
    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("point_id,drift_I0") and len(lines) == 3

    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--format", "json")
    doc = json.loads(out)
    assert doc["seed"] == 11
    assert doc["tolerances"] == {"drift": 1e-3, "bracket": 1e-4, "rank": 1e-6}
    assert [r["t_reached"] for r in doc["trajectories"]] == [2.0, 2.0]

    code, out, _ = run_cli(capsys, "verify", "--config", str(cfg), "--format", "json",
                           "--tol-drift", "2e-3", "--tol-bracket", "3e-4", "--t-end", "1.5")
    doc = json.loads(out)
    assert doc["tolerances"] == {"drift": 2e-3, "bracket": 3e-4, "rank": 1e-6}
    assert [r["t_reached"] for r in doc["trajectories"]] == [1.5, 1.5]


def test_config_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pair": "sphere", "bogus": 1}))
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_config_invalid_json(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 2


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(pair="sphere", drift_tol=-1.0)
    with pytest.raises(ConfigError):
        RunConfig(pair="sphere", t_end=0.0)
    with pytest.raises(ConfigError):
        RunConfig(pair="sphere", out_format="yaml")


def test_inline_pair_round_trip():
    doc = {
        "id": "inline-demo",
        "coordinates": ["u", "v"],
        "g[1][1]": "1", "g[1][2]": "0", "g[2][2]": "1 + u^2",
        "gbar[1][1]": "1", "gbar[2][2]": "1 + u^2",
    }
    pair = pair_from_inline(doc)
    assert pair.pair_id == "inline-demo"
    assert pair.dim == 2
    vals = pair.g.values([0.5, 0.0])
    assert np.allclose(vals, np.diag([1.0, 1.25]))


def test_inline_pair_errors():
    with pytest.raises(ConfigError):
        pair_from_inline({"coordinates": ["u"], "g[1][1]": "1"})  # no gbar
    with pytest.raises(ConfigError):
        pair_from_inline({"coordinates": ["u"], "g[2][1]": "1", "gbar[1][1]": "1"})
    with pytest.raises(ConfigError):
        pair_from_inline({"coordinates": ["u"], "g[1][1]": "u +", "gbar[1][1]": "1"})
    with pytest.raises(ConfigError):
        pair_from_inline({"coordinates": ["u"], "g[1][1]": "1", "gbar[1][1]": "1", "x": 0})


def test_inline_pair_takes_an_entry_from_either_triangle():
    """One triangle alone, or both with the same text, give the same pair."""
    upper = pair_from_inline({**UNIT_PAIR, "g[1][2]": "0.5*u"})
    lower = pair_from_inline({**UNIT_PAIR, "g[2][1]": "0.5*u"})
    both = pair_from_inline({**UNIT_PAIR, "g[1][2]": "0.5*u", "g[2][1]": "0.5*u"})
    x = [0.3, -0.2]
    assert upper.g.values(x)[0, 1] == lower.g.values(x)[1, 0] == both.g.values(x)[0, 1] == 0.15


def test_verify_inline_pair_via_config(capsys, tmp_path):
    cfg = tmp_path / "inline.json"
    cfg.write_text(json.dumps({
        "pair": {
            "coordinates": ["u", "v"],
            "g[1][1]": "1", "g[2][2]": "1",
            "gbar[1][1]": "1", "gbar[2][2]": "1",
        },
        "trajectories": 2,
        "points": 5,
    }))
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
    assert code == 0, err


# ---------------------------------------------------------------------------
# factory command


def test_factory_euclidean_quotient_is_shifted_binomial(capsys):
    code, out, _ = run_cli(
        capsys, "factory", "--pair", "euclidean:3", "--points", "5",
        "--trajectories", "2",
    )
    assert code == 0
    doc = json.loads(out)
    for row in doc["points"]:
        assert row["a"] == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(row["coeffs"], [1.0, -2.0, 1.0], atol=1e-11)
        assert abs(row["remainder"]) <= 1e-10


def test_factory_rejects_broken_pair_via_conservation(capsys):
    code, out, _ = run_cli(
        capsys, "factory", "--pair", "falsify:random-conformal", "--points", "5",
        "--trajectories", "2", "--seed", "2",
    )
    assert code == 1
    doc = json.loads(out)
    assert "factory-conservation" in doc["violations"]
    # divisibility is pointwise algebra, so the remainder stays small even here
    assert all(r["remainder_rel"] <= 1e-8 for r in doc["points"])


def test_factory_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "factory", "--pair", "euclidean:2", "--points", "3",
        "--trajectories", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("point_id,a,b0")
    assert len(lines) == 4


@pytest.mark.parametrize("command, table, cells", [
    ("verify", "trajectories", lambda r: [r["point_id"], *r["drift"], r["energy_drift"],
                                          int(r["left_domain"])]),
    ("factory", "points", lambda r: [r["point_id"], r["a"], *r["coeffs"], r["remainder"],
                                     r["remainder_rel"], r["crosscheck"]]),
])
def test_csv_fields_are_the_repr_of_the_json_values(capsys, command, table, cells):
    """Each CSV row is its report row, every value written by repr."""
    argv = [command, "--pair", "ellipsoid:1,2,3", "--trajectories", "3", "--points", "4"]
    _, text, _ = run_cli(capsys, *argv, "--format", "csv")
    _, out, _ = run_cli(capsys, *argv)
    rows = json.loads(out)[table]
    got = [line.split(",") for line in text.splitlines()[1:]]
    assert got == [[repr(v) for v in cells(r)] for r in rows]


# ---------------------------------------------------------------------------
# geodesic command


def test_geodesic_exports_straight_line(capsys, tmp_path):
    out_dir = tmp_path / "curves"
    code, _, _ = run_cli(
        capsys, "geodesic", "--pair", "euclidean:2", "--trajectories", "2",
        "--t-end", "1.0", "--format", "csv", "--out", str(out_dir), "--seed", "5",
    )
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["curve_distance_max"] <= 1e-9
    files = sorted(p.name for p in out_dir.glob("geodesic_*.csv"))
    assert files == [
        "geodesic_000_g.csv", "geodesic_000_gbar.csv",
        "geodesic_001_g.csv", "geodesic_001_gbar.csv",
    ]
    rows = (out_dir / "geodesic_000_g.csv").read_text().strip().split("\n")[1:]
    pts = np.array([[float(v) for v in r.split(",")] for r in rows])
    # straight line: collinear base points, constant velocity columns
    assert np.allclose(np.diff(pts[:, 3]), 0.0, atol=1e-12)
    assert np.allclose(np.diff(pts[:, 4]), 0.0, atol=1e-12)
    assert len(rows) == 1001


def test_geodesic_exports_the_curves_it_compared(capsys, tmp_path):
    """Each export is every third sample of the curve whose distance its row
    reports; the conformal control's gbar curves are retried past t_end."""
    from geodequiv import resolve_pair
    from geodequiv.geometry import arc_length, geodesic_coincidence

    out_dir = tmp_path / "curves"
    code, _, _ = run_cli(capsys, "geodesic", "--pair", "falsify:random-conformal",
                         "--trajectories", "3", "--format", "csv", "--out", str(out_dir))
    assert code == 0
    rows = json.loads((out_dir / "summary.json").read_text())["directions"]
    pair = resolve_pair("falsify:random-conformal")
    xs, xis = sample_phase_points(pair, 3, np.random.default_rng(0))
    dists, tgs, tbs, lengths = geodesic_coincidence(pair.g, pair.gbar, xs, xis, length=5.0)
    for pid, (row, dist, tg, tb, length) in enumerate(zip(rows, dists, tgs, tbs, lengths)):
        assert row["curve_distance"] == dist
        assert row["g_arc_length"] == length == arc_length(tg, pair.g)
        for tag, traj in (("g", tg), ("gbar", tb)):
            table = np.column_stack([traj.ts, traj.xs, traj.xis])[::3]
            want = ["t,x1,x2,xi1,xi2"] + [",".join(map(repr, r)) for r in table.tolist()]
            got = (out_dir / f"geodesic_{pid:03d}_{tag}.csv").read_text()
            assert got == "\n".join(want) + "\n"
            assert len(table) == 1001
    assert max(tb.ts[-1] for tb in tbs) > 5.0


def test_geodesic_warns_on_chart_exit(capsys):
    code, out, _ = run_cli(
        capsys, "geodesic", "--pair", "ellipsoid:1,2,3", "--trajectories", "2",
        "--t-end", "6.0", "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    exited = [r for r in doc["directions"] if r["left_domain_g"] or r["left_domain_gbar"]]
    for r in exited:
        assert r["warning"] == "chart exit: partial trajectory"
    assert doc["warnings"] == [r["point_id"] for r in exited]
    assert doc["curve_distance_max"] <= 1e-5


# ---------------------------------------------------------------------------
# normal-form build command


def test_lc_build_round_trip(capsys, tmp_path):
    spec_path = tmp_path / "nf.json"
    spec_path.write_text(json.dumps({
        "sizes": [1, 1],
        "phi": ["1 + 0.3*sin(x1)", "2 + 0.3*cos(x2)"],
    }))
    code, out, _ = run_cli(capsys, "levi-civita-build", "--config", str(spec_path))
    assert code == 0
    entry = json.loads(out)["pair"]
    rebuilt = pair_from_inline(entry)

    from geodequiv.catalog import battery
    from geodequiv.levicivita import build_pair

    direct = build_pair(battery()["m2n2"]).pair
    rng = np.random.default_rng(9)
    xs, _ = sample_phase_points(direct, 5, rng)
    assert np.allclose(rebuilt.g.values(xs), direct.g.values(xs), rtol=1e-12)
    assert np.allclose(rebuilt.gbar.values(xs), direct.gbar.values(xs), rtol=1e-12)


def test_lc_build_bad_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sizes": [1, 1], "phi": ["2", "1"]}))
    code, _, err = run_cli(capsys, "levi-civita-build", "--config", str(bad))
    assert code == 2
    assert "error" in err


def test_lc_build_domain_error_names_the_first_failing_value(capsys, tmp_path):
    """log of a phi sampled at <= 0 is refused with that one value, not the
    whole batch of sampled values."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sizes": [1, 1], "phi": ["2 + log(x1)", "1"]}))
    code, _, err = run_cli(capsys, "levi-civita-build", "--config", str(bad))
    assert code == 2
    value = re.fullmatch(r"error: .*domain error in 'log' at argument (\S+)", err.strip())
    assert float(value.group(1)) <= 0.0


# ---------------------------------------------------------------------------
# catalog command


def test_catalog_lists_builtins(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    names = [e["name"] for e in json.loads(out)["catalog"]]
    assert "sphere" in names
    assert "lc-demo:m2n2" in names
    assert any(n.startswith("ellipsoid:") for n in names)


def test_catalog_csv(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--format", "csv")
    assert code == 0
    assert out.startswith("name,info")
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == 2 for row in rows)
    _, js, _ = run_cli(capsys, "catalog")
    assert [row[0] for row in rows[1:]] == [e["name"] for e in json.loads(js)["catalog"]]


# ---------------------------------------------------------------------------
# API-level orchestration checks


def test_cmd_verify_report_shape():
    report, code = cmd_verify(RunConfig(pair="lc-demo:m2n2", trajectories=2, points=5))
    assert code == 0
    assert [c["name"] for c in report["checks"]] == [
        "conservation", "involution", "involution-diagonal", "independence-rank",
    ]
    ids = [r["point_id"] for r in report["trajectories"]]
    assert ids == sorted(ids)


def test_cmd_factory_report_shape():
    report, code = cmd_factory(RunConfig(pair="euclidean:2", trajectories=2, points=4))
    assert code == 0
    assert {c["name"] for c in report["checks"]} == {
        "factory-remainder", "factory-crosscheck", "factory-conservation",
    }


@pytest.mark.parametrize("command, stacks", [("verify", 1), ("factory", 1), ("geodesic", 0)])
def test_commands_integrate_all_their_starts_in_one_call_per_metric(capsys, monkeypatch,
                                                                     command, stacks):
    """verify and factory integrate every start of g in one stacked call.
    geodesic integrates only in its coincidence search: the starts of g and
    of gbar in one stacked call each, plus one per retry pass, over the rows
    still short of its length.  Nothing integrates single starts."""
    from geodequiv import cli, geometry

    calls = []

    def counting(metric, x, xi, *args, _orig=geometry.integrate_geodesic):
        calls.append(np.shape(x))
        return _orig(metric, x, xi, *args)

    monkeypatch.setattr(cli, "integrate_geodesic", counting)
    monkeypatch.setattr(geometry, "integrate_geodesic", counting)
    code, _, _ = run_cli(capsys, command, "--pair", "lc-demo:m2n2", "--trajectories", "3",
                         "--points", "5")
    assert code == 0
    assert sum(len(c) == 1 for c in calls) == 0
    assert calls[:stacks] == [(3, 2)] * stacks
    if command == "geodesic":
        assert calls[stacks:stacks + 2] == [(3, 2)] * 2
        retries = [rows for rows, _ in calls[stacks + 2:]]
        assert retries == sorted(retries, reverse=True) and all(0 < k <= 3 for k in retries)
    else:
        assert len(calls) == stacks


def test_verify_runs_the_integral_pipeline_once_per_stage(monkeypatch):
    """One dual-number pass feeds involution and rank; one value pass over
    the samples of every trajectory feeds conservation of every integral."""
    from geodequiv import integrals
    from geodequiv.dsl import Dual1

    kinds = []
    pipeline = integrals._pipeline

    def counting(pair, x_cells, xi_cells, ks):
        kinds.append("dual" if isinstance(xi_cells[0], Dual1) else "value")
        return pipeline(pair, x_cells, xi_cells, ks)

    monkeypatch.setattr(integrals, "_pipeline", counting)
    _, code = cmd_verify(RunConfig(pair="lc-demo:m3n4", trajectories=3, points=5))
    assert code == 0
    assert kinds.count("dual") == 1
    assert kinds.count("value") == 1


INLINE_DISC = {
    "id": "disc", "coordinates": ["u", "v"], "box": [[-1.0, 1.0], [-1.0, 1.0]],
    "domain": "1 - u^2 - v^2", "g[1][1]": "1", "g[2][2]": "2 + u",
    "gbar[1][1]": "1", "gbar[2][2]": "2 + u",
}


def test_inline_domain_is_a_one_factor_tuple():
    from geodequiv.dsl import parse

    pair = pair_from_inline(INLINE_DISC)
    assert pair.chart.domain == (parse("1 - u^2 - v^2", ("u", "v")),)


class StreamRng:
    """Generator stand-in: uniform draws from a seeded generator, normal
    draws from a fixed flat stream that may hold zero directions."""

    def __init__(self, seed, normals):
        self._rng = np.random.default_rng(seed)
        self._normals = list(normals)

    def random(self, size):
        return self._rng.random(size)

    def standard_normal(self, size):
        k = int(np.prod(size))
        out, self._normals = self._normals[:k], self._normals[k:]
        return np.array(out).reshape(size)


def per_point_sample(pair, count, rng):
    """Reference sampler: the box points one at a time, then the directions
    one at a time."""
    chart = pair.g.chart
    lo, hi = np.array(chart.sample_box).T
    xs = []
    while len(xs) < count:
        x = lo + (hi - lo) * rng.random(pair.dim)
        if chart.contains(x):
            xs.append(x)
    want = []
    for x in xs:
        xi = rng.standard_normal(pair.dim)
        while float(np.linalg.norm(xi)) < 1e-12:
            xi = rng.standard_normal(pair.dim)
        want.append((x, xi / float(np.sqrt(xi @ pair.g.values(x) @ xi))))
    return want


@pytest.mark.parametrize("source", ["sphere", "euclidean:2", "ellipsoid:1,2,3", "lc-demo:m3n4",
                                    INLINE_DISC])
def test_sample_phase_points_matches_per_point_reference(source):
    """Block draws leave the sampler's RNG stream, the domain rejections and
    every direction bitwise as a point-by-point loop makes them."""
    from geodequiv.cli import resolve_config_pair

    pair = resolve_config_pair(source)
    want = per_point_sample(pair, 40, np.random.default_rng(17))
    got = zip(*sample_phase_points(pair, 40, np.random.default_rng(17)))
    assert [(x.tobytes(), xi.tobytes()) for x, xi in got] == [
        (x.tobytes(), xi.tobytes()) for x, xi in want]


@pytest.mark.parametrize("entry, message", [("exp(800*u)", "zero tangent"),
                                            ("u - 2", "must be finite")])
def test_sampler_refuses_inadmissible_phase_points(entry, message):
    """An overflowing g-norm scales every direction to zero, a negative one
    makes it NaN; the sampler refuses both with the integrator's messages."""
    from geodequiv.cli import resolve_config_pair

    pair = resolve_config_pair({
        "id": "bad", "coordinates": ["u", "v"], "box": [[0.9, 1.0], [-1.0, 1.0]],
        "g[1][1]": entry, "g[2][2]": "1", "gbar[1][1]": "1", "gbar[2][2]": "1",
    })
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
        sample_phase_points(pair, 5, np.random.default_rng(0))


def test_rejected_direction_takes_the_next_draws():
    from geodequiv.cli import resolve_config_pair

    pair = resolve_config_pair(INLINE_DISC)
    normals = np.random.default_rng(5).standard_normal(60)
    normals[4:6] = 0.0  # third direction
    normals[10:14] = 1e-14  # sixth and seventh
    want = per_point_sample(pair, 20, StreamRng(9, normals))
    got = zip(*sample_phase_points(pair, 20, StreamRng(9, normals)))
    assert [(x.tobytes(), xi.tobytes()) for x, xi in got] == [
        (x.tobytes(), xi.tobytes()) for x, xi in want]
