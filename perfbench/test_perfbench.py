"""Tests of the benchmark itself, on a small smoke configuration.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

from perfbench import harness, tracer as tracing
from perfbench.workloads import WORKLOADS, Command, Workload

SMALL = ("--trajectories", "2", "--points", "5")
SMOKE = Workload("smoke", "sphere at 2 trajectories and 5 points",
                 tuple(Command(c, "sphere", True, SMALL) for c in ("verify", "factory", "geodesic")))
EPS = 1e-6


@pytest.fixture(autouse=True)
def _restore_threads_var(monkeypatch):
    monkeypatch.delenv(harness.THREADS_VAR, raising=False)


@pytest.fixture(scope="module")
def cli():
    return harness.load_cli()


def test_smoke_untraced_and_traced_runs_pass_the_gate():
    result, detail = harness.run(SMOKE, 0, 0.01, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["failed_frac"] == 0.0

    traced, tdetail = harness.run(SMOKE, 0, 0.01, trace=True)
    assert traced["correct"] and traced["attempted"] == 9  # pooled, 1-thread, traced
    layers = {k: m["value"] for k, m in traced["metrics"].items()}
    assert layers["factory.point.calls"] > 0 and layers["geometry.integrate.calls"] > 0
    assert layers["dsl.domain_eval.calls"] > 0  # the sphere chart has a domain guard
    # tracing leaves the reports byte-identical, and so does a second run
    assert tdetail["digests"] == detail["digests"]
    again, adetail = harness.run(SMOKE, 0, 0.01, trace=False)
    assert adetail["digests"] == detail["digests"]


def test_wrong_expected_verdict_is_a_failed_command():
    wrong = Workload("wrong", "sphere declared a control",
                     (Command("verify", "sphere", False, SMALL),
                      Command("geodesic", "sphere", False, SMALL)))
    result, detail = harness.run(wrong, 0, 0.01, trace=False)
    assert not result["correct"]
    assert result["attempted"] == 2 and result["failed"] == 2
    problems = {f["command"]: " ".join(f["problems"]) for f in detail["failures"]}
    assert "exit 0, expected 1" in problems["verify"]
    assert "curve_distance_max" in problems["geodesic"]


def test_strict_parse_and_digest_ignore_only_volatile_keys():
    with pytest.raises(ValueError):
        harness.strict_loads('{"value": NaN}')
    with pytest.raises(ValueError):
        harness.strict_loads('{"value": -Infinity}')
    a = {"x": 1.0, "timestamp": "t0", "rows": [{"diagnostics": {"s": 1}, "y": 2}]}
    b = {"x": 1.0, "timestamp": "t1", "rows": [{"diagnostics": {"s": 9}, "y": 2}]}
    assert harness.report_digest(a) == harness.report_digest(b)
    assert harness.report_digest(a) != harness.report_digest({**a, "x": 1.0000000000000002})


def test_tracer_patches_every_binding_and_restores_them(cli):
    from geodequiv import factory, geometry, integrals

    originals = (cli.integrate_geodesic, factory.integrals_at, geometry.MetricField.eval_cells)
    with tracing.Tracer():
        assert cli.integrate_geodesic is geometry.integrate_geodesic
        assert cli.integrate_geodesic.__wrapped__ is originals[0]
        assert factory.integrals_at is integrals.integrals_at
        assert factory.integrals_at.__wrapped__ is originals[1]
        assert geometry.MetricField.eval_cells.__wrapped__ is originals[2]
    assert (cli.integrate_geodesic, factory.integrals_at,
            geometry.MetricField.eval_cells) == originals


def test_child_spans_stay_within_their_parents(cli, tmp_path):
    workload = Workload("spans", "pool jobs and coincidence retries",
                        SMOKE.commands + (Command("geodesic", "falsify:random-conformal", False,
                                                  ("--trajectories", "2")),))
    tr = tracing.Tracer(keep_log=True)
    with tr:
        cycle = harness.run_cycle(cli, workload, 0, tmp_path)
    assert not [o.problems for o in cycle.outcomes if o.problems]
    spans = {s.id: s for s in tr.log}
    children = defaultdict(list)
    for s in tr.log:
        if s.parent is not None:
            children[s.parent].append(s)
            assert s.request == spans[s.parent].request
    assert any(k.thread != spans[p].thread for p, kids in children.items() for k in kids), \
        "expected pool jobs on worker threads"
    for pid, kids in children.items():
        parent = spans[pid]
        dur = parent.t1 - parent.t0
        assert -EPS <= parent.self_s <= dur + EPS
        same_thread = [k for k in kids if k.thread == parent.thread]
        assert sum(k.t1 - k.t0 for k in same_thread) <= dur + EPS
        assert sum(k.self_s for k in same_thread) <= dur + EPS
        for k in kids:
            assert parent.t0 - EPS <= k.t0 <= k.t1 <= parent.t1 + EPS
            assert k.self_s <= dur + EPS
        covered = tracing.union_length([(k.t0, k.t1) for k in kids], parent.t0, parent.t1)
        assert parent.self_s == pytest.approx(dur - covered, abs=EPS)

    # retries are integrations nested in a coincidence span beyond the first two
    nested = [sum(k.name == "geometry.integrate" for k in children[s.id])
              for s in tr.log if s.name == "geometry.coincidence"]
    stats = tr.stats()
    assert stats["geometry.coincidence"].counters["retries"] == sum(n - 2 for n in nested) > 0


def test_latency_tail_leaves_ten_calls_beyond_it():
    assert tracing.latency([1.0] * 5) == (1.0, 1.0, 50.0)
    p50, tail, q = tracing.latency([float(i) for i in range(1000)])
    assert q == 99.0 and tail == pytest.approx(989.0, abs=1.0) and p50 == pytest.approx(500, abs=1)


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: harness.layer_unit(n) for n in harness.layer_names()}


def test_exits_nonzero_without_source(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ellipsoid",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
