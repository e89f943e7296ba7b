"""Tests of the benchmark's own code: generators, checks, tracing, metric names.

Run with: python3 -m pytest benchmark/tests -q
"""
import dataclasses
import importlib
import json
import re
import signal
from pathlib import Path

import numpy as np
import pytest

import checks
import hostclock
import layers
import prescriptions
import workloads
from infotile import refuter, witness
from infotile.joint import FactoredJoint, Variable
from tracing import ALL_MODULES, Tracer

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _refute(p):
    return refuter.refute(workloads.prescription_system(p))


def test_prescriptions_are_deterministic_per_seed():
    assert prescriptions.generate(7, 6) == prescriptions.generate(7, 6)
    assert prescriptions.generate(7, 6) != prescriptions.generate(8, 6)
    kinds = [p.expected for p in prescriptions.generate(7, 6)]
    assert kinds == [prescriptions.UNKNOWN, prescriptions.REFUTED] * 3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_refuted_certificates_use_elemental_rows_and_replay(seed):
    for p in prescriptions.generate(seed, 4):
        outcome = _refute(p)
        assert outcome.status == p.expected, p.name
        if outcome.status == prescriptions.REFUTED:
            assert any(tag.startswith("elem:") for tag, _ in outcome.certificate)
            prescriptions.replay(outcome.certificate, p.rows, prescriptions.NAMES)


def test_own_elemental_rows_match_the_refuters():
    names = list(prescriptions.NAMES)
    for tag, expr in refuter.elemental_inequalities(4, names):
        assert prescriptions.elemental_row(tag, names) == {
            s: c for s, c in expr.terms.items() if c}


def _refuted_item():
    p = next(p for p in prescriptions.generate(5, 4) if p.expected == prescriptions.REFUTED)
    item = workloads.RefuteItem(p.name, workloads.prescription_system(p), None, p.expected, p.rows)
    return item, refuter.refute(item.sas)


def test_forged_certificate_is_a_failure():
    item, outcome = _refuted_item()
    assert workloads.check_outcome(item, outcome) == []
    (tag, mult), *rest = outcome.certificate
    forgeries = [
        [(tag, mult * 2)] + rest,              # a scaled multiplier no longer cancels
        rest,                                  # a dropped row
        [("win.lo{nowhere}", mult)] + rest,    # a row that does not exist
        [(tag, -mult)] + rest,                 # a negative multiplier
    ]
    for cert in forgeries:
        forged = refuter.LPOutcome(prescriptions.REFUTED, cert)
        assert workloads.check_outcome(item, forged), cert


def test_wrong_verdict_and_crash_in_a_pass_are_failures(monkeypatch):
    item, _ = _refuted_item()
    ctx = {"items": [item, dataclasses.replace(item, name="other")], "reference": {}}
    calls = iter([refuter.LPOutcome(prescriptions.UNKNOWN), RuntimeError("boom")])

    def fake_refute(sas, variables=None):
        result = next(calls)
        if isinstance(result, Exception):
            raise result
        return result

    monkeypatch.setattr(workloads.refuter, "refute", fake_refute)
    res = workloads.pass_refute(ctx, Tracer())
    assert res.attempted == 2 and res.failed == 2
    assert any("RuntimeError: boom" in msg for _, msg in res.failures)
    assert any("expected REFUTED" in msg for _, msg in res.failures)


def test_corrupted_witness_fails_the_report_check():
    joint, cs = witness.unit_triple()
    rows = [(r.tag, r.rel, r.rhs) for r in cs.rows]
    good = witness.verify(joint, cs, tol=workloads.TOL)
    assert checks.report_problems(workloads._report_rows(good), rows, workloads.TOL) == []
    y3 = joint.variables["Y3"]
    table = np.array(y3.table)
    table[0] = table[1]  # Y3 is no longer a function of Y1 and Y2 that makes a triple
    bad_joint = FactoredJoint(list(joint.seeds.values()),
                              [v for v in joint.variables.values() if v.name != "Y3"]
                              + [Variable("Y3", y3.seeds, table)])
    bad = witness.verify(bad_joint, cs, tol=workloads.TOL)
    assert checks.report_problems(workloads._report_rows(bad), rows, workloads.TOL)
    # A report that claims to pass but leaves out a row also fails.
    assert checks.report_problems(workloads._report_rows(good)[1:], rows, workloads.TOL)


def test_crashing_pipeline_is_a_failure_not_a_crash(monkeypatch):
    def broken(ts, til):
        raise ValueError("corrupted witness")

    monkeypatch.setattr(workloads.witness, "build_witness", broken)
    ctx = workloads.setup_pipeline(1, None)
    res = workloads.pass_pipeline(ctx, Tracer())
    assert res.failed == 1
    assert res.failures[0] == ("pipeline", "ValueError: corrupted witness")


def test_tiling_check():
    tiles = workloads.CHECKER2[1]
    assert checks.tiling_problems(tiles, [[0, 1], [1, 0]]) == []
    assert checks.tiling_problems(tiles, [[0, 1], [0, 1]])
    assert checks.tiling_problems(tiles, [[0, 5]])


def test_metric_names_and_layer_catalogue():
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(name_re.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    computed = set(layers.pass_metrics([])) | {"trace.run_s"}
    assert computed == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def _functions():
    out = {}
    for short in ALL_MODULES + ("__init__",):
        mod = importlib.import_module("infotile" if short == "__init__" else f"infotile.{short}")
        out[short] = {k: v for k, v in vars(mod).items() if callable(v)}
    return out


def test_tracer_wraps_and_restores():
    before = _functions()
    tracer = Tracer()
    with tracer:
        from infotile import joint

        assert joint.subset_entropy is not before["joint"]["subset_entropy"]
        assert witness.eval_expression is not before["witness"]["eval_expression"]
        j, cs = witness.unit_triple()
        witness.verify(j, cs)
    after = _functions()
    assert after.keys() == before.keys()
    for short in before:
        changed = [k for k in before[short] if after[short][k] is not before[short][k]]
        assert not changed, (short, changed)
    names = [s[0] for s in tracer.spans]
    assert "witness.verify" in names and "joint.subset_entropy" in names
    summary = layers.pass_metrics(tracer.spans)
    assert summary["witness.rows_checked"] == len(cs.rows)
    assert 0 <= summary["witness.verify_self_s"] <= summary["witness.verify_s"]


def test_split_groups_reindexes_parents():
    spans = [["setup", 0, 1, -1, None], ["pass", 1, 5, -1, None],
             ["a", 2, 3, 1, None], ["b", 2.5, 2.7, 2, None]]
    groups = layers.split_groups(spans)
    assert [root for root, _ in groups] == ["setup", "pass"]
    assert groups[1][1] == [["pass", 1, 5, -1, None], ["a", 2, 3, 0, None], ["b", 2.5, 2.7, 1, None]]


def test_host_clock_weights_each_slice_by_the_probe_that_ends_it():
    clock = hostclock.HostClock()
    clock.times, clock.factors = [1.0, 2.0, 3.0], [1.0, 0.5, 2.0]
    # (1.2, 2.0] at 0.5, (2.0, 2.5] at 2.0, the next probe's factor
    assert clock.seconds(1.2, 2.5) == pytest.approx(0.8 * 0.5 + 0.5 * 2.0)
    # after the last probe, its factor holds
    assert clock.seconds(3.0, 4.0) == pytest.approx(2.0)
    assert clock.seconds(0.0, 1.0) == pytest.approx(1.0)


def test_host_clock_samples_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        t0 = hostclock.perf_counter()
        while len(clock.times) < 5:
            hostclock.probe()
        t1 = hostclock.perf_counter()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert all(f > 0 for f in clock.factors)
    assert clock.seconds(t0, t1) > 0
