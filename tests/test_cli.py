import json
import subprocess
import sys

import pytest

from infotile import cli
from infotile.compiler import compile_ttori, sas_loads
from infotile.gadgets import GadgetRef, instantiate_gadget
from infotile.systems import system_dumps
from infotile.tiling import TileSet, tileset_dumps


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "mono.json").write_text(tileset_dumps(TileSet(1, ((1, 1, 1, 1),))))
    (tmp_path / "mismatch.json").write_text(tileset_dumps(TileSet(2, ((1, 1, 2, 1),))))
    (tmp_path / "checker.json").write_text(
        tileset_dumps(TileSet(2, ((1, 1, 2, 2), (2, 2, 1, 1))))
    )
    return tmp_path


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "infotile", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_compile_deterministic_bytes(workdir):
    out1 = workdir / "a.json"
    out2 = workdir / "b.json"
    assert cli.main(["compile", str(workdir / "mono.json"), "-o", str(out1)]) == 0
    assert cli.main(["compile", str(workdir / "mono.json"), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_compile_matches_library(workdir):
    out = workdir / "cs.json"
    cli.main(["compile", str(workdir / "mono.json"), "-o", str(out)])
    assert out.read_text() == system_dumps(compile_ttori(TileSet(1, ((1, 1, 1, 1),))))


def test_tile_search_failure_exit_code(workdir):
    proc = run_cli(["tile-search", str(workdir / "mismatch.json"), "--max-period", "6"])
    assert proc.returncode == 1
    assert "no periodic tiling up to period 6" in proc.stderr
    assert proc.stdout == ""


def test_tile_search_success_stdout_only_json(workdir):
    proc = run_cli(["tile-search", str(workdir / "checker.json"), "--max-period", "2"])
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["a"] == 2 and obj["b"] == 2


def test_usage_error_exit_2(workdir):
    proc = run_cli(["no-such-command"])
    assert proc.returncode == 2
    proc = run_cli(["tile-search", str(workdir / "mono.json")])  # missing --max-period
    assert proc.returncode == 2


def test_flatten_slackify_refute_pipeline(workdir, tmp_path):
    cs = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["X"])
    cs_path = tmp_path / "unif.json"
    cs_path.write_text(system_dumps(cs))
    sas_path = tmp_path / "unif.sas.json"
    assert cli.main(["flatten", str(cs_path), "-o", str(sas_path)]) == 0
    assert sas_loads(sas_path.read_text()).rows
    slk_path = tmp_path / "unif.slk.json"
    assert cli.main(["slackify", str(sas_path), "-o", str(slk_path)]) == 0
    out = tmp_path / "refuted.json"
    assert cli.main(["refute", str(sas_path), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "UNKNOWN"


def test_small_witness_verify_pipeline(tmp_path):
    # a one-tile vertical stripe set compiles and verifies through files
    from infotile.joint import joint_dumps
    from infotile.witness import unit_flip

    joint, cs = unit_flip()
    jp = tmp_path / "joint.json"
    sp = tmp_path / "sys.json"
    jp.write_text(joint_dumps(joint))
    sp.write_text(system_dumps(cs))
    rp = tmp_path / "report.json"
    assert cli.main(["verify", str(jp), str(sp), "--tol", "1e-9", "-o", str(rp)]) == 0
    assert json.loads(rp.read_text())["summary"]["pass"] is True


def test_verify_failure_exit_1(tmp_path):
    from infotile.joint import FactoredJoint, Variable, joint_dumps, uniform_seed
    import numpy as np
    from infotile.expressions import bound_row
    from infotile.systems import ConstraintSystem

    joint = FactoredJoint([uniform_seed("s", 2)], [Variable("X", ("s",), np.array([0, 1]))])
    cs = ConstraintSystem(["X"], [], [bound_row("X", ">=", 2, "impossible")])
    jp, sp = tmp_path / "j.json", tmp_path / "s.json"
    jp.write_text(joint_dumps(joint))
    sp.write_text(system_dumps(cs))
    proc = run_cli(["verify", str(jp), str(sp)])
    assert proc.returncode == 1
    assert "verification failed" in proc.stderr


def test_ci_only_disjointify_binary_implication(tmp_path):
    cs = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["Y"])
    cs_path = tmp_path / "cs.json"
    cs_path.write_text(system_dumps(cs))
    ci_path = tmp_path / "ci.json"
    assert cli.main(["ci-only", str(cs_path), "-o", str(ci_path)]) == 0
    obj = json.loads(ci_path.read_text())
    assert obj["extras"]["binary_var"] == "BIT"

    # manual implication instance for disjointify
    impl = {
        "n": 2,
        "vars": ["A", "B"],
        "relations": [{"A": ["A"], "B": ["A"], "C": ["B"]}],
        "extras": {},
        "target": {"A": ["A"], "B": ["B"], "C": []},
    }
    impl_path = tmp_path / "impl.json"
    impl_path.write_text(json.dumps(impl))
    dj_path = tmp_path / "dj.json"
    assert cli.main(["disjointify", str(impl_path), "-o", str(dj_path)]) == 0
    dj = json.loads(dj_path.read_text())
    assert dj["n"] == 20  # 12 named + 8 auxiliaries


def test_emit_cli(tmp_path):
    ci_obj = {
        "n": 3,
        "vars": ["X1", "X", "Y"],
        "relations": [{"A": ["X"], "B": ["Y"], "C": []}],
        "extras": {"binary_var": "X1"},
    }
    path = tmp_path / "ci.json"
    path.write_text(json.dumps(ci_obj))
    out = tmp_path / "doc.json"
    assert cli.main(["emit", str(path), "--form", "cond-affine", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["form"] == "cond-affine" and doc["role_var"] == "X1"


@pytest.mark.parametrize("kind, text", [
    ("compile", '{"tiles": 5}'),
    ("compile", "[1, 2]"),
    ("compile", '{"colors": 1, "tiles": [5]}'),
    ("verify", "system"),
])
def test_wrong_kind_input_is_one_line_diagnostic(tmp_path, kind, text):
    cs = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["X"])
    sp = tmp_path / "sys.json"
    sp.write_text(system_dumps(cs))
    if kind == "compile":
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        proc = run_cli(["compile", bad])
    else:
        proc = run_cli(["verify", sp, sp])  # a system file where the joint belongs
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert ("tile set" if kind == "compile" else "factored joint") in lines[0]
