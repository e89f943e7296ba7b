import json
import subprocess
import sys
from fractions import Fraction

import pytest

from infotile import cli
from infotile.compiler import compile_ttori, flatten, sas_dumps, sas_loads
from infotile.expressions import AffineConstraint, InfoExpr
from infotile.gadgets import GadgetRef, instantiate_gadget
from infotile.systems import ConstraintSystem, system_dumps
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


# the file kind each command names when handed the wrong one
EXPECTED_KIND = {
    "compile": "tile set",
    "verify": "factored joint",
    "flatten": "constraint system",
    "slackify": "sparse system",
    "refute": "sparse system",
    "witness": "periodic tiling",
    "disjointify": "CI system",
}


# A joint whose true H(A,B) is log2 6 > 5/2 when B's table holds three distinct values
PAIR_JOINT = ('{"seeds":[{"name":"s","size":2,"probs":["1/2","1/2"]},'
              '{"name":"t","size":3,"probs":["1/3","1/3","1/3"]}],'
              '"vars":[{"name":"A","seeds":["s"],"table":[0,1]},{"name":"B","seeds":["t"],"table":TABLE}]}')


# Edits of `PAIR_JOINT` with B's table [0, 1, 2]; read with `int`, each size
# would be consistent with its seed's probabilities and tables
BAD_JOINTS = {
    "size 2.5": [('"size":2,', '"size":2.5,')],
    "size true": [('"size":2,"probs":["1/2","1/2"]', '"size":true,"probs":["1"]'),
                  ('"table":[0,1]', '"table":[0]')],
    "inputs not a list": [('"name":"B",', '"name":"B","inputs":"A",')],
    "inputs not names": [('"name":"B",', '"name":"B","inputs":[0],')],
}


# Edits of the one-row system {"lhs":[{"coef":"1","set":["A","B"]}],"rel":">=","rhs":"5/2",
# "tag":"pair"} (its sparse form for slackify) that break one nested field
BAD_ROWS = {
    "coef list": [('"coef":"1"', '"coef":[1]')],
    "coef float": [('"coef":"1"', '"coef":0.1')],
    "rhs null": [('"rhs":"5/2"', '"rhs":null')],
    "lhs number": [('"lhs":[{"coef":"1","set":["A","B"]}]', '"lhs":5')],
    "row number": [('{"lhs":[{"coef":"1","set":["A","B"]}],"rel":">=","rhs":"5/2","tag":"pair"}',
                    "3")],
    "set nested": [('"set":["A","B"]', '"set":[["A"]]')],
    "set string": [('"set":["A","B"]', '"set":"AB"')],
}


@pytest.mark.parametrize("kind, text", [
    ("compile", '{"tiles": 5}'),
    ("compile", "[1, 2]"),
    ("compile", '{"colors": 1, "tiles": [5]}'),
    ("verify", "system"),
    ("verify", "[-1, 0, 1]"),
    ("verify", "[0.5, 0, 1]"),
    ("verify", f"[{2**70}, 0, 1]"),
    ("flatten", "sparse"),
    ("slackify", "system"),
    ("refute", "system"),
    ("refute", "tileset"),
    ("witness", "system"),
    ("disjointify", "system"),
    *(("verify", name) for name in BAD_JOINTS),
    *((kind, name) for kind in ("flatten", "slackify", "verify") for name in BAD_ROWS),
])
def test_wrong_kind_input_is_one_line_diagnostic(tmp_path, kind, text):
    """For commands other than compile, `text` names the file kind handed over,
    or is the table of B in `PAIR_JOINT` or a `BAD_JOINTS` edit of it,
    verified against H(A,B) >= 5/2, or a `BAD_ROWS` edit of that system."""
    cs = instantiate_gadget(GadgetRef("UNIF_K", (("k", 2),)), ["X"])
    pair = ConstraintSystem(["A", "B"], [], [
        AffineConstraint(InfoExpr.entropy(["A", "B"]), ">=", Fraction(5, 2), "pair")])
    files = {
        "system": system_dumps(cs),
        "sparse": sas_dumps(flatten(cs)),
        "tileset": tileset_dumps(TileSet(1, ((1, 1, 1, 1),))),
        "pair": system_dumps(pair),
        "joint": PAIR_JOINT.replace("TABLE", "[0, 1, 2]"),
    }
    bad, tiles = tmp_path / "bad.json", tmp_path / "tileset.json"
    argv = {"verify": [bad, tmp_path / "pair.json"], "witness": [tiles, bad]}.get(kind, [bad])
    expected = EXPECTED_KIND[kind]
    if kind == "compile":
        files["bad"] = text
    elif text in BAD_ROWS:
        # the broken file is the system: the sparse one for slackify
        files["bad"] = sas_dumps(flatten(pair)) if kind == "slackify" else files["pair"]
        for edit in BAD_ROWS[text]:
            assert edit[0] in files["bad"]
            files["bad"] = files["bad"].replace(*edit)
        if kind == "verify":
            argv = [tmp_path / "joint.json", bad]
        expected = "sparse system" if kind == "slackify" else "constraint system"
    elif text.startswith("["):
        files["bad"] = PAIR_JOINT.replace("TABLE", text)
    elif text in BAD_JOINTS:
        files["bad"] = files["joint"]
        for edit in BAD_JOINTS[text]:
            files["bad"] = files["bad"].replace(*edit)
    else:
        files["bad"] = files[text]
    for name, body in files.items():
        (tmp_path / f"{name}.json").write_text(body)
    proc = run_cli([kind, *argv])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert expected in lines[0]


@pytest.mark.parametrize("argv", [
    ["compile", "SCALAR"],
    ["tile-search", "SCALAR", "--max-period", "1"],
    ["witness", "TILES", "SCALAR"],
    ["verify", "JOINT", "SCALAR"],
    ["flatten", "SCALAR"],
    ["slackify", "SCALAR"],
    ["refute", "SCALAR"],
    ["ci-only", "SCALAR"],
    ["disjointify", "SCALAR"],
    ["binary-implication", "SCALAR", "--r", "2"],
    ["emit", "SCALAR", "--form", "boolean"],
], ids=lambda argv: argv[0] + ("-system" if argv[1] == "JOINT" else ""))
def test_scalar_json_input_is_one_line_diagnostic(tmp_path, capsys, argv):
    from infotile.joint import FactoredJoint, Variable, joint_dumps, uniform_seed
    import numpy as np

    joint = FactoredJoint([uniform_seed("s", 2)], [Variable("X", ("s",), np.array([0, 1]))])
    files = {
        "SCALAR": "5",
        "JOINT": joint_dumps(joint),
        "TILES": tileset_dumps(TileSet(1, ((1, 1, 1, 1),))),
    }
    paths = {}
    for key, text in files.items():
        paths[key] = tmp_path / f"{key.lower()}.json"
        paths[key].write_text(text)
    assert cli.main([str(paths.get(a, a)) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_commands_without_entropies_do_not_import_numpy(workdir):
    script = (
        "import os, sys\n"
        "from infotile import cli\n"
        "os.chdir(sys.argv[1])\n"
        "for argv in (['compile', 'mono.json', '-o', 'sys.json'],\n"
        "             ['tile-search', 'mono.json', '--max-period', '1', '-o', 'til.json'],\n"
        "             ['flatten', 'sys.json', '-o', 'sas.json'],\n"
        "             ['slackify', 'sas.json', '-o', 'slk.json']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in ('numpy', 'infotile.joint', 'infotile.witness') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(workdir)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_exports_resolve():
    import infotile

    for name in infotile.__all__:
        assert getattr(infotile, name) is not None, name
    assert set(infotile.__all__) <= set(dir(infotile))
    with pytest.raises(AttributeError):
        infotile.no_such_name


def test_verify_default_tolerance_is_unit_tol(tmp_path):
    from infotile.joint import joint_dumps
    from infotile.witness import unit_flip

    joint, cs = unit_flip()
    (tmp_path / "joint.json").write_text(joint_dumps(joint))
    (tmp_path / "sys.json").write_text(system_dumps(cs))
    paths = [str(tmp_path / n) for n in ("joint.json", "sys.json")]
    assert cli.main(["verify", *paths, "-o", str(tmp_path / "default.json")]) == 0
    assert cli.main(["verify", *paths, "--tol", "1e-9", "-o", str(tmp_path / "tol.json")]) == 0
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "tol.json").read_bytes()
