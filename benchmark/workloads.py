"""The benchmark's three workloads: set-up from a seed, one timed pass, checks.

Every workload is a closed loop with one client: one item at a time, and in
`cli-checker2` one child process at a time.  A pass returns the wall interval
of its timed work and the problems the independent checks found; an
exception inside an item is caught here, counted as a failure, and the run
goes on.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# Calls go through the module attributes, which the tracer replaces.
from infotile import compiler, refuter, systems, tiling, witness
from infotile.expressions import REL_GE, AffineConstraint, InfoExpr

import checks
import prescriptions
import tracing

# The reference tile sets: one self-matching tile, and the
# two-colour checkerboard.
MONO = (1, ((1, 1, 1, 1),))
CHECKER2 = (2, ((1, 1, 2, 2), (2, 2, 1, 1)))
PROJECTION = ("X1", "X2", "Y1", "Y2", "F")
MAX_PERIOD = 3
TOL = 1e-6
BATCH = 4  # 4-variable prescriptions per refute-proj pass
CHILD_TIMEOUT_S = 150.0

HERE = Path(__file__).resolve().parent


@dataclass
class PassResult:
    run_s: float  # wall seconds of the timed work
    attempted: int
    interval: tuple = (0.0, 0.0)  # perf_counter at its start and end
    norm_s: float | None = None  # reference-speed seconds, set here only by pass_cli
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)  # per CLI child process or refute item
    output_bytes: int = 0
    spans: list = field(default_factory=list)  # traced cli-checker2: child spans

    def fail(self, item: str, problems) -> None:
        self.failures += [(item, p) for p in problems]

    @property
    def failed(self) -> int:
        return len({item for item, _ in self.failures})


def _error(exc: BaseException) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


def _system_rows(rows):
    return [(r.tag, r.rel, r.rhs) for r in rows]


def _report_rows(report):
    return [(r.tag, r.rel, r.value, r.rhs, r.passed) for r in report.rows]


# --- pipeline-mono: the whole pipeline in process ---


def setup_pipeline(seed: int, workdir: Path) -> dict:
    return {"tiles": MONO[1], "ts": tiling.TileSet(*MONO)}


def pass_pipeline(ctx: dict, tracer) -> PassResult:
    out: dict = {}
    res = PassResult(0.0, 1)
    with tracer.span("pass") as span:
        try:
            ts = ctx["ts"]
            out["cs"] = compiler.compile_ttori(ts)
            out["til"] = tiling.find_periodic_tiling(ts, MAX_PERIOD)
            if out["til"] is None:
                raise RuntimeError(f"no tiling up to period {MAX_PERIOD}")
            joint = witness.build_witness(ts, out["til"])
            out["report"] = witness.verify(joint, out["cs"], tol=TOL)
            out["sas"] = compiler.flatten(out["cs"])
            out["slack"] = compiler.slackify(out["sas"])
            extended = witness.extend_witness_for_slack(joint, out["sas"])
            out["slack_report"] = witness.verify(extended, out["slack"], tol=TOL)
        except Exception as exc:
            res.fail("pipeline", _error(exc))
    res.run_s, res.interval = span.seconds, (span.start, span.end)
    with tracer.span("check"):
        if "til" in out and out["til"] is not None:
            res.fail("pipeline", checks.tiling_problems(ctx["tiles"], out["til"].grid))
        if "report" in out:
            res.fail("pipeline", checks.report_problems(
                _report_rows(out["report"]), _system_rows(out["cs"].rows), TOL))
        if "slack_report" in out:
            res.fail("pipeline", checks.report_problems(
                _report_rows(out["slack_report"]), _system_rows(out["slack"].rows), TOL))
        if "cs" in out:
            res.digests["system_dumps"] = checks.sha256_text(systems.system_dumps(out["cs"]))
        if "slack" in out:
            res.digests["sas_dumps"] = checks.sha256_text(compiler.sas_dumps(out["sas"]))
            res.digests["slack_sas_dumps"] = checks.sha256_text(compiler.sas_dumps(out["slack"]))
    return res


# --- cli-checker2: the real CLI, one child process per subcommand ---

CLI_STEPS = (
    ("compile", ["compile", "{ts}", "-o", "system.json"]),
    ("tile_search", ["tile-search", "{ts}", "--max-period", str(MAX_PERIOD), "-o", "tiling.json"]),
    ("witness", ["witness", "{ts}", "tiling.json", "-o", "joint.json"]),
    ("verify", ["verify", "joint.json", "system.json", "--tol", str(TOL), "-o", "report.json"]),
    ("flatten", ["flatten", "system.json", "-o", "system.sas.json"]),
    ("slackify", ["slackify", "system.sas.json", "-o", "system.slack.json"]),
)
CLI_OUTPUTS = ("system.json", "tiling.json", "joint.json", "report.json",
               "system.sas.json", "system.slack.json")


def setup_cli(seed: int, workdir: Path) -> dict:
    ts_path = workdir / "checker2.json"
    ts_path.write_text(tiling.tileset_dumps(tiling.TileSet(*CHECKER2)))
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    return {"tiles": CHECKER2[1], "ts_path": ts_path, "workdir": workdir, "env": env}


def _run_child(cmd, cwd: Path, env: dict):
    """Run one child to completion; return (exit code, wall seconds, peak RSS MB).

    `os.wait4` gives the child's own resource usage, so its peak RSS is read
    without touching any other process.
    """
    t0 = perf_counter()
    with open(cwd / "stderr.txt", "ab") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
    deadline = t0 + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def pass_cli(ctx: dict, tracer, traced: bool) -> PassResult:
    res = PassResult(0.0, 1)
    pdir = Path(tempfile.mkdtemp(prefix="pass-", dir=ctx["workdir"]))
    try:
        with tracer.span("pass") as span:
            for step, args in CLI_STEPS:
                args = [a.format(ts=ctx["ts_path"]) for a in args]
                spans = f"spans-{step}.json" if traced else "-"
                cmd = [sys.executable, str(HERE / "cli_child.py"), f"clock-{step}.json", spans, *args]
                try:
                    code, seconds, rss = _run_child(cmd, pdir, ctx["env"])
                except OSError as exc:
                    res.fail("cli", [f"{step}: cannot start: {exc}"])
                    break
                if code != 0:
                    res.fail("cli", [f"{step}: exit code {code}"])
                    break
                # The child's clock covers all but its start-up and exit; its
                # speed factor is applied to its whole wall time.
                try:
                    clock = json.loads((pdir / f"clock-{step}.json").read_text())
                    norm_s = seconds * clock["norm_s"] / clock["wall_s"]
                except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
                    res.fail("cli", [f"{step}: no clock record: {exc}"])
                    break
                res.steps.append({"step": step, "s": seconds, "norm_s": norm_s, "rss_mb": rss,
                                  "exit": code})
        res.run_s, res.interval = span.seconds, (span.start, span.end)
        res.norm_s = sum(c["norm_s"] for c in res.steps)
        with tracer.span("check"):
            _check_cli(ctx, pdir, res, traced)
    finally:
        shutil.rmtree(pdir, ignore_errors=True)
    return res


def _check_cli(ctx: dict, pdir: Path, res: PassResult, traced: bool) -> None:
    if res.failures:
        err = (pdir / "stderr.txt").read_text(errors="replace").strip().splitlines()
        res.fail("cli", err[-3:])
        return
    try:
        grid = json.loads((pdir / "tiling.json").read_text())["grid"]
        res.fail("cli", checks.tiling_problems(ctx["tiles"], grid))
        system = json.loads((pdir / "system.json").read_text())
        report = json.loads((pdir / "report.json").read_text())
        rows = [(r["tag"], r["rel"], r["lhs"], r["rhs"], r["pass"]) for r in report["rows"]]
        res.fail("cli", checks.report_problems(
            rows, [(r["tag"], r["rel"], r["rhs"]) for r in system["rows"]], TOL))
        if report["summary"]["pass"] is not True:
            res.fail("cli", ["report summary does not pass"])
        want = sum(2 if r["rel"] == "=" else 1 for r in system["rows"])
        sas = json.loads((pdir / "system.sas.json").read_text())
        slack = json.loads((pdir / "system.slack.json").read_text())
        if len(sas["rows"]) != want or any(r["rel"] != ">=" for r in sas["rows"]):
            res.fail("cli", [f"flatten wrote {len(sas['rows'])} rows, expected {want} >= rows"])
        if len(slack["rows"]) != want or any(r["rel"] != "=" for r in slack["rows"]):
            res.fail("cli", [f"slackify wrote {len(slack['rows'])} rows, expected {want} = rows"])
        for name in CLI_OUTPUTS:
            path = pdir / name
            res.output_bytes += path.stat().st_size
            res.digests[name] = checks.sha256_file(path)
        if traced:
            res.spans = tracing.concat(*(json.loads((pdir / f"spans-{step}.json").read_text())
                                         for step, _ in CLI_STEPS))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        res.fail("cli", _error(exc))


# --- refute-proj: the exact simplex on projections and prescriptions ---


@dataclass(frozen=True)
class RefuteItem:
    name: str
    sas: object
    variables: tuple | None
    expected: str
    rows: tuple | None  # the prescription's own rows, for certificate replay


def prescription_system(p: prescriptions.Prescription):
    rows = [AffineConstraint(InfoExpr(dict(coeffs)), REL_GE, rhs, tag) for tag, coeffs, rhs in p.rows]
    return compiler.flatten(systems.ConstraintSystem(list(prescriptions.NAMES), [], rows))


def setup_refute(seed: int, workdir: Path) -> dict:
    items, reference = [], {}
    for label, (colors, tiles) in (("mono", MONO), ("checker2", CHECKER2)):
        cs = compiler.compile_ttori(tiling.TileSet(colors, tiles))
        sas = compiler.flatten(cs)
        reference[label] = (cs, sas)
        items.append(RefuteItem(f"{label}-projection", sas, PROJECTION, prescriptions.UNKNOWN, None))
    for p in prescriptions.generate(seed, BATCH):
        items.append(RefuteItem(p.name, prescription_system(p), None, p.expected, p.rows))
    return {"items": items, "reference": reference}


def check_outcome(item: RefuteItem, outcome) -> list[str]:
    """The verdict must be the known one; a REFUTED certificate must replay here."""
    if outcome.status != item.expected:
        return [f"{outcome.status}, expected {item.expected}"]
    if outcome.status == prescriptions.REFUTED:
        try:
            prescriptions.replay(outcome.certificate or (), item.rows, prescriptions.NAMES)
        except prescriptions.ReplayError as exc:
            return [f"certificate does not replay: {exc}"]
    return []


def pass_refute(ctx: dict, tracer) -> PassResult:
    res = PassResult(0.0, len(ctx["items"]))
    outcomes = []
    with tracer.span("pass") as span:
        for item in ctx["items"]:
            t0 = perf_counter()
            try:
                outcomes.append((item, refuter.refute(item.sas, variables=item.variables)))
            except Exception as exc:
                res.fail(item.name, _error(exc))
            res.steps.append({"step": item.name, "s": perf_counter() - t0})
    res.run_s, res.interval = span.seconds, (span.start, span.end)
    with tracer.span("check"):
        for item, outcome in outcomes:
            res.fail(item.name, check_outcome(item, outcome))
        res.digests["outcomes"] = checks.sha256_text(
            "".join(refuter.outcome_dumps(o) for _, o in outcomes))
        for label, (cs, sas) in ctx["reference"].items():
            res.digests[f"{label}.system_dumps"] = checks.sha256_text(systems.system_dumps(cs))
            res.digests[f"{label}.sas_dumps"] = checks.sha256_text(compiler.sas_dumps(sas))
    return res


WORKLOADS = {
    "pipeline-mono": (setup_pipeline, lambda ctx, tracer, traced: pass_pipeline(ctx, tracer)),
    "cli-checker2": (setup_cli, pass_cli),
    "refute-proj": (setup_refute, lambda ctx, tracer, traced: pass_refute(ctx, tracer)),
}
