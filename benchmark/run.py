#!/usr/bin/env python3
"""The infotile benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S

One workload per process, so `peak_rss_mb` is that workload's alone.  With
`--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with `--trace 1` the benchmark's
tracer wraps the public functions of the `infotile` modules and the last
line holds the per-layer metrics instead.  `--workload all` runs every
workload untraced and traced, each in a fresh process, and prints every
metric with its unit, the failure fraction and the tracing overhead.

Times are taken with `hostclock.HostClock`: `run_s` and `setup_s` are
seconds at a fixed reference speed of the host, so that the neighbours on
a shared host do not move them.  The wall times are printed beside them.

Everything the benchmark writes stays in the checkout: `.bench_work/` for
scratch files (removed at exit) and `.bench_out/` for the result and span
files.  It builds nothing: the program is imported from `src/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

import hostclock
from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7  # set-ups per run whose median is setup_s


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_workloads():
    """Import the program from this checkout's src/ and nowhere else."""
    if not (SRC / "infotile" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'infotile'}")
    sys.path.insert(0, str(SRC))
    import infotile

    if Path(infotile.__file__).resolve().parent != SRC / "infotile":
        raise SystemExit(f"error: infotile imported from {infotile.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_probe(name: str, seed: int) -> tuple[float, float]:
    """One set-up in this fresh process: import the program, build the inputs.

    Returns its (reference-speed, wall) seconds.
    """
    with HostClock() as clock:
        t0 = perf_counter()
        workloads = import_workloads()
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"probe-{name}-", dir=WORK))
        try:
            workloads.WORKLOADS[name][0](seed, workdir)
            t1 = perf_counter()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return clock.seconds(t0, t1), t1 - t0


def probe_in_child(name: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def machine_facts(cli: bool) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rss_source": ("ru_maxrss of each CLI child, read with os.wait4; the largest is reported"
                       if cli else "ru_maxrss of the benchmark process (RUSAGE_SELF)"),
        "clock": (f"reference-speed seconds: SIGALRM every {hostclock.PERIOD_S} s times a "
                  f"probe whose reference time is {hostclock.REF_PROBE_S} s"
                  + (", in each CLI child" if cli else "")),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    clock = HostClock()
    with clock:
        t0 = perf_counter()
        workloads = import_workloads()
        import layers
        from tracing import Tracer, concat, dump

        setup, run_pass = workloads.WORKLOADS[name]
        tracer = Tracer()
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            if trace:
                tracer.install()
            with tracer.span("setup"):
                ctx = setup(seed, workdir)
            t1 = perf_counter()
            setup_samples = [(clock.seconds(t0, t1), t1 - t0)]
            passes = []
            while True:
                passes.append(run_pass(ctx, tracer, trace))
                done = sum(p.run_s for p in passes)
                if done + median(p.run_s for p in passes) > seconds:
                    break
        finally:
            tracer.restore()
            shutil.rmtree(workdir, ignore_errors=True)
    for p in passes:
        if p.norm_s is None:
            p.norm_s = clock.seconds(*p.interval)
    if not trace:
        setup_samples += [probe_in_child(name, seed) for _ in range(SETUP_SAMPLES - 1)]

    for p in passes[1:]:
        if p.digests != passes[0].digests:
            p.fail("digests", ["output digests differ between passes of one run"])
    cli = name == "cli-checker2"
    if cli:
        peak_rss = max((c["rss_mb"] for p in passes for c in p.steps), default=0.0)
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    end_to_end = {
        "setup_s": median(norm for norm, _ in setup_samples),
        "run_s": median(p.norm_s for p in passes),
        "peak_rss_mb": peak_rss,
    }
    # Printed beside the end-to-end metrics but not bounded in BENCHMARK.json.
    extra = {
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "setup_wall_s": {"value": median(wall for _, wall in setup_samples), "unit": "s"},
        "run_wall_s": {"value": median(p.run_s for p in passes), "unit": "s"},
    }
    if cli:
        extra["output_bytes"] = {"value": median(p.output_bytes for p in passes), "unit": "B"}
        for step in layers.CLI_STEPS:
            times = [c["s"] for p in passes for c in p.steps if c["step"] == step]
            extra[f"cli.{step}_s"] = {"value": median(times) if times else 0.0, "unit": "s"}
    per_layer = {}
    if trace:
        groups = layers.split_groups(tracer.spans)
        setup_spans = [g for root, g in groups if root == "setup"]
        pass_spans = [g for root, g in groups if root == "pass"]
        per_pass = []
        for p, own in zip(passes, pass_spans):
            spans = concat(*setup_spans, own, p.spans)
            m = layers.pass_metrics(spans, p.steps, p.output_bytes)
            m["trace.run_s"] = p.norm_s
            per_pass.append(m)
        per_layer = layers.median_metrics(per_pass)
        OUT.mkdir(exist_ok=True)
        all_spans = concat(tracer.spans, *(p.spans for p in passes))
        dump(all_spans, OUT / f"spans-{name}-seed{seed}.json")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "setup_samples_s": setup_samples,
        "facts": machine_facts(cli),
        "attempted": attempted, "failed": failed,
        "failures": [f"{item}: {msg}" for p in passes for item, msg in p.failures][:50],
        "digests": passes[0].digests,
        "passes": [{"run_s": p.norm_s, "run_wall_s": p.run_s, "steps": p.steps} for p in passes],
        "end_to_end": end_to_end, "per_layer": per_layer, "extra": extra,
    }


def emit(result: dict, spec: dict) -> None:
    """Print every metric by name with its unit, then the result line."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    metrics = {}
    for entry in spec[kind]:
        metrics[entry["name"]] = {"value": result[kind][entry["name"]], "unit": entry["unit"]}
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={len(result['passes'])} facts={json.dumps(result['facts'])}")
    for key, rec in {**metrics, **result["extra"]}.items():
        print(f"  {key:44s} {rec['value']:>16.6g} {rec['unit']}")
    for key, digest in result["digests"].items():
        print(f"  sha256 {key:37s} {digest}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def run_all(seed: int, seconds: float, spec: dict) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                return proc.returncode
            path = OUT / f"result-{w['name']}-seed{seed}-trace{trace}.json"
            results[w["name"], trace] = json.loads(path.read_text())
    print("# summary")
    ok = True
    for w in spec["workloads"]:
        plain, traced = results[w["name"], 0], results[w["name"], 1]
        overhead = traced["per_layer"]["trace.run_s"] - plain["end_to_end"]["run_s"]
        print(f"  {w['name']:14s} failed_frac {plain['extra']['failed_frac']['value']:.3g} "
              f"(untraced) {traced['failed'] / traced['attempted']:.3g} (traced); "
              f"tracing overhead {overhead:+.3f} s on run_s {plain['end_to_end']['run_s']:.3f} s")
        ok = ok and plain["failed"] == 0 and traced["failed"] == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {names} or all")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        return run_all(args.seed, seconds, spec)
    emit(run_workload(args.workload, args.seed, seconds, bool(args.trace)), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
