"""Command-line front end.

Machine-readable JSON goes to standard output (or the -o path); diagnostics
go to standard error.  Exit codes: 0 success, 1 domain failure (verification
failed, no tiling found, refusal), 2 usage error.  All outputs are
byte-deterministic for identical inputs and flags.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# `witness`, `joint`, `refuter` and `ci` are imported inside the commands that
# use them, so the others start without numpy or the modules they never call.
from . import compiler, systems, tiling


class DomainFailure(Exception):
    pass


def _read(path: str) -> str:
    return Path(path).read_text()


def _emit_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_system(path: str):
    obj = json.loads(_read(path))
    if isinstance(obj, dict) and "rows" in obj and "free" in obj:
        return systems.system_from_obj(obj)
    if isinstance(obj, dict) and "rows" in obj and "vars" in obj:
        return compiler.sas_from_obj(obj)
    raise DomainFailure(f"{path}: not a recognizable system file")


def cmd_compile(args) -> int:
    ts = tiling.tileset_loads(_read(args.tileset))
    cs = compiler.compile_ttori(ts)
    _emit_output(systems.system_dumps(cs), args.output)
    return 0


def cmd_flatten(args) -> int:
    cs = systems.system_loads(_read(args.system))
    _emit_output(compiler.sas_dumps(compiler.flatten(cs)), args.output)
    return 0


def cmd_slackify(args) -> int:
    sas = compiler.sas_loads(_read(args.system))
    _emit_output(compiler.sas_dumps(compiler.slackify(sas)), args.output)
    return 0


def cmd_tile_search(args) -> int:
    ts = tiling.tileset_loads(_read(args.tileset))
    til = tiling.find_periodic_tiling(ts, args.max_period)
    if til is None:
        raise DomainFailure(f"no periodic tiling up to period {args.max_period}")
    if args.ascii:
        print(tiling.render_ascii(ts, til), file=sys.stderr)
    _emit_output(tiling.tiling_dumps(til), args.output)
    return 0


def cmd_witness(args) -> int:
    from . import joint as joint_mod, witness

    ts = tiling.tileset_loads(_read(args.tileset))
    til = tiling.tiling_loads(_read(args.tiling))
    joint = witness.build_witness(ts, til)
    _emit_output(joint_mod.joint_dumps(joint), args.output)
    return 0


def cmd_verify(args) -> int:
    from . import joint as joint_mod, witness

    joint = joint_mod.joint_loads(_read(args.joint))
    system = _load_system(args.system)
    tol = witness.UNIT_TOL if args.tol is None else args.tol
    report = witness.verify(joint, system, tol=tol)
    _emit_output(witness.report_dumps(report), args.output)
    if not report.passed:
        raise DomainFailure(
            f"verification failed on {len(report.failures)} of {len(report.rows)} rows "
            f"(max violation {report.max_violation:g})"
        )
    return 0


def cmd_refute(args) -> int:
    from . import refuter

    sas = compiler.sas_loads(_read(args.system))
    outcome = refuter.refute(sas, variables=args.vars)
    _emit_output(refuter.outcome_dumps(outcome), args.output)
    return 0


def cmd_ci_only(args) -> int:
    from . import ci as ci_mod

    cs = systems.system_loads(_read(args.system))
    _emit_output(ci_mod.ci_dumps(ci_mod.to_ci_only(cs)), args.output)
    return 0


def cmd_disjointify(args) -> int:
    from . import ci as ci_mod

    cisys = ci_mod.ci_loads(_read(args.system))
    _emit_output(ci_mod.ci_dumps(ci_mod.disjointify(cisys)), args.output)
    return 0


def cmd_binary_implication(args) -> int:
    from . import ci as ci_mod

    cisys = ci_mod.ci_loads(_read(args.system))
    out = ci_mod.binary_implication_instance(cisys, args.r)
    _emit_output(ci_mod.ci_dumps(out), args.output)
    return 0


def cmd_emit(args) -> int:
    obj = json.loads(_read(args.system))
    if isinstance(obj, dict) and "relations" in obj:
        from . import ci as ci_mod

        source = ci_mod.ci_from_obj(obj)
    elif isinstance(obj, dict) and "free" in obj:
        source = systems.system_from_obj(obj)
    else:
        source = compiler.sas_from_obj(obj)
    doc = compiler.emit_statement(source, args.form, role_var=args.x1)
    _emit_output(compiler.emit_dumps(doc), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="infotile",
        description="Wang tile sets as entropy constraint systems: compile, witness, verify, refute.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("compile", help="tile set -> constraint system")
    sp.add_argument("tileset")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_compile)

    sp = sub.add_parser("flatten", help="constraint system -> sparse >=-form")
    sp.add_argument("system")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_flatten)

    sp = sub.add_parser("slackify", help=">=-form -> equality form with slack variables")
    sp.add_argument("system")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_slackify)

    sp = sub.add_parser("tile-search", help="bounded periodic tiling search")
    sp.add_argument("tileset")
    sp.add_argument("--max-period", type=int, required=True)
    sp.add_argument("--ascii", action="store_true", help="render the tiling to stderr")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_tile_search)

    sp = sub.add_parser("witness", help="tile set + tiling -> factored joint witness")
    sp.add_argument("tileset")
    sp.add_argument("tiling")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("verify", help="check a witness against a system")
    sp.add_argument("joint")
    sp.add_argument("system")
    sp.add_argument("--tol", type=float, default=None)  # None: witness.UNIT_TOL
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("refute", help="Shannon outer-bound infeasibility check")
    sp.add_argument("system")
    sp.add_argument("--vars", nargs="*", default=None)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_refute)

    sp = sub.add_parser("ci-only", help="rewrite bounds into CI relations plus one fair bit")
    sp.add_argument("system")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_ci_only)

    sp = sub.add_parser("disjointify", help="make all relation triples pairwise disjoint")
    sp.add_argument("system")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_disjointify)

    sp = sub.add_parser("binary-implication", help="disjoint implication with a cardinality bound")
    sp.add_argument("system")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_binary_implication)

    sp = sub.add_parser("emit", help="emit a canonical statement document")
    sp.add_argument("system")
    sp.add_argument("--form", choices=compiler.EMIT_FORMS, required=True)
    sp.add_argument("--x1", default=None, help="designated first-variable role")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_emit)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
