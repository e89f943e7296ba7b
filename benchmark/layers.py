"""Per-layer metrics of one pass, from its spans and its child processes.

Every metric is computed on every workload; a layer a workload does not
reach reads 0 there (README.md lists which workload moves which metric).
"""
from __future__ import annotations

from statistics import median

from tracing import ATTRS, summarize

CLI_STEPS = ("compile", "tile_search", "witness", "verify", "flatten", "slackify")

# Metrics that are the inclusive time of one traced function.
INCLUSIVE = {
    "joint.subset_entropy_s": "joint.subset_entropy",
    "witness.build_witness_s": "witness.build_witness",
    "witness.extend_witness_for_slack_s": "witness.extend_witness_for_slack",
    "joint.joint_dumps_s": "joint.joint_dumps",
    "joint.joint_loads_s": "joint.joint_loads",
    "systems.system_dumps_s": "systems.system_dumps",
    "systems.system_loads_s": "systems.system_loads",
    "compiler.sas_dumps_s": "compiler.sas_dumps",
    "compiler.sas_loads_s": "compiler.sas_loads",
    "witness.report_dumps_s": "witness.report_dumps",
    "refuter.elemental_inequalities_s": "refuter.elemental_inequalities",
    "refuter.replay_certificate_s": "refuter.replay_certificate",
    "compiler.compile_ttori_s": "compiler.compile_ttori",
    "compiler.flatten_s": "compiler.flatten",
    "compiler.slackify_s": "compiler.slackify",
    "tiling.find_periodic_tiling_s": "tiling.find_periodic_tiling",
}


def split_groups(spans) -> list:
    """Group spans by root span, re-indexing parents within each group.

    Returns [(root name, spans), ...] in the order the roots were opened.
    """
    groups, where = [], []  # where[sid] = (group, index in group)
    for name, start, end, parent, attrs in spans:
        if parent < 0:
            groups.append((name, []))
            g, new_parent = len(groups) - 1, -1
        else:
            g, new_parent = where[parent]
        members = groups[g][1]
        where.append((g, len(members)))
        members.append([name, start, end, new_parent, attrs])
    return groups


def pass_metrics(spans, steps=(), output_bytes: int = 0) -> dict:
    """All per-layer metrics of one pass.

    `spans` are the pass's spans (with the run's set-up spans, which count
    once per pass); `steps` are the pass's CLI child processes.
    """
    # The slack verify gets its own name, so it is totalled apart.
    spans = [[f"{n}:slack" if n == "witness.verify" and a and a["slack"] else n, s, e, p, a]
             for n, s, e, p, a in spans]
    summary = summarize(spans)

    def total(name: str, key: str = "s") -> float:
        return summary.get(name, {}).get(key, 0.0)

    m = {key: total(name) for key, name in INCLUSIVE.items()}
    m["witness.verify_s"] = total("witness.verify")
    m["witness.verify_self_s"] = total("witness.verify", "self_s")
    m["witness.verify_slack_s"] = total("witness.verify:slack")
    m["witness.extend_witness_for_slack_self_s"] = total("witness.extend_witness_for_slack", "self_s")
    m["refuter.simplex_s"] = total("refuter.refute", "self_s")

    by_name: dict = {}
    for span in spans:
        if span[0] in ATTRS and span[4] is None:
            continue  # the call raised, so its counts were never taken
        by_name.setdefault(span[0], []).append(span)

    entropy = by_name.get("joint.subset_entropy", [])
    calls = len(entropy)
    atoms = [s[4]["atoms"] for s in entropy]
    m["joint.subset_entropy_calls"] = calls
    m["joint.distinct_subsets"] = len({frozenset(s[4]["subset"]) for s in entropy})
    m["joint.distinct_per_call"] = m["joint.distinct_subsets"] / calls if calls else 0.0
    m["joint.atoms"] = sum(atoms)
    m["joint.max_atoms"] = max(atoms, default=0)
    m["joint.atoms_per_s"] = (sum(atoms) / m["joint.subset_entropy_s"]
                              if m["joint.subset_entropy_s"] else 0.0)
    m["joint.json_bytes"] = sum(s[4]["bytes"] for s in by_name.get("joint.joint_dumps", []))

    m["witness.rows_checked"] = sum(
        s[4]["rows"] for n in ("witness.verify", "witness.verify:slack") for s in by_name.get(n, []))

    built = [s[4] for s in by_name.get("witness.build_witness", [])]
    for key in ("seeds", "table_cells", "table_bytes"):
        m[f"witness.{key}"] = sum(b[key] for b in built)

    refutes = by_name.get("refuter.refute", [])
    durations = [end - start for _, start, end, _, _ in refutes]
    m["refuter.refute_s_p50"] = median(durations) if durations else 0.0
    m["refuter.refute_s_max"] = max(durations, default=0.0)
    for key in ("lp_rows", "lp_cols", "certificate_terms"):
        m[f"refuter.{key}"] = sum(s[4][key] for s in refutes)
    m["refuter.refuted"] = sum(s[4]["status"] == "REFUTED" for s in refutes)
    m["refuter.unknown"] = sum(s[4]["status"] == "UNKNOWN" for s in refutes)

    compiled = [s[4] for s in by_name.get("compiler.compile_ttori", [])]
    m["compiler.rows"] = sum(c["rows"] for c in compiled)
    m["compiler.vars"] = sum(c["vars"] for c in compiled)

    by_step = {c["step"]: c for c in steps}
    for step in CLI_STEPS:
        m[f"cli.{step}_s"] = by_step[step]["s"] if step in by_step else 0.0
    for step in ("witness", "verify"):
        m[f"cli.{step}_rss_mb"] = by_step[step]["rss_mb"] if step in by_step else 0.0
    m["cli.output_bytes"] = output_bytes
    m["trace.spans"] = len(spans)
    return m


def median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over the passes of a run."""
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
