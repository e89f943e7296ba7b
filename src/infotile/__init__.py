"""Wang tiles to entropy constraint systems: compiler, witnesses, refuter.

The names below are re-exported from their modules, each imported on first
use (PEP 562): importing one module, say `infotile.cli` for a command that
never evaluates an entropy, does not import the others, numpy included.
"""

from importlib import import_module

_MODULE_EXPORTS = {
    "expressions": ("AffineConstraint", "InfoExpr", "ci_expr"),
    "joint": ("FactoredJoint", "Seed", "Variable", "entropic_vector", "eval_expression",
              "subset_entropy", "uniform_seed"),
    "logbounds": ("pick_alpha", "pick_log_bounds"),
    "systems": ("ConstraintSystem", "conjoin", "exists_extend", "lint_system"),
    "gadgets": ("GadgetRef", "instantiate_gadget"),
    "tiling": ("PeriodicTiling", "TileSet", "find_periodic_tiling", "validate_tiling"),
    "compiler": ("compile_ttori", "emit_statement", "flatten", "slackify"),
    "ci": ("CISystem", "binary_implication_instance", "disjointify",
           "to_cardinality_implication", "to_ci_only"),
    "witness": ("VerificationReport", "WitnessRefusal", "build_witness",
                "extend_witness_for_slack", "tiling_to_colored_tori", "verify"),
    "refuter": ("LPOutcome", "elemental_inequalities", "refute"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
