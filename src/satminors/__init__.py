"""satminors: structure of unsatisfiable 2-CNF sentences over their support graphs.

``import satminors`` loads only the ``formula``, ``sat`` and ``census``
modules.  Every other public name, submodules included, is imported on its
first access (PEP 562), so a process pays only for the layers it uses.
``solve`` and ``census`` are bound at import, where perfbench's tracer
finds them.  ``census`` must be: it is also a submodule name, and left lazy,
the first import of ``satminors.census`` would set the package attribute to
the module instead of the function.
"""

from importlib import import_module as _import_module

from .census import census
from .sat import solve

# The public names loaded on first access, by the submodule defining them.
_EXPORTS = {
    "census": ("CensusReport", "EdgePolarity", "is_minimal_unsat_support", "supports_unsat_bruteforce"),
    "formula": (
        "Assignment",
        "Clause",
        "Cnf2",
        "Literal",
        "SubstitutionStep",
        "apply_assignment",
        "cnf_to_dimacs",
        "is_reduced",
        "parse_dimacs",
        "reduce",
        "rename_variables",
        "substitute",
    ),
    "fixtures": ("fixture_graph", "fixture_names"),
    "graph": (
        "Edge",
        "Multigraph",
        "SimpleGraph",
        "associated_multigraph",
        "as_simple",
        "connected_components",
        "contract_edge",
        "cut_vertices",
        "cycle_rank",
        "edge",
        "edgelist_to_text",
        "is_subgraph",
        "parse_edgelist",
        "smooth_vertex",
        "subdivide_edge",
        "support_graph",
        "to_dot",
        "two_core",
    ),
    "minors": (
        "Embedding",
        "Pattern",
        "Reason",
        "Verdict",
        "decide_support",
        "find_topological_minor",
        "pattern_graph",
        "verify_embedding",
    ),
    "sat": ("SolveResult", "check_model"),
    "simplify": (
        "SimplifyOutcome",
        "SimplifyResult",
        "collapse_pair",
        "count_pair_clauses",
        "eliminate_units",
        "lift_model",
        "to_simple",
    ),
    "witness": (
        "BaseFormula",
        "base_formula",
        "contract_witness",
        "extend_to_supergraph",
        "lift_subdivision",
        "synthesize_witness",
        "unsubdivide_witness",
        "witness_to_dimacs",
    ),
}

# name -> home submodule; a submodule name maps to itself
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_HOMES.update((module, module) for module in _EXPORTS if module != "census")

__all__ = sorted(["census", "solve", *_HOMES])
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
