"""satminors: structure of unsatisfiable 2-CNF sentences over their support graphs."""

from .census import CensusReport, EdgePolarity, census, is_minimal_unsat_support, supports_unsat_bruteforce
from .formula import (
    Assignment,
    Clause,
    Cnf2,
    Literal,
    SubstitutionStep,
    apply_assignment,
    cnf_to_dimacs,
    is_reduced,
    parse_dimacs,
    reduce,
    rename_variables,
    substitute,
)
from .fixtures import fixture_graph, fixture_names
from .graph import (
    Edge,
    Multigraph,
    SimpleGraph,
    associated_multigraph,
    as_simple,
    connected_components,
    contract_edge,
    cut_vertices,
    cycle_rank,
    edge,
    edgelist_to_text,
    is_subgraph,
    parse_edgelist,
    smooth_vertex,
    subdivide_edge,
    support_graph,
    to_dot,
    two_core,
)
from .minors import (
    Embedding,
    Pattern,
    Reason,
    Verdict,
    decide_support,
    find_topological_minor,
    pattern_graph,
    verify_embedding,
)
from .sat import SolveResult, check_model, solve
from .simplify import (
    SimplifyOutcome,
    SimplifyResult,
    collapse_pair,
    count_pair_clauses,
    eliminate_units,
    lift_model,
    to_simple,
)
from .witness import (
    BaseFormula,
    base_formula,
    contract_witness,
    extend_to_supergraph,
    lift_subdivision,
    synthesize_witness,
    unsubdivide_witness,
    witness_to_dimacs,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
