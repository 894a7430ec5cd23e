"""Constructive strong edge coloring from per-edge color lists.

A strong edge coloring gives conflicting colors to every pair of edges
at distance at most two (so each color class is an induced matching).
This package colors such graphs *constructively* under two structural
hypotheses — max degree at most 4 with maximum average degree below 3,
and planar with girth at least 7 under a degree cap — peeling one
reducible configuration at a time and re-extending with a certified
bound on how many colors each step can lose.  Exact small-case search,
an exact densest-subgraph routine, charge-counting audits, instance
files, and seeded generators round it out.
"""

from .cli import run_command
from .colorer import (ExtensionError, ExtensionRecord, HypothesisError,
                      SolveReport, TheoremViolationError, Violation,
                      greedy_color, solve_girth7, solve_mad3, uniform_lists,
                      verify_strong)
from .conflicts import conflict_rows, edges_within_distance_two
from .density import DensityWitness, density_exceeds, mad, mad_deficit_sum
from .discharge import (AuditReport, ChargeLedger, Embedding, EmbeddingError,
                        Transfer, apply_rules_girth7, apply_rules_mad,
                        audit_girth7, audit_mad, euler_charge_identity,
                        trace_faces)
from .generate import FAMILIES, GenSpec, generate
from .graph import Graph, GraphError, build_graph, count_twos, girth
from .instances import (InstanceFile, ParseError, parse_coloring,
                        parse_instance, serialize_coloring,
                        serialize_instance)
from .oracle import (BudgetExceededError, OracleResult, PropositionCheck,
                     SearchBudget, check_proposition_small_delta,
                     list_strong_colorable, strong_chromatic_index_exact)
from .reducer import (ClaimTag, ExtensionStep, ReductionPlan,
                      find_reducible_girth7, find_reducible_mad)

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "BudgetExceededError", "ChargeLedger", "ClaimTag",
    "DensityWitness", "Embedding", "EmbeddingError", "ExtensionError",
    "ExtensionRecord", "ExtensionStep", "FAMILIES", "GenSpec", "Graph",
    "GraphError", "HypothesisError", "InstanceFile", "OracleResult",
    "ParseError", "PropositionCheck", "ReductionPlan", "SearchBudget",
    "SolveReport", "TheoremViolationError", "Transfer", "Violation",
    "apply_rules_girth7", "apply_rules_mad", "audit_girth7", "audit_mad",
    "build_graph", "check_proposition_small_delta", "conflict_rows",
    "count_twos", "density_exceeds", "edges_within_distance_two",
    "euler_charge_identity", "find_reducible_girth7", "find_reducible_mad",
    "generate", "girth", "greedy_color", "list_strong_colorable", "mad",
    "mad_deficit_sum", "parse_coloring", "parse_instance", "run_command",
    "serialize_coloring", "serialize_instance", "solve_girth7",
    "solve_mad3", "strong_chromatic_index_exact", "trace_faces",
    "uniform_lists", "verify_strong",
]
