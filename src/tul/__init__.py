"""Universality checks for average trace invariants of random rectangular
tensors: exact enumeration of covering graphs, closed-form asymptotics for
melonic and cycle families, and seeded Monte Carlo cross-checks."""

from .asymptotics import (AsymptoticPrediction, CrossCheckError, CrossCheckReport,
                          cross_check, predict)
from .enumeration import (MAX_K, CoveringPass, catalan, covering_pass, minimal_coverings,
                          narayana_face_distribution, narayana_row)
from .families import (CycleSpec, MelonicRecipe, cycle_spec_from_json_dict,
                       cycle_spec_to_json_dict, make_cycle_graph, make_melonic,
                       melonic_recipe_from_json_dict, melonic_recipe_to_json_dict,
                       random_melonic_recipe)
from .graphs import ColoredGraph, graph_from_json_dict, graph_to_json_dict, is_connected
from .permutations import Perm, cycles, identity, inverse
from .tensors import (DISTRIBUTIONS, ScanRow, TensorSpec, UniversalityReport,
                      gaussian_exact_mean, monte_carlo_mean, sample_tensor,
                      tensor_spec_from_json_dict, trace_invariant_cycle,
                      trace_invariant_network, universality_scan)
from .verify import CheckResult, run_verify_suite

__all__ = [
    "AsymptoticPrediction", "CheckResult", "ColoredGraph", "CoveringPass",
    "CrossCheckError", "CrossCheckReport", "CycleSpec", "DISTRIBUTIONS", "MAX_K",
    "MelonicRecipe", "Perm", "ScanRow", "TensorSpec", "UniversalityReport", "catalan",
    "covering_pass", "cross_check", "cycle_spec_from_json_dict", "cycle_spec_to_json_dict",
    "cycles", "gaussian_exact_mean", "graph_from_json_dict", "graph_to_json_dict",
    "identity", "inverse", "is_connected", "make_cycle_graph", "make_melonic",
    "melonic_recipe_from_json_dict", "melonic_recipe_to_json_dict", "minimal_coverings",
    "monte_carlo_mean", "narayana_face_distribution", "narayana_row", "predict",
    "random_melonic_recipe", "run_verify_suite",
    "sample_tensor", "tensor_spec_from_json_dict", "trace_invariant_cycle",
    "trace_invariant_network", "universality_scan",
]
