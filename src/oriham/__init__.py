"""Hamilton cycles in oriented graphs under degree-sum conditions.

Bitset-backed oriented graphs, Ore-type and classical degree checkers,
sharp four-block non-Hamiltonian generators with a near-extremal structure
scorer, connector/absorber gadget machinery, and exact plus
absorption-based Hamilton-cycle solvers.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .graph import (MAX_VERTICES, DiCycle, DiPath, GraphError,
                    InvalidPathError, OrientedGraph, OutOfRangeError,
                    Partition4, SelfLoopError, TwoCycleError, iter_bits,
                    mask_of, strongly_connected, verify_hamilton_cycle)
from .fileio import EdgeListParseError, emit_edge_list, parse_edge_list
from .conditions import (ConditionReport, HypothesisViolatedError, check_ore,
                         check_ghouila_houri, check_nash_williams,
                         check_semidegree_consequence, check_sparse_set_bound,
                         check_woodall, ore_threshold)
from .extremal import (ExtremalityReport, ExtremalParams,
                       InfeasibleParamsError, PartitionNotCoveringError,
                       SIZE_ROUNDING_ALLOWANCE, bipartite_tournament,
                       feasible_a_values, find_extremal_partition,
                       find_sharp_pair, generate_extremal,
                       near_regular_tournament, sharp_bound, table_params,
                       verify_partition)
from .absorption import (AbsorbingPath, CapacityExhaustedError,
                         ConnectivityProfile, NoConnectorAvailableError,
                         Reservoir, StitchFailureError, StrongGadget,
                         VertexNotAbsorbableError, WeakGadget,
                         absorb_vertices, build_absorbing_path,
                         build_reservoir, connect_through_reservoir,
                         connectivity_profile, count_strong_absorbers,
                         enumerate_connectors, enumerate_strong_absorbers,
                         enumerate_weak_absorbers, is_strongly_absorbable,
                         default_reservoir_size, default_strong_target,
                         select_disjoint_family)
from .generators import random_min_semidegree, random_oriented
from .hamilton import (PIPELINE_MAX_N, CertificateError, CoverResult,
                       HamiltonResult, StageRecord, TooLargeError, exact_brute,
                       exact_dp, find_hamilton_absorption, greedy_path_cover)
from .seeds import derive_seed, rng_for
