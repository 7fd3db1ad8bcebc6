"""Disjoint recovery sets for subspaces stored on simplex-code servers.

Each server holds one 1-subspace of F_q^k (a point of PG(k-1,q), a
column of the simplex code generator matrix); a recovery set for a
d-subspace U is a set of servers whose points span a space containing U.
This package constructs maximum families of pairwise disjoint recovery
sets, bounds their size in closed form, and cross-checks everything with
exact brute-force oracles at desk scale.
"""

from .field_core import ExtField, PrimeField, Subspace, extension, field, find_primitive_poly, span_contains
from .geometry import (
    Layout,
    binary_line_partition,
    canonical_point,
    enumerate_points,
    full_spread,
    hamming_partition,
    lifted_partial_spread,
)
from .constructions import (
    QuintriplePartition,
    RecoveryFamily,
    basic_sets_from_Td,
    canonical_target,
    conjugate_family,
    construct,
    find_quintriple_partition_m7,
    quintriple_partition,
)
from .verifier import Certificate, verify_family
from .bounds import BoundsRecord, bound, bound_table
from .ilp import DualSolution, IlpModel, build_ilp_d2, check_dual, export_model, solve_ilp
from .oracle import OracleResult, SearchConfig, exact_N, minimal_recovery_sets

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
