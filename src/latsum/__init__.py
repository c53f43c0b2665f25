"""Exact subgroup-lattice order sums for finite groups.

For a finite group G, the sum of |H|/|G| over all subgroups H is an exact
rational invariant; this package enumerates full subgroup lattices, computes
that invariant with no rounding anywhere, classifies groups against the
threshold 2 + 4/|G|, and verifies the classification over group corpora.
"""

from .analysis import AnalysisReport, analyze_group, verify_classification
from .arith import (
    SigmaSieve,
    build_sieve,
    divisor_sigma,
    gaussian_subgroup_count,
    odd_part_inequality_scan,
    rank_bound_exceeds_threshold,
    scan_threshold,
    threshold,
)
from .errors import (
    InvalidSpec,
    InvalidTable,
    InvariantViolation,
    LatsumError,
    LatticeTooLarge,
    LimitTooLarge,
    NotAPGroup,
    NotAPermutation,
    OrderCapExceeded,
    SearchCapExceeded,
)
from .families import PQWitness, build_witness, convergence_report, dirichlet_search
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    GroupSpec,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    elementary_abelian_group,
    group_from_perm_file,
    group_from_permutations,
    group_from_raw_table,
    is_normal,
    semidirect_pq_group,
    symmetric_group,
)
from .lattice import (
    DEFAULT_MAX_SUBGROUPS,
    Lattice,
    StructuralProfile,
    Subgroup,
    conjugates,
    enumerate_subgroups,
    frattini,
    frattini_rank,
    is_nilpotent,
    maximal_subgroups,
    recognize,
    sylow_decomposition,
)
from .sigma import Classification, classify, sigma1

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "Classification",
    "DEFAULT_MAX_SUBGROUPS",
    "DEFAULT_ORDER_CAP",
    "Group",
    "GroupSpec",
    "InvalidSpec",
    "InvalidTable",
    "InvariantViolation",
    "LatsumError",
    "Lattice",
    "LatticeTooLarge",
    "LimitTooLarge",
    "NotAPGroup",
    "NotAPermutation",
    "OrderCapExceeded",
    "PQWitness",
    "SearchCapExceeded",
    "SigmaSieve",
    "StructuralProfile",
    "Subgroup",
    "analyze_group",
    "build_sieve",
    "build_witness",
    "classify",
    "conjugates",
    "convergence_report",
    "cyclic_group",
    "dihedral_group",
    "direct_product_group",
    "dirichlet_search",
    "divisor_sigma",
    "elementary_abelian_group",
    "enumerate_subgroups",
    "frattini",
    "frattini_rank",
    "gaussian_subgroup_count",
    "group_from_perm_file",
    "group_from_permutations",
    "group_from_raw_table",
    "is_nilpotent",
    "is_normal",
    "maximal_subgroups",
    "odd_part_inequality_scan",
    "rank_bound_exceeds_threshold",
    "recognize",
    "scan_threshold",
    "semidirect_pq_group",
    "sigma1",
    "sylow_decomposition",
    "symmetric_group",
    "threshold",
    "verify_classification",
]
