"""Exact engine for finite group actions on Riemann surfaces.

Given a finite group and a geometric signature, decides whether a surface
with that action exists, describes every intermediate quotient cover in
closed form, and computes the isotypical decomposition and isogeny-factor
dimensions of the induced action on the Jacobian.  All arithmetic is exact
(arbitrary-precision rationals and cyclotomic integers); every closed-form
result can be cross-checked against a combinatorial monodromy oracle.
"""

from .chartable import CharacterTable, compute_table, schur_bound_is_verified
from .covers import (
    CoverReport,
    cover_report,
    cycle_structure,
    lattice_report,
    marked_points,
    quotient_genus,
    transversal_partition,
)
from .cyclotomic import Cyclo, cyclotomic_polynomial, euler_phi
from .errors import (
    GroupInputError,
    InternalCheckError,
    InvalidSignatureError,
    NotRationalError,
    SearchBudgetExceeded,
)
from .groups import (
    ConjugacyClassOfSubgroups,
    FiniteGroup,
    Perm,
    Subgroup,
    catalog,
    conj,
    double_coset_count,
    group_from_payload,
)
from .jacobian import (
    DecompositionReport,
    complex_multiplicities,
    factor_dimensions,
    gamma1_analysis,
    solve_omega_system,
)
from .monodromy import (
    CosetAction,
    coset_action,
    oracle_summary,
)
from .signature import (
    BranchEntry,
    GeneratingVector,
    GeometricSignature,
    find_generating_vector,
    orbit_packages,
    refinements,
    riemann_hurwitz_genus,
    signature_from_payload,
    signature_genus,
    verify_generating_vector,
)

__version__ = "0.1.0"
