"""Exact engine for finite group actions on Riemann surfaces.

Given a finite group and a geometric signature, decides whether a surface
with that action exists, describes every intermediate quotient cover in
closed form, and computes the isotypical decomposition and isogeny-factor
dimensions of the induced action on the Jacobian.  All arithmetic is exact
(arbitrary-precision rationals and cyclotomic integers); every closed-form
result can be cross-checked against a combinatorial monodromy oracle.

Importing the package imports none of its modules: each public name below
imports its module on first use (PEP 562), so a command-line call loads
only what its subcommand runs.
"""

import importlib

_EXPORTS = {
    "chartable": ("CharacterTable", "compute_table", "schur_bound_is_verified"),
    "covers": ("CoverReport", "cover_report", "cycle_structure", "lattice_report",
               "marked_points", "quotient_genus", "transversal_partition"),
    "cyclotomic": ("cyclotomic_polynomial", "euler_phi"),
    "errors": ("GroupInputError", "InternalCheckError", "InvalidSignatureError",
               "SearchBudgetExceeded"),
    "groups": ("ConjugacyClassOfSubgroups", "FiniteGroup", "Perm", "Subgroup", "catalog",
               "double_coset_count", "group_from_payload"),
    "jacobian": ("DecompositionReport", "complex_multiplicities", "factor_dimensions",
                 "gamma1_analysis", "solve_omega_system"),
    "monodromy": ("CosetAction", "coset_action", "oracle_summary"),
    "signature": ("BranchEntry", "GeneratingVector", "GeometricSignature",
                  "find_generating_vector", "orbit_packages", "refinements",
                  "riemann_hurwitz_genus", "signature_from_payload", "signature_genus",
                  "verify_generating_vector"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
