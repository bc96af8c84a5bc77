"""The inventory of the package's run-time checks, and the independence of the
routes they compare.

An `InternalCheckError` is raised only where a proven identity fails, so a
check that nothing can make fire shows nothing.  `FIRING_TESTS` lists every
`raise InternalCheckError` in src/geosig, each keyed by where it is (module
and enclosing function) and the leading literal of its message, never by a
line number: each check maps to the test that makes it fire, which asserts
its message from the start.  A new check lands with its entry, or this
suite fails.  A check deleted because another check decides it, or because
no input can reach it, leaves the inventory with its code.  Every other
`raise` in the package raises one of the engine's four error types of
errors.py, one per exit code, or is one of the protocol sites of
`PROTOCOL_RAISES`.

Most checks compare two routes to one quantity, and a comparison proves
something only while the routes share no code.  Each route is a function of
its own, and its public entry refuses bad input before it runs or compares
the routes.  `test_compared_routes_share_no_code` runs each compared pair of
`ROUTE_PAIRS` on the corpus under `sys.setprofile` and requires that the
package functions the two sides call be disjoint, apart from the inputs they
are meant to share.  `PINS` maps each comparison check of the inventory to
the pairs that pin its two sides, so a comparison with no pin, and a pin
with no comparison, fail the suite.
"""

import ast
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

from corpus import CORPUS, geometric_signature
from geosig import groups
from geosig.chartable import compute_table
from geosig.covers import cover_report, marked_points, quotient_genus
from geosig.groups import catalog
from geosig.jacobian import _closed_form, solve_omega_system
from geosig.monodromy import oracle_summary
from geosig.signature import (branch_stabilizers, find_generating_vector, signature_genus,
                              verify_generating_vector)

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "geosig"

# (where, leading literal of the message): the test, in tests/, that makes it fire
FIRING_TESTS = {
    ("chartable.CharacterTable._trusted",
     "Galois class count does not match cyclic subgroup classes"):
        "test_chartable.py::test_a_galois_class_count_off_the_cyclic_classes_is_a_defect",
    ("chartable.CharacterTable.trivial_character_index", "no trivial character found"):
        "test_chartable.py::test_a_table_without_the_trivial_character_is_a_defect",
    ("chartable.CharacterTable._weighted_sum", "value is not rational: "):
        "test_properties.py::test_non_rational_weighted_sum_is_a_defect",
    ("chartable.CharacterTable.fixed_dim",
     "fixed-space dimension is not a nonnegative integer: "):
        "test_chartable.py::test_a_fractional_fixed_dimension_is_a_defect",
    ("chartable.CharacterTable.frobenius_schur_indicator",
     "Frobenius-Schur indicator is not in -1..1: "):
        "test_chartable.py::test_an_indicator_out_of_range_is_a_defect",
    ("chartable.CharacterTable._build_galois_classes",
     "power map left the character table; lifting is inconsistent"):
        "test_chartable.py::test_a_missing_galois_conjugate_is_a_defect",
    ("chartable.CharacterTable._build_galois_classes", "computed Schur bound "):
        "test_chartable.py::test_an_odd_bound_under_indicator_minus_one_is_a_defect",
    ("chartable._class_matrix", "class matrix "):
        "test_chartable.py::test_a_wrong_class_number_fails_the_class_matrix",
    ("chartable._split_leaf", "minimal polynomial "):
        "test_chartable.py::test_minimal_polynomial_without_distinct_roots_is_a_defect",
    ("chartable._split_spaces", "class matrices split the class algebra into "):
        "test_chartable.py::test_a_wrong_leaf_count_fails_the_split_count",
    ("chartable._split_spaces", "a split vector is not an eigenvector of class matrix "):
        "test_chartable.py::test_split_vectors_are_checked_against_the_matrices_read",
    ("chartable._check_norms", "character "):
        "test_chartable.py::test_doctored_rows_fail_the_row_norms",
    ("chartable._check_norms", "class "):
        "test_chartable.py::test_doctored_rows_fail_the_column_norms",
    ("chartable.compute_table", "lifted degree out of range"):
        "test_chartable.py::test_eigenvector_zero_on_the_identity_fails_the_degree_check",
    ("chartable.compute_table", "eigenvalue multiplicities on the power walk of cyclic class "):
        "test_chartable.py::test_a_wrong_power_walk_fails_the_multiplicity_sum",
    ("chartable.compute_table", "duplicate character rows"):
        "test_cli.py::test_table_defect_exits_70",
    ("cyclotomic._exact_div", "inexact cyclotomic division"):
        "test_cyclotomic.py::test_an_inexact_cyclotomic_division_is_a_defect",
    ("cli._witness", "the vector fails the witness check: "):
        "test_cli.py::test_a_vector_that_fails_the_witness_check_exits_70",
    ("cli._witness#2", "the vector fails the witness check: "):
        "test_cli.py::test_a_vector_that_fails_the_witness_check_exits_70",
    ("cli.cmd_lattice", "oracle disagrees with the closed form on "):
        "test_cli.py::test_cross_check_disagreement_exits_70",
    ("covers.cover_report", "genus formulas disagree: 2g = "):
        "test_covers.py::test_doctored_marks_fail_the_genus_check",
    ("covers.cover_report", "quotient genus is not admissible: 2g = "):
        "test_covers.py::test_a_signature_riemann_hurwitz_refuses_fails_the_admissible_genus",
    ("covers.cover_report", "cycle structure over branch value "):
        "test_covers.py::test_an_extra_unramified_point_fails_the_sheet_count",
    ("covers.marked_points", "marked-point count is not a positive integer: "):
        "test_covers.py::test_a_conjugate_without_the_identity_fails_the_marked_point_count",
    ("covers.marked_points", "stabilizer order does not divide branch order"):
        "test_covers.py::test_a_mark_that_does_not_divide_the_branch_order_is_a_defect",
    ("groups.FiniteGroup.exponent", "group exponent does not divide the order"):
        "test_groups.py::test_exponent_that_does_not_divide_the_order_is_a_defect",
    ("groups.FiniteGroup._cyclic_subgroups", "the cyclic subgroups file "):
        "test_groups.py::test_unfiled_cyclic_subgroups_are_a_defect",
    ("groups.Subgroup._trusted", "subgroup order does not divide group order"):
        "test_groups.py::test_subgroup_order_that_does_not_divide_the_group_is_a_defect",
    ("groups.Subgroup._conjugation",
     "the left cosets of the normalizer of a subgroup of order "):
        "test_groups.py::test_unequal_normalizer_cosets_are_a_defect",
    ("groups._by_transversal", "transversal double-coset formula is not integral"):
        "test_groups.py::test_non_integral_transversal_formula_is_a_defect",
    ("groups._by_class_sums", "class-sum double-coset formula is not integral"):
        "test_groups.py::test_non_integral_class_formula_is_a_defect",
    ("groups.double_coset_count", "double-coset methods disagree: "):
        "test_cli.py::test_short_conjugate_cache_names_its_check",
    ("jacobian._closed_form", "character "):
        "test_jacobian.py::test_doctored_table_fails_the_closed_form_checks",
    ("jacobian._solve_exact", "fixed-dimension matrix is singular"):
        "test_jacobian.py::test_solve_exact_refuses_a_singular_matrix",
    ("jacobian._solve_exact", "Bareiss division by the pivot "):
        "test_jacobian.py::test_solve_exact_divisions_are_exact",
    ("jacobian._solve_exact", "back-substitution of "):
        "test_jacobian.py::test_solve_exact_back_substitution_is_exact",
    ("jacobian.solve_omega_system", "linear system gives a non-admissible multiplicity "):
        "test_jacobian.py::test_non_admissible_omega_solution_is_a_defect",
    ("jacobian.factor_dimensions", "multiplicity "):
        "test_jacobian.py::test_doctored_table_fails_the_closed_form_checks",
    ("jacobian.factor_dimensions", "factor dimension "):
        "test_jacobian.py::test_doctored_table_fails_the_closed_form_checks",
    ("jacobian.factor_dimensions", "multiplicities weigh to "):
        "test_jacobian.py::test_doctored_table_fails_the_closed_form_checks",
    ("jacobian.factor_dimensions", "linear system solution "):
        "test_jacobian.py::test_decomposition_rejects_wrong_quotient_genera",
    ("jacobian.gamma1_analysis", "vanishing conditions disagree for character "):
        "test_jacobian.py::test_gamma1_kernel_cover_of_genus_one_fails_the_vanishing_conditions",
    ("monodromy._coset_images.image", "vector element "):
        "test_cli.py::test_oracle_defect_exits_70",
    ("monodromy.oracle_summary", "coset action gives an odd Euler characteristic "):
        "test_monodromy.py::test_oracle_refuses_an_impossible_euler_characteristic",
    ("monodromy.oracle_summary", "coset action gives negative genus "):
        "test_monodromy.py::test_oracle_refuses_an_impossible_euler_characteristic",
}

# (where, type) of each `raise` of a Python protocol rather than of an engine
# exit: a missing module attribute, a record or Perm that refuses to change,
# a class that is built only by its factory, a closed output stream, and
# argparse's own refusal of an option value
PROTOCOL_RAISES = {
    ("__init__.__getattr__", "AttributeError"),
    ("chartable.CharacterTable.__init__", "TypeError"),
    ("groups.Subgroup.__init__", "TypeError"),
    ("groups.FrozenRecord.__setattr__", "AttributeError"),
    ("groups.FrozenRecord.__delattr__", "AttributeError"),
    ("groups.Perm.__setattr__", "AttributeError"),
    ("cli._emit", "_OutputError"),
    ("cli._positive_int", "argparse.ArgumentTypeError"),
}


def _leading_literal(message: ast.expr) -> str:
    """The text of a message before its first formatted value."""
    if isinstance(message, ast.Constant):
        return message.value
    first = message.values[0] if isinstance(message, ast.JoinedStr) else None
    return first.value if isinstance(first, ast.Constant) else ""


def _raises(package: Path) -> list[tuple[str, ast.Raise]]:
    """(where, node) of each `raise` in the package's modules, in source
    order, where being the module and the enclosing function."""
    found: list[tuple[str, ast.Raise]] = []

    def visit(node: ast.AST, scope: list[str], module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], module)
                continue
            if isinstance(child, ast.Raise):
                found.append((".".join([module, *scope]), child))
            visit(child, scope, module)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [], path.stem)
    return found


def _raised_type(node: ast.Raise) -> str:
    """The name of the type a `raise` raises, as written; "" for a bare raise."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return "" if exc is None else ast.unparse(exc)


def check_sites(package: Path = PACKAGE) -> list[tuple[str, str]]:
    """The (where, leading literal) key of each `raise InternalCheckError` in
    the package's modules, in source order; the n-th site of a key that
    repeats in one function is keyed with where#n."""
    keys: list[tuple[str, str]] = []
    seen: Counter = Counter()
    for where, node in _raises(package):
        if isinstance(node.exc, ast.Call) and _raised_type(node) == "InternalCheckError":
            literal = _leading_literal(node.exc.args[0])
            seen[where, literal] += 1
            n = seen[where, literal]
            keys.append((where if n == 1 else f"{where}#{n}", literal))
    return keys


def foreign_raises(package: Path = PACKAGE) -> list[tuple[str, str]]:
    """(where, type) of each `raise` in the package's modules, in source
    order, that raises none of the error types errors.py defines."""
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    engine = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    return [(where, _raised_type(node)) for where, node in _raises(package)
            if _raised_type(node) not in engine]


def test_every_check_is_in_the_inventory():
    sites = check_sites()
    assert sorted(set(sites) - FIRING_TESTS.keys()) == [], "checks with no entry"
    assert sorted(FIRING_TESTS.keys() - set(sites)) == [], "entries with no check"


def test_every_raise_is_an_engine_error_or_a_protocol_site():
    # one error type per exit code: any other type is one of the protocol
    # sites, each raised once
    assert sorted(foreign_raises()) == sorted(PROTOCOL_RAISES)


def test_a_new_exception_type_is_a_foreign_raise(tmp_path):
    # a proven identity that fails with a type of its own escapes the
    # inventory and the exit codes alike
    (tmp_path / "cyclotomic.py").write_text(
        "def _exact_div(num, den):\n"
        "    raise InternalCheckError('inexact cyclotomic division')\n"
        "    raise ArithmeticError('inexact cyclotomic division')\n")
    assert foreign_raises(tmp_path) == [("cyclotomic._exact_div", "ArithmeticError")]


def _test_source(name: str) -> str:
    """The source of a test function in tests/, with its decorators."""
    path, function = name.split("::")
    source = (TESTS / path).read_text(encoding="utf-8")
    node = next((node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef) and node.name == function), None)
    assert node is not None, f"{name} is no test"
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return "\n".join(source.splitlines()[first - 1:node.end_lineno])


@pytest.mark.parametrize("key", sorted(FIRING_TESTS),
                         ids=lambda key: f"{key[0]}:{'-'.join(key[1].split())}")
def test_each_firing_test_asserts_its_check(key):
    # the test names the check's message from its start; regex escapes aside
    _, literal = key
    assert literal in _test_source(FIRING_TESTS[key]).replace("\\", "")


def test_a_new_check_needs_an_entry(tmp_path):
    # a module with one check more than the inventory lists fails it
    (tmp_path / "chartable.py").write_text(
        "def compute_table(G):\n"
        "    raise InternalCheckError('duplicate character rows')\n"
        "    raise InternalCheckError(f'a new check on {G}')\n")
    sites = check_sites(tmp_path)
    assert sites == [("chartable.compute_table", "duplicate character rows"),
                     ("chartable.compute_table", "a new check on ")]
    assert set(sites) - FIRING_TESTS.keys() == {("chartable.compute_table", "a new check on ")}


# -- compared routes share no code --------------------------------------------


def _function_names() -> dict[tuple[str, int], str]:
    """'module.qualname' of each function of the package, by its code
    object's file and first line (its first decorator's, if it has any)."""
    names = {}
    for path in PACKAGE.glob("*.py"):
        filename = os.path.realpath(path)

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        names[filename, first] = ".".join([path.stem, *scope, child.name])
                    visit(child, scope + [child.name])
                else:
                    visit(child, scope)
        visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return names


FUNCTION_NAMES = _function_names()


def _calls(run) -> set[str]:
    """The package functions that run() calls, lambdas and comprehensions aside."""
    seen, real = set(), {}

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename not in real:
                real[code.co_filename] = os.path.realpath(code.co_filename)
            name = FUNCTION_NAMES.get((real[code.co_filename], code.co_firstlineno))
            if name:
                seen.add(name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def _world(case):
    """A fresh group, signature, table, generating vector and kernels for one
    corpus case, with every input the compared routes may share already
    built: the group's classes and power map, the signature's branch
    stabilizers, the table with its fixed dimensions, the vector, and the
    kernel of each nontrivial Galois class representative."""
    G = catalog(case.group_name)
    sig = geometric_signature(G, case.gamma, case.branch_words)
    G.class_of, G.walk_places, G.cyclic_subgroup_masks  # built now, read by both sides
    branch_stabilizers(G, sig)
    table = compute_table(G)
    kernels = [table.kernel(table.characters[gc.representative]) for gc in table.galois_classes
               if gc.representative != table.trivial_character_index]
    return G, sig, table, find_generating_vector(G, sig), kernels


def _subgroups(G):
    return [cls.representative for cls in G.cyclic_subgroup_classes]


def _double_cosets(route):
    """One double-coset route of `groups`, by name, from each cyclic-class
    representative H to each branch stabilizer; the name is looked up when
    the route runs, so a test can doctor the route."""
    return lambda G, sig, table, vec, kernels: [
        getattr(groups, route)(G, H, Gj) for H in _subgroups(G)
        for Gj in branch_stabilizers(G, sig)]


def _closed(G, sig, table, vec, kernels):
    """The closed-form route of `complex_multiplicities`, on the columns of
    the signature's branch stabilizers."""
    columns = [G.cyclic_subgroup_masks[stab.mask] for stab in branch_stabilizers(G, sig)]
    return _closed_form(table, columns, sig.quotient_genus)


def _marks(G, sig, table, vec, kernels):
    return [marked_points(G, sig, H) for H in _subgroups(G)]


# what every compared pair may share: the group's kept columns, the subgroups
# and the signature, with the refusals of a subgroup or a class of another group
SHARED_INPUTS = {
    "groups.FiniteGroup.left", "groups.FiniteGroup.right", "groups._tree_walk",
    "groups.Subgroup.generating_set", "groups.require_subgroups",
    "signature.branch_stabilizers", "signature.check_branch_classes",
    "signature.GeometricSignature.is_geometric",
}

# name: (one route, its entry point, the other route, its entry point, what
# else the two may share)
ROUTE_PAIRS = {
    # the three double-coset counts of `double_coset_count`
    "orbits-transversal": (_double_cosets("_by_orbits"), "groups._by_orbits",
                           _double_cosets("_by_transversal"), "groups._by_transversal",
                           set()),
    "orbits-class-sums": (_double_cosets("_by_orbits"), "groups._by_orbits",
                          _double_cosets("_by_class_sums"), "groups._by_class_sums",
                          set()),
    "transversal-class-sums": (_double_cosets("_by_transversal"), "groups._by_transversal",
                               _double_cosets("_by_class_sums"), "groups._by_class_sums",
                               set()),
    # the genus by the marks against the genus by each double-coset count
    "marks-orbits": (_marks, "covers.marked_points",
                     _double_cosets("_by_orbits"), "groups._by_orbits", set()),
    # the marks and double-coset route 2 both read the conjugates of each G_j,
    # which routes 1 and 3 never read, so a defect there fails their agreement
    "marks-transversal": (_marks, "covers.marked_points",
                          _double_cosets("_by_transversal"), "groups._by_transversal",
                          {"groups.Subgroup.conjugate_masks", "groups.Subgroup._conjugation",
                           "groups._mask"}),
    "marks-class-sums": (_marks, "covers.marked_points",
                         _double_cosets("_by_class_sums"), "groups._by_class_sums", set()),
    "closed-form-omega": (
        _closed, "jacobian._closed_form",
        lambda G, sig, table, vec, kernels: solve_omega_system(
            G, table, [quotient_genus(G, sig, H) for H in _subgroups(G)]),
        "jacobian.solve_omega_system",
        set()),
    # the sum rule: the closed form weighed against Riemann–Hurwitz
    "closed-form-genus": (
        _closed, "jacobian._closed_form",
        lambda G, sig, table, vec, kernels: signature_genus(G, sig),
        "signature.signature_genus",
        set()),
    # the torus conditions: the closed form's n = 0 against each kernel's cover
    "torus-conditions": (
        _closed, "jacobian._closed_form",
        lambda G, sig, table, vec, kernels: [cover_report(G, sig, ker) for ker in kernels],
        "covers.cover_report",
        set()),
    "covers-oracle": (
        lambda G, sig, table, vec, kernels: [cover_report(G, sig, H) for H in _subgroups(G)],
        "covers.cover_report",
        lambda G, sig, table, vec, kernels: [oracle_summary(G, H, vec, sig.quotient_genus)
                                             for H in _subgroups(G)],
        "monodromy.oracle_summary",
        set()),
    "witness-search": (
        lambda G, sig, table, vec, kernels: verify_generating_vector(G, sig, vec),
        "signature.verify_generating_vector",
        lambda G, sig, table, vec, kernels: find_generating_vector(G, sig),
        "signature.find_generating_vector",
        set()),
}

# the corpus cases a pair runs on, where not all of them: the torus
# conditions hold only over a quotient of genus 1
PAIR_CASES = {"torus-conditions": tuple(case for case in CORPUS if case.gamma == 1)}

# (where, leading literal of the message) of each comparison check in the
# inventory: the pairs that pin its two sides
PINS = {
    ("groups.double_coset_count", "double-coset methods disagree: "):
        ("orbits-transversal", "orbits-class-sums", "transversal-class-sums"),
    ("covers.cover_report", "genus formulas disagree: 2g = "):
        ("marks-orbits", "marks-transversal", "marks-class-sums"),
    ("jacobian.factor_dimensions", "multiplicities weigh to "): ("closed-form-genus",),
    ("jacobian.factor_dimensions", "linear system solution "): ("closed-form-omega",),
    ("jacobian.gamma1_analysis", "vanishing conditions disagree for character "):
        ("torus-conditions",),
    ("cli.cmd_lattice", "oracle disagrees with the closed form on "): ("covers-oracle",),
    ("cli._witness", "the vector fails the witness check: "): ("witness-search",),
    ("cli._witness#2", "the vector fails the witness check: "): ("witness-search",),
}


def _sides(pair):
    """The package functions each side of a pair calls over its cases; each
    side runs on a world of its own, so a cache one side fills is a call on
    the other side too."""
    one, _, other, _, _ = ROUTE_PAIRS[pair]
    ones, others = set(), set()
    for case in PAIR_CASES.get(pair, CORPUS):
        world = _world(case)
        ones |= _calls(lambda: one(*world))
        world = _world(case)
        others |= _calls(lambda: other(*world))
    return ones, others


@pytest.mark.parametrize("pair", ROUTE_PAIRS)
def test_compared_routes_share_no_code(pair):
    _, one_entry, _, other_entry, also_shared = ROUTE_PAIRS[pair]
    ones, others = _sides(pair)
    assert one_entry in ones and other_entry in others
    assert sorted((ones & others) - SHARED_INPUTS - also_shared) == []


def test_a_route_that_calls_the_other_routes_helper_fails_its_pin(monkeypatch):
    # double-coset route 2 doctored to call `_orbits`, route 1's orbit
    # partition, as well: the two sides of orbits-transversal share it
    real = groups._by_transversal

    def doctored(G, H, K):
        groups._orbits(H.order, [list(range(H.order))])
        return real(G, H, K)
    monkeypatch.setattr(groups, "_by_transversal", doctored)
    ones, others = _sides("orbits-transversal")
    assert "groups._by_transversal" in others
    assert "groups._orbits" in (ones & others) - SHARED_INPUTS


def test_every_comparison_names_its_pins():
    # each key a check of the inventory, each pin a pair, each pair a pin
    assert sorted(PINS.keys() - FIRING_TESTS.keys()) == []
    named = {pair for pairs in PINS.values() for pair in pairs}
    assert sorted(named - ROUTE_PAIRS.keys()) == [], "pins with no pair"
    assert sorted(ROUTE_PAIRS.keys() - named) == [], "pairs that pin no comparison"
