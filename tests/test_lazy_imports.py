"""Importing geosig loads none of its modules, and a command-line call loads
only the modules its subcommand runs.

The package exports its public names lazily (PEP 562): a name imports its
module on first use.  The command-line front end imports each command's
modules inside that command.  One module-level import added to either
would make every call pay for modules it never runs, with no output
changed; these tests are what notices.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geosig
from test_golden import CASES

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the public names of the package, by defining module
EXPORTS = {
    "chartable": ["CharacterTable", "compute_table", "schur_bound_is_verified"],
    "covers": ["CoverReport", "cover_report", "cycle_structure", "lattice_report",
               "marked_points", "quotient_genus", "transversal_partition"],
    "cyclotomic": ["Cyclo", "cyclotomic_polynomial", "euler_phi"],
    "errors": ["GroupInputError", "InternalCheckError", "InvalidSignatureError",
               "NotRationalError", "SearchBudgetExceeded"],
    "groups": ["ConjugacyClassOfSubgroups", "FiniteGroup", "Perm", "Subgroup", "catalog",
               "double_coset_count", "group_from_payload"],
    "jacobian": ["DecompositionReport", "complex_multiplicities", "factor_dimensions",
                 "gamma1_analysis", "solve_omega_system"],
    "monodromy": ["CosetAction", "coset_action", "oracle_summary"],
    "signature": ["BranchEntry", "GeneratingVector", "GeometricSignature",
                  "find_generating_vector", "orbit_packages", "refinements",
                  "riemann_hurwitz_genus", "signature_from_payload", "signature_genus",
                  "verify_generating_vector"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)

CLI = {"geosig", "geosig.cli", "geosig.errors", "geosig.groups"}
LOADED = {
    "readme_exists_dihedral4": (0, CLI | {"geosig.signature"}),
    "readme_lattice_wc3": (0, CLI | {"geosig.signature", "geosig.covers", "geosig.monodromy"}),
    "readme_decompose_wc3": (0, CLI | {"geosig.signature", "geosig.chartable",
                                       "geosig.cyclotomic", "geosig.covers",
                                       "geosig.jacobian"}),
    "readme_chartab_quaternion8": (0, CLI | {"geosig.chartable", "geosig.cyclotomic"}),
    "bad_group_name": (64, CLI),
}
README = sorted(n for n in LOADED if n.startswith("readme_"))
ARGV = dict(CASES, bad_group_name=["chartab", "--group", "nosuchgroup(3)"])

CHILD = """
import contextlib, io, json, sys
from geosig import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""
# stdlib modules a call loads only where it reads them: the records are
# plain slotted classes; the genus, the table's values and the omega solve
# are integer arithmetic, so a Fraction is built only by Cyclo division and
# by error messages, and no command here loads fractions (or decimal, which
# fractions imports); and no case here, each a text-mode call, reads the
# group hash, so none loads hashlib (a JSON call, which reads it, skips
# hashlib too where the interpreter has a built-in SHA-256)
UNREAD = {name: {"dataclasses", "inspect", "hashlib", "fractions", "decimal"}
          for name in LOADED}


def _child(*argv) -> str:
    """The stdout of a fresh interpreter that imports geosig from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, env=env, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run(name):
    """The exit code and the loaded module names of one command in a fresh child."""
    code, modules = json.loads(_child("-c", CHILD, json.dumps(ARGV[name])))
    return code, set(modules)


@pytest.mark.parametrize("name", sorted(LOADED))
def test_each_command_loads_only_its_modules(name):
    code, modules = _run(name)
    assert (code, {m for m in modules if m.startswith("geosig")}) == LOADED[name]


@pytest.mark.parametrize("name", sorted(LOADED))
def test_each_command_skips_the_stdlib_modules_it_does_not_read(name):
    code, modules = _run(name)
    assert code == LOADED[name][0]
    assert not modules & UNREAD[name], sorted(modules & UNREAD[name])


@pytest.mark.parametrize("name", README)
def test_json_output_loads_no_fractions(name):
    # the JSON output adds the group hash and every coefficient's string,
    # all of them ints
    code, modules = json.loads(_child("-c", CHILD, json.dumps([*ARGV[name], "--format", "json"])))
    assert code == 0
    assert not set(modules) & {"fractions", "decimal"}


@pytest.mark.parametrize("name", README)
def test_json_output_loads_no_openssl(name):
    # the group hash takes sha256 from the interpreter's built-in module, so
    # hashlib, which maps OpenSSL's libcrypto (_hashlib) and _blake2, stays
    # unloaded wherever that module exists
    if not any(map(importlib.util.find_spec, ["_sha2", "_sha256"])):
        pytest.skip("this interpreter has no built-in SHA-256")
    code, modules = json.loads(_child("-c", CHILD, json.dumps([*ARGV[name], "--format", "json"])))
    assert code == 0
    assert not set(modules) & {"hashlib", "_hashlib", "_blake2"}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", README)
def test_readme_calls_load_no_pathlib(name, fmt):
    # without site (-S), whose .pth hooks may import pathlib themselves, a
    # call reads its sources with os.path and open alone
    code, modules = json.loads(_child("-S", "-c", CHILD,
                                      json.dumps([*ARGV[name], "--format", fmt])))
    assert code == 0
    assert "pathlib" not in modules


def test_integer_outputs_build_no_fraction(monkeypatch):
    # the same rule in process: the table, its outputs, the decomposition
    # with its omega solve, and the gamma = 1 analysis hold only ints
    from fractions import Fraction

    from corpus import CORPUS, materialize
    from geosig.chartable import compute_table
    from geosig.jacobian import factor_dimensions, gamma1_analysis

    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    assert Fraction(1, 2) and built == [(1, 2)]  # the counter counts
    built.clear()
    for case in CORPUS:
        G, sig, _ = materialize(case)
        table = compute_table(G)
        table.to_json()
        table.render_text()
        factor_dimensions(G, table, sig).to_json()
        if case.gamma == 1:
            gamma1_analysis(G, table, sig)
    assert not built, built[:5]


def test_importing_the_package_loads_no_module():
    out = _child("-c", "import sys, geosig\n"
                       "print(sorted(m for m in sys.modules if m.startswith('geosig')))")
    assert out == "['geosig']\n"


def test_submodules_import_by_name():
    # perfbench imports these two modules from the package
    out = _child("-c", "from geosig import cli, monodromy\n"
                       "print(cli.__name__, monodromy.__name__)")
    assert out == "geosig.cli geosig.monodromy\n"


def test_public_names_are_their_modules_objects():
    assert sorted(geosig.__all__) == NAMES
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"geosig.{module}")
        for name in names:
            assert getattr(geosig, name) is getattr(defining, name), name


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from geosig import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert set(NAMES) <= set(dir(geosig))
    assert geosig.__version__ == "0.1.0"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'geosig' has no attribute 'nosuch'"):
        geosig.nosuch
    with pytest.raises(ImportError, match="cannot import name 'nosuch'"):
        exec("from geosig import nosuch", {})


def test_search_budget_has_one_definition():
    # the parser reads the default budget from groups.py, so building it
    # needs no search; the search reads the same object
    from geosig import cli, groups, signature
    args = cli.build_parser().parse_args(["exists", "--group", "cyclic(2)", "--signature", "{}"])
    assert args.budget is groups.DEFAULT_SEARCH_BUDGET is signature.DEFAULT_SEARCH_BUDGET
