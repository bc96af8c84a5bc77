"""No module of the package imports another module's private names, and
none but groups.py reads another object's private attributes.  The package
ships no reference arithmetic and imports nothing from the tests.

Modules reach each other only through public names, so a helper that one
module keeps private is never shared with another unseen.  The redundant
routes (the two genus formulas, the three double-coset counts, the closed
form against the omega system and against the oracle) rely on that to stay
independent.  The group kernel's private state (columns, trees, cached
walks) is read by groups.py alone; the one exception is the `_trusted`
constructors, which wrap data already known to be valid.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "geosig"


def _private_imports(source: str) -> list[str]:
    """The underscore names that relative imports in source bring in."""
    return [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert _private_imports(path.read_text()) == []


def test_private_import_is_caught():
    source = "from .groups import FiniteGroup, _bits\nfrom . import _helper\nfrom os import _exit\n"
    assert _private_imports(source) == ["from .groups import _bits", "from . import _helper"]


def _private_reads(source: str) -> list[str]:
    """The underscore attributes that source reads of anything but self,
    dunders and the `_trusted` constructors aside."""
    reads = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.endswith("__") and node.attr != "_trusted"
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    reads.sort(key=lambda node: (node.lineno, node.col_offset))
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in reads]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "groups.py"],
                         ids=lambda p: p.name)
def test_no_module_reads_private_state(path):
    assert _private_reads(path.read_text()) == []


def test_private_read_is_caught():
    source = ("G._left_tree[0]\nself._times\nSubgroup._trusted(G, m, None, None)\n"
              "object.__setattr__(self, 'a', 1)\nH.parent._gens\n")
    assert _private_reads(source) == ["line 1: G._left_tree", "line 5: H.parent._gens"]


def _test_imports(source: str) -> list[str]:
    """The imports in source of the tests directory or of a module in it."""
    local = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.split(".")[0] in local]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] in local:
                found.append(f"from {node.module} import ...")
    return found


def test_the_package_ships_no_cyclotomic_field_arithmetic():
    # the field arithmetic of Q(zeta_e), `Cyclo`, is the tests' reference
    # (tests/cyclo_ref.py): the package keeps the integer rows, reduction
    # modulo Phi_e and the printer, defines no Cyclo and never reads one
    cyclotomic = ast.parse((PACKAGE / "cyclotomic.py").read_text())
    assert [n.name for n in ast.walk(cyclotomic) if isinstance(n, ast.ClassDef)] == []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.name for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.alias))}
        assert "Cyclo" not in names, path.name
        assert _test_imports(path.read_text()) == [], path.name
    assert _test_imports("import tests.corpus\nfrom cyclo_ref import Cyclo\nimport os\n") == [
        "import tests.corpus", "from cyclo_ref import ..."]
