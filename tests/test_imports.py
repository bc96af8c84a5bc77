"""No module of the package imports another module's private names.

Modules reach each other only through public names, so a helper that one
module keeps private is never shared with another unseen.  The redundant
routes (the two genus formulas, the three double-coset counts, the closed
form against the omega system and against the oracle) rely on that to stay
independent.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "geosig"


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
