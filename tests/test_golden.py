"""Byte-for-byte golden outputs of the command line.

Each `.json` file in tests/golden/ is the exact `--format json` standard
output of one command: every README example, `lattice --cross-check` plus
`decompose` on three larger cases, and `chartab` on a spread of catalog
groups (symmetric, alternating, wreath, cyclic and dihedral).  Each `.txt`
file is the `--format text` output of one of the TEXT_CASES: the README
examples, `decompose` on symmetric(6), and `chartab` on cyclic(6), whose
table has irrational values.  A refactor of the engine must leave all of
them unchanged.  Regenerate them only for an intended output change, and
record that change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import re
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from geosig.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _sig(genus, *branches):
    entries = []
    for branch in branches:
        order, rep = branch if isinstance(branch, tuple) else (branch, None)
        entries.append({"order": order} if rep is None else
                       {"order": order, "class_rep": rep})
    return json.dumps({"genus": genus, "branches": entries})


D4 = _sig(0, (4, "x"), (2, "y"), (2, "xy"))
WC3 = _sig(0, (6, "xa^2"), (4, "xyab"), (2, "xyzb"))
LARGER = {
    "s6": ("symmetric(6)", _sig(0, (2, "b"), (6, "a"), (5, "(1,2,3,4,5)"))),
    "a6": ("alternating(6)", _sig(0, 4, 4, 5)),
    "s4": ("symmetric(4)", _sig(1, (2, "b"), (2, "b"))),
}

CASES = {
    "readme_exists_dihedral4": ["exists", "--group", "dihedral(4)", "--signature", D4],
    "readme_lattice_wc3": ["lattice", "--group", "wc3", "--signature", WC3,
                           "--subgroups", "y,z,xyzab", "y,z,ab", "--cross-check"],
    "readme_decompose_wc3": ["decompose", "--group", "wc3", "--signature", WC3],
    "readme_chartab_quaternion8": ["chartab", "--group", "quaternion8"],
}
for _tag, (_group, _signature) in LARGER.items():
    CASES[f"lattice_{_tag}"] = ["lattice", "--group", _group, "--signature",
                                _signature, "--cross-check"]
    CASES[f"decompose_{_tag}"] = ["decompose", "--group", _group,
                                  "--signature", _signature]
for _group in ("symmetric(5)", "symmetric(6)", "alternating(5)", "alternating(6)",
               "wc3", "cyclic(6)", "dihedral(6)"):
    _tag = re.sub(r"\W", "", _group)
    CASES[f"chartab_{_tag}"] = ["chartab", "--group", _group]
TEXT_CASES = sorted(name for name in CASES if name.startswith("readme_")) + [
    "decompose_s6", "chartab_cyclic6"]


def _run(argv, fmt="json") -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([*argv, "--format", fmt])
    return code, buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = _run(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", TEXT_CASES)
def test_golden_text(name):
    code, out = _run(CASES[name], "text")
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    jobs = [(name, "json") for name in CASES] + [(name, "text") for name in TEXT_CASES]
    for name, fmt in jobs:
        code, out = _run(CASES[name], fmt)
        if code != 0:
            raise SystemExit(f"{name} ({fmt}): exit status {code}")
        path = GOLDEN / f"{name}.{'txt' if fmt == 'text' else fmt}"
        path.write_bytes(out)
        print(f"wrote {path.name} ({len(out)} bytes)")
