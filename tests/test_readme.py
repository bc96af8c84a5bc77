"""The README's "Library" example runs against the current API."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _library_snippet() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_snippet_prints_the_decomposition():
    buf = io.StringIO()
    with redirect_stdout(buf):
        exec(compile(_library_snippet(), str(README), "exec"), {})
    assert buf.getvalue() == "JS ~ E^3\n"
