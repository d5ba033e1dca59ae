"""Repository rules that the other tests do not reach."""

import ast
import contextlib
import io
import re
from pathlib import Path

TESTS = Path(__file__).parent
README = TESTS.parent / "README.md"


def test_dense_oracle_does_not_import_the_package():
    # the oracle is the one deliberate duplicate of the engine; importing the
    # package (or a test module, which does) would make its checks circular
    local = {p.stem for p in TESTS.glob("*.py")}
    imported = []
    for node in ast.walk(ast.parse((TESTS / "oracle_dense.py").read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    roots = {name.split(".")[0] for name in imported}
    assert "numpy" in roots
    assert not roots & ({"", "spinplanar"} | local), imported


def test_readme_quick_start_runs():
    # the README's example is run as written, so it cannot drift from the API
    section = README.read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["True", "[1, 1, 3, 9, 27]"]
