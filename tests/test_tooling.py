"""Repository rules that the other tests do not reach."""

import ast
import contextlib
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import spinplanar as sp
from spinplanar import cli, numerics

TESTS = Path(__file__).parent
README = TESTS.parent / "README.md"
BENCH_RUN = TESTS.parent / "bench" / "run.py"
SRC = Path(sp.__file__).resolve().parents[1]


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports spinplanar from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_only_the_base_modules():
    # qdims, check and convert need no group or selftest code, so importing
    # the command line must not load it
    proc = fresh_python("import sys, spinplanar.cli; print(' '.join(sorted("
                        "m for m in sys.modules if m.split('.')[0] == 'spinplanar')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["spinplanar"] + [
        f"spinplanar.{m}" for m in ("cli", "core", "numerics", "ops", "qit", "subfactor")]


def test_package_namespace_resolves_every_public_name():
    listed = dir(sp)
    for name in sp.__all__:
        module = importlib.import_module(f"spinplanar.{sp._MODULE_OF[name]}")
        assert getattr(sp, name) is getattr(module, name), name
        assert name in listed, name
    assert len(set(sp.__all__)) == len(sp.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(sp, "no_such_name")


@pytest.mark.parametrize("argv, code, stream, text", [
    (["group", "--input", "{table}"], 2, "stderr", "input error: not a group table (closure)"),
    (["selftest", "--spins", "2"], 0, "stdout", "verdict: PASS"),
], ids=["group-bad-table", "selftest"])
def test_deferred_imports_run_in_a_fresh_process(tmp_path, argv, code, stream, text):
    # group and selftest import their modules when they run; a fresh process
    # has not loaded them through an earlier test
    table = tmp_path / "table.json"
    table.write_text(json.dumps([[1, 2], [2, 3]]))
    proc = fresh_python("import sys; from spinplanar.cli import main; sys.exit(main(sys.argv[1:]))",
                        *(a.format(table=table) for a in argv))
    assert proc.returncode == code, proc.stderr
    assert text in getattr(proc, stream), proc.stderr


def test_dense_oracle_does_not_import_the_package():
    # the oracles are the deliberate duplicates of the engine; importing the
    # package (or a test module, which does) would make their checks circular
    local = {p.stem for p in TESTS.glob("*.py")}
    oracles = sorted(TESTS.glob("oracle_*.py"))
    assert {"oracle_dense.py", "oracle_hadamard.py"} <= {p.name for p in oracles}
    for path in oracles:
        imported = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported.append("." * node.level + (node.module or ""))
        roots = {name.split(".")[0] for name in imported}
        assert "numpy" in roots, path.name
        assert roots <= {"numpy", "scipy", "itertools", "math"}, (path.name, imported)
        assert not roots & ({"", "spinplanar"} | local), (path.name, imported)


def test_one_svd_driver():
    # every SVD in the package runs numerics.SVD_DRIVER: each lapack_driver=
    # argument reads that constant, and no other string names an SVD driver
    drivers = re.compile(r"ge(svd|sdd|jsv|svj|svdx|svdq)")
    reads, named = 0, []
    for path in sorted((SRC / "spinplanar").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.keyword) and node.arg == "lapack_driver":
                value = node.value
                name = value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", None)
                assert name == "SVD_DRIVER", (path.name, ast.unparse(value))
                reads += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if drivers.fullmatch(node.value):
                    named.append((path.name, node.value))
    assert reads >= 2
    assert named == [("numerics.py", numerics.SVD_DRIVER)]
    assert numerics.SVD_DRIVER == "gesdd"


def test_readme_quick_start_runs():
    # the README's example is run as written, so it cannot drift from the API
    section = README.read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["True", "[1, 1, 3, 9, 27]"]


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    # the README's commands are run as written, in a directory holding the
    # file they name, so they cannot drift from the command line
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["spinplanar", c] for c in ("check", "convert", "qdims", "group", "selftest")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fourier4.json").write_text(json.dumps(sp.qit_to_json(sp.fourier_hadamard(4))))
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def _exit_codes(text: str) -> list[int]:
    # the codes listed in the "Exit codes:" sentence, as "<code> <meaning>"
    # entries separated by commas or semicolons
    sentence = re.search(r"Exit codes:(.*?)\.(?:\s|$)", text, re.S).group(1)
    return [int(c) for c in re.findall(r"(?:^|[,;])\s*(\d+)\s+[a-z]", sentence)]


def test_exit_codes_are_documented():
    # every cli.EXIT_* constant appears with its value, once, in the README
    # and in the module docstring, so a new exit code cannot drift from them
    codes = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
    assert codes == list(range(len(codes)))
    assert _exit_codes(README.read_text()) == codes
    assert _exit_codes(cli.__doc__) == codes


def test_benchmark_trace_targets_resolve():
    # the benchmark times each layer by wrapping the functions its WRAPS list
    # names; a target that stops resolving silently empties its per-layer
    # metric.  bench/run.py is parsed, not imported: importing it sets the
    # BLAS thread variables of this process.
    constants, wraps = {}, []
    for node in ast.parse(BENCH_RUN.read_text()).body:
        if not isinstance(node, ast.Assign):
            continue
        target, value = node.targets[0], node.value
        pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                 else [(target, value)])
        for name, v in pairs:
            if isinstance(name, ast.Name) and isinstance(v, ast.Constant):
                constants[name.id] = v.value
            elif isinstance(name, ast.Name) and name.id == "WRAPS":
                wraps = v.elts

    def literal(arg):
        return constants[arg.id] if isinstance(arg, ast.Name) else arg.value

    targets = [(literal(call.args[0]), literal(call.args[1])) for call in wraps]
    assert targets
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing
