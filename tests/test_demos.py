"""Every demo script runs to the end in a fresh interpreter, and the
README's library tour and command lines still run and parse."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from griesmer import cli, code_params

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading: str) -> str:
    """The first fenced block after a README heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def test_demos_exist():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def _first_import(tree: ast.Module, package: str) -> int | None:
    """Index of the first module-level statement that imports package."""
    for i, stmt in enumerate(tree.body):
        if isinstance(stmt, ast.Import) and any(a.name.split(".")[0] == package for a in stmt.names):
            return i
        if isinstance(stmt, ast.ImportFrom) and (stmt.module or "").split(".")[0] == package:
            return i
    return None


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_griesmer_before_numpy(demo):
    # griesmer caps numpy's BLAS threads only if it loads first
    tree = ast.parse(demo.read_text())
    griesmer, numpy = _first_import(tree, "griesmer"), _first_import(tree, "numpy")
    assert griesmer is not None
    assert numpy is None or griesmer < numpy


def test_readme_library_tour_runs_and_states_its_parameters():
    code = _block("Library tour")
    names: dict = {}
    exec(code, names)
    # every "name = ...  # [n, k, d]_q" comment, and the table's row count
    stated = re.findall(r"^(\w+) = .*# \[(\d+), (\d+), (\d+)\]_(\d+)", code, re.M)
    assert [s[0] for s in stated] == ["c1", "dual", "shorter"]
    for name, *params in stated:
        p = code_params(names[name])
        assert [p.n, p.k, p.d, names[name].q] == [int(x) for x in params]
    rows = re.search(r"^rows = .*# (\d+) certified", code, re.M).group(1)
    assert len(names["rows"]) == int(rows)


def test_readme_command_lines_parse():
    lines = [ln for ln in _block("Command line").splitlines() if ln.startswith("griesmer ")]
    assert [shlex.split(ln)[1] for ln in lines] == [
        "construct", "dual", "puncture", "chain", "table", "table", "verify", "export",
    ]
    for line in lines:
        # with the optional flags in brackets, and without them
        for text in (line.replace("[", "").replace("]", ""), re.sub(r" \[.*?\]", "", line)):
            argv = shlex.split(text)[1:]
            args = cli._plain_args(argv)
            assert args is not None, text
            assert vars(args) == vars(cli.make_parser().parse_args(argv))
            assert args.func is getattr(cli, f"_cmd_{argv[0]}")
