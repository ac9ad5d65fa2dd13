"""Rules the package source keeps, checked on its syntax trees."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "griesmer"
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.AST) -> list[int]:
    """Lines that read the process environment: os.environ, os.getenv, or
    either imported by name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in ENVIRONMENT:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name in ENVIRONMENT for a in node.names):
            lines.append(node.lineno)
    return lines


def test_the_detector_sees_every_form():
    for snippet in (
        "import os\nx = os.environ.get('A')",
        "import os\nx = os.getenv('A')",
        "from os import environ\nx = environ['A']",
        "from os import getenv as g",
    ):
        assert _environment_reads(ast.parse(snippet)), snippet
    assert not _environment_reads(ast.parse("import os\nx = os.path.join('a', 'b')"))


def test_no_module_reads_the_environment():
    # every bound and setting is a constant or an argument, never a
    # variable of the caller's environment
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = {
        path.name: lines
        for path in files
        if (lines := _environment_reads(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}
