"""Rules the package source keeps, checked on its syntax trees."""

import ast
import importlib
import inspect
import operator
from pathlib import Path

from griesmer.errors import VerificationFailure

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


def _asserts(tree: ast.AST) -> list[int]:
    """Lines of every assert statement."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_the_assert_detector_sees_every_form():
    for snippet in (
        "assert x",
        "def f(x):\n    assert x > 0, 'positive'",
        "class A:\n    def f(self):\n        if self.x:\n            assert self.y",
    ):
        assert _asserts(ast.parse(snippet)), snippet
    for snippet in (
        "x = 'assert x'",
        "def f(x):\n    if not x:\n        raise ValueError('no')",
        "self.assertEqual(x, 1)",
    ):
        assert not _asserts(ast.parse(snippet)), snippet


def test_no_module_asserts():
    # python -O strips assert statements, so every check the package makes
    # raises a named error instead
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = {
        path.name: lines
        for path in files
        if (lines := _asserts(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


ELIMINATION = {"echelon", "span", "rref"}


def _eliminations(tree: ast.AST) -> list[int]:
    """Lines that reach pg's row elimination: pg.echelon, pg.span or
    pg.rref read as an attribute of pg, or called by a name imported from
    pg (an import alone, such as a package re-export, calls nothing)."""
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "pg"
        for alias in node.names
        if alias.name in ELIMINATION
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ELIMINATION:
            owner = node.value
            if getattr(owner, "id", None) == "pg" or getattr(owner, "attr", None) == "pg":
                lines.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in names:
            lines.append(node.lineno)
    return lines


def test_the_elimination_detector_sees_every_form():
    for snippet in (
        "_, forms = pg.echelon(F, rows)",
        "flat = pg.span(F, points)",
        "basis = pg.rref(F, rows)",
        "f = griesmer.pg.echelon",
        "from .pg import span\nflat = span(F, points)",
        "from griesmer.pg import Flat, echelon as e\n_, forms = e(F, rows)",
    ):
        assert _eliminations(ast.parse(snippet)), snippet
    for snippet in (
        "r = pg.rank(F, rows)",
        "from .pg import Flat, rank\nr = rank(F, rows)",
        "from .pg import echelon, span",
        "x = M.span",
        "from . import pg",
        "lines = find_disjoint_lines(M, 2)",
    ):
        assert not _eliminations(ast.parse(snippet)), snippet


def test_only_pg_eliminates():
    # elimination is pg's: other modules read bases off the points they
    # hold (a line's basis is its first and last point), and arc_check
    # asks pg.rank only because the rank is its question
    files = sorted(path for path in SOURCE.glob("*.py") if path.name != "pg.py")
    assert files
    found = {
        path.name: lines
        for path in files
        if (lines := _eliminations(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def _owned_private_names(tree: ast.AST) -> set[str]:
    """The _-prefixed attributes that the module's own classes define: in a
    class body (methods, class attributes) or stored on an object there."""
    owned = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owned.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                owned.update(t.id for t in targets if isinstance(t, ast.Name))
        owned.update(
            node.attr
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        )
    return {name for name in owned if name.startswith("_")}


def _foreign_private_attributes(tree: ast.AST) -> list[int]:
    """Lines that read or write obj._name where no class of this module
    defines _name; dunders (obj.__class__) are protocol, not private."""
    owned = _owned_private_names(tree)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and node.attr not in owned
    ]


def test_the_private_attribute_detector_sees_every_form():
    for snippet in (
        "x = M._mvec",
        "M._mvec = v",
        "M._mvec.setflags(write=False)",
        "del M._cache",
        "M._count += 1",
        "f(pg._fold)",
        "class A:\n    def f(self, M):\n        return M._other",
        "class A:\n    def f(self):\n        _local = 1\n\nx = M._local",
    ):
        assert _foreign_private_attributes(ast.parse(snippet)), snippet
    for snippet in (
        "class A:\n    def __init__(self):\n        self._x = None\n\ndef f(a):\n    return a._x",
        "class A:\n    def _helper(self):\n        pass\n    def g(self):\n        self._helper()",
        "class A:\n    _slot = 1\n\nx = A._slot",
        "x = M.__class__",
        "x = M.public",
    ):
        assert not _foreign_private_attributes(ast.parse(snippet)), snippet


def test_private_attributes_stay_in_their_module():
    # a cache or a private helper belongs to the module whose class defines
    # it; other modules go through that module's functions
    files = sorted(SOURCE.glob("*.py"))
    assert files
    found = {
        path.name: lines
        for path in files
        if (lines := _foreign_private_attributes(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module-level _names (dunders aside), each with the def, class or
    assignment that binds it."""
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found.update((name, stmt) for name in names if name.startswith("_") and not name.startswith("__"))
    return found


def _uncalled_private_names(trees: list[ast.Module]) -> set[str]:
    """The module-level _names that no module reads, by name or as an
    attribute, outside the statement that binds them."""
    reads: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(node)
    uncalled = set()
    for tree in trees:
        for name, stmt in _private_definitions(tree).items():
            inside = set(map(id, ast.walk(stmt)))
            if all(id(node) in inside for node in reads.get(name, [])):
                uncalled.add(name)
    return uncalled


def test_the_uncalled_helper_detector_sees_every_form():
    for snippet, uncalled in (
        ("def _f():\n    return 1", {"_f"}),
        ("def _f(n):\n    return _f(n - 1)", {"_f"}),  # only itself
        ("_LIMIT = 3\nclass _Box:\n    pass", {"_LIMIT", "_Box"}),
        ("_CACHE: dict = {}", {"_CACHE"}),
        ("def _f():\n    pass\ndef g():\n    _f = 1", {"_f"}),  # a store reads nothing
        ("def _f():\n    pass\ndef g():\n    return _f()", set()),
        ("_LIMIT = 3\nx = [_LIMIT]", set()),
        ("def _f():\n    pass\nx = mod._f", set()),
        ("__all__ = []\ndef f():\n    pass", set()),
    ):
        assert _uncalled_private_names([ast.parse(snippet)]) == uncalled, snippet
    # a read in another module counts
    assert not _uncalled_private_names([ast.parse("def _f():\n    pass"), ast.parse("from m import _f\n_f()")])


def test_every_private_helper_has_a_caller():
    # a helper that nothing calls is dead code; cli's _cmd_<command>
    # handlers are looked up by name, one for each key of _COMMANDS
    from griesmer.cli import _COMMANDS

    files = sorted(SOURCE.glob("*.py"))
    trees = [ast.parse(path.read_text(), str(path)) for path in files]
    handlers = {
        name.removeprefix("_cmd_")
        for path, tree in zip(files, trees)
        for name in _private_definitions(tree)
        if path.name == "cli.py" and name.startswith("_cmd_")
    }
    assert handlers == set(_COMMANDS)
    assert sorted(n for n in _uncalled_private_names(trees) if not n.startswith("_cmd_")) == []


def _message_template(node: ast.AST) -> str:
    """A message expression with "{}" for each value formatted into it."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(_message_template(v) for v in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _message_template(node.left) + _message_template(node.right)
    return "{}"


def _raise_sites(tree: ast.AST, names: set[str]) -> list[tuple[str, str]]:
    """(function, message template) of every `raise E(message)` whose E is
    named in names, by its name or as an attribute; the function is the
    innermost def around the raise."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                call = child.exc
                name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
                if name in names:
                    found.append((function, _message_template(call.args[0]) if call.args else ""))
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_the_raise_site_detector_sees_every_form():
    names = {"Bad"}
    for snippet, site in (
        ("def f():\n    raise Bad('no')", ("f", "no")),
        ("def f(a):\n    raise errors.Bad(f'a={a} b')", ("f", "a={} b")),
        ("def f(a):\n    raise Bad(f'{a}' + ' tail') from None", ("f", "{} tail")),
        ("def f(a):\n    def g():\n        raise Bad('inner')\n    return g", ("g", "inner")),
        ("def f(a):\n    if a:\n        for x in a:\n            raise Bad(a)", ("f", "{}")),
        ("raise Bad('top')", ("<module>", "top")),
    ):
        assert _raise_sites(ast.parse(snippet), names) == [site], snippet
    for snippet in (
        "def f():\n    raise ValueError('no')",
        "def f(exc):\n    raise exc",
        "def f():\n    try:\n        pass\n    except Bad:\n        raise",
        "def f():\n    return Bad('built, not raised')",
    ):
        assert _raise_sites(ast.parse(snippet), names) == [], snippet


def test_every_verification_raise_is_a_caught_fault():
    # a check counts only if some fault in tests/test_faults.py makes it
    # fire, or if it is listed there as one that no fault can reach
    from test_faults import UNREACHABLE, caught_sites

    def subclasses(cls):
        return {cls.__name__}.union(*(subclasses(c) for c in cls.__subclasses__()))

    names = subclasses(VerificationFailure) - {"VerificationFailure"}
    sites = [
        f"{path.stem}.{function}: {template}"
        for path in sorted(SOURCE.glob("*.py"))
        for function, template in _raise_sites(ast.parse(path.read_text(), str(path)), names)
    ]
    assert len(sites) == len(set(sites))
    caught, unreachable = caught_sites(), set(UNREACHABLE)
    assert not caught & unreachable
    assert sorted(set(sites) - caught - unreachable) == []
    assert sorted((caught | unreachable) - set(sites)) == []


# parameters that bench/spans.py reads by name, (module, function, name):
# its traced test runs one workload, so a rename would break the traced
# runs of the others unseen
SPAN_PARAMETERS = {
    ("mcode", "PointMultiset.__init__", "mults"),
    ("pg", "hyperplane_multiplicities", "support"),
    ("pg", "rank", "rows"),
    ("mcode", "read_multiset", "path"),
    ("mcode", "write_multiset", "path"),
    ("mcode", "oracle_weight_distribution", "M"),
}


def _span_parameters() -> set[tuple[str, str, str]]:
    """(module, function, name) of every a["name"] in the count lambdas of
    bench/spans.py's TARGETS."""
    tree = ast.parse((SOURCE.parents[1] / "bench" / "spans.py").read_text())
    found = set()
    for node in ast.walk(tree):
        count = node.elts[-1] if isinstance(node, ast.Tuple) and len(node.elts) == 3 else None
        if isinstance(count, ast.Lambda):
            module, function = (e.value for e in node.elts[:2])
            arguments = count.args.args[0].arg
            found.update(
                (module, function, sub.slice.value)
                for sub in ast.walk(count.body)
                if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                and sub.value.id == arguments and isinstance(sub.slice, ast.Constant)
            )
    return found


def test_the_parameters_the_bench_spans_read_exist():
    assert _span_parameters() == SPAN_PARAMETERS
    for module, function, name in sorted(SPAN_PARAMETERS):
        fn = operator.attrgetter(function)(importlib.import_module(f"griesmer.{module}"))
        assert name in inspect.signature(fn).parameters, (module, function, name)
