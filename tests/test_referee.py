"""The codeword referee (tests/referee.py) against the certifier: its field
against the package's, the two end rows of every catalogue table with
q^k <= 2^15 through the chain and export commands, and the faults it must
see.  `python tests/referee.py` referees every row of those tables."""

import ast
import json
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import catalogue
import referee
from griesmer import pg
from griesmer.chains import theorem_range
from griesmer.cli import main
from griesmer.gf import field, field_create
from griesmer.mcode import read_multiset

TABLES = [(e["theorem"], e["q"], e["k"]) for e in catalogue.entries(referee.MAX_MESSAGES)]


def _export(tmp_path: Path, theorem: int, q: int, k: int, d: int) -> tuple[tuple, str, Path]:
    """The certified (n, k, d) of one chain row, the text export writes for
    it, and its multiset file."""
    ms, report, gm = tmp_path / "code.ms", tmp_path / "report.json", tmp_path / "code.gm"
    args = ["--theorem", str(theorem), "--q", str(q), "--k", str(k), "--d", str(d)]
    assert main(["chain", *args, "--out", str(ms), "--report", str(report)]) == 0
    assert main(["export", "--in", str(ms), "--out", str(gm)]) == 0
    r = json.loads(report.read_text())
    return (r["n"], r["k"], r["d"]), gm.read_text(), ms


def test_the_moduli_are_the_packages():
    assert {q: field_create(q).modulus for q in referee.MODULI} == referee.MODULI


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
def test_the_referee_field_is_the_packages(q):
    # the same encoding and products, built without gf
    add, neg, mul = referee.arithmetic(q)
    F_add, F_mul = field(q).tables
    assert add.tolist() == F_add.tolist() and mul.tolist() == F_mul.tolist()
    assert neg.tolist() == [field(q).neg(a) for a in range(q)]


def test_the_referee_imports_nothing_of_the_package():
    tree = ast.parse(Path(referee.__file__).read_text())
    main_block = next(
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    inside = {id(node) for node in ast.walk(main_block)}
    imported = {
        name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in inside
        for name in ([node.module] if isinstance(node, ast.ImportFrom) else
                     [alias.name for alias in node.names])
    }
    assert imported == {"__future__", "sys", "time", "numpy"}


@pytest.mark.parametrize("table", TABLES, ids=lambda t: "-".join(map(str, t)))
def test_the_referee_agrees_on_the_end_rows(table, tmp_path, capsys):
    theorem, q, k = table
    for d in theorem_range(theorem, q, k):
        certified, text, _ = _export(tmp_path, theorem, q, k, d)
        assert referee.referee(*referee.read_matrix(text)) == certified
    capsys.readouterr()


def test_one_changed_entry_changes_the_referees_answer(tmp_path, capsys):
    # the message H, a hyperplane of multiplicity n - d, has weight d; one
    # entry changed in a column off H puts that column on H, so the weight,
    # and d, fall by one, the most one column can move any weight
    (n, k, d), text, ms = _export(tmp_path, 1, 4, 5, 336)
    capsys.readouterr()
    M, F = read_multiset(ms), field(4)
    h = int(np.flatnonzero(M.hyperplane_mults() == n - d)[0])
    H = pg.point_digits(4, M.r, [h])[0].tolist()
    q, G = referee.read_matrix(text)
    dots = [reduce(F.add, map(F.mul, H, column), 0) for column in G.T.tolist()]
    j = next(j for j, dot in enumerate(dots) if dot)
    G[H.index(1), j] = F.sub(int(G[H.index(1), j]), dots[j])
    assert referee.referee(q, G) == (n, k, d - 1)


def test_a_spoiled_product_is_caught_by_the_certifier(tmp_path, capsys, monkeypatch):
    # 3 * 3 = 2 in GF(4); spoiled, the family code comes out with the wrong
    # distance and the chain refuses it before writing anything, so the
    # referee gets no code to see
    F = field(4)
    add, mul = F.tables
    spoiled = mul.copy()
    spoiled[3, 3] = 3
    monkeypatch.setattr(F, "tables", (add, spoiled))
    out = tmp_path / "code.ms"
    args = ["--theorem", "1", "--q", "4", "--k", "5", "--d", "336", "--out", str(out)]
    assert main(["chain", *args]) == 1
    assert capsys.readouterr().err == "verification failed: built [23,5,10]_4, wanted [23,5,12]_4\n"
    assert not out.exists()


@pytest.mark.parametrize("q,a,spoiled", [(3, 1, 2), (4, 3, 2), (5, 2, 2)])
def test_a_spoiled_inverse_product_is_named(q, a, spoiled, tmp_path, capsys, monkeypatch):
    # a^-1 * a spoiled: vector_indices would read the index off a vector
    # whose lead is not 1, past the point codes or onto another point;
    # it names the product instead, and the chain writes nothing
    F = field(q)
    add, mul = F.tables
    bad = mul.copy()
    bad[F.inv(a), a] = spoiled
    monkeypatch.setattr(F, "tables", (add, bad))
    out = tmp_path / "code.ms"
    d = theorem_range(1, q, 5)[1]
    args = ["--theorem", "1", "--q", str(q), "--k", "5", "--d", str(d), "--out", str(out)]
    assert main(["chain", *args]) == 1
    assert capsys.readouterr().err == (
        f"verification failed: GF({q})'s tables give {a}^-1 * {a} = {spoiled}, not 1\n"
    )
    assert not out.exists()
