"""Faults that the certification checks reading each code's parameters
must catch.

Each fault is one monkeypatch of a computation the pipeline runs (a kernel
result, a closed form, a binomial, one step's indicator, the lines the
skew search returns), never of code_params or hyperplane_spectrum, whose
reading is what is under test.  Every fault runs through the `table` and
`chain` commands at (1, 5, 5) and (2, 5, 6): the command must exit 1 with
the expected check's message, print nothing on stdout and leave no output
file.
"""

import math
import re

import numpy as np
import pytest

from griesmer import chains, constructs, pg
from griesmer.cli import main

# (theorem, q, k, chain distance): the chain walks 3 lines and 4 points,
# so it passes five point-sized steps when lines are taken as points
CASES = [(1, 5, 5, 881), (2, 5, 6, 9606)]


def _spoil_kernel(monkeypatch, call, spoil):
    """Change the kernel's result on its `call`-th call (1 is the family
    code, 2 its dual) in place with spoil(m, q, k)."""
    kernel = pg.hyperplane_multiplicities
    calls = []

    def spoiled(F, r, support, weights):
        m = kernel(F, r, support, weights)
        calls.append(None)
        if len(calls) == call:
            spoil(m, F.q, r + 1)
        return m

    monkeypatch.setattr(pg, "hyperplane_multiplicities", spoiled)


def _spoil_line_indicator(monkeypatch, spoil):
    """Replace the hyperplanes-through-S indicator of every line removal."""
    containing = pg.hyperplanes_containing

    def spoiled(F, flat):
        through = containing(F, flat)
        return spoil(through) if flat.dim == 1 else through

    monkeypatch.setattr(pg, "hyperplanes_containing", spoiled)


def _shift_every_entry(m, q, k):
    m += 1


def _lower_the_least_entry(by):
    def spoil(m, q, k):
        m[m.argmin()] -= by(q, k)

    return spoil


def _family_tops_one_line_down(monkeypatch):
    tops = chains._family_tops

    def spoiled(theorem, q, k):
        n_top, d_top = tops(theorem, q, k)
        return n_top - q - 1, d_top - q  # still a consistent plan, so only the dual's check sees it

    monkeypatch.setattr(chains, "_family_tops", spoiled)


def _family_dual_message(theorem, q, k):
    n, d = chains._family_tops(theorem, q, k)
    return re.escape(f"dual is [{n},{k},{d}]_{q}, closed forms give [{n - q - 1},{k},{d - q}]_{q}")


def _dual_distance_message(theorem, q, k):
    n, d = chains._family_tops(theorem, q, k)
    return re.escape(f"dual is [{n},{k},{d - 1}]_{q}, closed forms give [{n},{k},{d}]_{q}")


FAULTS = {
    # constructs._verified: the family code's (n, d), divisibility and a_i
    "family-distance": (
        lambda mp: _spoil_kernel(mp, 1, _shift_every_entry),
        lambda t, q, k: rf"built \[\d+,{k},\d+\]_{q}, wanted",
    ),
    "family-divisibility": (
        lambda mp: _spoil_kernel(mp, 1, _lower_the_least_entry(lambda q, k: 1)),
        lambda t, q, k: f"weights are not all divisible by {q}",
    ),
    "family-spectrum": (
        lambda mp: mp.setattr(constructs, "comb", lambda a, b: math.comb(a, b) + 1),
        lambda t, q, k: r"a_\d+ = \d+, expected \d+",
    ),
    # transforms.projective_dual: closed forms, divisor and spectrum mirror
    "dual-distance": (
        lambda mp: _spoil_kernel(mp, 2, _shift_every_entry),
        _dual_distance_message,
    ),
    "dual-divisor": (
        lambda mp: _spoil_kernel(mp, 2, _lower_the_least_entry(lambda q, k: 1)),
        lambda t, q, k: rf"dual divisor \d+ is not a multiple of {q ** (k - 3)}",
    ),
    "dual-spectrum": (
        # a multiple of the dual's divisor t = q^(k-3), so only the mirror moves
        lambda mp: _spoil_kernel(mp, 2, _lower_the_least_entry(lambda q, k: q ** (k - 3))),
        lambda t, q, k: "dual spectrum does not mirror the input multiplicity profile",
    ),
    # chains._family_dual: the dual against the family's own closed forms
    "family-tops": (
        _family_tops_one_line_down,
        _family_dual_message,
    ),
    # transforms._remove: a line step whose walked d leaves [d - q, d]
    "line-step-range": (
        lambda mp: _spoil_line_indicator(mp, lambda through: through.astype(np.int64) - 1),
        lambda t, q, k: r"removing a 1-flat gave \[",
    ),
    # chains._walk: a line step that keeps d (every hyperplane holds the line)
    "line-step-cost": (
        lambda mp: _spoil_line_indicator(mp, np.ones_like),
        lambda t, q, k: rf"removal changed \(n, d\) by \({q + 1}, 0\), expected \({q + 1}, {q}\)",
    ),
}


@pytest.mark.parametrize("theorem,q,k,d", CASES, ids=lambda v: str(v))
@pytest.mark.parametrize("command", ["table", "chain"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_every_fault_is_caught(fault, command, theorem, q, k, d, monkeypatch, tmp_path, capsys):
    install, message = FAULTS[fault]
    expected = message(theorem, q, k)  # before the fault changes what it reads
    install(monkeypatch)
    _expect_failure(command, theorem, q, k, d, tmp_path, capsys, expected)


@pytest.mark.parametrize("theorem,q,k,d", CASES, ids=lambda v: str(v))
@pytest.mark.parametrize("command", ["table", "chain"])
def test_points_in_place_of_lines_miss_the_bound(command, theorem, q, k, d, monkeypatch, tmp_path, capsys):
    # the skew search hands back "take a point" for every line: each step
    # costs (1, 1) as a point removal should, so the chain's fifth step, to a
    # d one above a multiple of q, leaves the length bound; the table's
    # second row is read before its walk gets that far
    monkeypatch.setattr(chains, "find_disjoint_lines", lambda M, count: [None] * count)
    expected = {
        "chain": rf"intermediate \[\d+,{k},\d+\]_{q} misses the length bound",
        "table": r"row for d=\d+ produced",
    }[command]
    _expect_failure(command, theorem, q, k, d, tmp_path, capsys, expected)


def _expect_failure(command, theorem, q, k, d, tmp_path, capsys, expected):
    argv = [command, "--theorem", str(theorem), "--q", str(q), "--k", str(k)]
    if command == "chain":
        argv += ["--d", str(d), "--out", str(tmp_path / "code.ms"),
                 "--report", str(tmp_path / "report.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(rf"^verification failed: .*{expected}", captured.err, re.M), captured.err
    assert list(tmp_path.iterdir()) == []
