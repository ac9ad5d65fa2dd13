import numpy as np
import pytest

from griesmer import chains, pg, transforms
from griesmer.chains import (
    build_chain,
    griesmer_bound,
    plan_chain,
    reproduce_table,
    theorem_range,
)
from griesmer.errors import CertificationFailed, OutOfScope
from griesmer.mcode import code_params, oracle_hyperplane_mults

TABLE_1 = [
    (3158, 2368), (3157, 2367), (3156, 2366), (3155, 2365), (3153, 2364),
    (3152, 2363), (3151, 2362), (3150, 2361), (3148, 2360), (3147, 2359),
    (3146, 2358), (3145, 2357), (3143, 2356),
]


def test_griesmer_bound_values():
    assert griesmer_bound(4, 6, 2368) == 2368 + 592 + 148 + 37 + 10 + 3 == 3158
    assert griesmer_bound(5, 6, 9625) == 9625 + 1925 + 385 + 77 + 16 + 4 == 12032
    assert griesmer_bound(7, 1, 30) == 30
    assert griesmer_bound(5, 7, 53750) == 53750 + 10750 + 2150 + 430 + 86 + 18 + 4 == 67188


def test_griesmer_bound_rejects_bad_args():
    with pytest.raises(ValueError):
        griesmer_bound(4, 6, 0)
    with pytest.raises(ValueError):
        griesmer_bound(4, 0, 5)


def test_theorem_ranges():
    assert theorem_range(1, 4, 6) == (2356, 2368)
    assert theorem_range(2, 5, 6) == (9605, 9625)
    assert theorem_range(1, 5, 7) == (53730, 53750)


def test_theorem_range_scope():
    assert theorem_range(1, 4, 5) == (324, 336)
    assert theorem_range(2, 5, 5) == (1280, 1300)
    with pytest.raises(OutOfScope):
        theorem_range(1, 4, 4)  # k >= 5
    with pytest.raises(OutOfScope):
        theorem_range(2, 4, 5)  # theorem 2 needs q >= 5 at k=5 too
    with pytest.raises(OutOfScope):
        theorem_range(1, 3, 6)  # q < k-2
    with pytest.raises(OutOfScope):
        theorem_range(2, 4, 6)  # theorem 2 needs q >= 5
    with pytest.raises(OutOfScope):
        theorem_range(3, 4, 6)


@pytest.mark.parametrize(
    "theorem,q,k,d,s,j,n",
    [
        (1, 4, 6, 2365, 0, 3, 3155),
        (1, 4, 6, 2356, 3, 0, 3143),
        (2, 5, 6, 9610, 3, 0, 12014),
        (1, 4, 6, 2364, 1, 0, 3153),
        (2, 5, 6, 9616, 1, 4, 12022),
    ],
)
def test_plan_chain(theorem, q, k, d, s, j, n):
    plan = plan_chain(theorem, q, k, d)
    assert (plan.s, plan.j, plan.n_predicted) == (s, j, n)
    assert plan.d_target == plan.d_top - plan.s * q - plan.j


def test_plan_chain_rejects_out_of_range():
    with pytest.raises(OutOfScope):
        plan_chain(1, 4, 6, 2355)
    with pytest.raises(OutOfScope):
        plan_chain(1, 4, 6, 2369)


@pytest.mark.parametrize(
    "theorem,q,k",
    [(1, 3, 5), (1, 4, 5), (1, 4, 6), (1, 5, 6), (1, 5, 7), (1, 7, 6), (2, 5, 5), (2, 5, 6),
     (2, 5, 7), (2, 7, 6), (2, 8, 6)],
)
def test_every_plan_in_range_meets_the_bound(theorem, q, k):
    # the arithmetic identity behind the whole family: every in-range d
    # admits a plan whose predicted length equals the Griesmer bound
    d_min, d_max = theorem_range(theorem, q, k)
    for d in range(d_min, d_max + 1):
        plan = plan_chain(theorem, q, k, d)
        assert plan.n_predicted == griesmer_bound(q, k, d)


@pytest.fixture(scope="module")
def table1():
    return reproduce_table(1, 4, 6)


def test_table1_rows_exact(table1):
    assert [(r.n, r.d) for r in table1] == TABLE_1
    assert all(r.is_griesmer for r in table1)
    assert all(r.q == 4 and r.k == 6 for r in table1)


def test_table1_gaps(table1):
    lengths = {r.n for r in table1}
    for missing in (3154, 3149, 3144):
        assert missing not in lengths


def test_table1_step_accounting(table1):
    for r in table1:
        n, d = 3158, 2368
        for step in r.provenance:
            if step["op"] == "puncture_line":
                n -= 5
                d -= 4
            elif step["op"] == "puncture_point":
                n -= 1
                d -= 1
            if step["op"].startswith("puncture"):
                assert (step["n"], step["d"]) == (n, d)
                assert n == griesmer_bound(4, 6, d)
        assert (n, d) == (r.n, r.d)


def test_build_chain_single_row_matches_plan():
    code, report = build_chain(plan_chain(1, 4, 6, 2368))
    assert (report.n, report.k, report.d) == (3158, 6, 2368)
    assert report.is_griesmer
    p = code_params(code)
    assert (p.n, p.d) == (3158, 2368)


@pytest.mark.parametrize("d", range(theorem_range(1, 4, 6)[0], theorem_range(1, 4, 6)[1] + 1))
def test_build_chain_matches_table_row(table1, d):
    row = next(r for r in table1 if r.d == d)
    _, report = build_chain(plan_chain(1, 4, 6, d))
    assert report.to_json() == row.to_json()


def test_report_json_schema(table1):
    payload = table1[0].to_json()
    assert set(payload) == {
        "q", "k", "n", "d", "divisor", "gamma0", "spectrum",
        "griesmer_n", "is_griesmer", "provenance",
    }
    assert payload["is_griesmer"] is True
    assert payload["griesmer_n"] == payload["n"]
    assert isinstance(payload["provenance"], list)
    assert payload["provenance"][0]["op"] == "construct"
    assert payload["provenance"][1]["op"] == "dual"


def test_divisibility_of_tops(table1):
    top = table1[0]
    assert top.divisor % 4 ** (6 - 3) == 0


@pytest.mark.parametrize("theorem,q,rows", [
    (1, 3, 7), (1, 4, 13), (1, 5, 21), (1, 7, 43), (1, 8, 57), (1, 9, 73), (1, 11, 111),
    (2, 5, 21), (2, 7, 43), (2, 8, 57), (2, 9, 73), (2, 11, 111),
])
def test_k5_tables_certify_every_row(theorem, q, rows):
    # the dimension in the paper's title: every d in range, each on the
    # length bound summed here from scratch
    d_min, d_max = theorem_range(theorem, q, 5)
    table = reproduce_table(theorem, q, 5)
    assert len(table) == rows == d_max - d_min + 1
    assert [r.d for r in table] == list(range(d_max, d_min - 1, -1))
    for r in table:
        assert r.k == 5 and r.is_griesmer
        assert r.n == sum(-(-r.d // q**i) for i in range(5))


def test_family_1_table_at_q5():
    # a family instance with no published row listing: certify all of it
    assert theorem_range(1, 5, 6) == (7605, 7625)
    rows = reproduce_table(1, 5, 6)
    assert len(rows) == 21
    assert (rows[0].n, rows[0].d) == (9532, 7625)
    assert (rows[-1].n, rows[-1].d) == (9508, 7605)
    assert [r.d for r in rows] == list(range(7625, 7604, -1))
    for r in rows:
        assert r.is_griesmer and r.n == griesmer_bound(5, 6, r.d)



def test_build_chain_cross_checks_the_walked_vector(off_by_one):
    with pytest.raises(CertificationFailed, match="differs from the kernel"):
        build_chain(plan_chain(1, 4, 6, 2363))  # one line, then one point


def test_reproduce_table_cross_checks_the_walked_vector(off_by_one):
    with pytest.raises(CertificationFailed, match="differs from the kernel"):
        reproduce_table(1, 4, 6)


@pytest.mark.parametrize("theorem,q,k", [(1, 4, 5), (2, 5, 5), (2, 5, 6)])
def test_every_table_row_matches_the_oracle(theorem, q, k, monkeypatch):
    # only the ends of two walks meet the kernel; every row's walked vector
    # must still equal the oracle's m(H), entry for entry
    report, codes = chains._report, []

    def kept(M, provenance):
        codes.append(M)
        return report(M, provenance)

    monkeypatch.setattr(chains, "_report", kept)
    rows = reproduce_table(theorem, q, k)
    assert len(codes) == len(rows) == q * q - q + 1
    for M in codes:
        assert np.array_equal(M.hyperplane_mults(), oracle_hyperplane_mults(M))


def _kernel_calls(monkeypatch) -> list:
    kernel, calls = pg.hyperplane_multiplicities, []

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(pg, "hyperplane_multiplicities", counted)
    return calls


@pytest.mark.parametrize("theorem,q,k", [(1, 4, 6), (2, 5, 6), (1, 7, 5)])
def test_a_table_makes_three_kernel_calls(theorem, q, k, monkeypatch):
    # the family code, the end of the line walk, the end of the last point walk
    calls = _kernel_calls(monkeypatch)
    reproduce_table(theorem, q, k)
    assert len(calls) == 3


@pytest.mark.parametrize("d", [2368, 2363])  # d_top, and one line then one point
def test_a_chain_makes_two_kernel_calls(d, monkeypatch):
    # the family code and the end of the walk, an empty one included
    calls = _kernel_calls(monkeypatch)
    plan = plan_chain(1, 4, 6, d)
    assert (plan.s, plan.j) == ((0, 0) if d == 2368 else (1, 1))
    build_chain(plan)
    assert len(calls) == 2


def test_a_chain_at_d_top_rechecks_the_dual(monkeypatch):
    # a rolled identity keeps the dual's n, d, divisor and spectrum, so
    # only the recheck of the empty walk sees it
    mults = transforms._dual_mults
    monkeypatch.setattr(transforms, "_dual_mults", lambda M, m: np.roll(mults(M, m), 1))
    with pytest.raises(CertificationFailed, match="differs from the kernel"):
        build_chain(plan_chain(1, 4, 6, 2368))
