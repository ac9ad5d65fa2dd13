"""Acceptance suite: every exit criterion, exact tolerances, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines and timings.  Everything asserted here is recomputed from
scratch; the expected table rows are spelled out literally.
"""

import hashlib
import io
import json
import time
from contextlib import redirect_stdout

import pytest

from griesmer.chains import build_chain, griesmer_bound, plan_chain
from griesmer.cli import main
from griesmer.constructs import code_c1, code_c2
from griesmer.gf import field
from griesmer.mcode import (
    PointMultiset,
    code_params,
    generator_matrix,
    hyperplane_spectrum,
    is_divisible,
    multiset_from_matrix,
    oracle_weight_distribution,
)
from griesmer.pg import dual_hyperplane, dual_point, enumerate_points, incident
from griesmer.transforms import projective_dual

TABLE_1 = [
    (3158, 2368), (3157, 2367), (3156, 2366), (3155, 2365), (3153, 2364),
    (3152, 2363), (3151, 2362), (3150, 2361), (3148, 2360), (3147, 2359),
    (3146, 2358), (3145, 2357), (3143, 2356),
]

TABLE_2 = [
    (12032, 9625), (12031, 9624), (12030, 9623), (12029, 9622), (12028, 9621),
    (12026, 9620), (12025, 9619), (12024, 9618), (12023, 9617), (12022, 9616),
    (12020, 9615), (12019, 9614), (12018, 9613), (12017, 9612), (12016, 9611),
    (12014, 9610), (12013, 9609), (12012, 9608), (12011, 9607), (12010, 9606),
    (12008, 9605),
]


def _cli_json_table(theorem, q, k):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["table", "--theorem", str(theorem), "--q", str(q), "--k", str(k),
                   "--format", "json"])
    assert rc == 0
    return json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def table1_rows():
    t0 = time.monotonic()
    rows = _cli_json_table(1, 4, 6)
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def table2_rows():
    t0 = time.monotonic()
    rows = _cli_json_table(2, 5, 6)
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def dual_c1_64():
    return projective_dual(code_c1(6, 4), 4)


@pytest.fixture(scope="module")
def dual_c2_65():
    return projective_dual(code_c2(6, 5), 5)


def test_criterion_1_table_1(table1_rows):
    rows, built = table1_rows
    t0 = time.monotonic()
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["table", "--theorem", "1", "--q", "4", "--k", "6"]) == 0
    txt = [tuple(int(x) for x in line.split()) for line in buf.getvalue().splitlines()]
    assert txt == TABLE_1
    assert [(r["n"], r["d"]) for r in rows] == TABLE_1
    assert all(r["is_griesmer"] for r in rows)
    lengths = {r["n"] for r in rows}
    assert {3154, 3149, 3144}.isdisjoint(lengths)
    elapsed = built + time.monotonic() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 1 PASS: table at theorem 1, q=4, k=6 has exactly the "
          f"13 expected rows, all certified ({elapsed:.1f}s)")


def test_criterion_2_table_2(table2_rows):
    rows, built = table2_rows
    assert [(r["n"], r["d"]) for r in rows] == TABLE_2
    assert all(r["is_griesmer"] for r in rows)
    assert built < 300
    print(f"\nACCEPTANCE 2 PASS: table at theorem 2, q=5, k=6 has exactly the "
          f"21 expected rows, all certified ({built:.1f}s)")


def test_criterion_3_spectrum_formulas():
    from math import comb

    t0 = time.monotonic()
    for k, q in [(6, 4), (6, 5), (6, 7), (7, 5)]:
        c1 = code_c1(k, q)
        a1 = hyperplane_spectrum(c1)[(k - 2) * q - 1]
        assert a1 == comb(q, k - 4) + comb(q, k - 3), (k, q)
        c2 = code_c2(k, q)
        want = comb(q - 1, k - 3) + 2 * comb(q - 1, k - 4) + (
            comb(q - 1, k - 5) if k - 5 >= 0 else 0
        )
        a2 = hyperplane_spectrum(c2)[(k - 1) * q - 2]
        assert a2 == want, (k, q)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"\nACCEPTANCE 3 PASS: maximal-hyperplane counts match the binomial "
          f"formulas at (6,4), (6,5), (6,7), (7,5) ({elapsed:.1f}s)")


def test_criterion_4_dual_certification(dual_c1_64, dual_c2_65):
    for source_build, dual, m, forms in (
        (code_c1(6, 4), dual_c1_64, 4, (3158, 2368, 64)),
        (code_c2(6, 5), dual_c2_65, 5, (12032, 9625, 125)),
    ):
        src = code_params(source_build)
        n_star, d_star, t = forms
        q, k = source_build.q, source_build.k
        assert t == q ** (k - 2) // m
        assert n_star == src.n * t * q - (src.d // m) * ((q**k - 1) // (q - 1))
        assert d_star == ((src.n - src.d) * q - src.n) * t
        dp = code_params(dual)
        assert (dp.n, dp.d) == (n_star, d_star)
        assert dp.divisor % t == 0
        spec = hyperplane_spectrum(dual)
        for j, lam in enumerate(src.lam):
            assert spec.get(n_star - d_star - j * t, 0) == lam, (m, j)
        assert sum(spec.values()) == sum(src.lam)
    print("\nACCEPTANCE 4 PASS: dual parameters and spectra match the "
          "closed forms at (6,4) and (6,5), every multiplicity class checked")


def test_criterion_5_oracle_equivalence(dual_c1_64):
    from griesmer.constructs import base_code_1

    t0 = time.monotonic()
    for M in (base_code_1(5, 3), code_c1(6, 4), dual_c1_64):
        p = code_params(M)
        dist = oracle_weight_distribution(M)
        spec = hyperplane_spectrum(M)
        expected = {0: 1}
        for mult, count in spec.items():
            w = p.n - mult
            expected[w] = expected.get(w, 0) + (M.q - 1) * count
        assert dist == expected
        assert min(w for w in dist if w) == p.d
        assert sum(dist.values()) == M.q**p.k
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    print(f"\nACCEPTANCE 5 PASS: full codeword enumeration equals the "
          f"hyperplane-derived distribution for all three codes ({elapsed:.1f}s)")


def _audit_chain_steps(rows, q, k):
    for row in rows:
        n, d = None, None
        for step in row["provenance"]:
            if step["op"] == "dual":
                n, d = step["n"], step["d"]
                assert n == griesmer_bound(q, k, d)
            elif step["op"] == "puncture_line":
                assert (step["n"], step["d"]) == (n - (q + 1), d - q)
                n, d = step["n"], step["d"]
                assert n == griesmer_bound(q, k, d)
            elif step["op"] == "puncture_point":
                assert (step["n"], step["d"]) == (n - 1, d - 1)
                n, d = step["n"], step["d"]
                assert n == griesmer_bound(q, k, d)
        assert (n, d) == (row["n"], row["d"])


def test_criterion_6_puncturing_invariants(table1_rows, table2_rows):
    _audit_chain_steps(table1_rows[0], 4, 6)
    _audit_chain_steps(table2_rows[0], 5, 6)
    print("\nACCEPTANCE 6 PASS: every line removal costs exactly (q+1, q), "
          "every point removal (1, 1), and every intermediate meets the bound")


def test_criterion_7_divisibility(dual_c1_64, dual_c2_65):
    assert is_divisible(code_c1(6, 4), 4)
    assert is_divisible(code_c1(6, 5), 5)
    assert is_divisible(code_c2(6, 4), 4)
    assert is_divisible(code_c2(6, 5), 5)
    assert is_divisible(dual_c1_64, 4**3)
    assert is_divisible(dual_c2_65, 5**3)
    assert is_divisible(projective_dual(code_c1(6, 5), 5), 5**3)
    assert is_divisible(projective_dual(code_c2(6, 4), 4), 4**3)
    print("\nACCEPTANCE 7 PASS: family codes are q-divisible and their duals "
          "q^(k-3)-divisible at (6,4) and (6,5)")


def test_criterion_8_beyond_table_7_5():
    t0 = time.monotonic()
    plan = plan_chain(1, 5, 7, 53750)
    code, report = build_chain(plan)
    assert (report.n, report.k, report.d) == (67188, 7, 53750)
    assert report.is_griesmer
    assert griesmer_bound(5, 7, 53750) == 53750 + 10750 + 2150 + 430 + 86 + 18 + 4 == 67188
    p = code_params(code)
    assert (p.n, p.k, p.d) == (67188, 7, 53750)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"\nACCEPTANCE 8 PASS: certified [67188,7,53750]_5 at the "
          f"Griesmer bound ({elapsed:.1f}s)")


def test_criterion_8b_theorem_1_head_q7_k7():
    # PG(6, 7) has 137257 hyperplanes and the dual 137k support points: the
    # exact transform kernel makes this head of the theorem-1 chains feasible
    t0 = time.monotonic()
    code, report = build_chain(plan_chain(1, 7, 7, 422576))
    assert (report.n, report.k, report.d) == (493006, 7, 422576)
    assert report.is_griesmer and griesmer_bound(7, 7, 422576) == 493006
    assert code.n == 493006
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE 8b PASS: certified [493006,7,422576]_7 at the "
          f"Griesmer bound ({elapsed:.1f}s)")


def test_criterion_9_property_suites_standalone():
    # field axioms, exhaustive for every prime power q <= 9
    for q in (2, 3, 4, 5, 7, 8, 9):
        F = field(q)
        for a in range(q):
            if a:
                assert F.mul(a, F.inv(a)) == 1
            for b in range(q):
                for c in range(q):
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    # incidence/duality round trips
    F = field(3)
    pts = enumerate_points(F, 2)
    for P in pts:
        assert dual_hyperplane(dual_point(P)) == P
        for H in pts:
            assert incident(F, P, H) == incident(F, dual_point(H), dual_hyperplane(P))
    # generator-matrix round trip on a hand-built multiset
    M = PointMultiset(F, 2, {pts[0]: 2, pts[3]: 1, pts[7]: 1, pts[12]: 3})
    assert multiset_from_matrix(generator_matrix(M), 3) == M
    print("\nACCEPTANCE 9 PASS: field axioms (q <= 9, exhaustive), duality "
          "round trips, and generator-matrix round trips hold standalone")


# SHA-256 of the bytes the CLI prints and writes, pinned from an earlier
# release; any change to the multiset representation that alters an
# output byte fails here
PINNED_TABLE_2_JSON = "2f2ee7ebc15becfa6039937e3b59433f61d60f189dea10b471674826a4b2ee44"
# theorem 1, q=4, k=6: the one table over a prime-power field
PINNED_TABLE_1_Q4_JSON = "7616589a4cf31530d1361c0f8fa93e6a358e32b66dc7ae89c099c8b4ffe60eb9"
PINNED_CHAIN_Q5K7 = {
    "stdout": "5a008a2e2e503e386d0c99e3835e0293a9338c8b89b4b04f38ea764475ce07c3",
    "code.ms": "f6d014502e67fa2ebf61888e0668739b1ccb9c08f3e68b849ec155d807d66adf",
    "code.ms.meta.json": "8947aad8879f019578bdd7f7fd229fc0166bff30dff001ecbf23814a6a828fa5",
    "report.json": "cf2d92c8f5790052973b6388091f12459fd45d4808ba87e7994d6c419fa34deb",
}

# theorem 1, q=7, k=7: the skew-line search's blocks split inside an anchor
PINNED_TABLE_1_Q7K7_JSON = "f81e0e8be170841a78976a9f084f58be66355ed810b00a94748137a1043ff9d6"

# theorem 1, q=8, k=7: GF(8) products, and point codes split into four
# head digits and a three-digit tail by hyperplanes_containing
PINNED_TABLE_1_Q8K7_JSON = "9564ba98e183b5764a8d24fd07b4f8e4430e199e0cdbb6862e235258130c4001"

# theorem 2, q=9, k=6: products in GF(9) and 252 arc rank checks
PINNED_TABLE_2_Q9K6_JSON = "405efcd2e71a06ee85ef144c3710fed06e6ef9c25e50a194deba1aa9cb020fb6"

# k = 5, the dimension in the paper's title: theorem 1 at q=4 and theorem
# 2 at q=5, pinned from their first certified output
PINNED_K5_TABLES_JSON = {
    (1, 4): "ba2691bfc19c71508487f840b1d41ce056fb23e872c75b8a69220632f61b9d52",
    (2, 5): "c2a2c1fbf2085e4de1bae552163c65fde200ff7b8f5b8e3a856ab6e24be153ad",
}


def _cli_stdout_digest(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    return hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest()


def test_criterion_10_byte_identical_outputs(tmp_path, monkeypatch):
    assert _cli_stdout_digest(
        ["table", "--theorem", "2", "--q", "5", "--k", "6", "--format", "json"]
    ) == PINNED_TABLE_2_JSON
    assert _cli_stdout_digest(
        ["table", "--theorem", "1", "--q", "4", "--k", "6", "--format", "json"]
    ) == PINNED_TABLE_1_Q4_JSON
    # relative paths: the "wrote ..." lines are part of the pinned stdout
    monkeypatch.chdir(tmp_path)
    got = {"stdout": _cli_stdout_digest(
        ["chain", "--theorem", "1", "--q", "5", "--k", "7", "--d", "53750",
         "--out", "code.ms", "--report", "report.json"]
    )}
    for name in ("code.ms", "code.ms.meta.json", "report.json"):
        got[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert got == PINNED_CHAIN_Q5K7
    print("\nACCEPTANCE 10 PASS: table (2,5,6) and (1,4,6) JSON and the [67188,7,53750]_5 "
          "chain's stdout, multiset, sidecar and report match the pinned bytes")


def test_criterion_10b_k5_tables_byte_identical():
    for (theorem, q), digest in PINNED_K5_TABLES_JSON.items():
        assert _cli_stdout_digest(
            ["table", "--theorem", str(theorem), "--q", str(q), "--k", "5", "--format", "json"]
        ) == digest
    print("\nACCEPTANCE 10b PASS: table (1,4,5) and (2,5,5) JSON match the pinned bytes")


def test_criterion_10c_q7_k7_table_byte_identical():
    assert _cli_stdout_digest(
        ["table", "--theorem", "1", "--q", "7", "--k", "7", "--format", "json"]
    ) == PINNED_TABLE_1_Q7K7_JSON
    print("\nACCEPTANCE 10c PASS: table (1,7,7) JSON matches the pinned bytes")


def test_criterion_10d_q9_k6_table_byte_identical():
    assert _cli_stdout_digest(
        ["table", "--theorem", "2", "--q", "9", "--k", "6", "--format", "json"]
    ) == PINNED_TABLE_2_Q9K6_JSON
    print("\nACCEPTANCE 10d PASS: table (2,9,6) JSON matches the pinned bytes")


def test_criterion_10e_q8_k7_table_byte_identical():
    assert _cli_stdout_digest(
        ["table", "--theorem", "1", "--q", "8", "--k", "7", "--format", "json"]
    ) == PINNED_TABLE_1_Q8K7_JSON
    print("\nACCEPTANCE 10e PASS: table (1,8,7) JSON matches the pinned bytes")
