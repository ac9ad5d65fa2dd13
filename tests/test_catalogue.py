"""The certified catalogue (tests/catalogue.json): one entry per table of
the paper's reachable grid, checked against the pins elsewhere, and its
entries with q^k <= 2^20 rebuilt byte for byte.  tests/catalogue.py
rebuilds all of them.  Hill's residual lemma is checked on every row of
three tables."""

import catalogue
import numpy as np
import pytest
import test_acceptance
from griesmer.chains import theorem_range
from griesmer.errors import InputError
from griesmer.pg import MAX_TRANSFORM_CELLS


def _admitted() -> list[tuple[int, int, int]]:
    """Every (theorem, q, k) that theorem_range admits with q^k at most
    the transform bound; q >= 2 and q >= k - 2 stop k at 8."""
    grid = []
    for k in range(5, MAX_TRANSFORM_CELLS.bit_length()):
        q = 2
        while q**k <= MAX_TRANSFORM_CELLS:
            for theorem in (1, 2):
                try:
                    theorem_range(theorem, q, k)
                except InputError:
                    continue
                grid.append((theorem, q, k))
            q += 1
    return grid


def test_the_catalogue_is_the_admitted_grid():
    entries = catalogue.entries()
    assert sorted((e["theorem"], e["q"], e["k"]) for e in entries) == sorted(_admitted())
    assert len(entries) == 45 and sum(e["rows"] for e in entries) == 5083
    for e in entries:
        assert (e["d_min"], e["d_max"]) == theorem_range(e["theorem"], e["q"], e["k"])
        assert e["rows"] == e["d_max"] - e["d_min"] + 1


def test_the_catalogue_holds_the_pinned_tables():
    digests = {(e["theorem"], e["q"], e["k"]): e["sha256"] for e in catalogue.entries()}
    pins = {
        (2, 5, 6): test_acceptance.PINNED_TABLE_2_JSON,
        (1, 4, 6): test_acceptance.PINNED_TABLE_1_Q4_JSON,
        (1, 7, 7): test_acceptance.PINNED_TABLE_1_Q7K7_JSON,
        (1, 8, 7): test_acceptance.PINNED_TABLE_1_Q8K7_JSON,
        (2, 9, 6): test_acceptance.PINNED_TABLE_2_Q9K6_JSON,
        **{(t, q, 5): h for (t, q), h in test_acceptance.PINNED_K5_TABLES_JSON.items()},
    }
    assert {key: digests[key] for key in pins} == pins


def test_the_small_catalogue_rebuilds_byte_for_byte():
    entries = catalogue.entries(1 << 20)
    assert len(entries) == 29
    assert catalogue.mismatches(entries) == []


def test_the_literature_checks_report_a_spoiled_row():
    _, rows = catalogue.rebuild(1, 3, 5)
    assert catalogue.literature_faults(rows) == []
    row = rows[0]  # 9 divides d and the divisor, and ceil(90 / 3^4) = 2
    assert (row["d"], row["divisor"], row["gamma0"]) == (90, 9, 2)
    assert catalogue.literature_faults([row | {"gamma0": 3}]) == [
        "d=90: gamma0 = 3, ceil(d / q^(k-1)) = 2"
    ]
    assert catalogue.literature_faults([row | {"divisor": 3}]) == [
        "d=90: 9 divides d but not the divisor 3"
    ]
    # over GF(4), 2 | d gives no divisibility: the (1, 4, 5) row at d = 334
    _, rows = catalogue.rebuild(1, 4, 5)
    assert [(r["divisor"], r["gamma0"]) for r in rows if r["d"] == 334] == [(1, 2)]
    assert catalogue.literature_faults(rows) == []


@pytest.mark.parametrize("key", [(1, 4, 5), (1, 5, 5), (2, 5, 6)], ids=lambda t: "-".join(map(str, t)))
def test_every_row_meets_the_residual_lemma(key):
    entry = next(e for e in catalogue.entries() if (e["theorem"], e["q"], e["k"]) == key)
    assert catalogue.residual_mismatches([entry]) == []


def test_the_residual_check_refuses_an_off_hyperplane_point(monkeypatch):
    on = catalogue.points_on

    def leaky(M, H):  # keeps the first support point off H
        mask = on(M, H)
        mask[np.flatnonzero(~mask & (M.counts > 0))[0]] = True
        return mask

    _, M = next(catalogue.row_codes(1, 4, 5))
    assert catalogue.residual_faults(M) == []
    monkeypatch.setattr(catalogue, "points_on", leaky)
    assert catalogue.residual_faults(M) == [
        "[449,5,336]_4: residual [115,4,84]_4, want the Griesmer [113,4,84]_4"
    ]
