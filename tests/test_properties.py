"""Property suites over small spaces: the closed-form point index and its
vectorized form, the multiset's count vector, the multiset file format,
puncturing, the hyperplane kernel against naive incidence, and the
codeword oracle against a full enumeration."""

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griesmer.gf import field
from griesmer.mcode import (
    PointMultiset,
    oracle_weight_distribution,
    read_multiset,
    write_multiset,
)
from griesmer.pg import (
    enumerate_points,
    flat_points,
    hyperplane_multiplicities,
    incident,
    normalize_point,
    point_digits,
    point_index,
    rank,
    span,
    theta,
    vector_indices,
)
from griesmer.transforms import puncture_flat, puncture_point

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]
PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def spaces(draw, r_min=0, r_max=3):
    return field(draw(st.sampled_from(SMALL_Q))), draw(st.integers(r_min, r_max))


@st.composite
def point_dicts(draw, r_min=0, r_max=3):
    """(F, r, {canonical point: multiplicity >= 1})."""
    F, r = draw(spaces(r_min, r_max))
    pts = enumerate_points(F, r)
    mults = draw(st.dictionaries(st.sampled_from(pts), st.integers(1, 5), min_size=1, max_size=8))
    return F, r, mults


def indicator(size, points, q):
    out = np.zeros(size, dtype=np.int64)
    out[[point_index(q, P) for P in points]] = 1
    return out


@PROPERTY
@given(spaces())
def test_point_index_is_the_enumeration_position(space):
    F, r = space
    pts = enumerate_points(F, r)
    assert [point_index(F.q, P) for P in pts] == list(range(len(pts)))


@pytest.mark.parametrize("q", SMALL_Q)  # GF(4), GF(8) and GF(9) every time
@PROPERTY
@given(r=st.integers(0, 4), data=st.data())
def test_vector_indices_match_the_scalar_index(q, r, data):
    F = field(q)
    vectors = data.draw(st.lists(
        st.lists(st.integers(0, F.q - 1), min_size=r + 1, max_size=r + 1).filter(any),
        min_size=1, max_size=20,
    ))
    got = vector_indices(F, np.array(vectors))
    assert got.tolist() == [point_index(F.q, normalize_point(F, v)) for v in vectors]
    # the digits of an index are the canonical point itself
    assert point_digits(F.q, r, got).tolist() == [list(normalize_point(F, v)) for v in vectors]


@PROPERTY
@given(point_dicts(), st.data())
def test_dict_round_trips_through_the_count_vector(case, data):
    F, r, mults = case
    M = PointMultiset(F, r, mults)
    assert M.mults == mults
    assert list(M.support) == sorted(mults, key=lambda P: point_index(F.q, P))
    assert M.n == sum(mults.values()) == int(M.counts.sum())
    # any nonzero multiple of a point names the same point
    scale = data.draw(st.lists(st.integers(1, F.q - 1), min_size=len(mults), max_size=len(mults)))
    scaled = {tuple(F.mul(s, c) for c in P): m for (P, m), s in zip(mults.items(), scale)}
    assert PointMultiset(F, r, scaled) == M


@PROPERTY
@given(point_dicts())
def test_multiset_file_round_trips_byte_for_byte(case):
    F, r, mults = case
    M = PointMultiset(F, r, mults, meta={"history": [{"op": "test"}]})
    want = [f"{F.q} {r + 1}"] + [
        f"{mults[P]} " + " ".join(map(str, P))
        for P in sorted(mults, key=lambda P: point_index(F.q, P))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.ms"
        write_multiset(M, path)
        first = path.read_bytes()
        assert first == ("\n".join(want) + "\n").encode("ascii")
        back = read_multiset(path)
        assert back == M and back.meta == M.meta
        write_multiset(back, path)
        assert path.read_bytes() == first


@PROPERTY
@given(point_dicts(r_min=2, r_max=3), st.data())
def test_punctures_subtract_an_indicator(case, data):
    F, r, extra = case
    # on top of every point once, d >= q^r > q, so every line and every
    # point can go
    pts = enumerate_points(F, r)
    M = PointMultiset(F, r, Counter(dict.fromkeys(pts, 1)) + Counter(extra))
    i, j = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2, unique=True))
    line = span(F, [pts[i], pts[j]])
    out = puncture_flat(M, line)
    assert np.array_equal(M.counts - out.counts, indicator(len(pts), flat_points(F, line), F.q))
    P = pts[data.draw(st.integers(0, len(pts) - 1))]
    out = puncture_point(M, P)
    assert np.array_equal(M.counts - out.counts, indicator(len(pts), [P], F.q))


@PROPERTY
@given(point_dicts())
def test_kernel_matches_naive_incidence(case):
    F, r, mults = case
    support = list(mults)
    got = hyperplane_multiplicities(
        F, r, [point_index(F.q, P) for P in support], [mults[P] for P in support]
    )
    naive = [
        sum(mults[P] for P in support if incident(F, P, H)) for H in enumerate_points(F, r)
    ]
    assert got.tolist() == naive


def full_enumeration_oracle(M):
    """Every one of the q^k codewords over all n expanded columns: the two
    halves of the generator matrix, split at k//2, compared pairwise."""
    k, q, n = M.k, M.q, M.n
    idx = np.flatnonzero(M.counts)
    G = point_digits(q, M.r, np.repeat(idx, M.counts[idx])).T
    add, mul = M.field.tables

    def codewords(rows):
        C = np.zeros((1, n), dtype=add.dtype)
        for g in rows:
            C = add[C[:, None, :], mul[:, g]].reshape(-1, n)
        return C

    outer, inner = codewords(G[: k // 2]), codewords(G[k // 2 :])
    weights = np.zeros(n + 1, dtype=np.int64)
    for c in outer:
        weights += np.bincount(np.count_nonzero(inner != c, axis=1), minlength=n + 1)
    return {int(w): int(c) for w, c in enumerate(weights) if c}


@pytest.mark.parametrize("q", SMALL_Q)
@PROPERTY
@given(k=st.integers(1, 5), data=st.data())
def test_oracle_matches_the_full_enumeration(q, k, data):
    F = field(q)
    size = theta(k - 1, q)
    # points with first coordinate 0 come last and lie on one hyperplane,
    # so drawing only from them gives a support that does not span
    low = data.draw(st.sampled_from([0, q ** (k - 1)])) if k > 1 else 0
    mults = data.draw(
        st.dictionaries(st.integers(low, size - 1), st.integers(1, 30), min_size=1, max_size=8)
    )
    counts = np.zeros(size, dtype=np.int64)
    counts[list(mults)] = list(mults.values())
    M = PointMultiset(F, k - 1, counts)
    dist = oracle_weight_distribution(M)
    assert dist == full_enumeration_oracle(M)
    spans = rank(F, point_digits(q, k - 1, list(mults)).tolist()) == k
    assert (dist[0] == 1) == spans
