import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griesmer.errors import DimensionMismatch, TooLarge
from griesmer.gf import field
from griesmer.pg import (
    MAX_TRANSFORM_CELLS,
    Flat,
    enumerate_points,
    flat_indices,
    flat_points,
    hyperplane_multiplicities,
    hyperplanes_containing,
    incident,
    normalize_point,
    point_codes,
    point_digits,
    point_index,
    rank,
    rref,
    span,
    theta,
)


def test_theta_values():
    assert theta(-1, 4) == 0
    assert theta(0, 7) == 1
    assert theta(1, 4) == 5
    assert theta(5, 4) == (4**6 - 1) // 3 == 1365
    assert theta(5, 5) == (5**6 - 1) // 4 == 3906


def test_enumerate_pg1_gf2_exact_order():
    F = field(2)
    assert enumerate_points(F, 1) == ((1, 0), (1, 1), (0, 1))


@pytest.mark.parametrize("r,q,count", [(2, 3, 13), (5, 5, 3906), (3, 4, 85)])
def test_enumerate_counts_and_canonical(r, q, count):
    F = field(q)
    pts = enumerate_points(F, r)
    assert len(pts) == count == theta(r, q)
    assert len(set(pts)) == count
    for P in pts:
        assert normalize_point(F, P) == P
    assert [point_index(q, P) for P in pts] == list(range(count))


def test_incident_examples():
    F = field(4)
    k = 6
    H = (0,) * (k - 1) + (1,)
    P0 = (1,) + (0,) * (k - 1)
    Qq = (0,) * (k - 1) + (1,)
    assert incident(F, P0, H)
    assert not incident(F, Qq, H)
    F2 = field(2)
    assert incident(F2, (1, 1), (1, 1))
    with pytest.raises(DimensionMismatch):
        incident(F2, (1, 1, 0), (1, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_every_hyperplane_has_theta_rm1_points(q, r):
    F = field(q)
    pts = enumerate_points(F, r)
    for H in pts:
        on = sum(1 for P in pts if incident(F, P, H))
        assert on == theta(r - 1, q)


def test_span_of_two_points_is_a_line():
    F = field(5)
    P = (1, 0, 0, 2)
    R = (0, 1, 3, 4)
    L = span(F, [P, R])
    assert L.dim == 1
    assert len(flat_points(F, L)) == 6


def test_span_l0_contains_all_qi():
    # the line joining (1,0,...,0) and (0,...,0,1) carries every (1,0,...,0,a^i)
    F = field(4)
    k = 6
    P0 = (1,) + (0,) * (k - 1)
    Qq = (0,) * (k - 1) + (1,)
    L = span(F, [P0, Qq])
    pts = set(flat_points(F, L))
    for i in range(1, F.q):
        Qi = (1,) + (0,) * (k - 2) + (F.alpha_power(i),)
        assert Qi in pts
    assert pts == {P0, Qq} | {(1,) + (0,) * (k - 2) + (F.alpha_power(i),) for i in range(1, 4)}


def test_span_single_point_and_idempotence():
    F = field(3)
    P = (1, 2, 0)
    L = span(F, [P])
    assert L.dim == 0
    assert flat_points(F, L) == [P]
    S = [(1, 0, 2), (0, 1, 1)]
    flat1 = span(F, S)
    flat2 = span(F, list(S) + flat_points(F, flat1))
    assert flat1 == flat2


@pytest.mark.parametrize(
    "r,q,dim,count", [(5, 4, 1, 5), (5, 4, 4, 341), (2, 3, 0, 1)]
)
def test_flat_points_sizes(r, q, dim, count):
    F = field(q)
    pts = enumerate_points(F, r)
    # a flat of the requested dimension through the first few points
    gens = [pts[0]]
    i = 1
    while span(F, gens).dim < dim:
        gens.append(pts[i])
        i += 1
    flat = span(F, gens)
    assert flat.dim == dim
    got = flat_points(F, flat)
    assert len(got) == count == theta(dim, q)
    assert len(set(got)) == count


def test_duality_round_trip_and_symmetry():
    F = field(3)
    pts = enumerate_points(F, 2)
    # points and hyperplanes share coordinates, so the dual of H is the
    # point H, and P lies on H iff the dual point H lies on the hyperplane P
    for P in pts:
        for H in pts:
            assert incident(F, P, H) == incident(F, H, P)


def test_rref_gives_canonical_flats():
    F = field(5)
    P = (1, 2, 3, 0)
    R = (0, 1, 4, 2)
    L1 = span(F, [P, R])
    # same line recovered from two different points on it
    pts = flat_points(F, L1)
    L2 = span(F, [pts[3], pts[1]])
    assert L1 == L2


def test_rank_of_dependent_rows():
    F = field(2)
    rows = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    assert rank(F, rows) == 3
    assert rank(F, rows[:3]) == 2
    assert rank(F, [(0, 0, 0)]) == 0


def _reference_rref(F, rows):
    """The separate Gauss-Jordan pass rref used before it shared rank's
    forward elimination."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    width = len(mat[0])
    lead = 0
    for col in range(width):
        pivot = next((i for i in range(lead, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[lead], mat[pivot] = mat[pivot], mat[lead]
        inv = F.inv(mat[lead][col])
        if inv != 1:
            mat[lead] = [F.mul(inv, x) for x in mat[lead]]
        for i in range(len(mat)):
            if i != lead and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(mat[i], mat[lead])]
        lead += 1
        if lead == len(mat):
            break
    return tuple(tuple(row) for row in mat[:lead])


def _reference_rank(F, rows):
    """rank's forward elimination as it was before rref shared it."""
    echelon = {}
    for row in rows:
        v = list(row)
        col = 0
        width = len(v)
        while col < width:
            if v[col] == 0:
                col += 1
                continue
            basis_row = echelon.get(col)
            if basis_row is None:
                inv = F.inv(v[col])
                if inv != 1:
                    v = [F.mul(inv, x) for x in v]
                echelon[col] = v
                break
            f = v[col]
            v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, basis_row)]
    return len(echelon)


@st.composite
def _matrices(draw):
    """1-8 rows of width 1-7 over a small field, with zero rows, repeats
    and combinations of earlier rows among them."""
    F = field(draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16])))
    width = draw(st.integers(1, 7))
    element = st.integers(0, F.q - 1)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "combination"])) if rows else "new"
        if kind == "new":
            rows.append(tuple(draw(st.lists(element, min_size=width, max_size=width))))
        elif kind == "zero":
            rows.append((0,) * width)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(element)
            rows.append(tuple(F.add(x, F.mul(c, y)) for x, y in zip(a, b)))
    return F, rows


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_matrices())
def test_rank_and_rref_match_the_separate_eliminations(case):
    F, rows = case
    want = _reference_rref(F, rows)
    assert rref(F, rows) == want
    assert rank(F, rows) == _reference_rank(F, rows) == len(want)


def _line_points_through(F, P, R):
    """The scalar line builder that flat_indices of stacked point pairs
    replaced: the q+1 points of the line joining two points, as tuples."""
    if tuple(P) == tuple(R):
        raise ValueError("a line needs two distinct points")
    pts = [normalize_point(F, R)]
    for lam in range(F.q):
        vec = [F.add(a, F.mul(lam, b)) for a, b in zip(P, R)]
        pts.append(normalize_point(F, vec))
    assert len(set(pts)) == F.q + 1
    return pts


def test_line_points_through():
    F = field(3)
    pts = _line_points_through(F, (1, 0, 0), (0, 1, 2))
    assert len(pts) == 4
    L = span(F, [(1, 0, 0), (0, 1, 2)])
    assert sorted(pts, key=lambda P: point_index(3, P)) == flat_points(F, L)
    assert flat_indices(F, [(1, 0, 0), (0, 1, 2)]).tolist() == [
        point_index(3, P) for P in flat_points(F, L)
    ]


@st.composite
def _point_pairs(draw):
    """A field, a dimension and a list of distinct point pairs of PG(r, q)."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    r = draw(st.integers(1, 4))
    size = theta(r, q)
    pairs = draw(st.lists(
        st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True),
        min_size=1, max_size=6,
    ))
    return field(q), r, np.array(pairs)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_point_pairs())
def test_stacked_pairs_match_the_scalar_line_builder(case):
    F, r, pairs = case
    q = F.q
    ends = point_digits(q, r, pairs)
    want = [
        sorted(point_index(q, X) for X in _line_points_through(F, tuple(P), tuple(R)))
        for P, R in ends.tolist()
    ]
    # one pair at a time, and every pair in one batched call
    for pair, line in zip(ends, want):
        assert flat_indices(F, pair).tolist() == line
    assert flat_indices(F, ends).tolist() == want
    # every other endpoint, as a (m, 1, 2, k) stack, against the first one
    first = ends[0, 0]
    others = np.array([X for X in ends.reshape(-1, r + 1).tolist() if X != first.tolist()])
    if len(others):
        stacked = np.stack(np.broadcast_arrays(others, first), axis=-2)[:, None]
        got = flat_indices(F, stacked)
        assert got.shape == (len(others), 1, q + 1)
        assert got[:, 0].tolist() == [
            sorted(point_index(q, X) for X in _line_points_through(F, tuple(R), tuple(first)))
            for R in others.tolist()
        ]


def test_stacked_bases_list_the_flats_of_their_echelon_forms():
    # any independent rows, batched over two leading axes: each result row
    # lists the points of the plane the rows span, as its echelon basis does
    F, r, rng = field(4), 4, random.Random(7)
    stacks = []
    while len(stacks) < 6:
        rows = point_digits(4, r, rng.sample(range(theta(r, 4)), 3)).tolist()
        if rank(F, rows) == 3:
            stacks.append(rows)
    got = flat_indices(F, np.array(stacks).reshape(2, 3, 3, r + 1))
    assert got.shape == (2, 3, theta(2, 4))
    assert got.reshape(6, -1).tolist() == [flat_indices(F, span(F, rows).basis).tolist() for rows in stacks]


def test_flat_refuses_rows_of_the_wrong_length():
    with pytest.raises(DimensionMismatch, match=r"has 2 entries, PG\(2, q\) needs 3"):
        Flat(r=2, basis=((1, 0, 0), (0, 1)))


def test_stacked_pairs_refuse_a_repeated_point():
    F = field(5)
    P = point_digits(5, 2, [17])[0]
    with pytest.raises(ValueError, match="zero vector"):
        flat_indices(F, np.stack([P, P]))


@pytest.mark.parametrize(
    "r,q", [(1, 2), (4, 2), (2, 3), (3, 3), (3, 4), (2, 5), (3, 5), (2, 7), (2, 8), (2, 9)]
)
def test_hyperplane_multiplicities_against_naive(r, q):
    F = field(q)
    pts = enumerate_points(F, r)
    # a deterministic ragged multiset spread over the whole enumeration
    support = [pts[(i * 7 + 1) % len(pts)] for i in range(12)]
    support = sorted(set(support), key=lambda P: point_index(q, P))
    weights = [(i * 5 + 2) % 4 + 1 for i in range(len(support))]
    naive = [sum(w for P, w in zip(support, weights) if incident(F, P, H)) for H in pts]
    got = hyperplane_multiplicities(F, r, [point_index(q, P) for P in support], weights)
    assert got.shape == (theta(r, q),)
    assert got.dtype == np.int64
    assert got.tolist() == naive


def test_hyperplane_multiplicities_cap():
    # arithmetic only: the bound is checked before anything is allocated
    k = MAX_TRANSFORM_CELLS.bit_length() - 1
    assert 2**k == MAX_TRANSFORM_CELLS
    assert 3**14 <= MAX_TRANSFORM_CELLS < 3**15
    # PG(0, 4099) has 4099 cells, but its q x q field tables have 4099^2
    assert 4099 < MAX_TRANSFORM_CELLS < 4099**2
    for q, k_over in [(2, k + 1), (3, 15), (8, 8), (4099, 1)]:
        F = field(q)
        point = (1,) + (0,) * (k_over - 1)
        with pytest.raises(TooLarge):
            hyperplane_multiplicities(F, k_over - 1, [point_index(q, point)], [1])
    assert field(4099)._tables is None  # rejected before they are built


def test_kernel_peak_memory_is_four_spaces():
    # a 19516-point support of PG(6, 5), the size of the k=7 chain's dual:
    # the folds' working arrays stay within four q^k-cell arrays of the
    # working dtype, with the field tables and point codes built beforehand
    F, q, r = field(5), 5, 6
    support = np.arange(15, theta(r, q))
    weights = np.ones(len(support), dtype=np.int64)
    F.tables
    point_codes(q, r)
    tracemalloc.start()
    try:
        hyperplane_multiplicities(F, r, support, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * q ** (r + 1) * np.dtype(np.int32).itemsize + 64 * 1024


def test_kernel_peak_memory_on_a_line_has_no_cube_table():
    # on PG(1, q) no pass folds twice, so the fold table holds one s and
    # q^2 cells, not q^3: the peak is that table and its two int64
    # temporaries, W and one fold output, each of q^k or q^2 cells
    F, q, r = field(127), 127, 1
    F.tables
    point_codes(q, r)
    tracemalloc.start()
    try:
        hyperplane_multiplicities(F, r, [0, 1], [1, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * (q ** (r + 1) + q * q) * np.dtype(np.int64).itemsize


def _digit_pass_hyperplanes_containing(F, flat):
    """The indicator built one coordinate at a time from the base-q digits
    of the point codes, each dot product with Field tables takes: the
    reference for the split-table hyperplanes_containing."""
    add, mul = F.tables
    q, k = F.q, flat.r + 1
    codes = point_codes(q, flat.r).astype(np.int32)
    dots = np.zeros((len(flat.basis), len(codes)), dtype=np.int32)
    for i in range(k):
        col = [b[i] for b in flat.basis]
        if any(col):
            digit = codes // q ** (k - 1 - i) % q
            for dot, c in zip(dots, col):
                if c:
                    dot[:] = add.ravel().take(dot * q + mul[c].take(digit))
    return ~dots.any(axis=0)


@pytest.mark.parametrize(
    "q,r",
    [
        (q, r)
        for q in (2, 3, 4, 5, 7, 8, 9, 16)
        for r in range(7)
        if q ** (r + 1) <= MAX_TRANSFORM_CELLS
    ],
)
def test_hyperplanes_containing_matches_the_digit_pass(q, r):
    # points, lines and planes spanned by random points; a t-flat's
    # indicator holds the theta(r - t - 1) points of its dual flat
    F, rng = field(q), random.Random(q * 10 + r)
    for t in range(min(2, r) + 1):
        flats = []
        while len(flats) < 2:
            idx = [rng.randrange(theta(r, q)) for _ in range(t + 1)]
            flat = span(F, map(tuple, point_digits(q, r, idx).tolist()))
            if flat.dim == t:
                flats.append(flat)
        for flat in flats:
            got = hyperplanes_containing(F, flat)
            assert got.tolist() == _digit_pass_hyperplanes_containing(F, flat).tolist()
            assert got.sum() == theta(r - t - 1, q)


def test_rref_unique_for_full_space():
    F = field(2)
    rows = [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    assert rref(F, rows) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert Flat(r=2, basis=rref(F, rows)).dim == 2
