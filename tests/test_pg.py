import random
import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griesmer.constructs import arc_check
from griesmer.errors import DimensionMismatch, InputError, TooLarge
from griesmer.gf import Field, field, field_create
from griesmer.mcode import PointMultiset
from griesmer.pg import (
    MAX_TRANSFORM_CELLS,
    Flat,
    check_space,
    echelon,
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
    span,
    theta,
    vector_indices,
)
from griesmer.transforms import puncture_flat, puncture_point


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


@pytest.mark.parametrize("P", [(2, 1), (1, 5), (1, -1), (0, 0)])
def test_point_index_refuses_a_point_that_is_not_canonical(P):
    # (2, 1) would read as (1, 1), (1, 5) as a tail past theta(1, 3) = 4,
    # and (1, -1) as index -1
    message = "the zero vector is not a projective point" if P == (0, 0) else (
        f"{P} is not a canonical point of PG(1, 3)")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        point_index(3, P)


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


@pytest.mark.parametrize("P,named", [((1, 7), "7"), ((1, 1.5), "1.0"), ((1, -1), "-1")],
                         ids=["7", "1.5", "-1"])
def test_incident_refuses_a_point_outside_the_field(P, named):
    # an entry outside GF(4) is named, not read as a wrong element (a float
    # row names its first entry); -1 would be 1 in characteristic 2, which
    # puts (1, 1) on (1, 1)
    F = field(4)
    for args in ((P, (1, 1)), ((1, 1), P)):
        with pytest.raises(ValueError, match=rf"^{re.escape(named)} is not an element of GF\(4\)$"):
            incident(F, *args)
    # the length check comes first
    with pytest.raises(DimensionMismatch, match="^point has 2 coordinates, hyperplane 3$"):
        incident(F, P, (1, 1, 0))


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
    """A scalar Gauss-Jordan pass: the reduced row echelon form of one row
    list, zero rows dropped."""
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
    """A scalar forward elimination: the rank of one row list."""
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


FIELDS = [2, 3, 4, 5, 7, 8, 9, 16]


def _draw_rows(draw, F, count, width):
    """count rows of the given width, with zero rows, repeats and
    combinations of earlier rows among them."""
    element = st.integers(0, F.q - 1)
    rows = []
    for _ in range(count):
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
    return rows


@st.composite
def _matrices(draw):
    """1-8 rows of width 1-7 over a small field, drawn by _draw_rows."""
    F = field(draw(st.sampled_from(FIELDS)))
    width = draw(st.integers(1, 7))
    return F, _draw_rows(draw, F, draw(st.integers(1, 8)), width)


@st.composite
def _stacks(draw):
    """1-6 row lists of one shape (m, k), m in 1-8 and k in 1-7, each drawn
    by _draw_rows, stacked along one leading axis or as a (2, 3) grid."""
    F = field(draw(st.sampled_from(FIELDS)))
    m, width = draw(st.integers(1, 8)), draw(st.integers(1, 7))
    batch = draw(st.sampled_from([(1,), (2,), (3,), (4,), (5,), (6,), (2, 3)]))
    lists = [_draw_rows(draw, F, m, width) for _ in range(int(np.prod(batch)))]
    return F, np.array(lists).reshape(*batch, m, width)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_matrices())
def test_rank_and_rref_match_the_separate_eliminations(case):
    F, rows = case
    want = _reference_rref(F, rows)
    ranks, forms = echelon(F, rows)
    assert tuple(map(tuple, forms[:ranks].tolist())) == want
    if want:
        assert span(F, rows).basis == want
    assert rank(F, rows) == _reference_rank(F, rows) == len(want)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_stacks())
def test_batched_echelon_matches_the_scalar_references_on_every_stack(case):
    F, stacks = case
    ranks, forms = echelon(F, stacks)
    assert ranks.shape == stacks.shape[:-2] and forms.shape == stacks.shape
    assert rank(F, stacks).tolist() == ranks.tolist()
    for idx in np.ndindex(ranks.shape):
        rows = [tuple(row) for row in stacks[idx].tolist()]
        want = _reference_rref(F, rows)
        assert ranks[idx] == _reference_rank(F, rows) == len(want)
        assert tuple(map(tuple, forms[idx][: len(want)].tolist())) == want
        assert not forms[idx][len(want) :].any()


def test_elimination_refuses_ragged_rows_and_entries_outside_the_field():
    F = field(3)
    with pytest.raises(DimensionMismatch, match="^rows of unequal length$"):
        rank(F, [(1, 0, 0), (0, 1)])
    with pytest.raises(DimensionMismatch, match="^rows of unequal length$"):
        span(F, [(0, 1), (1, 0, 0)])
    with pytest.raises(ValueError, match=r"^5 is not an element of GF\(3\)$"):
        rank(F, [(5, 1, 0)])
    # a negative entry would wrap in a table gather
    with pytest.raises(ValueError, match=r"^-1 is not an element of GF\(3\)$"):
        echelon(F, np.array([[[1, 0], [0, -1]]]))
    with pytest.raises(ValueError, match=r"^0\.5 is not an element of GF\(3\)$"):
        span(F, [(0.5, 1)])
    assert rank(F, []) == 0 and echelon(F, [])[1].shape == (0, 0)
    assert rank(F, np.zeros((2, 0, 3), dtype=int)).tolist() == [0, 0]


def test_normalize_point_refuses_entries_outside_the_field():
    F = Field(field_create(3))
    for bad in (300, -1, 10**30):
        with pytest.raises(ValueError, match=rf"^{bad} is not an element of GF\(3\)$"):
            normalize_point(F, (0, bad, 1))
    with pytest.raises(ValueError, match="^the zero vector is not a projective point$"):
        normalize_point(F, (0, 0, 0))
    assert normalize_point(F, (0, 2, 1)) == (0, 1, 2)
    assert normalize_point(F, np.array([0, 1, 2])) == (0, 1, 2)


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


def test_flat_refuses_an_empty_basis():
    with pytest.raises(ValueError, match="^a flat needs at least one basis row$"):
        Flat(r=2, basis=())
    # echelon leaves no nonzero row, so the zero vector spans no flat either
    with pytest.raises(ValueError, match="^a flat needs at least one basis row$"):
        span(field(3), [(0, 0, 0)])
    with pytest.raises(ValueError, match="^span of an empty point set is undefined$"):
        span(field(3), [])


def _twice(F):
    """Every point of PG(2, q) twice."""
    return PointMultiset(F, 2, np.full(theta(2, F.q), 2))


# every entry that takes GF(q) rows, called with two rows of PG(2, q)
ROW_ENTRIES = {
    "echelon": echelon,
    "rank": rank,
    "span": span,
    "normalize_point": lambda F, rows: normalize_point(F, rows[0]),
    "vector_indices": vector_indices,
    "flat_indices": flat_indices,
    "flat_points": lambda F, rows: flat_points(F, Flat(2, rows)),
    "hyperplanes_containing": lambda F, rows: hyperplanes_containing(F, Flat(2, rows)),
    "incident": lambda F, rows: incident(F, rows[0], rows[1]),
    "arc_check": lambda F, rows: arc_check(F, rows, span(F, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
    "puncture_flat": lambda F, rows: puncture_flat(_twice(F), Flat(2, rows)),
    "puncture_point": lambda F, rows: puncture_point(_twice(F), rows[0]),
}


@pytest.mark.parametrize("q", [4, 5])
@pytest.mark.parametrize("bad", [lambda q: -1, lambda q: q, lambda q: 9, lambda q: 1.5],
                         ids=["-1", "q", "9", "1.5"])
@pytest.mark.parametrize("entry", sorted(ROW_ENTRIES))
def test_every_row_entry_refuses_an_entry_outside_the_field(entry, bad, q):
    # a table gather would wrap a negative entry, fail on one >= q, and
    # truncate a float: each entry refuses the row first, naming the entry
    F, bad = field(q), bad(q)
    rows = ((bad, 1, 0), (0, 0, 1))
    with pytest.raises((ValueError, InputError), match=re.escape(repr(bad))):
        ROW_ENTRIES[entry](F, rows)


@pytest.mark.parametrize("entry", sorted(ROW_ENTRIES))
def test_every_row_entry_refuses_a_bool_array(entry):
    # bool rows are no elements: a gather would read them as a mask
    rows = tuple(map(tuple, np.array([(1, 1, 0), (0, 0, 1)], dtype=bool)))
    with pytest.raises(ValueError, match=r"^True is not an element of GF\(4\)$"):
        ROW_ENTRIES[entry](field(4), rows)


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
    for q, k_over in [(2, k + 1), (3, 15), (8, 8)]:
        F = field(q)
        point = (1,) + (0,) * (k_over - 1)
        with pytest.raises(TooLarge):
            hyperplane_multiplicities(F, k_over - 1, [point_index(q, point)], [1])
    # PG(0, 4099) has 4099 cells, but GF(4099)'s q x q tables have 4099^2,
    # so the field itself is refused
    assert 4099 < MAX_TRANSFORM_CELLS < 4099**2
    check_space(4099, 1)
    with pytest.raises(TooLarge, match=r"^GF\(4099\) needs 16801801 table cells"):
        field(4099)


@pytest.mark.parametrize("call", [
    lambda: hyperplanes_containing(field(2), Flat(23, ((1,) + (0,) * 23,))),
    lambda: flat_indices(field(2), np.eye(24, dtype=np.int64)[:2]),
], ids=["hyperplanes_containing", "flat_indices"])
def test_theta_sized_entries_check_the_space_first(call):
    # PG(23, 2) is just past the bound: its space is refused before any
    # array sized by it is asked for, even for a line's 3 points.  Without
    # the check, a 16 MB vector or 3 indices come back: a small space, so
    # a missing check fails this test instead of exhausting memory
    field(2)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=r"^PG\(23, 2\) needs 2\^24 or more transform cells"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_flat_indices_bounds_its_blocks_first():
    # PG(22, 2) is within the bound, but the points of its 21-flat fill
    # blocks of 4194303 x 23 cells, about 1 GB at their peak: refused
    # before any block is built.  Never run it without the bound
    field(2)
    basis = np.eye(23, dtype=np.int64)[:22]
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=(
            r"^1 flat\(s\) of 4194303 points in PG\(22, 2\) need 96468969 cells, "
            r"above the bound 8388608$"
        )):
            flat_indices(field(2), basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("support,weights", [([0, 1], [1]), ([[0, 1]], [[1, 1]])], ids=["lengths", "2-d"])
def test_hyperplane_multiplicities_refuses_unmatched_weights(support, weights):
    with pytest.raises(ValueError, match="^support and weights must be 1-D arrays of one length$"):
        hyperplane_multiplicities(field(3), 2, support, weights)


def test_kernel_peak_memory_is_four_spaces():
    # a 19516-point support of PG(6, 5), the size of the k=7 chain's dual:
    # the folds' working arrays stay within four q^k-cell arrays of the
    # working dtype, with the field tables and point codes built beforehand
    F, q, r = field(5), 5, 6
    support = np.arange(15, theta(r, q))
    weights = np.ones(len(support), dtype=np.int64)
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
    flat = span(F, rows)
    assert flat == Flat(r=2, basis=((1, 0, 0), (0, 1, 0), (0, 0, 1))) and flat.dim == 2
