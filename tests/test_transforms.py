import inspect
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griesmer import pg, transforms
from griesmer.chains import _family_dual
from griesmer.constructs import code_c1, code_c2
from griesmer.errors import (
    DimensionMismatch,
    DistanceTooSmall,
    DivisibilityViolated,
    FlatNotInSupport,
    IntersectionNonempty,
    NotEnoughLines,
    NoZeroPoint,
    PointNotInSupport,
)
from griesmer.gf import field
from griesmer.mcode import (
    PointMultiset,
    code_params,
    hyperplane_spectrum,
)
from griesmer.pg import enumerate_points, flat_points, span, theta
from griesmer.transforms import (
    _line_block,
    find_disjoint_lines,
    projective_dual,
    puncture_flat,
    puncture_point,
    recheck_hyperplanes,
    simple_point,
)


@pytest.fixture(scope="module")
def dual_c1_64():
    return projective_dual(code_c1(6, 4), 4)


@pytest.fixture(scope="module")
def dual_c2_65():
    return projective_dual(code_c2(6, 5), 5)


def test_dual_c1_parameters(dual_c1_64):
    p = code_params(dual_c1_64)
    assert (p.n, p.k, p.d) == (3158, 6, 2368)
    assert p.divisor == 64


def test_dual_c1_spectrum_mirrors_lambda(dual_c1_64):
    source = code_params(code_c1(6, 4))
    spec = hyperplane_spectrum(dual_c1_64)
    n, d, t = 3158, 2368, 64
    expected = {n - d - j * t: lam for j, lam in enumerate(source.lam) if lam}
    assert spec == expected
    assert spec[790] == 1347 and spec[726] == 16 and spec[598] == 1 and spec[534] == 1


def test_dual_c2_parameters(dual_c2_65):
    p = code_params(dual_c2_65)
    assert (p.n, p.k, p.d) == (12032, 6, 9625)
    assert p.divisor % 125 == 0


def test_dual_c2_spectrum_mirrors_lambda(dual_c2_65):
    source = code_params(code_c2(6, 5))
    assert source.lam == (3882, 20, 0, 0, 2, 2)
    spec = hyperplane_spectrum(dual_c2_65)
    expected = {12032 - 9625 - 125 * j: lam for j, lam in enumerate(source.lam) if lam}
    assert spec == expected


def test_dual_closed_forms_at_7_5():
    # n* = 2q^6 - q^5 + 1 + 2*theta_6 and d* = 4q^6 - 3q^5 + q^4 at q=5
    n_star = 2 * 5**6 - 5**5 + 1 + 2 * theta(6, 5)
    d_star = 4 * 5**6 - 3 * 5**5 + 5**4
    assert (n_star, d_star) == (67188, 53750)


def test_dual_rejects_bad_divisor():
    c1 = code_c1(6, 4)
    with pytest.raises(DivisibilityViolated):
        projective_dual(c1, 3)  # not a power of p = 2
    with pytest.raises(DivisibilityViolated):
        projective_dual(c1, 8)  # weights are 4-divisible, not 8-divisible
    with pytest.raises(DivisibilityViolated):
        projective_dual(c1, 4**5)  # exponent above h(k-2)


def test_dual_rejects_full_support():
    M = PointMultiset(field(2), 2, np.ones(theta(2, 2), dtype=np.int64))
    with pytest.raises(NoZeroPoint):
        projective_dual(M, 2)


def test_dual_rejects_concentrated_low_hyperplanes():
    # the four points of PG(2,2) off the line [0,0,1]: the only
    # below-maximal hyperplane is that line, which cannot span
    off = pg.point_digits(2, 2, np.arange(theta(2, 2)))[:, 2] != 0
    M = PointMultiset(field(2), 2, off.astype(np.int64))
    with pytest.raises(IntersectionNonempty):
        projective_dual(M, 2)


def test_puncture_one_line(dual_c1_64):
    line = find_disjoint_lines(dual_c1_64, 1)[0]
    out = puncture_flat(dual_c1_64, line)
    p = code_params(out)
    assert (p.n, p.k, p.d) == (3153, 6, 2364)


def test_puncture_two_lines(dual_c2_65):
    lines = find_disjoint_lines(dual_c2_65, 2)
    out = puncture_flat(puncture_flat(dual_c2_65, lines[0]), lines[1])
    p = code_params(out)
    assert (p.n, p.k, p.d) == (12020, 6, 9615)


def test_puncture_line_not_in_support(dual_c1_64):
    counts = dual_c1_64.counts
    ends = [np.flatnonzero(counts == 0)[0], np.flatnonzero(counts)[0]]
    line = span(dual_c1_64.field, pg.point_digits(4, 5, ends).tolist())
    with pytest.raises(FlatNotInSupport):
        puncture_flat(dual_c1_64, line)


def test_puncture_flat_from_another_space():
    # every point of PG(2, 3) carries multiplicity, but a line of PG(1, 3)
    # or of PG(3, 3) is not a flat of that space
    F = field(3)
    M = PointMultiset(F, 2, np.full(theta(2, 3), 2))
    for r in (1, 3):
        line = span(F, [(1,) + (0,) * r, (0,) * r + (1,)])
        with pytest.raises(FlatNotInSupport):
            puncture_flat(M, line)


def test_puncture_point_steps(dual_c1_64, dual_c2_65):
    first = np.flatnonzero(dual_c1_64.counts == 1)[0]
    out = puncture_point(dual_c1_64, pg.point_digits(4, 5, [first])[0].tolist())
    p = code_params(out)
    assert (p.n, p.k, p.d) == (3157, 6, 2367)

    code = dual_c2_65
    for _ in range(3):
        code = puncture_point(code, simple_point(code))
    p = code_params(code)
    assert (p.n, p.k, p.d) == (12029, 6, 9622)


@pytest.mark.parametrize("m", [2, 4])
def test_the_identity_gives_the_kernels_dual_vector(m):
    # m = 2 < q: the identity divides by a proper divisor of q
    recheck_hyperplanes(projective_dual(code_c1(6, 4), m))


def test_punctures_walk_the_vector_without_the_kernel(dual_c1_64, monkeypatch):
    code_params(dual_c1_64)  # the dual's own vector comes from the incidence identity

    def refuse(*args, **kwargs):
        raise AssertionError("a puncture ran the hyperplane kernel")

    monkeypatch.setattr(pg, "hyperplane_multiplicities", refuse)
    out = puncture_flat(dual_c1_64, find_disjoint_lines(dual_c1_64, 1)[0])
    out = puncture_point(out, simple_point(out))
    p = code_params(out)
    assert (p.n, p.k, p.d) == (3152, 6, 2363)
    monkeypatch.undo()
    recheck_hyperplanes(out)


def test_puncture_point_requires_support(dual_c1_64):
    missing = pg.point_digits(4, 5, np.flatnonzero(dual_c1_64.counts == 0)[:1])[0].tolist()
    with pytest.raises(PointNotInSupport):
        puncture_point(dual_c1_64, missing)


def test_puncture_guards_distance():
    F = field(2)
    M = PointMultiset(F, 1, np.ones(theta(1, 2), dtype=np.int64))  # [3,2,2]_2
    line = span(F, [(1, 0), (0, 1)])
    with pytest.raises(DistanceTooSmall):
        puncture_flat(M, line)
    out = puncture_point(M, (1, 1))
    assert code_params(out).d == 1
    with pytest.raises(DistanceTooSmall):
        puncture_point(out, (1, 0))


def test_find_disjoint_lines_c1(dual_c1_64):
    lines = find_disjoint_lines(dual_c1_64, 3)
    assert len(lines) == 3
    seen = set()
    for flat in lines:
        idx = set(pg.flat_indices(dual_c1_64.field, flat.basis).tolist())
        assert len(idx) == 5
        assert (dual_c1_64.counts[list(idx)] >= 1).all()
        assert not (seen & idx)
        seen |= idx
    assert len(seen) == 15


def test_find_disjoint_lines_c2(dual_c2_65):
    lines = find_disjoint_lines(dual_c2_65, 4)
    assert len(lines) == 4
    seen = set()
    for flat in lines:
        idx = pg.flat_indices(dual_c2_65.field, flat.basis)
        assert (dual_c2_65.counts[idx] >= 1).all()
        seen |= set(idx.tolist())
    assert len(seen) == 24


def test_find_disjoint_lines_respects_region(dual_c1_64):
    lines = find_disjoint_lines(dual_c1_64, 2)
    coeffs = tuple(dual_c1_64.meta["skew_region"])
    for flat in lines:
        for P in flat_points(dual_c1_64.field, flat):
            assert pg.incident(dual_c1_64.field, P, coeffs)


@pytest.mark.parametrize("length", [5, 7])
def test_find_disjoint_lines_refuses_a_region_of_the_wrong_length(dual_c1_64, length):
    # a library caller's region, which the sidecar reader would refuse first
    M = dual_c1_64
    meta = {"skew_region": [1] + [0] * (length - 1)}
    with pytest.raises(DimensionMismatch, match=rf"has {length} entries, PG\(5, q\) needs 6"):
        find_disjoint_lines(PointMultiset(M.field, M.r, M.counts, meta=meta), 2)


def test_find_disjoint_lines_impossible(dual_c1_64):
    with pytest.raises(NotEnoughLines):
        find_disjoint_lines(dual_c1_64, theta(5, 4))


def _line_points_through(F, P, R):
    """The scalar line builder that flat_indices of stacked point pairs
    replaced: the q+1 points of the line joining two points, as tuples."""
    pts = [pg.normalize_point(F, R)]
    for lam in range(F.q):
        vec = [F.add(a, F.mul(lam, b)) for a, b in zip(P, R)]
        pts.append(pg.normalize_point(F, vec))
    assert len(set(pts)) == F.q + 1
    return pts


def _reference_candidate_lines(F, region_support, support_set):
    """The scalar candidate generator the index-space search replaced: lines
    whose q+1 points all lie in the support, in lexicographic order, each
    generated once at its smallest point."""
    for i, P in enumerate(region_support):
        covered: set[tuple[int, ...]] = set()
        for R in region_support[i + 1 :]:
            if R in covered:
                continue
            pts = _line_points_through(F, P, R)
            covered.update(pts)
            key = sorted(pts, key=lambda X: pg.point_index(F.q, X))
            if key[0] != P:
                continue  # generated at its own anchor instead
            if all(pt in support_set for pt in pts):
                yield tuple(key)


def _hyperplane_points(F, r, H):
    """The points of PG(r, q) on the hyperplane with coefficients H, by
    scalar incidence."""
    return [P for P in enumerate_points(F, r) if pg.incident(F, P, H)]


def _reference_find_disjoint_lines(M, count, H=None):
    """The depth-first search the mask-and-block search replaced, fed by the
    scalar candidate generator, inside the hyperplane H if given: returns
    the picked lines and how often it backtracked."""
    F = M.field
    pool = _hyperplane_points(F, M.r, H) if H is not None else enumerate_points(F, M.r)
    region = [P for P in pool if M.counts[pg.point_index(F.q, P)]]
    per_line = F.q + 1
    if count * per_line > len(region):
        raise NotEnoughLines("not enough support points")

    lines: list[tuple] = []
    feeder = _reference_candidate_lines(F, region, set(region))
    exhausted = False
    backtracks = 0

    def line_at(idx):
        nonlocal exhausted
        while len(lines) <= idx and not exhausted:
            nxt = next(feeder, None)
            if nxt is None:
                exhausted = True
            else:
                lines.append(nxt)
        return lines[idx] if idx < len(lines) else None

    chosen: list[tuple] = []
    used: set = set()

    def extend(start):
        nonlocal backtracks
        if len(chosen) == count:
            return True
        if (count - len(chosen)) * per_line > len(region) - len(used):
            return False
        idx = start
        while (line := line_at(idx)) is not None:
            if used.isdisjoint(line):
                chosen.append(line)
                used.update(line)
                if extend(idx + 1):
                    return True
                chosen.pop()
                used.difference_update(line)
                backtracks += 1
            idx += 1
        return False

    if not extend(0):
        raise NotEnoughLines("no packing")
    return [span(F, line[:2]) for line in chosen], backtracks


def _all_candidate_lines(F, r, counts, region):
    """Every block of every anchor, concatenated in search order."""
    digits = pg.point_digits(F.q, r, region)
    return [
        tuple(line)
        for i in range(len(region))
        for lo in range(i + 1, len(region), transforms._SKEW_BLOCK)
        for line in _line_block(F, counts, region, digits, i, lo).tolist()
    ]


@pytest.mark.parametrize("q,r,regional", [
    (2, 3, False), (3, 2, False), (3, 3, False), (4, 2, False), (4, 3, False),
    (5, 2, False), (7, 2, False),
    # a region is a hyperplane, so it needs r >= 3 to hold more than one line
    (2, 3, True), (3, 3, True), (4, 3, True), (5, 3, True), (3, 4, True),
])
def test_candidate_lines_match_the_scalar_order(q, r, regional, monkeypatch):
    F = field(q)
    pts = enumerate_points(F, r)
    rng = random.Random(100 * q + r)
    counts = np.array([int(rng.random() < 0.85) * rng.randint(1, 3) for _ in pts])
    if regional:
        pool = _hyperplane_points(F, r, pts[rng.randrange(len(pts))])
        region = np.array([pg.point_index(q, P) for P in pool])
    else:
        pool, region = pts, np.arange(len(pts))
    region_support = [P for P in pool if counts[pg.point_index(q, P)]]
    want = [
        tuple(pg.point_index(q, P) for P in line)
        for line in _reference_candidate_lines(F, region_support, set(region_support))
    ]
    assert want  # the supports are dense enough to hold lines
    # whole anchors in one block, and blocks that split every anchor
    for block in (transforms._SKEW_BLOCK, 2):
        monkeypatch.setattr(transforms, "_SKEW_BLOCK", block)
        assert _all_candidate_lines(F, r, counts, region[counts[region] > 0]) == want


@st.composite
def _skew_cases(draw):
    """A sum of random lines and stray points in PG(r, q), with an optional
    hyperplane region H that holds most of the lines.  H is recorded as the
    code's skew_region, scaled by a random nonzero element: a sidecar may
    hold any nonzero multiple of a hyperplane's coefficients."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7]))
    r = draw(st.integers(2, 4))
    F = field(q)
    pts = enumerate_points(F, r)
    H = None
    if draw(st.booleans()):
        c = draw(st.integers(1, q - 1))
        H = tuple(F.mul(c, x) for x in draw(st.sampled_from(pts)))
    pool = _hyperplane_points(F, r, H) if H is not None else pts
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        P = draw(st.sampled_from(pool))
        R = draw(st.sampled_from(pool if draw(st.integers(0, 3)) else pts))
        if P != R:
            lines.append(_line_points_through(F, P, R))
    # lines that join two others, which a packing may have to step around
    for _ in range(draw(st.integers(0, 3)) if len(lines) > 1 else 0):
        i, j = draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2, unique=True))
        P, R = draw(st.sampled_from(lines[i])), draw(st.sampled_from(lines[j]))
        if P != R:
            lines.append(_line_points_through(F, P, R))
    counts = np.zeros(len(pts), dtype=np.int64)
    for P in [X for line in lines for X in line] + draw(st.lists(st.sampled_from(pts), min_size=1, max_size=q)):
        counts[pg.point_index(q, P)] += 1
    meta = {"skew_region": list(H)} if H is not None else None
    return PointMultiset(F, r, counts, meta=meta), H


def test_find_disjoint_lines_matches_the_reference_search(monkeypatch):
    backtracked, scaled = [], []

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(_skew_cases(), st.integers(1, 3))
    def check(case, block):
        M, H = case
        scaled.append(H is not None and H != pg.normalize_point(M.field, H))
        # blocks of one to three second points split every anchor's lines
        monkeypatch.setattr(transforms, "_SKEW_BLOCK", block)
        # every count from 1 to one past the largest packing
        for count in itertools.count(1):
            try:
                want, backtracks = _reference_find_disjoint_lines(M, count, H)
            except NotEnoughLines:
                want = None
            try:
                got = find_disjoint_lines(M, count)
            except NotEnoughLines:
                got = None
            assert got == want
            if want is None:
                break
            backtracked.append(backtracks > 0)

    check()
    # some searches found their lines only after undoing a pick, and some
    # regions came from coefficients that are not in normal form
    assert any(backtracked) and any(scaled)


# the lines the scalar search picked on the family duals, in order
PICKED_LINES = {
    (1, 4, 6): (
        [((1, 0, 0, 0, 0, 3), (0, 0, 0, 0, 1, 0)), ((1, 0, 0, 1, 0, 3), (0, 0, 1, 1, 2, 0)),
         ((1, 0, 0, 1, 1, 3), (0, 0, 1, 0, 1, 0))],
        [((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)), ((1, 0, 0, 0, 1, 0), (0, 0, 0, 1, 1, 0)),
         ((1, 0, 0, 0, 1, 1), (0, 0, 0, 1, 0, 1))],
    ),
    (2, 5, 6): (
        [((1, 0, 0, 0, 0, 2), (0, 0, 0, 0, 1, 0)), ((1, 0, 0, 1, 0, 2), (0, 0, 1, 4, 1, 0)),
         ((1, 0, 0, 1, 1, 2), (0, 0, 1, 0, 0, 0)), ((1, 0, 0, 1, 2, 2), (0, 0, 1, 1, 4, 0))],
        [((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)), ((1, 0, 0, 0, 1, 0), (0, 0, 0, 1, 4, 0)),
         ((1, 0, 0, 0, 1, 1), (0, 0, 0, 1, 0, 4)), ((1, 0, 0, 0, 1, 2), (0, 0, 0, 1, 1, 3))],
    ),
    # large enough that the lines through one anchor span several blocks
    (1, 7, 7): (
        [((1, 0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 0, 1, 0)),
         ((1, 0, 0, 0, 1, 0, 2), (0, 0, 0, 1, 6, 0, 0)),
         ((1, 0, 0, 0, 1, 1, 2), (0, 0, 0, 1, 0, 6, 0)),
         ((1, 0, 0, 0, 1, 2, 2), (0, 0, 0, 1, 1, 5, 0)),
         ((1, 0, 0, 0, 1, 3, 2), (0, 0, 0, 1, 2, 4, 0)),
         ((1, 0, 0, 0, 1, 4, 2), (0, 0, 0, 1, 3, 3, 0))],
        [((1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)),
         ((1, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 1, 6, 0)),
         ((1, 0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, 0, 6)),
         ((1, 0, 0, 0, 0, 1, 2), (0, 0, 0, 0, 1, 1, 5)),
         ((1, 0, 0, 0, 0, 1, 3), (0, 0, 0, 0, 1, 2, 4)),
         ((1, 0, 0, 0, 0, 1, 4), (0, 0, 0, 0, 1, 3, 3))],
    ),
}


@pytest.mark.parametrize("family", sorted(PICKED_LINES))
def test_find_disjoint_lines_keeps_the_picked_flats(family):
    theorem, q, k = family
    in_region, whole_space = PICKED_LINES[family]
    dual, _ = _family_dual(theorem, q, k)
    got = find_disjoint_lines(dual, q - 1)
    assert got == [pg.Flat(k - 1, basis) for basis in in_region]
    # without provenance the search runs over the whole support
    bare = PointMultiset(dual.field, dual.r, dual.counts)
    got = find_disjoint_lines(bare, q - 1)
    assert got == [pg.Flat(k - 1, basis) for basis in whole_space]


def test_find_disjoint_lines_runs_within_a_tight_recursion_limit():
    # 60 lines on the full support of PG(7, 2); a recursive search takes
    # one frame per picked line and failed here
    F = field(2)
    M = PointMultiset(F, 7, np.ones(theta(7, 2), dtype=np.int64))
    want, _ = _reference_find_disjoint_lines(M, 60)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        got = find_disjoint_lines(M, 60)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_dual_divisor_must_give_integer_t():
    # m = q gives t = q^{k-3}; feeding the dual its own divisor t works too
    dual = projective_dual(code_c1(6, 4), 4)
    p = code_params(dual)
    assert p.divisor == 4 ** (6 - 3)
