import dataclasses
from itertools import combinations
from math import comb

import numpy as np
import pytest

from griesmer import constructs, pg
from griesmer.constructs import (
    arc_check,
    base_code_1,
    base_code_2,
    code_c1,
    code_c2,
    line_config,
    normal_rational_curve,
)
from griesmer.errors import (
    ArcConditionViolated,
    ConfigDegenerate,
    DimensionMismatch,
    OutOfScope,
    ParamMismatch,
    TooLarge,
)
from griesmer.gf import Field, field
from griesmer.mcode import (
    PointMultiset,
    code_params,
    hyperplane_spectrum,
    oracle_weight_distribution,
)
from griesmer.pg import Flat, enumerate_points, flat_points, incident, span
from test_faults import _spoil_curve


def full_hyperplane_flat(k):
    return Flat(
        r=k - 1,
        basis=tuple(tuple(1 if j == i else 0 for j in range(k)) for i in range(k - 1)),
    )


def test_curve_6_4():
    pts = normal_rational_curve(6, 4)
    assert len(pts) == 5
    assert all(P[-1] == 0 for P in pts)
    assert pts[0] == (1, 0, 0, 0, 0, 0)
    assert pts[-1] == (0, 0, 0, 0, 1, 0)
    F = field(4)
    a = F.spec.alpha
    assert pts[1] == (1, a, F.mul(a, a), F.pow(a, 3), F.pow(a, 4), 0)


def test_curve_6_5_is_an_arc():
    pts = normal_rational_curve(6, 5)
    assert len(pts) == 6
    assert arc_check(field(5), pts, full_hyperplane_flat(6))


def test_curve_rejects_small_q():
    with pytest.raises(ArcConditionViolated):
        normal_rational_curve(6, 3)
    with pytest.raises(OutOfScope):
        normal_rational_curve(3, 5)


def test_arc_check_rejects_collinear_points():
    F = field(3)
    plane = Flat(r=2, basis=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    line = span(F, [(1, 0, 0), (0, 1, 0)])
    three = flat_points(F, line)[:3]
    assert not arc_check(F, three, plane)
    frame = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert arc_check(F, frame, plane)
    # fewer points than a plane's dim + 1 = 3 span no plane
    assert not arc_check(F, frame[:2], plane)
    assert not arc_check(F, [], plane)


def test_arc_check_rejects_points_off_the_ambient_flat():
    F = field(3)
    plane = Flat(r=3, basis=((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    assert not arc_check(F, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)], plane)
    assert arc_check(F, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], plane)


def test_arc_check_refuses_points_it_cannot_read():
    F = field(3)
    plane = Flat(r=2, basis=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(DimensionMismatch, match="^arc points need 3 coordinates each$"):
        arc_check(F, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], plane)
    with pytest.raises(DimensionMismatch, match="^rows of unequal length$"):
        arc_check(F, [(1, 0, 0), (0, 1), (0, 0, 1)], plane)
    for bad in (300, -1):
        with pytest.raises(ValueError, match=rf"^{bad} is not an element of GF\(3\)$"):
            arc_check(F, [(1, 0, 0), (0, bad, 0), (0, 0, 1)], plane)
    with pytest.raises(ValueError, match="^the zero vector is not a projective point$"):
        arc_check(F, [(1, 0, 0), (0, 0, 0), (0, 0, 1)], plane)
    # rank ignores scaling, so points need not be in normal form
    assert arc_check(F, [(2, 0, 0), (0, 2, 0), (0, 0, 1)], plane)


@pytest.mark.parametrize(
    "build,k,q", [(base_code_1, 4, 2897), (code_c1, 5, 2897), (base_code_1, 3000, 4093)]
)
def test_family_builds_check_the_space_before_the_curve_and_the_tables(build, k, q, monkeypatch):
    # 2897^2 is above the cap, so GF(2897) itself is refused too, but the
    # space is checked first; at (3000, 4093) the curve alone holds 4094
    # points of 3000 coordinates; a Field builds its tables when it is made
    built = []
    monkeypatch.setattr(Field, "__init__", lambda F, spec: built.append(spec.q))
    monkeypatch.setattr(constructs, "normal_rational_curve", lambda k, q: built.append("curve"))
    with pytest.raises(TooLarge, match=rf"^PG\({k - 1}, {q}\) needs .* transform cells"):
        build(k, q)
    assert built == []


def _counting_ranks(monkeypatch):
    """Record every pg.rank call's result."""
    calls, rank = [], pg.rank
    monkeypatch.setattr(pg, "rank", lambda F, rows: calls.append(rank(F, rows)) or calls[-1])
    return calls


def test_one_dependent_subset_deep_in_the_batch_fails_the_arc(monkeypatch):
    # (6, 9): C(10, 5) = 252 subsets; P_1 + P_2 + P_3 + P_4, a point of
    # x_6 = 0 in their span, in place of P_5 makes the 127th, {P_1..P_5},
    # dependent, and only subsets that hold it can be
    k, q = 6, 9
    F, arc = field(q), normal_rational_curve(k, q)
    P5 = arc[1]
    for P in arc[2:5]:
        P5 = tuple(F.add(x, y) for x, y in zip(P5, P))
    spoiled = arc[:5] + [P5] + arc[6:]
    calls = _counting_ranks(monkeypatch)
    assert not arc_check(F, spoiled, full_hyperplane_flat(k))
    (ranks,) = calls  # the membership batch is not needed
    assert len(ranks) == comb(q + 1, k - 1) == 252
    subsets = list(combinations(range(q + 1), k - 1))
    dependent = np.flatnonzero(ranks < k - 1)
    assert subsets[126] == (1, 2, 3, 4, 5) and 126 in dependent
    assert all(5 in subsets[i] for i in dependent)
    _spoil_curve(monkeypatch, lambda curve: curve[:5] + [P5] + curve[6:])
    with pytest.raises(ConfigDegenerate, match="^curve points fail the arc condition$"):
        line_config(k, q)


def test_one_point_off_the_hyperplane_fails_only_the_membership_batch(monkeypatch):
    k, q = 6, 9
    F, arc = field(q), normal_rational_curve(k, q)
    moved = arc[:-1] + [arc[-1][:-1] + (1,)]
    calls = _counting_ranks(monkeypatch)
    assert not arc_check(F, moved, full_hyperplane_flat(k))
    subsets, members = calls
    assert (subsets == k - 1).all() and len(subsets) == 252
    assert np.flatnonzero(members != k - 1).tolist() == [q]


@pytest.mark.parametrize("k,q", [(5, 4), (6, 9)])
def test_a_family_build_makes_two_rank_calls(k, q, monkeypatch):
    calls = _counting_ranks(monkeypatch)
    code_c1(k, q)
    assert [len(ranks) for ranks in calls] == [comb(q + 1, k - 1), q + 1]


@pytest.mark.parametrize("k,q,off_count", [(6, 4, 16), (6, 5, 25), (5, 3, 9)])
def test_line_config_disjoint_off_l0(k, q, off_count):
    cfg = line_config(k, q)
    l0 = set(cfg.l0)
    off = set()
    for line in cfg.lines:
        off |= set(line) - l0
    assert len(off) == off_count == q * q
    assert len(cfg.lines) == q
    assert cfg.q_point not in off | l0


@pytest.mark.parametrize(
    "k,q,n,d", [(5, 3, 11, 3), (6, 4, 19, 4), (6, 5, 29, 10)]
)
def test_base_code_1_parameters(k, q, n, d):
    M = base_code_1(k, q)
    p = code_params(M)
    assert (p.n, p.k, p.d) == (n, k, d)
    assert p.divisor % q == 0


@pytest.mark.parametrize(
    "k,q,n,d", [(6, 5, 33, 10), (5, 5, 33, 15), (6, 4, 22, 4)]
)
def test_base_code_2_parameters(k, q, n, d):
    M = base_code_2(k, q)
    p = code_params(M)
    assert (p.n, p.k, p.d) == (n, k, d)
    assert p.divisor % q == 0


def test_base_code_1_5_3_oracle_agreement():
    M = base_code_1(5, 3)
    dist = oracle_weight_distribution(M)
    spec = hyperplane_spectrum(M)
    p = code_params(M)
    assert min(w for w in dist if w) == p.d == 3
    for w, count in dist.items():
        if w:
            assert count == 2 * spec.get(p.n - w, 0)
    assert sum(dist.values()) == 3**5


@pytest.mark.parametrize(
    "k,q,n,d,a_index,a_count",
    [(6, 4, 23, 8, 15, 10), (6, 5, 34, 15, 19, 20), (7, 5, 34, 10, 24, 15)],
)
def test_code_c1(k, q, n, d, a_index, a_count):
    M = code_c1(k, q)
    p = code_params(M)
    assert (p.n, p.k, p.d) == (n, k, d)
    assert p.divisor % q == 0
    assert hyperplane_spectrum(M)[a_index] == a_count
    assert a_index == (k - 2) * q - 1 == p.n - p.d


@pytest.mark.parametrize(
    "k,q,n,d,a_index,a_count",
    [(6, 5, 38, 15, 23, 20), (6, 7, 68, 35, 33, 56), (7, 5, 38, 10, 28, 15)],
)
def test_code_c2(k, q, n, d, a_index, a_count):
    M = code_c2(k, q)
    p = code_params(M)
    assert (p.n, p.k, p.d) == (n, k, d)
    assert p.divisor % q == 0
    assert hyperplane_spectrum(M)[a_index] == a_count
    assert a_index == (k - 1) * q - 2 == p.n - p.d


def test_code_c2_at_q4():
    # q = k - 2 = 4: the count of maximal hyperplanes still matches
    # C(3,3) + 2*C(3,2) + C(3,1) = 10
    M = code_c2(6, 4)
    p = code_params(M)
    assert (p.n, p.k, p.d) == (26, 6, 8)
    assert hyperplane_spectrum(M)[18] == 10


def test_c1_multiplicity_of_reference_hyperplane():
    # m(H) for H = [0,...,0,1]: the q arc points P_1..P_q at weight 1 plus
    # P_0 at weight q-1, and Q lies off H, so 2q - 1 = 7 at q = 4
    M = code_c1(6, 4)
    F = M.field
    H = (0, 0, 0, 0, 0, 1)
    direct = M.counts[pg.hyperplanes_containing(F, Flat(5, (H,)))].sum()
    assert direct == M.hyperplane_mults()[pg.point_index(4, H)] == 7


def test_no_maximal_hyperplane_contains_q_point():
    for build, (k, q) in [(code_c1, (6, 4)), (code_c2, (6, 5))]:
        M = build(k, q)
        Q = tuple(M.meta["construction"]["q_point"])
        base_counts = M.counts.copy()
        base_counts[pg.point_index(M.q, Q)] = 0
        base = PointMultiset(M.field, M.r, base_counts)
        mvec = base.hyperplane_mults()
        top = int(mvec.max())
        pts = enumerate_points(M.field, M.r)
        for idx in (mvec == top).nonzero()[0]:
            assert not incident(M.field, Q, pts[int(idx)])


@pytest.mark.parametrize("build,base_of", [(code_c1, base_code_1), (code_c2, base_code_2)])
@pytest.mark.parametrize("k,q", [(6, 4), (6, 5), (7, 5)])
def test_family_code_derives_the_base_vector(monkeypatch, build, base_of, k, q):
    # the Q check reads the base's vector off the family code's, so a
    # family code costs one kernel call
    seen, calls = [], []
    check, kernel = constructs._check_q_point_clear, pg.hyperplane_multiplicities

    def spy_check(F, r, mvec, q_point):
        seen.append(mvec)
        check(F, r, mvec, q_point)

    def spy_kernel(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(constructs, "_check_q_point_clear", spy_check)
    monkeypatch.setattr(pg, "hyperplane_multiplicities", spy_kernel)
    build(k, q)
    assert len(seen) == len(calls) == 1
    assert np.array_equal(seen[0], base_of(k, q).hyperplane_mults())


@pytest.mark.parametrize("build", [base_code_1, base_code_2, code_c1, code_c2])
def test_each_code_is_one_count_vector(monkeypatch, build):
    # one multiset per code, built from an array and not from a mapping
    init, built = PointMultiset.__init__, []

    def spy(self, F, r, mults, meta=None):
        built.append(type(mults))
        init(self, F, r, mults, meta)

    monkeypatch.setattr(PointMultiset, "__init__", spy)
    build(6, 5)
    assert built == [np.ndarray]


def test_family_code_needs_q_off_the_base(monkeypatch):
    # line_config puts Q on l_1, off l0: Q's weight replaces a line point's,
    # so n falls short and both families refuse the code
    config = constructs.line_config

    def q_on_a_line(k, q):
        cfg = config(k, q)
        return dataclasses.replace(cfg, q_point=next(P for P in cfg.lines[0] if P not in cfg.l0))

    monkeypatch.setattr(constructs, "line_config", q_on_a_line)
    for build in (code_c1, code_c2):
        with pytest.raises(ParamMismatch, match=r"built \[\d+,6,\d+\]_5, wanted"):
            build(6, 5)


def test_dimension_gate():
    p = code_params(code_c1(5, 5))
    assert (p.n, p.k, p.d) == (34, 5, 20)
    with pytest.raises(OutOfScope):
        code_c1(4, 5)
    with pytest.raises(OutOfScope):
        code_c2(4, 5)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_k5_maximal_hyperplane_counts(q):
    # the exact k=5 counts, C(q,1) + C(q,2) + 2q^2 for c1 and
    # C(q-1,2) + 2(q-1) + 1 + 3q-1 for c2.  A hyperplane [h_0..h_4] holds
    # P_0 = e_0 iff h_0 = 0 and Q_q = e_4 iff h_4 = 0, so the maximal ones
    # split into those through l0, through P_0 only, through Q_q only and
    # through another point of l0, as the constructors' docstrings count
    for M, top, total, split in (
        (code_c1(5, q), 3 * q - 1, q * (5 * q + 1) // 2,
         (comb(q, 1) + comb(q, 2), q * q, q, q * q - q)),
        (code_c2(5, q), 4 * q - 2, comb(q - 1, 2) + 5 * q - 2,
         (comb(q - 1, 2) + 2 * (q - 1) + 1, q, q, q - 1)),
    ):
        p = code_params(M)
        mvec = M.hyperplane_mults()
        assert int(mvec.max()) == p.n - p.d == top
        assert hyperplane_spectrum(M)[top] == total == sum(split)
        h = pg.point_digits(q, 4, np.flatnonzero(mvec == top))
        on_p0, on_qq = h[:, 0] == 0, h[:, 4] == 0
        assert [int(np.sum(a & b)) for a in (on_p0, ~on_p0) for b in (on_qq, ~on_qq)] == list(split)


def test_lambda_profile_of_c1():
    M = code_c1(6, 4)
    p = code_params(M)
    # 16 single points, P_0 at weight 3, Q at weight 4
    assert p.lam == (1347, 16, 0, 1, 1)
    assert p.gamma0 == 4


@pytest.mark.parametrize(
    "build,k,q,n,d,a_index,a_count",
    [
        # GF(8) exercises the h=3 digit kernels, k=8 the deeper flats
        (code_c1, 6, 8, 79, 48, 31, 84),
        (code_c2, 6, 8, 86, 48, 38, 84),
        (code_c1, 8, 7, 62, 21, 41, 56),
        (code_c2, 8, 7, 68, 21, 47, 56),
    ],
)
def test_larger_fields_and_dimensions(build, k, q, n, d, a_index, a_count):
    M = build(k, q)
    p = code_params(M)
    assert (p.n, p.k, p.d) == (n, k, d)
    assert p.divisor % q == 0
    assert hyperplane_spectrum(M)[a_index] == a_count
