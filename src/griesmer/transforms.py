"""Code transformations: projective dual and geometric puncturing.

The dual with divisor m, an m > 1 dividing q^(k-2) and the code's divisor,
sends a hyperplane of multiplicity n-d-j*m to a point of the dual space
with multiplicity j (coefficient vectors and dual points share one normal
form, so the mapping is the identity on coordinates) and records m, t and
the source family in meta["transform"].  The result is t-divisible with
t = q^(k-2)/m, has n* = n*t*q - (d/m)*theta_{k-1} and d* = ((n-d)q - n)*t,
and its spectrum mirrors the multiplicity profile of the input:
a*_{n*-d*-j*t} equals the number of input j-points.  The dual's own
hyperplane vector needs no kernel call: a point P lies on theta_{k-2}
hyperplanes and shares theta_{k-3} of them with any other point, so
m_D(P) = ((n-d)*theta_{k-2} - n*theta_{k-3} - q^(k-2)*c(P)) / m, exactly.
projective_dual reads (n*, d*) off that vector and holds them to the
closed forms.  The vector's form top - t*c(P) fixes the rest: with a
point of multiplicity 0 its top is n* - d*, so the spectrum is the
mirror, and every weight d* + j*t is a multiple of t, as d* is.  The
vector itself is certified by recheck_hyperplanes, a fresh kernel call,
which chains run where their walks end and the dual command runs at once.

Puncturing removes one unit of multiplicity from every point of a flat
that sits inside the support (a t-flat removal costs theta_t in length and
at most q^t in distance), or from a single point, the 0-flat, and appends
its record (op, t for a flat, and the points) to meta["history"].  It
makes no kernel call: a hyperplane contains the t-flat S or meets it in a
(t-1)-flat, so the new code's hyperplane vector is the old one minus
theta_{t-1} minus q^t times pg.hyperplanes_containing(S), and every
parameter is read off that walked vector.  Every step checks that the
indicator holds exactly the theta_{r-t-1} hyperplanes through S.  With a
0/1 indicator that update costs exactly theta_t in length and 0 to q^t in
distance, so a removal does not restate the bound; chains._walk holds each
step to its exact cost.  recheck_hyperplanes compares a vector with a
fresh kernel call; chains and the puncture command run it where a walk of
removals ends.

Repeated line removals need pairwise disjoint lines inside the support;
find_disjoint_lines runs a deterministic lexicographic backtracking
search inside the dual hyperplane recorded by the construction
provenance, else over the whole support.  It works on enumeration
indices, with the points taken as a boolean mask and each anchor's lines
gathered in blocks.
"""

from __future__ import annotations

import numpy as np

from . import pg
from .errors import (
    CertificationFailed,
    DistanceTooSmall,
    DivisibilityViolated,
    FlatNotInSupport,
    IntersectionNonempty,
    NotEnoughLines,
    NotFullRank,
    NoZeroPoint,
    ParamMismatch,
    PointNotInSupport,
)
from .mcode import PointMultiset, _walked, code_params

# second points per _line_block gather, of (q-1)*_SKEW_BLOCK*(r+1) cells
_SKEW_BLOCK = 64


def projective_dual(M: PointMultiset, m: int) -> PointMultiset:
    """The dual code on PG(k-1, q)*, its (n*, d*) held to the closed forms;
    the module docstring says what fixes its divisor and spectrum."""
    F = M.field
    k, q = M.k, M.q
    params = code_params(M)
    n, d = params.n, params.d

    # the divisors above 1 of q^(k-2) = p^(h(k-2)) are the p^r, 1 <= r <= h(k-2)
    if m < 2 or q ** (k - 2) % m:
        raise DivisibilityViolated(
            f"divisor {m} is not p^r with 1 <= r <= h(k-2) for q = {q}"
        )
    if params.divisor % m:
        raise DivisibilityViolated(f"code is not {m}-divisible (divisor {params.divisor})")
    if params.lam[0] == 0:
        raise NoZeroPoint("every point of the ambient space carries multiplicity")

    nd = n - d
    t = q ** (k - 2) // m
    # hyperplane H of multiplicity n - d - j*m becomes dual point H with
    # multiplicity j; hyperplane and point indices coincide
    dual_counts = (nd - M.hyperplane_mults()) // m

    meta: dict = {"transform": {"op": "dual", "m": m, "t": t}}
    construction = M.meta.get("construction")
    if construction:
        meta["construction"] = construction
        # all zero-multiplicity dual points lie on the dual of l0, which
        # sits inside the dual hyperplane of any point of l0; recording
        # that hyperplane gives the skew-line search a region where
        # success is guaranteed for up to q-1 lines
        meta["skew_region"] = list(construction["l0"][1])
        meta["transform"]["source_family"] = construction.get("family")
    # the multiset first: it bounds every j, and so the identity's values
    dual = _walked(PointMultiset(F, M.r, dual_counts, meta=meta), _dual_mults(M, m))

    # m divides every weight n - m(H) and d, so j > 0 exactly when
    # m(H) < n - d: the dual's support is the set of hyperplanes below
    # maximal multiplicity, and it fails to span iff they share a point
    try:
        dparams = code_params(dual)
    except NotFullRank as exc:
        raise IntersectionNonempty(
            "hyperplanes below maximal multiplicity share a common point"
        ) from exc
    n_star = n * t * q - (d // m) * pg.theta(k - 1, q)
    d_star = (nd * q - n) * t
    if (dparams.n, dparams.d) != (n_star, d_star):
        raise ParamMismatch(
            f"dual is [{dparams.n},{k},{dparams.d}]_{q}, closed forms give "
            f"[{n_star},{k},{d_star}]_{q}"
        )
    return dual


def _dual_mults(M: PointMultiset, m: int) -> np.ndarray:
    """The hyperplane vector of M's dual with divisor m, from M's counts c.

    A point P lies on theta(k-2) hyperplanes and shares theta(k-3) of them
    with any other point, so the m(H) over the hyperplanes H through P sum
    to n*theta(k-3) + q^(k-2)*c(P).  The dual hyperplane P holds the dual
    points H through P, so m_D(P), the sum of their (n - d - m(H))/m, is
    ((n-d)*theta(k-2) - n*theta(k-3))/m - t*c(P) with t = q^(k-2)/m.  At a
    point with c(P) = 0, which projective_dual requires, that first term is
    m_D(P), at most the dual's length, so int64 holds it once the dual's
    multiset is built.
    """
    q, k, n, d = M.q, M.k, M.n, code_params(M).d
    # exact: projective_dual checks m | q^(k-2) and m | divisor, so m | d;
    # the numerator is (n-d)*q^(k-2) - d*theta(k-3)
    top = ((n - d) * pg.theta(k - 2, q) - n * pg.theta(k - 3, q)) // m
    return top - q ** (k - 2) // m * M.counts


def puncture_flat(M: PointMultiset, flat: pg.Flat) -> PointMultiset:
    """Remove one unit of multiplicity from every point of the flat.

    The support still spans afterwards because d > q^t is required: every
    hyperplane H has m(H) <= n - d and meets the t-flat in at least
    theta_{t-1} points, so m'(H) <= n - d - theta_{t-1} < n - theta_t = n'.
    """
    F = M.field
    if flat.r != M.r:
        raise FlatNotInSupport(f"the flat lives in PG({flat.r}, {M.q}), not PG({M.r}, {M.q})")
    idx = pg.flat_indices(F, flat.basis)
    if (M.counts[idx] < 1).any():
        raise FlatNotInSupport("the flat has a point with multiplicity 0")
    t, d = flat.dim, code_params(M).d
    if d <= F.q**t:
        raise DistanceTooSmall(f"need d > q^{t} = {F.q ** t}, have d = {d}")
    step = {"op": "puncture_flat", "t": t, "points": pg.point_digits(F.q, M.r, idx).tolist()}
    return _remove(M, flat, idx, step)


def puncture_point(M: PointMultiset, P) -> PointMultiset:
    """Remove one unit of multiplicity from a single point.

    The support still spans afterwards: this is puncture_flat's argument
    with t = 0, where d > 1 is required.  P is read as pg reads any point
    (DimensionMismatch, ValueError); PointNotInSupport is for multiplicity 0.
    """
    flat = pg.Flat(M.r, (pg.normalize_point(M.field, P),))
    i = pg.point_index(M.q, flat.basis[0])
    if M.counts[i] < 1:
        raise PointNotInSupport(f"{P} has multiplicity 0")
    if code_params(M).d <= 1:
        raise DistanceTooSmall("need d > 1 to puncture a point")
    return _remove(M, flat, [i], {"op": "puncture_point", "point": list(flat.basis[0])})


def _walk_mults(M: PointMultiset, flat: pg.Flat) -> np.ndarray:
    """M's hyperplane vector after one unit leaves every point of a t-flat S.

    A hyperplane meets S in all theta_t points when it contains S and in a
    (t-1)-flat otherwise, so m'(H) = m(H) - theta_{t-1} - q^t [S in H].
    The indicator [S in H] must hold the theta_{r-t-1} hyperplanes through
    S, or CertificationFailed.
    """
    F, t = M.field, flat.dim
    through = pg.hyperplanes_containing(F, flat)
    held, want = int(through.sum()), pg.theta(M.r - t - 1, F.q)
    if held != want:
        raise CertificationFailed(
            f"the indicator of a {t}-flat holds {held} hyperplanes, not {want}"
        )
    walked = M.hyperplane_mults() - pg.theta(t - 1, F.q)
    walked -= F.q**t * through
    return walked


def _remove(M: PointMultiset, flat: pg.Flat, idx, step: dict) -> PointMultiset:
    """M minus one unit at the points idx of the t-flat, the step added to
    the carried history and _walk_mults' vector in place of a kernel call.

    Nothing is rechecked: n falls by exactly theta_t, and every entry of
    the vector by theta_{t-1} or theta_{t-1} + q^t, so d falls by 0 to q^t.
    An indicator off 0/1 breaks that; chains._walk's exact (theta_t, q^t)
    test and recheck_hyperplanes see it.
    """
    counts = M.counts.copy()
    counts[idx] -= 1
    meta = {k: v for k, v in M.meta.items() if k in ("construction", "skew_region")}
    meta["history"] = [*M.meta.get("history", []), step]
    return _walked(PointMultiset(M.field, M.r, counts, meta=meta), _walk_mults(M, flat))


def recheck_hyperplanes(M: PointMultiset) -> None:
    """Recompute M's hyperplane vector with the kernel; CertificationFailed
    unless it equals, entry for entry, the one M holds (walked through
    removals by puncture_flat and puncture_point)."""
    fresh = PointMultiset(M.field, M.r, M.counts).hyperplane_mults()
    wrong = np.count_nonzero(fresh != M.hyperplane_mults())
    if wrong:
        raise CertificationFailed(
            f"the walked hyperplane vector differs from the kernel's on {wrong} hyperplanes"
        )


def simple_point(M: PointMultiset) -> tuple[int, ...]:
    """Smallest single-multiplicity support point.

    Removing it keeps the support spanning whenever d >= 2, the condition
    puncture_point enforces before any removal: every hyperplane H misses
    n - m(H) >= d points of the multiset, and one removal leaves
    n' - m'(H) >= d - 1 >= 1, so no hyperplane holds the new support.
    PointNotInSupport when no point has multiplicity 1.
    """
    simple = np.flatnonzero(M.counts == 1)
    if not len(simple):
        raise PointNotInSupport("no support point has multiplicity 1")
    return tuple(pg.point_digits(M.q, M.r, simple[:1])[0].tolist())


def _line_block(F, counts, region, digits, i: int, lo: int) -> np.ndarray:
    """Support lines through P = region[i] and an R in region[lo:][:_SKEW_BLOCK],
    as rows of ascending point indices in order of R.  A line is taken at
    its smallest point P from its second smallest R: its sorted row must
    start [P, R], and every point must carry multiplicity.  A line through
    two region points stays in the region.
    """
    later = region[lo : lo + _SKEW_BLOCK]
    pairs = np.empty((len(later), 2, digits.shape[1]), dtype=digits.dtype)
    pairs[:, 0], pairs[:, 1] = digits[i], digits[lo : lo + len(later)]
    lines = pg.flat_indices(F, pairs)
    ok = (lines[:, 0] == region[i]) & (lines[:, 1] == later) & (counts[lines] > 0).all(axis=1)
    return lines[ok]


def find_disjoint_lines(M: PointMultiset, count: int) -> list[pg.Flat]:
    """Pairwise disjoint lines with every point in the support.

    Deterministic: a depth-first search over the lines in lexicographic
    order returns the first feasible combination.  The points taken are a
    boolean mask: a taken anchor is skipped, a free one's lines come in
    _line_block blocks, and the first row the mask leaves free is taken,
    so small requests stop early.  The search region is the support inside
    the hyperplane H = M.meta["skew_region"] when the provenance records
    one, else the whole support.  Points and hyperplanes share one index,
    so H's points are the hyperplanes through the point H.  A line's
    reduced-echelon basis b1, b2 is its first and last point: the points
    b1 + c*b2 come first, ordered by c at b2's pivot, and b2 last.
    """
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError("need a positive number of lines")
    F = M.field
    region = M.counts > 0
    if "skew_region" in M.meta:
        H = pg.normalize_point(F, M.meta["skew_region"])
        region &= pg.hyperplanes_containing(F, pg.Flat(M.r, (H,)))
    region = np.flatnonzero(region)
    if count * (F.q + 1) > len(region):
        raise NotEnoughLines(
            f"{count} disjoint lines need {count * (F.q + 1)} support points, "
            f"the region has {len(region)}"
        )

    digits = pg.point_digits(F.q, M.r, region)
    used = np.zeros(len(M.counts), dtype=bool)
    chosen: list[np.ndarray] = []

    def free_lines(start: int):
        # one search level's lines, read with the mask as the level left it
        for i in range(start, len(region)):
            if used[region[i]]:
                continue
            for lo in range(i + 1, len(region), _SKEW_BLOCK):
                block = _line_block(F, M.counts, region, digits, i, lo)
                for line in block[~used[block].any(axis=1)]:
                    yield i, line

    # a stack, not recursion: one level per picked line plus the open one
    levels = [free_lines(0)]
    while len(chosen) < count:
        step = next(levels[-1], None)
        if step is None:  # backtrack: drop the level, undo the line before it
            levels.pop()
            if not levels:
                raise NotEnoughLines(
                    f"fewer than {count} pairwise disjoint support lines exist in the region"
                )
            used[chosen.pop()] = False
            continue
        i, line = step
        used[line] = True
        chosen.append(line)
        levels.append(free_lines(i + 1))  # every other line through P meets this one
    ends = pg.point_digits(F.q, M.r, np.array(chosen)[:, [0, -1]])
    return [pg.Flat(M.r, tuple(map(tuple, basis))) for basis in ends.tolist()]
