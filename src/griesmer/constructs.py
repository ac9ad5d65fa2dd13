"""Arc and line-configuration constructions of divisible codes.

The raw material is a normal rational curve: the q+1 points
(1, t, t^2, ..., t^{k-2}, 0) for t in GF(q) plus the limit point
(0,...,0,1,0), all inside the hyperplane [0,...,0,1] of PG(k-1, q).
Joining the curve points to a transversal line l0 through (1,0,...,0)
yields q further lines; unions of those lines minus l0, weighted copies of
a few special points, and one extra point Q off the configuration produce
two families of q-divisible codes for every k >= 5 (code_c1 and code_c2).
One builder makes all four codes: it checks the configuration once, fills
one count vector from the enumeration indices of its lines and points, and
builds one multiset, so a family code costs one kernel call.

Nothing is taken on faith: every constructor recomputes the parameters,
the divisibility, and the count of maximal-multiplicity hyperplanes from
scratch and refuses to return a code that misses its contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from . import pg
from .errors import (
    ArcConditionViolated,
    ConfigDegenerate,
    DimensionMismatch,
    OutOfScope,
    ParamMismatch,
    SpectrumMismatch,
)
from .gf import Field, field
from .mcode import PointMultiset, code_params, hyperplane_spectrum


def normal_rational_curve(k: int, q: int) -> list[tuple[int, ...]]:
    """The (q+1)-arc P_0, ..., P_q in the hyperplane [0,...,0,1] of PG(k-1, q).

    P_0 = (1,0,...,0), P_i = (1, a^i, a^{2i}, ..., a^{(k-2)i}, 0) for the
    primitive element a, and P_q = (0,...,0,1,0).  Needs q >= k-2 so that
    q+1 points can be an arc in a (k-2)-dimensional space.
    """
    if k < 4:
        raise OutOfScope(f"curve constructions need dimension k >= 4, got {k}")
    if q < k - 2:
        raise ArcConditionViolated(f"q={q} < k-2={k - 2}: no (q+1)-arc of this size")
    F = field(q)
    points = [(1,) + (0,) * (k - 1)]
    for i in range(1, q):
        points.append(tuple(F.alpha_power(j * i) for j in range(k - 1)) + (0,))
    points.append((0,) * (k - 2) + (1, 0))
    return points


def arc_check(F: Field, points, ambient: pg.Flat) -> bool:
    """True iff every (dim+1)-subset of the points spans the ambient flat:
    one rank call over all subsets, one over the membership stacks.  The
    points, in any scaling, pass pg.as_elements and must be nonzero."""
    r = ambient.dim
    pts = pg.as_elements(F, points)
    if pts.size and pts.shape[1:] != (ambient.r + 1,):
        raise DimensionMismatch(f"arc points need {ambient.r + 1} coordinates each")
    if pts.size and not pts.any(axis=-1).all():
        raise ValueError("the zero vector is not a projective point")
    if len(pts) < r + 1:
        return False
    pts = pts.astype(F.tables[0].dtype)
    subsets = pts[np.fromiter(combinations(range(len(pts)), r + 1), dtype=(np.intp, r + 1))]
    # P lies in the ambient flat iff adding it to the basis keeps the rank
    basis = np.broadcast_to(ambient.basis, (len(pts), r + 1, pts.shape[1]))
    members = np.concatenate([basis, pts[:, None]], axis=1)
    return bool((pg.rank(F, subsets) == r + 1).all() and (pg.rank(F, members) == r + 1).all())


@dataclass(frozen=True)
class LineConfig:
    """Verified arc-and-lines configuration in PG(k-1, q).

    arc:    P_0..P_q on the hyperplane [0,...,0,1]
    l0:     the transversal line (P_0, Q_1, ..., Q_q), meeting that
            hyperplane only at P_0
    lines:  l_1..l_q where l_i joins P_i with Q_i; the sets l_i minus l0
            are pairwise disjoint with q points each
    q_point: Q = (0,1,0,...,0,1), on none of those lines

    line_config checks l0 and the arc; the lines' properties follow.
    """

    k: int
    q: int
    arc: tuple[tuple[int, ...], ...]
    l0: tuple[tuple[int, ...], ...]
    lines: tuple[tuple[tuple[int, ...], ...], ...]
    q_point: tuple[int, ...]


def line_config(k: int, q: int) -> LineConfig:
    """Build the configuration; ConfigDegenerate (a bug, not bad input) if
    l0's points or the arc condition fail.

    The lines need no check.  l_i meets the hyperplane only in P_i, not in
    P_0, l0's one point there, so l_i meets l0 only in Q_i.  l_i and l_j
    meeting off l0 would span a plane through l0 whose trace on the
    hyperplane holds P_0, P_i and P_j, three collinear arc points.
    """
    pg.check_space(q, k)  # before the curve's (q+1)k cells and the q x q tables
    arc = normal_rational_curve(k, q)
    F = field(q)
    P0 = arc[0]

    qs = [(1,) + (0,) * (k - 2) + (F.alpha_power(i),) for i in range(1, q)]
    qs.append((0,) * (k - 1) + (1,))
    l0 = (P0, *qs)

    # P_0 and Q_q are fixed and a reduced echelon basis: l0 must be their
    # line, whose only point with last coordinate 0 is P_0, so it meets x_k = 0 there
    if set(pg.flat_points(F, pg.Flat(k - 1, (P0, qs[-1])))) != set(l0):
        raise ConfigDegenerate("transversal line does not consist of the stated points")

    hyper = pg.Flat(
        r=k - 1,
        basis=tuple(tuple(1 if j == i else 0 for j in range(k)) for i in range(k - 1)),
    )
    # arc_check's membership stacks also put every arc point in x_k = 0
    if not arc_check(F, arc, hyper):
        raise ConfigDegenerate("curve points fail the arc condition")

    # l_i joins P_i and Q_i, i = 1..q: all q lines in one call
    idx = pg.flat_indices(F, np.stack([arc[1:], qs], axis=-2))
    lines = tuple(tuple(map(tuple, li)) for li in pg.point_digits(q, k - 1, idx).tolist())
    q_point = (0, 1) + (0,) * (k - 3) + (1,)
    return LineConfig(k=k, q=q, arc=tuple(arc), l0=l0, lines=lines, q_point=q_point)


def _config_meta(cfg: LineConfig, family: str) -> dict:
    return {
        "construction": {
            "family": family,
            "q": cfg.q,
            "k": cfg.k,
            "arc": [list(P) for P in cfg.arc],
            "l0": [list(P) for P in cfg.l0],
            "lines": [[list(P) for P in line] for line in cfg.lines],
            "q_point": list(cfg.q_point),
        }
    }


def _build(k: int, q: int, family: str) -> PointMultiset:
    """base1 and c1: the q lines l_i minus l0, P_0 weighted q-1; base2 and
    c2: l_1..l_{q-1} minus l0, P_0 and Q_q weighted q-1, P_q weighted q.
    c1 and c2 add Q weighted q; their vector minus q on the hyperplanes
    through Q is the base's, which is checked for Q."""
    cfg = line_config(k, q)
    F, r, all_lines = field(q), k - 1, family in ("base1", "c1")
    counts = np.zeros(pg.theta(r, q), dtype=np.int64)
    counts[pg.vector_indices(F, cfg.lines if all_lines else cfg.lines[: q - 1])] = 1
    counts[pg.vector_indices(F, cfg.l0)] = 0
    specials = [(cfg.arc[0], q - 1)]
    if not all_lines:
        specials += [(cfg.l0[-1], q - 1), (cfg.arc[q], q)]
    # no special point is on a counted line: P_0 and Q_q lie on l0, whose
    # counts are zeroed, and l_i (i < q) meets x_k = 0 only in P_i, not P_q
    for special, weight in specials:
        counts[pg.point_index(q, special)] = weight
    meta = _config_meta(cfg, family)
    if family in ("base1", "base2"):
        return PointMultiset(F, r, counts, meta=meta)
    # Q = (0,1,0,...,0,1) is off the base code: the one point of l_i (i < q)
    # with x_1 = 0 is (0, 1, a^i, ...), and every point of l_q has x_2 = 0
    counts[pg.point_index(q, cfg.q_point)] = q
    M = PointMultiset(F, r, counts, meta=meta)
    through_q = pg.hyperplanes_containing(F, pg.Flat(r, (cfg.q_point,)))
    _check_q_point_clear(F, r, M.hyperplane_mults() - q * through_q, cfg.q_point)
    return M


def base_code_1(k: int, q: int) -> PointMultiset:
    """[q^2+q-1, k, q^2-(k-3)q]_q: all q lines minus l0, plus P_0 weighted q-1."""
    return _build(k, q, "base1")


def base_code_2(k: int, q: int) -> PointMultiset:
    """[q^2+2q-2, k, q^2-(k-3)q]_q: lines l_1..l_{q-1} minus l0, P_0 and Q_q
    weighted q-1, P_q weighted q."""
    return _build(k, q, "base2")


def _check_q_point_clear(F: Field, r: int, mvec, q_point) -> None:
    # adding Q with weight q keeps n-d only if no maximal hyperplane holds Q
    top = int(mvec.max())
    pts = pg.enumerate_points(F, r)
    for idx in (mvec == top).nonzero()[0]:
        if pg.incident(F, q_point, pts[int(idx)]):
            raise ConfigDegenerate(
                "a maximal-multiplicity hyperplane contains the extra point Q"
            )


def _verified(M: PointMultiset, n: int, d: int, spec_count: int) -> PointMultiset:
    """M, once (n, d), q-divisibility and a_{n-d} = spec_count are checked."""
    params = code_params(M)
    if (params.n, params.d) != (n, d):
        raise ParamMismatch(
            f"built [{params.n},{params.k},{params.d}]_{M.q}, wanted [{n},{M.k},{d}]_{M.q}"
        )
    if params.divisor % M.q:
        raise ParamMismatch(f"weights are not all divisible by {M.q}")
    got = hyperplane_spectrum(M).get(n - d, 0)
    if got != spec_count:
        raise SpectrumMismatch(f"a_{n - d} = {got}, expected {spec_count}")
    return M


def code_c1(k: int, q: int) -> PointMultiset:
    """[q^2+2q-1, k, q^2-(k-4)q]_q built by adding Q with weight q to
    base_code_1; the count of maximal hyperplanes must equal
    C(q, k-4) + C(q, k-3), plus 2q^2 at k = 5.

    The binomials count hyperplanes through l0.  One that meets l0 in a
    single point holds at most 3q-1 of the code, the maximum only at
    k = 5: through P_0 and Q (q^2 of them), or through Q_j, P_j and Q for
    some j (q each)."""
    if k < 5:
        raise OutOfScope(f"code_c1 needs k >= 5, got {k}")
    return _verified(
        _build(k, q, "c1"),
        n=q * q + 2 * q - 1,
        d=q * q - (k - 4) * q,
        spec_count=comb(q, k - 4) + comb(q, k - 3) + (2 * q * q if k == 5 else 0),
    )


def code_c2(k: int, q: int) -> PointMultiset:
    """[q^2+3q-2, k, q^2-(k-4)q]_q built by adding Q with weight q to
    base_code_2; the count of maximal hyperplanes must equal
    C(q-1, k-3) + 2*C(q-1, k-4) + C(q-1, k-5), plus 3q-1 at k = 5.

    The binomials count hyperplanes through l0.  One that meets l0 in a
    single point holds at most 4q-2 of the code, the maximum only at
    k = 5: through P_q and Q meeting l0 in P_0 or Q_q (q each), or through
    Q_j, P_j, P_q and Q for some j < q (one each)."""
    if k < 5:
        raise OutOfScope(f"code_c2 needs k >= 5, got {k}")
    return _verified(
        _build(k, q, "c2"),
        n=q * q + 3 * q - 2,
        d=q * q - (k - 4) * q,
        spec_count=comb(q - 1, k - 3) + 2 * comb(q - 1, k - 4) + comb(q - 1, k - 5)
        + (3 * q - 1 if k == 5 else 0),
    )
