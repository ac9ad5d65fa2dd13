"""The projective space PG(r, q): canonical points, flats, incidence, span,
and the duality between points and hyperplanes.

A point is a tuple of r+1 element encodings normalized so the leftmost
nonzero coordinate is 1.  Hyperplane coefficient vectors use the identical
normal form, so reinterpreting one as a point of the dual space is the
identity on coordinates.  P lies on H exactly when the hyperplane P passes
through the point H, so hyperplanes_containing of the 0-flat H marks the
points of H.  Enumeration is deterministic: points grouped by the position
of their leading 1, trailing coordinates counted upward, so PG(1, 2) lists
(1,0), (1,1), (0,1).

Everything here is pure.  point_index gives a point's position in the
enumeration in closed form (the offset of its pivot block plus its tail
read in base q), so arrays indexed by points, and by hyperplanes, need no
point tuples at all.  Array code works on those indices: point_digits
turns indices into coordinate rows (the base-q digits of point_codes),
vector_indices turns nonzero rows back into indices (scaled by their
leading entry's inverse with Field tables gathers), flat_indices lists
the points that basis rows span, and hyperplanes_containing marks the
hyperplanes through a flat from split-digit tables.  echelon reduces row
stacks by the same gathers, behind rank and span.  Each of these, and
incident, reads caller rows through as_elements before any table lookup,
which would wrap a negative entry and fail on one >= q.  The point tuples
of enumerate_points are built on demand (public API, constructs' Q check).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod

import numpy as np

from .errors import CertificationFailed, DimensionMismatch, NotAPrimePower, TooLarge
from .gf import MAX_TRANSFORM_CELLS, Field


def theta(j: int, q: int) -> int:
    """Number of points of a j-flat of PG(r, q): (q^(j+1)-1)/(q-1); 0 for
    j < 0.  NotAPrimePower when q < 2, as gf.field refuses it."""
    if q < 2:
        raise NotAPrimePower(f"field size must be at least 2, got {q}")
    if j < 0:
        return 0
    return (q ** (j + 1) - 1) // (q - 1)


def _ints_below(values, size: int, what: str) -> np.ndarray:
    """values as an array of integers in [0, size): DimensionMismatch when
    they are ragged, ValueError naming the first entry outside [0, size)
    or of a float or bool array as not `what` (a bool array would index
    a table as a mask, a float one would be truncated)."""
    try:
        A = np.asarray(values)
    except ValueError as exc:  # numpy refuses ragged nesting
        raise DimensionMismatch("rows of unequal length") from exc
    if A.size and (A.dtype.kind not in "iu" or A.min() < 0 or A.max() >= size):
        bad = next(x for x in A.ravel().tolist() if not (type(x) is int and 0 <= x < size))
        raise ValueError(f"{bad!r} is not {what}")
    return A


def as_elements(F: Field, rows) -> np.ndarray:
    """rows as an array of GF(q) elements, by _ints_below."""
    return _ints_below(rows, F.q, f"an element of GF({F.q})")


def _point_indices(idx, size: int) -> np.ndarray:
    """idx as an int64 array of indices of a space's `size` points, by
    _ints_below: a negative index would wrap to the last points."""
    return _ints_below(idx, size, f"a point index in [0, {size})").astype(np.int64, copy=False)


def normalize_point(F: Field, coords) -> tuple[int, ...]:
    """Scale so the leftmost nonzero coordinate is 1 (canonical form);
    as_elements' ValueError for an entry outside GF(q)."""
    coords = tuple(as_elements(F, coords).tolist())
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise ValueError("the zero vector is not a projective point")
    return coords if lead == 1 else tuple(F.mul(F.inv(lead), x) for x in coords)


def check_space(q: int, k: int) -> None:
    """Raise TooLarge when GF(q)^k exceeds MAX_TRANSFORM_CELLS,
    NotAPrimePower when q < 2, as theta and gf.field do, and ValueError
    when k < 1: PG(k-1, q) then has no points.

    PG(k-1, q) has theta(k-1, q) < q^k points, so this one test bounds the
    point enumeration, every per-point array and the transform kernel.
    """
    if q < 2:
        raise NotAPrimePower(f"field size must be at least 2, got {q}")
    if k < 1:
        raise ValueError(f"PG({k - 1}, {q}) has no points: k must be at least 1")
    # q >= 2, so once 2^k passes the cap q^k does too; q^k is never built
    if k >= MAX_TRANSFORM_CELLS.bit_length():
        cells = f"2^{k} or more"
    elif (cells := q**k) <= MAX_TRANSFORM_CELLS:
        return
    raise TooLarge(
        f"PG({k - 1}, {q}) needs {cells} transform cells, above the bound {MAX_TRANSFORM_CELLS}"
    )


def point_index(q: int, P) -> int:
    """Position of the canonical point P in enumerate_points.

    The points with pivot i (the position of the leading 1) start after
    the q^(k-1) + ... + q^(k-i) points with an earlier pivot, and inside
    that block the tail after the pivot counts upward in base q.  Float
    and bool entries are refused.
    """
    P = tuple(x.item() if isinstance(x, np.generic) else x for x in P)
    for x in P:
        if type(x) is not int:
            raise ValueError(f"{x!r} is not an element of GF({q})")
    k = len(P)
    for i, c in enumerate(P):
        if c:
            if c != 1 or not all(0 <= x < q for x in P[i + 1 :]):
                raise ValueError(f"{tuple(P)} is not a canonical point of PG({k - 1}, {q})")
            tail = 0
            for x in P[i + 1 :]:
                tail = tail * q + x
            return theta(k - 1, q) - theta(k - 1 - i, q) + tail
    raise ValueError("the zero vector is not a projective point")


@lru_cache(maxsize=None)
def point_codes(q: int, r: int) -> np.ndarray:
    """The base-q value of every point's coordinate vector, in enumeration
    order (read-only, cached per (q, r)).

    The block with pivot i holds q^(k-1-i) + tail for tail = 0, 1, ...
    """
    check_space(q, r + 1)
    codes = np.concatenate([np.arange(q**m, 2 * q**m, dtype=np.int64) for m in range(r, -1, -1)])
    codes.setflags(write=False)
    return codes


def point_digits(q: int, r: int, idx) -> np.ndarray:
    """The canonical coordinates of the points with enumeration indices idx:
    an int64 array of shape idx.shape + (r+1,), the base-q digits of
    point_codes(q, r)[idx]; _point_indices refuses any other index."""
    codes = point_codes(q, r)
    codes = codes[_point_indices(idx, len(codes))]
    return codes[..., None] // q ** np.arange(r, -1, -1, dtype=np.int64) % q


def vector_indices(F: Field, vectors) -> np.ndarray:
    """Enumeration indices of the points spanned by nonzero coordinate
    vectors: an integer array of shape (..., k) gives an int64 array of
    shape (...,).

    Each vector is scaled by the inverse of its leading nonzero entry with
    Field tables gathers, then point_index's closed form applies: the
    scaled code q^(k-1-i) + tail sits at theta(k-1) - theta(k-1-i) + tail
    for pivot i.  A leading entry that the tables do not scale to 1 is a
    CertificationFailed naming it.
    """
    V = as_elements(F, vectors)
    q, k = F.q, V.shape[-1]
    pivot = (V != 0).argmax(axis=-1)
    lead = np.take_along_axis(V, pivot[..., None], axis=-1)
    if not lead.all():
        raise ValueError("the zero vector is not a projective point")
    _, mul = F.tables
    scaled = mul[F.inverses[lead], V]
    ones = np.take_along_axis(scaled, pivot[..., None], axis=-1)
    if (bad := ones != 1).any():  # a spoiled product would name another point
        a, x = int(lead[bad][0]), int(ones[bad][0])
        raise CertificationFailed(f"GF({q})'s tables give {a}^-1 * {a} = {x}, not 1")
    code = np.zeros(V.shape[:-1], dtype=np.int64)
    for i in range(k):
        code = code * q + scaled[..., i]
    # pivot i: the block starts at theta(k-1) - theta(m) for m = k-1-i,
    # and the scaled code is q^m + tail
    m = k - 1 - np.arange(k)
    offset = theta(k - 1, q) - (q ** (m + 1) - 1) // (q - 1) - q**m
    return code + offset[pivot]


def enumerate_points(F: Field, r: int) -> tuple[tuple[int, ...], ...]:
    """All theta(r, q) canonical points of PG(r, q), in enumeration order."""
    check_space(F.q, r + 1)
    pts = []
    for pivot in range(r + 1):
        head = (0,) * pivot + (1,)
        for tail in product(range(F.q), repeat=r - pivot):
            pts.append(head + tail)
    return tuple(pts)


def incident(F: Field, P, H) -> bool:
    """True iff the point P lies on the hyperplane with coefficients H."""
    if len(P) != len(H):
        raise DimensionMismatch(f"point has {len(P)} coordinates, hyperplane {len(H)}")
    acc = 0
    for a, b in zip(as_elements(F, P).tolist(), as_elements(F, H).tolist()):
        acc = F.add(acc, F.mul(a, b))
    return acc == 0


@dataclass(frozen=True)
class Flat:
    """A projective subspace given by its reduced-echelon basis rows."""

    r: int  # ambient dimension
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.basis:
            raise ValueError("a flat needs at least one basis row")
        for row in self.basis:
            if len(row) != self.r + 1:
                raise DimensionMismatch(
                    f"a basis row has {len(row)} entries, PG({self.r}, q) needs {self.r + 1}"
                )

    @property
    def dim(self) -> int:
        return len(self.basis) - 1


def echelon(F: Field, rows) -> tuple[np.ndarray, np.ndarray]:
    """Ranks (...) and reduced row echelon forms (..., m, k), pivot rows
    first, of row stacks (..., m, k) over GF(q): one Gauss-Jordan pass per
    column over every stack, by Field tables gathers."""
    A = as_elements(F, rows)
    add, mul = F.tables
    *batch, m, k = A.shape if A.shape != (0,) else (0, 0)  # [] has no rows
    A = A.astype(add.dtype).reshape(prod(batch), m, k)
    lead = np.zeros(len(A), dtype=np.int64)  # the next pivot row per stack
    for col in range(k):
        below = (A[:, :, col] != 0) & (np.arange(m) >= lead[:, None])
        if not (s := np.flatnonzero(below.any(axis=1))).size:
            continue
        L, P = lead[s], below[s].argmax(axis=1)
        pivot = mul[F.inverses[A[s, P, col]][:, None], A[s, P]]
        A[s, P], A[s, L] = A[s, L], pivot
        f = F.negatives[A[s, :, col]]  # adding f * pivot clears the column
        f[np.arange(len(s)), L] = 0
        A[s] = add[A[s], mul[f[:, :, None], pivot[:, None, :]]]
        lead[s] += 1
    return lead.reshape(batch), A.reshape(*batch, m, k)


def rank(F: Field, rows):
    """echelon's rank: an int for one row list, an array for stacks."""
    ranks = echelon(F, rows)[0]
    return int(ranks) if ranks.ndim == 0 else ranks


def span(F: Field, points) -> Flat:
    """Smallest flat containing the given points (canonical basis)."""
    pts = list(points)
    if not pts:
        raise ValueError("span of an empty point set is undefined")
    m, forms = echelon(F, pts)
    return Flat(r=len(pts[0]) - 1, basis=tuple(map(tuple, forms[:m].tolist())))


def flat_indices(F: Field, basis) -> np.ndarray:
    """Ascending enumeration indices of the points spanned by basis rows of
    shape (..., t+1, k), a Flat's basis or stacked (P, R) point pairs: an
    int64 array of shape (..., theta(t)).

    Row i plus every combination of the later rows gives, once each, the
    points whose first nonzero coefficient is row i's.  One vector_indices
    call maps every block; it refuses the zero vector of dependent rows.
    The blocks' batch * theta(t) * k cells are bounded by
    MAX_TRANSFORM_CELLS (TooLarge) before any is built: they peak at about
    12 bytes a cell, so about 100 MB at the bound.
    """
    add, mul = F.tables
    B = as_elements(F, basis).astype(np.int64)
    *batch, rows, k = B.shape
    if not rows:
        raise ValueError("a flat needs at least one basis row")
    check_space(F.q, k)
    points = theta(rows - 1, F.q)
    if (cells := prod(batch) * points * k) > MAX_TRANSFORM_CELLS:
        raise TooLarge(
            f"{prod(batch)} flat(s) of {points} points in PG({k - 1}, {F.q}) need {cells} cells, "
            f"above the bound {MAX_TRANSFORM_CELLS}"
        )
    scalars = np.arange(F.q)[:, None, None]
    blocks = []
    for i in range(rows):
        vecs = B[..., i : i + 1, :]
        for j in range(i + 1, rows):
            # every vector so far plus c * row j, for every scalar c
            vecs = add[vecs[..., None, :, :], mul[scalars, B[..., j, None, None, :]]]
            vecs = vecs.reshape(*batch, -1, k)
        blocks.append(vecs)
    return np.sort(vector_indices(F, np.concatenate(blocks, axis=-2)), axis=-1)


def hyperplanes_containing(F: Field, flat: Flat) -> np.ndarray:
    """Boolean vector, indexed like enumerate_points, True at the
    hyperplanes H that contain the flat.

    H contains the flat exactly when H.b = 0 for every basis row b.  With
    each point code split as hi * q^h + lo (h = k//2), that holds exactly
    when head[hi] == tail[lo]: head holds b's first k-h coordinates dotted
    with every vector of GF(q)^(k-h), tail minus its last h dotted with
    every vector of GF(q)^h, both built by Field tables gathers.  The
    pivot block of the codes q^m .. 2q^m - 1 pairs every hi in q^(m-h) ..
    2q^(m-h) - 1 with every lo when m >= h, and has hi = 0 when m < h, so
    no code is divided.  A zero basis row is refused.
    """
    add, mul = F.tables
    q, k = F.q, flat.r + 1
    check_space(q, k)
    B = as_elements(F, flat.basis)
    if not B.any(axis=1).all():
        raise ValueError("the zero vector is not a projective point")
    h = k // 2
    through = np.ones(theta(flat.r, q), dtype=bool)
    for b in B.tolist():
        head, tail = np.zeros(1, add.dtype), np.zeros(1, add.dtype)
        for c in b[: k - h]:
            head = add[head[:, None], mul[c]].ravel()
        for c in b[k - h :]:
            tail = add[tail[:, None], mul[F.neg(c)]].ravel()
        through &= np.concatenate([
            np.equal.outer(head[q ** (m - h) : 2 * q ** (m - h)], tail).ravel()
            if m >= h else head[0] == tail[q**m : 2 * q**m]
            for m in range(flat.r, -1, -1)
        ])
    return through


def flat_points(F: Field, flat: Flat) -> list[tuple[int, ...]]:
    """All theta(dim, q) canonical points of a flat, sorted canonically."""
    digits = point_digits(F.q, flat.r, flat_indices(F, flat.basis))
    return [tuple(P) for P in digits.tolist()]


def hyperplane_multiplicities(F: Field, r: int, support, weights) -> np.ndarray:
    """Weighted incidence counts over every hyperplane of PG(r, q).

    support is a 1-D array of point indices (positions in
    enumerate_points(F, r), read by _point_indices) and weights the
    matching integer weights.
    Returns an int64 array indexed like enumerate_points(F, r) (hyperplane
    coefficient vectors share the point enumeration), whose entry for H is
    the sum of weights over support points lying on H.

    Computed by exact integer folds over GF(q)^k.  W[x] holds the weight of
    vector x.  Canonical hyperplanes with leading coordinate 1 come from
    A[s, H_2..H_k] = sum of W(x) over x with x.H = s: start from
    A[s, rest] = W[x_1 = s, rest] (the first coordinate contributes
    x_1 * 1 = s) and fold one further coordinate at a time,
    A'[s, .., c] = sum_a A[s - a*c, a, ..], with GF(q) arithmetic.  m(H) is
    A[0, H].  Hyperplanes with leading coordinate 0 ignore x_1, so the same
    steps run again on W summed over x_1, one dimension down.  Each fold
    moves the folded axis to the end, so every gather reads whole
    contiguous rows and the final axes come out in enumeration order.  A
    fold gathers every c at once unless that exceeds q^k cells (only the
    top pass's full folds), so the peak stays four q^k-cell arrays.

    The cost is about k * q^(k+1) integer additions whatever the support
    size.  Spaces that check_space refuses raise TooLarge before anything
    is allocated.
    """
    q, k = F.q, r + 1
    codes = point_codes(q, r)  # check_space's TooLarge first
    idx = _point_indices(support, len(codes))
    w = np.asarray(weights, dtype=np.int64)
    if idx.ndim != 1 or idx.shape != w.shape:
        raise ValueError("support and weights must be 1-D arrays of one length")
    # partial sums never exceed sum(|w|): int32 halves the memory traffic
    dt = np.int32 if int(np.abs(w).sum()) < 2**31 else np.int64
    W = np.zeros(q**k, dtype=dt)
    np.add.at(W, codes[idx], w.astype(dt))
    add, mul = F.tables
    minus = add[:, F.negatives]  # minus[s, t] = s - t
    # rows[c, s, a]: row (s - a*c, a) of A viewed as (q*q, rest); every s
    # only where some pass folds twice (k >= 3, so q^3 <= q^k cells)
    rows = minus[: q if k >= 3 else 1, mul].transpose(1, 0, 2).astype(np.int64) * q + np.arange(q)
    out = []
    for j in range(k, 0, -1):
        A = W.reshape(q, -1)
        for f in range(j - 1):
            # only s = 0 is read after the last fold
            A = _fold(A, rows if f < j - 2 else rows[:, :1], dt, q**k)
        out.append(A[0])
        W = W.reshape(q, -1).sum(axis=0, dtype=dt)
    return np.concatenate(out).astype(np.int64)


def _fold(A: np.ndarray, rows: np.ndarray, dt, cells: int) -> np.ndarray:
    """(q, a, rest) -> (len(rows[0]), rest, c): sum_a A[s - a*c, a, rest],
    one gather for every c if it holds at most `cells` cells, else per c."""
    q, s = rows.shape[:2]
    rest = A.size // (q * q)
    A2 = A.reshape(q * q, rest)
    B = np.empty((q, s, rest), dtype=dt)
    step = q if s * A.size <= cells else 1
    for c in range(0, q, step):
        np.sum(A2[rows[c : c + step]], axis=2, dtype=dt, out=B[c : c + step])
    return np.ascontiguousarray(B.transpose(1, 2, 0)).reshape(s, -1)
