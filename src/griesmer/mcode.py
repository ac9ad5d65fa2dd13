"""Multiset model of a linear code over GF(q).

A full-support [n, k, d]_q code is represented by the multiset of its
generator-matrix columns viewed as points of PG(k-1, q).  The multiset is
stored as one dense int64 count vector over the theta(k-1, q) points,
indexed like pg.enumerate_points.  Hyperplanes share that enumeration, so
the hyperplane-multiplicity vector lines up with the count vector: the
projective dual is one vector expression, a puncture subtracts an
indicator, and the multiplicity profile is a bincount.  All parameters
are read exactly off the spectrum a_i, the count of hyperplanes of
multiplicity i, which each PointMultiset sorts once and keeps with its
hyperplane vector and parameters: n - d is its largest i, and the divisor
the gcd of the weights n - i.  An exact codeword oracle is provided as
an independent check; it never touches the hyperplane machinery.  It
counts every hyperplane's points by additive character sums over one
Fourier transform of the count vector, taken modulo a prime.

File formats (plain text, exact round trip):
  multiset          header "q k", then one support line per point:
                    "multiplicity c0 c1 ... c_{k-1}" using element encodings
  generator matrix  header "q k n", then k rows of n element encodings
Entries are whitespace-separated and blank lines are skipped.  Both
writers gather their lines from one table of byte strings.  A file of
digits, spaces and newlines, as the writers make, is parsed by numpy's C
reader; any other file (CRLF, tabs, bad rows) by a row scan that names
the first bad row's line.  A JSON sidecar "<path>.meta.json" carries
construction provenance when the multiset has any.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property, reduce
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import pg
from .errors import FileFormatError, NotFullRank, TooLarge, ZeroColumn
from .gf import Field, field

_WRITE_CHUNK = 2048  # points per write: index rows near 128 KiB add no peak RSS


@dataclass(frozen=True)
class CodeParams:
    """Exact parameters of a multiset code.

    lam[i] is the number of points of PG(k-1, q) carrying multiplicity i,
    so lam[0] counts the holes and len(lam) == gamma0 + 1.
    """

    n: int
    k: int
    d: int
    divisor: int
    gamma0: int
    lam: tuple[int, ...]


class PointMultiset:
    """Immutable multiset of points of PG(r, q) with positive multiplicities.

    The one stored form is `counts`, a read-only int64 vector of length
    theta(r, q) indexed like pg.enumerate_points(F, r).  `mults` is such a
    vector, of any integer dtype; it is copied.  Codes are built from
    points by filling one with pg.vector_indices, or by
    multiset_from_matrix, and read back with pg.point_digits.  Every
    stored multiplicity is at most pg.MAX_TRANSFORM_CELLS (TooLarge
    otherwise).
    """

    def __init__(self, F: Field, r: int, mults, meta: dict | None = None):
        pg.check_space(F.q, r + 1)
        size = pg.theta(r, F.q)
        if not (isinstance(mults, np.ndarray) and mults.dtype.kind in "iub"
                and mults.shape == (size,)):
            raise ValueError(
                f"expected an integer array of {size} multiplicities for PG({r}, {F.q})"
            )
        if (mults < 0).any():
            raise ValueError("negative multiplicity")
        # before the int64 cast could wrap it; the bound holds code_params'
        # bincount at cap + 1 cells and n, theta(r, q) < cap entries, below 2^46
        if (top := int(mults.max())) > pg.MAX_TRANSFORM_CELLS:
            raise TooLarge(f"multiplicity {top} exceeds the bound {pg.MAX_TRANSFORM_CELLS}")
        counts = mults.astype(np.int64)
        if not counts.any():
            raise ValueError("a code multiset needs at least one point")
        counts.setflags(write=False)
        self.field = F
        self.r = r
        self.counts = counts
        self.meta = dict(meta or {})

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def k(self) -> int:
        return self.r + 1

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def gamma0(self) -> int:
        return int(self.counts.max())

    def hyperplane_mults(self) -> np.ndarray:
        """m(H) for every hyperplane, indexed like pg.enumerate_points: the
        kernel's, unless _walked gave the code a walked or dual vector."""
        return self._mvec

    @cached_property
    def _mvec(self) -> np.ndarray:
        idx = np.flatnonzero(self.counts)
        mvec = pg.hyperplane_multiplicities(self.field, self.r, idx, self.counts[idx])
        mvec.setflags(write=False)
        return mvec

    @cached_property
    def _spectrum(self) -> dict[int, int]:
        """{i: a_i} over the multiplicities i that occur, ascending: one
        sort of the hyperplane vector, kept for every later reader."""
        vals, counts = np.unique(self._mvec, return_counts=True)
        return dict(zip(vals.tolist(), counts.tolist()))

    @cached_property
    def _params(self) -> CodeParams:
        """code_params, read off the spectrum (a gcd over distinct weights)."""
        n, spectrum = self.n, self._spectrum
        d = n - max(spectrum)
        # the support spans iff no hyperplane holds all of it
        if d == 0:
            raise NotFullRank(f"support spans a proper subspace of PG({self.r}, {self.q})")
        return CodeParams(
            n=n, k=self.k, d=d, divisor=math.gcd(*(n - i for i in spectrum)),
            gamma0=self.gamma0, lam=tuple(np.bincount(self.counts).tolist()),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointMultiset)
            and self.q == other.q
            and self.r == other.r
            and np.array_equal(self.counts, other.counts)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"PointMultiset(PG({self.r},{self.q}), n={self.n}, "
            f"support={np.count_nonzero(self.counts)})"
        )


def _walked(M: PointMultiset, mvec: np.ndarray) -> PointMultiset:
    """M, given mvec as its hyperplane vector in place of the kernel's: one
    walked by a puncture, or read off the dual's incidence identity."""
    M._mvec = mvec
    mvec.setflags(write=False)
    return M


def hyperplane_spectrum(M: PointMultiset) -> dict[int, int]:
    """Counts a_i of hyperplanes with multiplicity i (only nonzero entries),
    in ascending i; a copy of the one M keeps."""
    return dict(M._spectrum)


def code_params(M: PointMultiset) -> CodeParams:
    """Exact [n, k, d]_q parameters plus divisor and multiplicity profile."""
    return M._params


def generator_matrix(M: PointMultiset) -> np.ndarray:
    """k x n matrix whose columns repeat each support point mult times.

    Column order is deterministic: points in enumeration order, repeats
    adjacent.
    """
    code_params(M)  # NotFullRank check
    idx = np.flatnonzero(M.counts)
    return pg.point_digits(M.q, M.r, np.repeat(idx, M.counts[idx])).T


def multiset_from_matrix(G, q: int) -> PointMultiset:
    """Inverse of generator_matrix: proportional columns collapse to one point."""
    G = np.asarray(G, dtype=np.int64)
    if G.ndim != 2 or G.shape[0] < 1:
        raise FileFormatError("generator matrix must be two-dimensional")
    k = G.shape[0]
    zero = np.flatnonzero(~G.any(axis=0))
    if len(zero):
        raise ZeroColumn(f"column {zero[0]} is zero (code would not have full support)")
    pg.check_space(q, k)
    F = field(q)  # after the space check: a field past it is slow to build
    bad = np.flatnonzero(((G < 0) | (G >= q)).any(axis=0))
    if len(bad):
        raise ValueError(f"coordinate out of range in {tuple(G[:, bad[0]].tolist())}")
    # proportional columns span one point, so their counts add up
    counts = np.bincount(pg.vector_indices(F, G.T), minlength=pg.theta(k - 1, q))
    M = PointMultiset(F, k - 1, counts)
    try:
        code_params(M)
    except NotFullRank as exc:
        raise NotFullRank("matrix rank is below the number of rows") from exc
    return M


def oracle_hyperplane_mults(M: PointMultiset) -> np.ndarray:
    """m(H) for every hyperplane, indexed like pg.enumerate_points, by
    character sums; reads only the count vector, point codes and digits,
    Field.tables and scalar field operations.

    With q = p^h, a vector's base-q code read in base p is its vector in
    F_p^(hk).  W holds the counts at the point codes, and its Fourier
    transform W^(u) = sum_x W[x] w^<u,x> is taken modulo the least prime
    P = 1 (mod p) above n, w of order p mod P: one p x p product per
    base-p digit, reduced after each so no sum reaches p * P^2 < 2^63
    (TooLarge before anything is built otherwise).  Summing the characters
    over lambda in GF(q) counts the x with H.x = 0: q * m(H) = sum_lambda
    W^(T(lambda H)), where T[c] = sum_j Tr(c x^j) p^j (the identity for
    prime q).  m(H) <= n < P, so m(H) mod P is exact.
    """
    F, q, n, p, h = M.field, M.q, M.n, M.field.p, M.field.h
    P = n + 1  # the least prime P = 1 (mod p) above n, unless p * P^2 reaches 2^63 first
    while p * P * P < 1 << 63 and (
        P % p != 1 or any(P % d == 0 for d in range(2, math.isqrt(P) + 1))
    ):
        P += 1
    if p * P * P >= 1 << 63:
        raise TooLarge(f"the oracle's modulus {P} for n = {n} overflows int64")
    w = next(x for g in range(2, P) if (x := pow(g, (P - 1) // p, P)) != 1)
    omega = np.array([[pow(w, a * b, P) for b in range(p)] for a in range(p)], dtype=np.int64)
    W = np.zeros(q**M.k, dtype=np.int64)
    W[pg.point_codes(q, M.r)] = M.counts
    for _ in range(h * M.k):  # transform the leading base-p digit and move it last
        W = W.reshape(p, -1).T @ omega
        W %= P
    W = W.ravel()
    _, mul = F.tables
    trace = np.array([reduce(F.add, [F.pow(a, p**i) for i in range(h)]) for a in range(q)])
    T = trace[mul[:, p ** np.arange(h)]] @ p ** np.arange(h)
    digits = pg.point_digits(q, M.r, np.arange(pg.theta(M.r, q)))
    place = q ** np.arange(M.r, -1, -1)
    # with row = mul[lambda], T[row][digits] @ place is the cell of lambda H
    total = sum(W[T[row][digits] @ place] for row in mul)
    return total % P * pow(q, -1, P) % P


def oracle_weight_distribution(M: PointMultiset) -> dict[int, int]:
    """Exact weight distribution from oracle_hyperplane_mults: codeword 0,
    and q - 1 codewords of weight n - m(H) per hyperplane H."""
    weights, counts = np.unique(M.n - oracle_hyperplane_mults(M), return_counts=True)
    dist = {0: 1}
    for weight, count in zip(weights.tolist(), counts.tolist()):
        dist[weight] = dist.get(weight, 0) + (M.q - 1) * count
    return dist


# ---------------------------------------------------------------------------
# file formats


def _json_text(obj) -> str:
    """The one JSON spelling of every file and report: json.dumps with
    sorted keys and two spaces of indent, plus a final newline.

    Each dict and list is encoded once per depth, so an object shared by
    several parents, like a provenance step in every later table row, is
    spelled once; ids stay valid because obj holds every object for the
    whole call.  A list of ints is one join.
    """
    memo: dict[tuple[int, int], str] = {}

    def encode(o, depth: int) -> str:
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if type(o) is int:
            return str(o)
        if not isinstance(o, (dict, list, tuple)):
            return json.dumps(o)  # bool, None, float, or json's TypeError
        text = memo.get((id(o), depth))
        if text is None:
            if not o:
                text = "{}" if isinstance(o, dict) else "[]"
            else:
                indent = "\n" + "  " * (depth + 1)
                if isinstance(o, dict):
                    items = [
                        encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))
                        + ": " + encode(v, depth + 1)
                        for k, v in sorted(o.items())
                    ]
                    ends = "{}"
                else:
                    ints = all(type(v) is int for v in o)
                    items = map(str, o) if ints else [encode(v, depth + 1) for v in o]
                    ends = "[]"
                text = ends[0] + indent + ("," + indent).join(items) + indent[:-2] + ends[1]
            memo[id(o), depth] = text
        return text

    return encode(obj, 0) + "\n"


def _meta_path(path) -> Path:
    return Path(str(path) + ".meta.json")


@contextmanager
def open_output(path):
    """open(path, "w") for ASCII text, raising FileFormatError on OSError;
    written beside path, the text replaces it only if the block completes."""
    path = Path(path)
    staged = path.with_name(f".{path.name}.tmp")
    try:
        with open(staged, "w", encoding="ascii") as out:
            yield out
        staged.replace(path)
    except BaseException as exc:  # a staged file exists only on failure
        with suppress(OSError):
            staged.unlink()
        if isinstance(exc, OSError):
            raise FileFormatError(f"cannot write {path}: {exc}") from exc
        raise


def _write_rows(out, cells: np.ndarray, columns) -> None:
    """Write one line per row of the index columns: the cells it names, each
    b" ..." or empty, less the first space.  The cells, an "S" array, and a
    newline are one NUL-padded table the lines are gathered from as bytes;
    one mask drops the padding and each line's leading space."""
    table = np.append(cells, b"\n")
    ends = np.full(len(columns[0]), len(cells))
    lines = np.take(table, np.column_stack([*columns, ends])).view(np.uint8)
    lines[:, 0] = 0
    out.write(lines[lines != 0].tobytes().decode("ascii"))


def write_multiset(M: PointMultiset, path) -> None:
    """Write M and its provenance sidecar, both or neither (the sidecar's
    block runs inside the multiset's); without provenance, drop a stale one."""
    q, idx = M.q, np.flatnonzero(M.counts)
    elements = [f" {c}" for c in range(q)]
    with open_output(path) as out:
        out.write(f"{q} {M.k}\n")
        for lo in range(0, len(idx), _WRITE_CHUNK):
            chunk = idx[lo : lo + _WRITE_CHUNK]
            m = M.counts[chunk]
            mults = np.sort(m)
            mults = mults[np.diff(mults, prepend=-1) > 0]  # distinct, after the q elements
            cells = np.array(elements + [f" {v}" for v in mults.tolist()], dtype="S")
            which = q + np.searchsorted(mults, m)
            _write_rows(out, cells, [which, pg.point_digits(q, M.r, chunk)])
        meta = _meta_path(path)
        if M.meta:
            with open_output(meta) as side:
                side.write(_json_text(M.meta))
        else:
            try:
                meta.unlink(missing_ok=True)
            except OSError as exc:
                raise FileFormatError(f"cannot write {meta}: {exc}") from exc


def _read(path, header: str) -> tuple[str, list[int]]:
    """An ASCII file's text and the integers of its header, the tokens of
    _rows(text)[0] (found without splitting the rest), named by header."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("ascii")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # number the line as the readers' splitlines() does
        at = len((data[: exc.start] + b".").decode("ascii").splitlines())
        raise FileFormatError(f"{path}:{at}: non-ASCII byte {data[exc.start]:#04x}") from exc
    first = text.lstrip().partition("\n")[0]
    head = first.splitlines()[0].split() if first else []
    if len(head) != len(header.split()):
        raise FileFormatError(f"{path}: expected a '{header}' header")
    try:
        return text, [int(x) for x in head]
    except ValueError as exc:
        raise FileFormatError(f"{path}: malformed header") from exc


def _rows(text: str) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of each nonblank line, as splitlines() cuts them."""
    return [(i, ln.split()) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]


def _table(text: str, width: int) -> np.ndarray | None:
    """The rows after the header as an int64 array from numpy's C reader, or
    None for the row scan: when a byte is not a digit, space or newline
    (splitlines() also cuts lines at \\r, \\x0b, \\x0c and \\x1c-\\x1e), when
    no row follows, or when numpy refuses a token or rows are not `width` wide."""
    if text.encode("ascii").translate(None, b"0123456789 \n"):
        return None
    body = text.lstrip().partition("\n")[2]
    if not body.strip():  # loadtxt warns on an empty input
        return None
    try:
        vals = np.loadtxt(body.splitlines(), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    return vals if vals.shape[1] == width else None


def _entry(token: str) -> int:
    """int(token) clamped to +-2^62, past every bound here.  A signed digit
    run is read by its significant digits: int() refuses a string of more
    than 4300 digits, leading zeros included."""
    digits = token[1:] if token[0] in "+-" else token
    if digits.isdecimal():
        digits = digits.lstrip("0") or "0"
        return (-1 if token[0] == "-" else 1) * (1 << 62 if len(digits) > 18 else int(digits))
    return min(max(int(token), -(1 << 62)), 1 << 62)


def read_multiset(path) -> PointMultiset:
    text, (q, k) = _read(path, "q k")
    if k < 1:
        raise FileFormatError(f"{path}: dimension must be positive")
    pg.check_space(q, k)
    F = field(q)
    vals = _table(text, k + 1)
    if vals is not None:
        count = end = len(vals)
    else:
        body = [row for _, row in _rows(text)[1:]]
        if not body:
            raise FileFormatError(f"{path}: no support points")
        count = len(body)
        end = next((i for i, row in enumerate(body) if len(row) != k + 1), count)
        error = f"expected multiplicity plus {k} coordinates"
        vals = []
        for i, row in enumerate(body[:end]):
            try:
                vals.append([_entry(x) for x in row])
            except ValueError:
                end, error = i, "non-integer entry"
                break
        vals = np.array(vals, dtype=np.int64).reshape(end, k + 1)
    # Rows are checked as arrays, one check at a time.  Each check runs on
    # the rows before the first failure found so far, so the first bad row
    # is reported with the first check it fails, as a row-by-row scan would.
    m, coords = vals[:, 0], vals[:, 1:]

    def lead(c):  # each row's leading nonzero entry
        return np.take_along_axis(c, (c != 0).argmax(axis=1)[:, None], axis=1)[:, 0]

    checks = (  # (message, failed rows); None is the multiplicity bound
        ("multiplicity must be positive", lambda m, c: m < 1),
        (None, lambda m, c: m > pg.MAX_TRANSFORM_CELLS),
        (f"coordinate outside [0, {q})", lambda m, c: ((c < 0) | (c >= q)).any(axis=1)),
        ("the zero vector is not a projective point", lambda m, c: ~c.any(axis=1)),
        ("point is not in canonical form", lambda m, c: lead(c) != 1),
    )
    for message, failed in checks:
        bad = np.flatnonzero(failed(m[:end], coords[:end]))
        if len(bad):
            end, error = int(bad[0]), message
    idx = pg.vector_indices(F, coords[:end])
    order = np.argsort(idx, kind="stable")
    repeats = order[1:][idx[order][1:] == idx[order][:-1]]
    if len(repeats):
        end, error = int(repeats.min()), "duplicate point"
    if end < count:
        line, row = _rows(text)[end + 1]
        where = f"{path}:{line}: "
        if error is None:  # the entry as str(int()) gives it, past int()'s digit limit
            m = row[0].lstrip("+").replace("_", "").lstrip("0")
            raise TooLarge(f"{where}multiplicity {m} exceeds the bound {pg.MAX_TRANSFORM_CELLS}")
        raise FileFormatError(where + error)
    counts = np.zeros(pg.theta(k - 1, q), dtype=np.int64)
    counts[idx] = m
    meta = None
    mp = _meta_path(path)
    if mp.exists():
        meta = _read_meta(mp, q, k)
    return PointMultiset(F, k - 1, counts, meta=meta)


def _read_meta(mp: Path, q: int, k: int) -> dict:
    """Parse a provenance sidecar and check the keys that are read back.

    skew_region and construction.l0[1] name hyperplanes of PG(k-1, q), so
    each must be k integers in [0, q), not all zero; history must be a list.
    """
    try:
        meta = json.loads(mp.read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"{mp}: unreadable provenance: {exc}") from exc
    if not isinstance(meta, dict):
        raise FileFormatError(f"{mp}: provenance must be a JSON object")

    def hyperplane(v) -> bool:
        return (
            isinstance(v, list)
            and len(v) == k
            and all(type(c) is int and 0 <= c < q for c in v)
            and any(v)
        )

    need = f"{k} integers in [0, {q}), not all zero"
    if "skew_region" in meta and not hyperplane(meta["skew_region"]):
        raise FileFormatError(f"{mp}: skew_region must be {need}")
    if "construction" in meta:
        construction = meta["construction"]
        l0 = construction.get("l0") if isinstance(construction, dict) else None
        if not (isinstance(l0, list) and len(l0) >= 2 and hyperplane(l0[1])):
            raise FileFormatError(f"{mp}: construction.l0[1] must be {need}")
    if not isinstance(meta.get("history", []), list):
        raise FileFormatError(f"{mp}: history must be a list")
    return meta


def write_gmatrix(M: PointMultiset, path) -> None:
    G = generator_matrix(M)
    k, n = G.shape
    with open_output(path) as out:
        out.write(f"{M.q} {k} {n}\n")
        _write_rows(out, np.array([f" {c}" for c in range(M.q)], dtype="S"), [G])


def read_gmatrix(path) -> PointMultiset:
    text, (q, k, n) = _read(path, "q k n")
    G = _table(text, n)
    if G is None:
        rows = [row for _, row in _rows(text)[1:]]
        if len(rows) != k or any(len(r) != n for r in rows):
            raise FileFormatError(f"{path}: expected {k} rows of {n} entries")
        try:
            G = np.array([[_entry(x) for x in r] for r in rows], dtype=np.int64)
        except ValueError as exc:
            raise FileFormatError(f"{path}: non-integer entry") from exc
    elif len(G) != k:
        raise FileFormatError(f"{path}: expected {k} rows of {n} entries")
    if ((G < 0) | (G >= q)).any():
        raise FileFormatError(f"{path}: entry outside [0, {q})")
    return multiset_from_matrix(G, q)
