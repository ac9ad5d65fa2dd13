"""Property suites over small spaces: the closed-form point index and its
vectorized form, the multiset's count vector, the multiset file format
and its reader against a row-by-row reference, malformed multiset files
through the CLI and malformed generator-matrix files through their
reader, puncturing, the dual of random divisible codes against its
closed forms, the hyperplane kernel against naive incidence, a flat's
reduced-echelon basis against its points, the walked hyperplane vector
of punctured codes against the kernel, and the codeword oracle against a
full enumeration."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from griesmer import mcode
from griesmer.chains import build_chain, plan_chain
from griesmer.cli import main
from griesmer.errors import FileFormatError, InputError, TooLarge
from griesmer.gf import field
from griesmer.mcode import (
    PointMultiset,
    code_params,
    hyperplane_spectrum,
    oracle_weight_distribution,
    read_gmatrix,
    read_multiset,
    write_gmatrix,
    write_multiset,
)
from griesmer.pg import (
    MAX_TRANSFORM_CELLS,
    enumerate_points,
    flat_indices,
    flat_points,
    hyperplane_multiplicities,
    hyperplanes_containing,
    incident,
    normalize_point,
    point_digits,
    point_index,
    rank,
    span,
    theta,
    vector_indices,
)
from griesmer.transforms import projective_dual, puncture_flat, puncture_point

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


def counts_of(F, r, mults):
    """The count vector of a {canonical point: multiplicity} dict."""
    counts = np.zeros(theta(r, F.q), dtype=np.int64)
    counts[vector_indices(F, list(mults))] = list(mults.values())
    return counts


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
    M = PointMultiset(F, r, counts_of(F, r, mults))
    support = np.flatnonzero(M.counts)
    points = list(map(tuple, point_digits(F.q, r, support).tolist()))
    assert points == sorted(mults, key=lambda P: point_index(F.q, P))
    assert dict(zip(points, M.counts[support].tolist())) == mults
    assert M.n == sum(mults.values())
    # any nonzero multiple of a point names the same point
    scale = data.draw(st.lists(st.integers(1, F.q - 1), min_size=len(mults), max_size=len(mults)))
    scaled = {tuple(F.mul(s, c) for c in P): m for (P, m), s in zip(mults.items(), scale)}
    assert PointMultiset(F, r, counts_of(F, r, scaled)) == M


@PROPERTY
@given(point_dicts())
def test_multiset_file_round_trips_byte_for_byte(case):
    F, r, mults = case
    M = PointMultiset(F, r, counts_of(F, r, mults), meta={"history": [{"op": "test"}]})
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


def clamped_int(x):
    """int(x), except that a signed digit run of more than 18 significant
    digits, past every bound, reads as 10^19 with its sign: int() refuses
    a string of more than 4300 digits, leading zeros included."""
    sign, digits = (-1, x[1:]) if x[0] == "-" else (1, x.removeprefix("+"))
    if digits.isdecimal():
        digits = digits.lstrip("0") or "0"
        return sign * (10**19 if len(digits) > 18 else int(digits))
    return int(x)


def read_row_by_row(path):
    """The counts of a multiset file, or the error for its first bad row:
    every row checked in turn, each check in the order read_multiset
    reports them, and named by its line in the file."""
    lines = Path(path).read_bytes().decode("ascii").splitlines()
    rows = [(ln_no, ln.split()) for ln_no, ln in enumerate(lines, start=1) if ln.strip()]
    q, k = int(rows[0][1][0]), int(rows[0][1][1])
    F = field(q)
    counts = np.zeros(theta(k - 1, q), dtype=np.int64)
    for ln_no, row in rows[1:]:
        where = f"{path}:{ln_no}: "
        if len(row) != k + 1:
            raise FileFormatError(where + f"expected multiplicity plus {k} coordinates")
        try:
            m, *coords = [clamped_int(x) for x in row]
        except ValueError:
            raise FileFormatError(where + "non-integer entry") from None
        if m < 1:
            raise FileFormatError(where + "multiplicity must be positive")
        if m > MAX_TRANSFORM_CELLS:  # Decimal prints the entry past int()'s digit limit
            raise TooLarge(where + f"multiplicity {Decimal(row[0])} exceeds the bound {MAX_TRANSFORM_CELLS}")
        if any(not 0 <= c < q for c in coords):
            raise FileFormatError(where + f"coordinate outside [0, {q})")
        if not any(coords):
            raise FileFormatError(where + "the zero vector is not a projective point")
        if list(normalize_point(F, coords)) != coords:
            raise FileFormatError(where + "point is not in canonical form")
        i = point_index(q, coords)
        if counts[i]:
            raise FileFormatError(where + "duplicate point")
        counts[i] = m
    if len(rows) == 1:
        raise FileFormatError(f"{path}: no support points")
    return counts


_TOKENS = ["0", "1", "2", "3", "-1", "x", "1.0", "+2", "1_0", "8388608", "8388609",
           "99999999999999999999", "-99999999999999999999", "9" * 5000, "0" * 5000 + "1"]


def _outcome(read, path):
    try:
        return read(path)
    except (FileFormatError, TooLarge) as exc:
        return type(exc), str(exc)


@PROPERTY
@given(q=st.sampled_from([2, 3, 4, 5]), k=st.integers(1, 3), data=st.data())
def test_multiset_reader_matches_the_row_by_row_reference(q, k, data):
    good = st.tuples(st.integers(1, 3), st.lists(st.integers(0, q - 1), min_size=k, max_size=k))
    good = good.map(lambda mc: [str(mc[0]), *map(str, mc[1])])
    spoiled = st.tuples(good, st.integers(0, k), st.sampled_from(_TOKENS)).map(
        lambda g: g[0][: g[1]] + [g[2]] + g[0][g[1] + 1 :]
    )
    entry = st.one_of(st.integers(0, q - 1).map(str), st.sampled_from(_TOKENS))
    anything = st.lists(entry, max_size=k + 2)  # any length, blank lines included
    rows = data.draw(st.lists(st.one_of(good, good, spoiled, anything), max_size=6))
    # digits, spaces and newlines, which numpy reads, or any separators,
    # line breaks and trailing blanks, which leave the file to the row scan;
    # a separator splitlines() cuts at (\x0b, \x0c, \x1c) splits its row
    odd = data.draw(st.booleans())
    blanks = [" ", "  ", "\t", " \t "] if odd else [" ", "  "]
    seps = st.sampled_from(blanks + ["\x0b", "\x0c", "\x1c"] if odd else blanks)
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c"] if odd else ["\n"])
    trail = data.draw(st.sampled_from(["", " ", " \t"] if odd else ["", " "]))
    lines = [data.draw(st.sampled_from(blanks)).join([str(q), str(k)])]
    lines += [data.draw(seps).join(r) for r in rows]
    text = "".join(data.draw(breaks) for _ in range(data.draw(st.integers(0, 2))))
    text += "".join(ln + trail + data.draw(breaks) for ln in lines)
    if data.draw(st.booleans()):  # a last row without a line break
        text = text[: -2 if text.endswith("\r\n") else -1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.ms"
        path.write_bytes(text.encode("ascii"))
        want, got = _outcome(read_row_by_row, path), _outcome(read_multiset, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.array_equal(got.counts, want)


def test_a_written_code_reads_back_through_numpy(tmp_path, monkeypatch):
    # [12022, 6, 9616]_5: 3882 support points; its CRLF copy takes the row scan
    code, _ = build_chain(plan_chain(2, 5, 6, 9616))
    path, crlf = tmp_path / "code.ms", tmp_path / "crlf.ms"
    write_multiset(code, path)
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    back = read_multiset(path)
    assert back == code and back.n == 12022
    assert np.array_equal(back.counts, read_row_by_row(path))
    assert read_multiset(crlf) == code
    gm = tmp_path / "code.gm"
    write_gmatrix(code, gm)
    assert read_gmatrix(gm) == code

    def scan(text):
        raise AssertionError("the row scan read a written file")

    monkeypatch.setattr(mcode, "_rows", scan)
    assert read_multiset(path) == code and read_gmatrix(gm) == code


def _spoiled(row, q, k, data):
    """Rows to put in place of a valid multiset row: no reader may accept
    them."""
    how = data.draw(st.sampled_from(
        ["multiplicity", "coordinate", "short", "long", "zero", "scaled", "duplicate"]
    ))
    if how == "multiplicity":
        bad = ["0", "-1", "x", "1.0", "", "99999999999999999999", "\u00e9"]
        return [[data.draw(st.sampled_from(bad)), *row[1:]]]
    if how == "coordinate":
        i = data.draw(st.integers(1, k))
        bad = ["-1", str(q), "x", "1.0", "", "99999999999999999999"]
        return [row[:i] + [data.draw(st.sampled_from(bad))] + row[i + 1 :]]
    if how == "short":
        return [row[:-1]]
    if how == "long":
        return [row + ["0"]]
    if how == "duplicate":
        return [row, [str(data.draw(st.integers(1, 5))), *row[1:]]]
    if how == "scaled" and q > 2:  # the leading 1 becomes lam != 1
        lam = data.draw(st.integers(2, q - 1))
        return [[row[0], *(str(field(q).mul(lam, int(c))) for c in row[1:])]]
    return [[row[0]] + ["0"] * k]


@settings(PROPERTY, max_examples=60)
@given(q=st.sampled_from([2, 3, 4, 5]), k=st.integers(2, 4), data=st.data())
def test_malformed_files_exit_2(q, k, data):
    # a spanning code (the unit vectors plus random points) and a valid
    # sidecar, then one spoiled header, body or sidecar: verify and
    # puncture both exit 2 with a message and never raise
    size = theta(k - 1, q)
    units = {point_index(q, tuple(int(i == j) for j in range(k))) for i in range(k)}
    idx = sorted(units | data.draw(st.sets(st.integers(0, size - 1), max_size=4)))
    rows = [[str(data.draw(st.integers(1, 5))), *map(str, P)]
            for P in point_digits(q, k - 1, idx).tolist()]
    header, meta = f"{q} {k}", {"skew_region": [1] + [0] * (k - 1), "history": []}

    def hyperplane(v):
        return (isinstance(v, list) and len(v) == k and any(v)
                and all(type(c) is int and 0 <= c < q for c in v))

    def construction(v):
        l0 = v.get("l0") if isinstance(v, dict) else None
        return isinstance(l0, list) and len(l0) >= 2 and hyperplane(l0[1])

    values = st.recursive(
        st.none() | st.booleans() | st.integers(-1, q) | st.floats(-1, q) | st.text(max_size=2),
        lambda inner: st.lists(inner, max_size=k + 1)
        | st.dictionaries(st.text(max_size=2), inner, max_size=2),
        max_leaves=8,
    )
    meta_text = None
    part = data.draw(st.sampled_from(["header", "row", "no rows", "sidecar"]))
    if part == "header":
        header = data.draw(st.sampled_from([
            "", "x", f"{q}", f"{q} {k} 1", f"x {k}", f"{q} {k}.0", f"{q} 0", f"{q} -1",
            f"{q} {k + 1}", f"{q} {k - 1}", f"1 {k}", f"0 {k}", f"6 {k}", f"{q} 99", "256 3",
        ]))
    elif part == "row":
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i : i + 1] = _spoiled(rows[i], q, k, data)
    elif part == "no rows":
        rows = []
    else:
        key = data.draw(st.sampled_from(["text", "object", "skew_region", "history", "construction"]))
        if key == "text":
            meta_text = data.draw(st.sampled_from(["", "{", "[1,", "nope", "NaN", "{\"history\": }", "\u00e9"]))
        elif key == "object":
            meta_text = json.dumps(data.draw(values.filter(lambda v: not isinstance(v, dict))))
        elif key == "skew_region":
            meta["skew_region"] = data.draw(values.filter(lambda v: not hyperplane(v)))
        elif key == "history":
            meta["history"] = data.draw(values.filter(lambda v: not isinstance(v, list)))
        else:
            meta["construction"] = data.draw(st.one_of(
                values.filter(lambda v: not construction(v)),
                values.map(lambda v: {"l0": [[1] + [0] * (k - 1), v]}).filter(lambda v: not construction(v)),
            ))
    # blank lines are skipped wherever they are
    body = [" ".join(r) for r in rows]
    for _ in range(data.draw(st.integers(0, 2))):
        body.insert(data.draw(st.integers(0, len(body))), "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.ms"
        path.write_bytes(("\n".join([header, *body]) + "\n").encode("utf-8"))
        sidecar = Path(str(path) + ".meta.json")
        sidecar.write_bytes((meta_text if meta_text is not None else json.dumps(meta)).encode("utf-8"))
        for argv in (["verify", "--in", str(path)], ["puncture", "--in", str(path), "--lines", "1"]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                rc = main(argv)
            assert (rc, err.getvalue()[:14]) == (2, "invalid input:"), err.getvalue()


@settings(PROPERTY, max_examples=60)
@given(q=st.sampled_from([2, 3, 4, 5]), k=st.integers(2, 4), data=st.data())
def test_malformed_gmatrix_files_raise_input_errors(q, k, data):
    # the generator matrix of a spanning code, then one spoiled header, row
    # count, entry or column: read_gmatrix raises an InputError, nothing else
    size = theta(k - 1, q)
    units = {point_index(q, tuple(int(i == j) for j in range(k))) for i in range(k)}
    idx = sorted(units | data.draw(st.sets(st.integers(0, size - 1), max_size=4)))
    G, n = point_digits(q, k - 1, idx).T.astype(str).tolist(), len(idx)
    header = f"{q} {k} {n}"
    part = data.draw(st.sampled_from(["header", "rows", "entry", "column"]))
    if part == "header":
        header = data.draw(st.sampled_from([
            "", "x", f"{q} {k}", f"{q} {k} {n} 1", f"x {k} {n}", f"{q} {k}.0 {n}",
            f"{q} {k + 1} {n}", f"{q} {k - 1} {n}", f"{q} {k} {n + 1}", f"{q} {k} {n - 1}",
            f"{q} 0 0", f"{q} -1 {n}", f"0 {k} {n}", f"1 {k} {n}", f"6 {k} {n}", f"-{q} {k} {n}",
            f"{q} {k} \u0661",
        ]))
    elif part == "rows":
        i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        how = data.draw(st.sampled_from(["drop", "extra", "short", "long", "repeat"]))
        if how == "drop":
            del G[i]
        elif how == "extra":
            G.insert(i, list(G[j]))
        elif how == "short":
            G[i] = G[i][:-1]
        elif how == "long":
            G[i] = G[i] + ["0"]
        else:  # two equal rows: rank below k
            G[i] = list(G[j])
    elif part == "entry":
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, n - 1))
        G[i][j] = data.draw(st.sampled_from(
            ["x", "1.0", "0x1", "", "-1", str(q), "99999999999999999999", "\u00e9", "\u0661"]
        ))
    else:
        j = data.draw(st.integers(0, n - 1))
        for row in G:
            row[j] = "0"
    body = [" ".join(row) for row in G]
    for _ in range(data.draw(st.integers(0, 2))):
        body.insert(data.draw(st.integers(0, len(body))), "")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.gm"
        path.write_bytes(("\n".join([header, *body]) + "\n").encode("utf-8"))
        with pytest.raises(InputError):
            read_gmatrix(path)


@PROPERTY
@given(point_dicts(r_min=2, r_max=3), st.data())
def test_punctures_subtract_an_indicator(case, data):
    F, r, extra = case
    # on top of every point once, d >= q^r > q, so every line and every
    # point can go
    pts = enumerate_points(F, r)
    M = PointMultiset(F, r, counts_of(F, r, extra) + 1)
    i, j = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2, unique=True))
    line = span(F, [pts[i], pts[j]])
    out = puncture_flat(M, line)
    assert np.array_equal(M.counts - out.counts, indicator(len(pts), flat_points(F, line), F.q))
    P = pts[data.draw(st.integers(0, len(pts) - 1))]
    out = puncture_point(M, P)
    assert np.array_equal(M.counts - out.counts, indicator(len(pts), [P], F.q))


@settings(PROPERTY, max_examples=150)
@given(q=st.sampled_from([2, 3, 4, 5]), r=st.integers(2, 4), data=st.data())
def test_dual_of_a_sum_of_lines_meets_the_closed_forms(q, r, data):
    # a hyperplane holds a line or meets it in one point, so a sum of lines
    # is q-divisible; its dual either is refused as input (the lines do
    # not span, or cover every point) or matches the closed forms
    F, size = field(q), theta(r, q)
    counts = np.zeros(size, dtype=np.int64)
    for _ in range(data.draw(st.integers((r + 2) // 2, 2 * r + 2))):
        i, j = data.draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
        counts[flat_indices(F, point_digits(q, r, [i, j]))] += 1
    M = PointMultiset(F, r, counts)
    try:
        dual = projective_dual(M, q)
    except InputError:
        return
    p, dp = code_params(M), code_params(dual)
    k, n, d = r + 1, p.n, p.d
    t = q ** (k - 2) // q
    n_star = n * t * q - (d // q) * (q**k - 1) // (q - 1)
    d_star = ((n - d) * q - n) * t
    assert (dp.n, dp.k, dp.d) == (n_star, k, d_star)
    assert dp.divisor % t == 0
    assert hyperplane_spectrum(dual) == {
        n_star - d_star - j * t: lam for j, lam in enumerate(p.lam) if lam
    }
    # the dual's vector, read off the incidence identity, is the kernel's
    kernel = PointMultiset(F, r, dual.counts).hyperplane_mults()
    assert np.array_equal(dual.hyperplane_mults(), kernel)


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


@PROPERTY
@given(spaces(), st.data())
def test_hyperplanes_containing_matches_naive_incidence(space, data):
    F, r = space
    pts = enumerate_points(F, r)
    flat = span(F, data.draw(st.lists(st.sampled_from(pts), min_size=1, max_size=r + 1)))
    on = flat_points(F, flat)
    naive = [all(incident(F, P, H) for P in on) for H in pts]
    assert hyperplanes_containing(F, flat).tolist() == naive


@pytest.mark.parametrize("q", SMALL_Q)
@PROPERTY
@given(data=st.data())
def test_a_flat_basis_is_the_first_point_of_each_pivot_class(q, data):
    # the points b_i + (later rows) come in one block, first b_i itself,
    # which reads 0 at every later pivot; for a line, its first and last
    # point
    F, t = field(q), data.draw(st.integers(1, 3))
    r = data.draw(st.integers(t, max(t, 5 if q < 7 else 3)))
    idx = data.draw(st.lists(st.integers(0, theta(r, q) - 1), min_size=t + 1, max_size=t + 1))
    flat = span(F, map(tuple, point_digits(q, r, idx).tolist()))
    assume(flat.dim == t)
    digits = point_digits(q, r, flat_indices(F, flat.basis))
    _, first = np.unique((digits != 0).argmax(axis=1), return_index=True)
    assert flat.basis == tuple(map(tuple, digits[first].tolist()))
    if t == 1:
        assert flat.basis == tuple(map(tuple, digits[[0, -1]].tolist()))


@pytest.mark.parametrize("q", SMALL_Q)
@PROPERTY
@given(k=st.integers(2, 5), data=st.data())
def test_walked_vector_matches_the_kernel(q, k, data):
    # removals of t-flats for every t < r, the 0-flat also as a point: the
    # walked vector equals a fresh kernel call, n falls by exactly theta(t),
    # d by 0 to q^t, and the record names the flat
    F, r = field(q), k - 1
    size = theta(r, q)
    # every point 4 times over: d >= 4q^r, so after up to two removals of
    # at most q^(r-1) each, every flat of dimension below r can still go
    counts = np.full(size, 4, dtype=np.int64)
    for i, m in data.draw(st.dictionaries(st.integers(0, size - 1), st.integers(1, 5), max_size=8)).items():
        counts[i] += m
    M = PointMultiset(F, r, counts)
    for _ in range(data.draw(st.integers(1, 3))):
        t = data.draw(st.integers(0, r - 1))
        points = []  # t+1 independent points, each drawn off the span of those before
        for _ in range(t + 1):
            taken = set(flat_indices(F, span(F, points).basis).tolist()) if points else set()
            i = data.draw(st.integers(0, size - 1).filter(lambda i: i not in taken))
            points.append(point_digits(q, r, [i])[0].tolist())
        flat, before = span(F, points), code_params(M)
        assert flat.dim == t
        if t == 0 and data.draw(st.booleans()):
            M, record = puncture_point(M, points[0]), {"op": "puncture_point", "point": points[0]}
        else:
            M = puncture_flat(M, flat)
            record = {"op": "puncture_flat", "t": t, "points": [list(P) for P in flat_points(F, flat)]}
        after = code_params(M)
        assert M.meta["history"][-1] == record
        assert before.n - after.n == theta(t, q)
        assert 0 <= before.d - after.d <= q**t
        idx = np.flatnonzero(M.counts)
        assert np.array_equal(M.hyperplane_mults(), hyperplane_multiplicities(F, r, idx, M.counts[idx]))


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
