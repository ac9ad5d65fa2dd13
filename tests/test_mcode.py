import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from griesmer.errors import (
    FileFormatError,
    NotFullRank,
    TooLarge,
    ZeroColumn,
)
from griesmer import pg
from griesmer.cli import main
from griesmer.constructs import code_c1
from griesmer.gf import field
from griesmer.mcode import (
    PointMultiset,
    code_params,
    generator_matrix,
    hyperplane_spectrum,
    multiset_from_matrix,
    _json_text,
    oracle_hyperplane_mults,
    oracle_weight_distribution,
    read_gmatrix,
    read_multiset,
    write_gmatrix,
    write_multiset,
)
from griesmer.pg import Flat, enumerate_points, hyperplanes_containing, theta, vector_indices


def simplex(q, k):
    return PointMultiset(field(q), k - 1, np.ones(theta(k - 1, q), dtype=np.int64))


def test_simplex_pg2_gf2_spectrum_and_params():
    M = simplex(2, 3)
    assert hyperplane_spectrum(M) == {3: 7}
    params = code_params(M)
    assert (params.n, params.k, params.d) == (7, 3, 4)
    assert params.divisor == 4
    assert params.gamma0 == 1
    assert params.lam == (0, 7)


def test_simplex_oracle_and_divisibility():
    M = simplex(2, 3)
    dist = oracle_weight_distribution(M)
    assert dist == {0: 1, 4: 7}
    assert math.gcd(*dist) == code_params(M).divisor == 4


@pytest.mark.parametrize("q,k", [(3, 3), (4, 2), (2, 4)])
def test_simplex_parameters_general(q, k):
    M = simplex(q, k)
    params = code_params(M)
    assert (params.n, params.k, params.d) == (theta(k - 1, q), k, q ** (k - 1))
    assert params.divisor == q ** (k - 1)


def test_spectrum_sums_to_hyperplane_count():
    counts = np.zeros(theta(2, 4), dtype=np.int64)
    counts[0:15:2] = np.arange(0, 15, 2) % 3 + 1
    M = PointMultiset(field(4), 2, counts)
    spec = hyperplane_spectrum(M)
    assert sum(spec.values()) == theta(2, 4)
    params = code_params(M)
    assert sum(params.lam) == theta(2, 4)
    assert sum(i * c for i, c in enumerate(params.lam)) == params.n


def test_distance_matches_oracle_on_irregular_multiset():
    F = field(3)
    M = PointMultiset(F, 2, np.bincount([0, 0, 1, 4, 9, 9, 12], minlength=theta(2, 3)))
    params = code_params(M)
    dist = oracle_weight_distribution(M)
    assert min(w for w in dist if w > 0) == params.d
    spec = hyperplane_spectrum(M)
    for w, count in dist.items():
        if w > 0:
            assert count == (F.q - 1) * spec.get(params.n - w, 0)
    assert sum(dist.values()) == F.q ** params.k


@st.composite
def small_codes(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    k = draw(st.integers(1, 3))
    F = field(q)
    size = theta(k - 1, q)
    extra = draw(st.dictionaries(st.integers(0, size - 1), st.integers(1, 3), max_size=6))
    # the unit vectors make the support span
    counts = np.bincount(vector_indices(F, np.eye(k, dtype=np.int64)), minlength=size)
    for i, m in extra.items():
        counts[i] += m
    return PointMultiset(F, k - 1, counts)


@settings(derandomize=True, deadline=None)
@given(small_codes())
def test_oracle_matches_hyperplane_spectrum(M):
    # k = 1 and odd k leave the two halves of the oracle's split unequal
    n, q = M.n, M.q
    dist = oracle_weight_distribution(M)
    assert sum(dist.values()) == q**M.k
    spec = hyperplane_spectrum(M)
    assert dist == {0: 1} | {n - i: (q - 1) * a for i, a in spec.items()}
    assert np.array_equal(oracle_hyperplane_mults(M), M.hyperplane_mults())


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@settings(derandomize=True, deadline=None)
@given(_JSON_VALUES)
def test_json_text_spells_as_json_dumps(obj):
    shared = [obj, {"a": obj, "b": [obj, []]}, obj, {}]  # the same objects at several depths
    for value in (obj, shared):
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_json_text_keys_and_refusals_follow_json():
    value = {2: [1, True, None], 1: {"x": float("inf"), "é\n": -0.0}}
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"
    for bad in ({"a": np.int64(1)}, [{1, 2}], {1: 1, "a": 2}):  # the last does not sort
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True)
        with pytest.raises(TypeError):
            _json_text(bad)


def test_generator_matrix_simplex_pg1_gf2():
    M = simplex(2, 2)
    G = generator_matrix(M)
    assert G.tolist() == [[1, 1, 0], [0, 1, 1]]


def test_generator_matrix_round_trip():
    M = PointMultiset(field(4), 2, np.bincount([0, 0, 3, 11, 11, 11, 20], minlength=theta(2, 4)))
    back = multiset_from_matrix(generator_matrix(M), 4)
    assert back == M


def test_multiset_from_matrix_collapses_proportional_columns():
    M = multiset_from_matrix([[1, 2, 0], [0, 0, 1]], 3)
    # (1,0) and its double (2,0) are the same point; PG(1, 3) lists
    # (1,0), (1,1), (1,2), (0,1)
    assert M.counts.tolist() == [2, 0, 0, 1]


def test_multiset_from_matrix_errors():
    with pytest.raises(ZeroColumn, match="^column 1 is zero"):
        multiset_from_matrix([[1, 0], [0, 0]], 2)
    # the first zero column, before any entry out of range
    with pytest.raises(ZeroColumn, match="^column 2 is zero"):
        multiset_from_matrix([[1, 0, 0, 5, 0], [0, 1, 0, 0, 0]], 3)
    with pytest.raises(NotFullRank, match="^matrix rank is below the number of rows$"):
        multiset_from_matrix([[1, 1], [1, 1]], 2)
    # the first column out of range is named
    with pytest.raises(ValueError, match=r"^coordinate out of range in \(2, 1\)$"):
        multiset_from_matrix([[1, 2, 0, 3], [0, 1, 1, 0]], 2)
    with pytest.raises(ValueError, match=r"^coordinate out of range in \(-1, 1\)$"):
        multiset_from_matrix([[1, 0, -1], [0, 1, 1]], 3)
    with pytest.raises(FileFormatError, match="^generator matrix must be two-dimensional$"):
        multiset_from_matrix([1, 0, 1], 2)


def test_code_params_requires_spanning_support():
    F = field(2)
    line = vector_indices(F, [(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    M = PointMultiset(F, 2, np.bincount(line, minlength=theta(2, 2)))
    with pytest.raises(NotFullRank):
        code_params(M)


def test_oracle_refuses_an_overflowing_modulus_before_allocating(tmp_path, capsys):
    # every point of PG(8, 2) at the largest multiplicity: n = 511 * 2^23,
    # so the modulus P > n has 2 * P^2 above 2^63 and the transform would
    # overflow int64
    cap = pg.MAX_TRANSFORM_CELLS
    M = PointMultiset(field(2), 8, np.full(theta(8, 2), cap))
    assert M.n == 511 * cap
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="overflows int64"):
            oracle_weight_distribution(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before the 2^9-cell transform exists
    path = tmp_path / "huge.ms"
    write_multiset(M, path)
    assert main(["verify", "--in", str(path), "--oracle"]) == 2
    assert "overflows int64" in capsys.readouterr().err


def test_oracle_memory_is_two_transform_arrays():
    # 200 points of PG(4, 9).  The transform holds its input and its
    # product, two int64 arrays of q^k cells; reading it back holds one of
    # them, the theta x k digit table and one temporary of that size
    # (point_digits' quotients, then each lambda's digit cells), so two of
    # each bound the peak
    q, k = 9, 5
    rng = np.random.default_rng(1)
    counts = np.zeros(theta(k - 1, q), dtype=np.int64)
    counts[rng.choice(len(counts), 200, replace=False)] = rng.integers(1, 4, 200)
    M = PointMultiset(field(q), k - 1, counts)
    want = oracle_weight_distribution(M)  # caches the point codes and field tables
    tracemalloc.start()
    try:
        got = oracle_weight_distribution(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2 * 8 * q**k + 2 * theta(k - 1, q) * k * 8


def test_oracle_never_runs_the_hyperplane_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran the hyperplane machinery")

    for name in ("hyperplane_multiplicities", "hyperplanes_containing", "_fold"):
        monkeypatch.setattr(pg, name, refuse)
    # fresh multisets, so no parameters are cached; the second one's
    # support lies on the line x0 = 0 and does not span: the weight is
    # 2*[u1 != 0] + [u2 != 0] whatever u0 is
    assert oracle_weight_distribution(simplex(2, 3)) == {0: 1, 4: 7}
    F = field(3)
    points = vector_indices(F, [(0, 1, 0), (0, 1, 0), (0, 0, 1)])
    M = PointMultiset(F, 2, np.bincount(points, minlength=theta(2, 3)))
    assert oracle_weight_distribution(M) == {0: 3, 1: 6, 2: 6, 3: 12}


def test_point_arrays_refuse_oversized_spaces():
    # PG(23, 2) has 2^24 - 1 points, PG(8, 9) about 48M: both are refused
    # before any point or count is built
    for q, r in [(2, 23), (9, 8)]:
        F = field(q)
        with pytest.raises(TooLarge):
            enumerate_points(F, r)
        with pytest.raises(TooLarge):  # before the counts are looked at
            PointMultiset(F, r, np.ones(1, dtype=np.int64))


def test_count_vector_constructor():
    F = field(3)
    counts = np.zeros(theta(2, 3), dtype=np.int32)
    counts[[0, 4, 7]] = [1, 2, 1]
    M = PointMultiset(F, 2, counts)
    assert M == PointMultiset(F, 2, np.bincount([0, 4, 4, 7], minlength=theta(2, 3)))
    assert M.counts.dtype == np.int64 and not M.counts.flags.writeable
    counts[0] = 5  # the multiset keeps its own copy
    assert M.counts[0] == 1
    with pytest.raises(ValueError):
        M.counts[0] = 2
    for bad in (-counts, np.zeros_like(counts)):
        with pytest.raises(ValueError):
            PointMultiset(F, 2, bad)


def test_only_an_integer_count_vector_builds_a_multiset():
    F = field(3)
    counts = np.bincount([0, 4, 4, 7], minlength=theta(2, 3))
    want = r"^expected an integer array of 13 multiplicities for PG\(2, 3\)$"
    for bad in ({(1, 0, 0): 1}, counts.tolist(), counts.astype(float), counts[:-1],
                np.append(counts, 0), counts[None]):
        with pytest.raises(ValueError, match=want):
            PointMultiset(F, 2, bad)


def test_multiset_file_round_trip(tmp_path):
    counts = np.bincount([0, 0, 0, 2, 40, 40, 80], minlength=theta(3, 4))
    M = PointMultiset(field(4), 3, counts, meta={"note": "demo"})
    path = tmp_path / "code.ms"
    write_multiset(M, path)
    back = read_multiset(path)
    assert back == M
    assert back.meta == {"note": "demo"}
    # identical bytes on rewrite
    first = path.read_text()
    write_multiset(back, path)
    assert path.read_text() == first


def test_rewrite_without_meta_drops_the_old_sidecar(tmp_path):
    F = field(4)
    path = tmp_path / "code.ms"
    with_meta = code_c1(6, 4)
    assert with_meta.meta
    write_multiset(with_meta, path)
    points = vector_indices(F, [(1, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)])
    bare = PointMultiset(F, 3, np.bincount(points, minlength=theta(3, 4)))
    write_multiset(bare, path)
    back = read_multiset(path)
    assert back == bare
    assert back.meta == {}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["code.ms"]


def _reference_multiset_text(M):
    """The per-point formatting the chunked writer replaced."""
    pts = enumerate_points(M.field, M.r)
    idx = np.flatnonzero(M.counts)
    lines = [f"{M.q} {M.k}"]
    for i, m in zip(idx.tolist(), M.counts[idx].tolist()):
        lines.append(f"{m} " + " ".join(str(c) for c in pts[i]))
    return "\n".join(lines) + "\n"


# one- and two-digit element encodings, prime and prime-power fields; PG(3, 16)
# and PG(12, 2) have 4369 and 8191 points, more than one chunk
WRITER_SPACES = [(11, 0), (11, 1), (11, 2), (16, 1), (16, 3), (2, 0), (2, 5), (2, 12),
                 (4, 0), (4, 4), (25, 0), (25, 2), (27, 1), (32, 0), (32, 2)]


@pytest.mark.parametrize("q,r", WRITER_SPACES)
def test_write_multiset_matches_per_point_formatting(tmp_path, q, r):
    F = field(q)
    rng = np.random.default_rng(q * 10 + r)
    size = theta(r, q)
    counts = rng.integers(10, 1000, size=size) * (rng.random(size) < 0.9)
    # 2^e and 2^e - 1 up to the bound 2^23 give every width up to seven digits
    wide = 2 ** rng.integers(0, 24, size=size) - rng.integers(0, 2, size=size)
    counts = np.where(rng.random(size) < 0.5, counts, wide)
    counts[0] = pg.MAX_TRANSFORM_CELLS
    M = PointMultiset(F, r, counts)
    path = tmp_path / "code.ms"
    write_multiset(M, path)
    assert path.read_bytes() == _reference_multiset_text(M).encode("ascii")
    assert read_multiset(path) == M


def _reference_gmatrix_text(M):
    """The per-row formatting the table writer replaced."""
    G = generator_matrix(M)
    lines = [f"{M.q} {G.shape[0]} {G.shape[1]}"]
    for row in G.tolist():
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("q,r", WRITER_SPACES)
def test_write_gmatrix_matches_per_row_formatting(tmp_path, q, r):
    F = field(q)
    rng = np.random.default_rng(q * 10 + r)
    size = theta(r, q)
    counts = rng.integers(1, 4, size=size) * (rng.random(size) < 0.9)
    # the unit points span, so the matrix written has full rank
    counts[[pg.point_index(q, (0,) * i + (1,) + (0,) * (r - i)) for i in range(r + 1)]] = 1
    M = PointMultiset(F, r, counts)
    path = tmp_path / "code.gm"
    write_gmatrix(M, path)
    assert path.read_bytes() == _reference_gmatrix_text(M).encode("ascii")
    assert read_gmatrix(path) == M


def test_successful_writes_leave_nothing_to_unlink(tmp_path, monkeypatch):
    # the staged file has been renamed into place, so it is not unlinked
    unlinked = []
    unlink = Path.unlink

    def spy(self, *args, **kwargs):
        unlinked.append(self.name)
        return unlink(self, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", spy)
    write_multiset(code_c1(5, 4), tmp_path / "c1.ms")
    write_multiset(simplex(2, 3), tmp_path / "c1.ms")  # no provenance: drops the sidecar
    write_gmatrix(simplex(2, 3), tmp_path / "s.gm")
    assert unlinked == ["c1.ms.meta.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c1.ms", "s.gm"]


def test_multiplicities_are_bounded_before_storage(monkeypatch):
    F = field(2)
    cap = pg.MAX_TRANSFORM_CELLS
    for big in (np.array([cap + 1, 1, 1]), np.array([2**62] * 3),
                np.array([2**64 - 1, 1, 1], dtype=np.uint64)):
        with pytest.raises(TooLarge):
            PointMultiset(F, 1, big)
    # the bound itself is allowed
    monkeypatch.setattr(pg, "MAX_TRANSFORM_CELLS", 9)
    assert PointMultiset(F, 1, np.array([9, 1, 0])).gamma0 == 9
    with pytest.raises(TooLarge):
        PointMultiset(F, 1, np.array([10, 1, 0]))


def test_multiset_file_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.ms"
    path.write_text("4\n1 1 0\n")
    with pytest.raises(FileFormatError):
        read_multiset(path)
    path.write_text("4 2\n1 0 0\n")  # zero vector
    with pytest.raises(FileFormatError):
        read_multiset(path)
    path.write_text("4 2\n1 2 0\n")  # not canonical
    with pytest.raises(FileFormatError):
        read_multiset(path)
    path.write_text("4 2\n1 1 0\n2 1 0\n")  # duplicate
    with pytest.raises(FileFormatError):
        read_multiset(path)
    path.write_text("6 2\n1 1 0\n")  # q not a prime power
    with pytest.raises(Exception):
        read_multiset(path)


@pytest.mark.parametrize("rows,line,message", [
    (["1 1 0", "2 1 1", "1 1 0"], 4, "duplicate point"),
    (["1 1 0", "x 0 1", "1 5 0"], 3, "non-integer entry"),
    (["1 1 0", "1 2 1", "0 0 1"], 3, "point is not in canonical form"),
    (["1 1 0", "1 0 0", "1 0 1 1"], 3, "the zero vector is not a projective point"),
    (["1 1 0", "1 0 1 1", "1 0 0"], 3, "expected multiplicity plus 2 coordinates"),
    (["1 1 3", "-5 0 1"], 2, "coordinate outside [0, 3)"),
    (["1 1 0", "-99999999999999999999 0 1"], 3, "multiplicity must be positive"),
    (["1 1 0", "1 0 99999999999999999999"], 3, "coordinate outside [0, 3)"),
    (["1 1 0", "99999999999999999999 0 1", "1 0 0"], 3,
     "multiplicity 99999999999999999999 exceeds the bound"),
    (["1 1 0", "", "1 1 0"], 4, "duplicate point"),
    (["", "1 1 0", "1 1 0"], 4, "duplicate point"),
    (["1 1 0", "", "1 0 \u00e9", "x"], 4, "non-ASCII byte 0xc3"),    (["1 1 0", "+0099999999999999999999 0 1"], 3,
     "multiplicity 99999999999999999999 exceeds the bound"),
    # past int()'s 4300-digit limit, the entry is still read as a number
    pytest.param(["1 1 0", "9" * 5000 + " 0 1"], 3, f"multiplicity {'9' * 5000} exceeds the bound",
                 id="5000-digit-multiplicity"),
    pytest.param(["1 1 0", "1 0 " + "9" * 5000], 3, "coordinate outside [0, 3)",
                 id="5000-digit-coordinate"),
    pytest.param(["1 1 0", "-" + "9" * 5000 + " 0 1"], 3, "multiplicity must be positive",
                 id="negative-5000-digit-multiplicity"),
    (["1 1 0", "1 1 0\r"], 3, "duplicate point"),
    (["1 1 0 1", "1 0 1 1"], 2, "expected multiplicity plus 2 coordinates"),
])
def test_multiset_file_reports_its_first_bad_row(tmp_path, rows, line, message):
    path = tmp_path / "bad.ms"
    path.write_text("3 2\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises((FileFormatError, TooLarge)) as err:
        read_multiset(path)
    assert str(err.value).startswith(f"{path}:{line}: {message}")


def test_gmatrix_file_round_trip(tmp_path):
    M = PointMultiset(field(3), 2, np.bincount([0, 4, 4, 7], minlength=theta(2, 3)))
    path = tmp_path / "code.gm"
    write_gmatrix(M, path)
    back = read_gmatrix(path)
    assert back == M
    header = path.read_text().splitlines()[0]
    assert header == "3 3 4"


def test_gmatrix_file_entries_past_the_int_digit_limit_are_out_of_range(tmp_path):
    path = tmp_path / "big.gm"
    path.write_text("3 2 3\n1 0 1\n0 1 " + "0" * 5000 + "1\n")
    assert read_gmatrix(path).counts.tolist() == [1, 1, 0, 1]  # (1,0), (1,1), (0,1)
    path.write_text("3 2 3\r\n1 0 1\r\n0 1 " + "9" * 5000 + "\r\n")
    with pytest.raises(FileFormatError, match=r"big\.gm: entry outside \[0, 3\)$"):
        read_gmatrix(path)


def test_gmatrix_file_rows_of_another_width_are_refused(tmp_path):
    path = tmp_path / "wide.gm"
    path.write_text("3 2 3\n1 0 1 1\n0 1 1 2\n")
    with pytest.raises(FileFormatError, match=r"wide\.gm: expected 2 rows of 3 entries$"):
        read_gmatrix(path)


def test_gmatrix_file_space_is_bounded_before_the_field_is_built(tmp_path, monkeypatch):
    # PG(1, 65521) has 65521^2 cells, past the bound, so the file is
    # refused before GF(65521), which is past it too, is looked at
    from griesmer import gf

    built = []
    monkeypatch.setattr(gf, "field_create", lambda q: built.append(q))
    path = tmp_path / "huge.gm"
    path.write_text("65521 2 2\n1 0\n0 1\n")
    with pytest.raises(TooLarge, match=r"PG\(1, 65521\)"):
        read_gmatrix(path)
    assert built == []


def test_gmatrix_file_reports_a_non_ascii_line(tmp_path):
    path = tmp_path / "bad.gm"
    path.write_text("3 2 3\n1 0 1\n0 1 \u0661\n", encoding="utf-8")  # an Arabic-Indic 1
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}:3: non-ASCII byte 0xd9$"):
        read_gmatrix(path)


def test_a_codes_spectrum_is_sorted_once_for_every_reader(monkeypatch):
    # parameters, the spectrum, the dual (which reads the
    # input's and checks its own) and a report all share one sort per code
    from griesmer.chains import _report
    from griesmer.transforms import projective_dual

    M = PointMultiset(field(5), 4, code_c1(5, 5).counts)
    sorts = []
    unique = np.unique

    def counting(*args, **kwargs):
        sorts.append(len(args[0]))
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    params = code_params(M)
    spectrum = hyperplane_spectrum(M)
    hyperplane_spectrum(M).clear()  # a copy: the code's own spectrum stays
    assert hyperplane_spectrum(M) == spectrum
    assert params.d == M.n - max(spectrum)
    dual = projective_dual(M, 5)
    _report(M, [])
    _report(dual, [])
    assert code_params(M) is params
    assert sorts == [theta(4, 5), theta(4, 5)]


def test_hyperplane_multiplicity_vs_flat_sum():
    # m(H) computed by the kernel equals a direct sum over the points of H,
    # which are the hyperplanes through the point H
    F = field(3)
    M = PointMultiset(F, 2, np.bincount([1, 1, 6, 10], minlength=theta(2, 3)))
    mvec = M.hyperplane_mults()
    for idx, H in enumerate(enumerate_points(F, 2)):
        direct = M.counts[hyperplanes_containing(F, Flat(2, (H,)))].sum()
        assert direct == mvec[idx]
