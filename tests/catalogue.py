"""Rebuild the certified catalogue and compare it with catalogue.json.

The catalogue holds one entry per table that chains.theorem_range admits
with q^k <= 2^23: every (theorem, q, k) with k >= 5 and q a prime power
in the paper's range.  An entry gives the table's row count, its distance
range and the SHA-256 of the bytes that

    griesmer table --theorem T --q Q --k K --format json

prints.  Run from the repository root (about 25 s for the tables and 65 s
for the residual towers below, with a 255 MB peak, on a 2-vCPU VM):

    PYTHONPATH=src python tests/catalogue.py

It rebuilds every entry in one process, prints one line per mismatch and
exits 1 if there is any, else 0.  The tier-1 suite rebuilds the entries
with q^k <= 2^20 (tests/test_catalogue.py).

A mismatch is also any row that breaks a necessary condition the
literature gives for a code on the Griesmer bound, read from the row's
report alone:

- its largest point multiplicity gamma0 is s = ceil(d / q^(k-1)).  No
  code has a smaller one, since d <= gamma0 * q^(k-1), and no Griesmer
  code a larger one (R. Hill, "Optimal linear codes", 1992);
- over a prime field GF(p), p^e | d implies that p^e divides every
  weight, the row's divisor (H. N. Ward, "Divisibility of codes meeting
  the Griesmer bound", 1998).  Over GF(p^h) with h > 1 it does not hold.

A third condition needs each row's code, which row_codes rebuilds with
the package's public steps (the family code's dual less s disjoint lines
and j simple points).  Restricted to a hyperplane of multiplicity n - d,
a Griesmer [n, k, d]_q code gives a Griesmer [n - d, k - 1, ceil(d/q)]_q
code, its residual (Hill 1992).  residual_faults restricts each code to
its first such hyperplane, reads the restriction in PG(k - 2, q) by
dropping the hyperplane's pivot coordinate, certifies it with a fresh
kernel call, and repeats down to k = 2.  The script runs it on every table
it rebuilds and prints the time it took; tier-1 runs it on three.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from griesmer import pg
from griesmer.chains import griesmer_bound, theorem_range
from griesmer.cli import main
from griesmer.constructs import code_c1, code_c2
from griesmer.errors import InputError
from griesmer.mcode import PointMultiset, code_params
from griesmer.pg import MAX_TRANSFORM_CELLS
from griesmer.transforms import (
    find_disjoint_lines,
    projective_dual,
    puncture_flat,
    puncture_point,
    simple_point,
)

CATALOGUE = Path(__file__).with_name("catalogue.json")


def entries(max_cells: int = MAX_TRANSFORM_CELLS) -> list[dict]:
    """The catalogue's entries with q^k <= max_cells, in file order."""
    return [e for e in json.loads(CATALOGUE.read_text()) if e["q"] ** e["k"] <= max_cells]


def rebuild(theorem: int, q: int, k: int) -> tuple[dict, list[dict]]:
    """One catalogue entry, computed from the table command's output, and
    that output's rows."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["table", "--theorem", str(theorem), "--q", str(q), "--k", str(k),
                   "--format", "json"])
    if rc != 0:
        raise RuntimeError(f"table ({theorem}, {q}, {k}) exited {rc}")
    out = buf.getvalue()
    rows = json.loads(out)
    ds = [row["d"] for row in rows]
    return {
        "theorem": theorem, "q": q, "k": k, "rows": len(ds), "d_min": min(ds), "d_max": max(ds),
        "sha256": hashlib.sha256(out.encode("ascii")).hexdigest(),
    }, rows


def literature_faults(rows: list[dict]) -> list[str]:
    """One line per report row that breaks Hill's largest multiplicity or,
    over a prime field, Ward's divisibility (see the module docstring)."""
    bad = []
    for row in rows:
        q, k, d = row["q"], row["k"], row["d"]
        s = -(-d // q ** (k - 1))
        if row["gamma0"] != s:
            bad.append(f"d={d}: gamma0 = {row['gamma0']}, ceil(d / q^(k-1)) = {s}")
        if all(q % p for p in range(2, math.isqrt(q) + 1)):
            power = 1  # the largest power of q dividing d
            while d % (power * q) == 0:
                power *= q
            if row["divisor"] % power:
                bad.append(f"d={d}: {power} divides d but not the divisor {row['divisor']}")
    return bad


def mismatches(want: list[dict]) -> list[str]:
    """One line per entry whose rebuild differs from the catalogue, and one
    per rebuilt row that literature_faults reports."""
    bad = []
    for entry in want:
        got, rows = rebuild(entry["theorem"], entry["q"], entry["k"])
        name = f"({entry['theorem']}, {entry['q']}, {entry['k']})"
        if got != entry:
            diff = sorted(key for key in entry if got[key] != entry[key])
            bad.append(f"{name}: {', '.join(diff)} differ")
        bad += [f"{name}: {fault}" for fault in literature_faults(rows)]
    return bad


def row_codes(theorem: int, q: int, k: int):
    """Yield (d, code) for every row of the (theorem, q, k) table, d
    descending: the family code's dual less s of its q - 1 disjoint lines
    and then j simple points, for d = d_max - s*q - j."""
    d_min, d_max = theorem_range(theorem, q, k)
    dual = projective_dual(code_c1(k, q) if theorem == 1 else code_c2(k, q), q)
    lines, base = find_disjoint_lines(dual, q - 1), dual
    for s in range(q):
        if s:
            base = puncture_flat(base, lines[s - 1])
        code = base
        for j in range(q):
            if d_max - s * q - j < d_min:
                return
            if j:
                code = puncture_point(code, simple_point(code))
            yield d_max - s * q - j, code


def points_on(M: PointMultiset, H: tuple[int, ...]) -> np.ndarray:
    """Mask of the points of M's space on the hyperplane H: those are the
    hyperplanes through the point H, under the shared index."""
    return pg.hyperplanes_containing(M.field, pg.Flat(M.r, (H,)))


def residual(M: PointMultiset) -> PointMultiset:
    """M restricted to its first hyperplane H of multiplicity n - d, in
    PG(r - 1, q).  Deleting H's pivot coordinate maps H's vectors one to
    one onto GF(q)^(k-1), since H fixes that coordinate from the later
    ones."""
    p = code_params(M)
    h = int(np.flatnonzero(M.hyperplane_mults() == p.n - p.d)[0])
    H = tuple(pg.point_digits(M.q, M.r, [h])[0].tolist())
    idx = np.flatnonzero(points_on(M, H) & (M.counts > 0))
    rows = np.delete(pg.point_digits(M.q, M.r, idx), H.index(1), axis=1)
    counts = np.zeros(pg.theta(M.r - 1, M.q), dtype=np.int64)
    np.add.at(counts, pg.vector_indices(M.field, rows), M.counts[idx])
    return PointMultiset(M.field, M.r - 1, counts)


def residual_faults(M: PointMultiset) -> list[str]:
    """One line if some residual in M's tower, down to k = 2, is not the
    Griesmer [n - d, k - 1, ceil(d/q)]_q code Hill's lemma gives."""
    q = M.q
    while M.k > 2:
        p = code_params(M)
        want = (p.n - p.d, p.k - 1, -(-p.d // q))
        try:
            M = residual(M)
            got = code_params(M)
        except (InputError, ValueError) as exc:
            return [f"[{p.n},{p.k},{p.d}]_{q}: the residual fails: {exc}"]
        if (got.n, got.k, got.d) != want or got.n != griesmer_bound(q, got.k, got.d):
            return [f"[{p.n},{p.k},{p.d}]_{q}: residual [{got.n},{got.k},{got.d}]_{q}, "
                    "want the Griesmer [{},{},{}]_{}".format(*want, q)]
    return []


def residual_mismatches(want: list[dict]) -> list[str]:
    """One line per entry whose row codes are not its rows on the Griesmer
    bound, and one per row code whose residual tower residual_faults
    refuses."""
    bad = []
    for entry in want:
        theorem, q, k = entry["theorem"], entry["q"], entry["k"]
        name = f"({theorem}, {q}, {k})"
        ds = []
        for d, M in row_codes(theorem, q, k):
            ds.append(d)
            p = code_params(M)
            if (p.n, p.k, p.d) != (griesmer_bound(q, k, d), k, d):
                bad.append(f"{name}: the row code for d={d} is [{p.n},{p.k},{p.d}]_{q}")
            bad += [f"{name} d={d}: {fault}" for fault in residual_faults(M)]
        if ds != list(range(entry["d_max"], entry["d_min"] - 1, -1)):
            bad.append(f"{name}: row codes for {len(ds)} distances, the table has {entry['rows']}")
    return bad


if __name__ == "__main__":
    t0 = time.perf_counter()
    want = entries()
    bad = mismatches(want)
    t1 = time.perf_counter()
    bad += residual_mismatches(want)
    for line in bad:
        print(line)
    print(f"{len(want)} entries rebuilt in {t1 - t0:.1f} s, residual towers of their "
          f"{sum(e['rows'] for e in want)} rows in {time.perf_counter() - t1:.1f} s, "
          f"{len(bad)} mismatches")
    sys.exit(1 if bad else 0)
