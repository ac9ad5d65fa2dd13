"""Rebuild the certified catalogue and compare it with catalogue.json.

The catalogue holds one entry per table that chains.theorem_range admits
with q^k <= 2^23: every (theorem, q, k) with k >= 5 and q a prime power
in the paper's range.  An entry gives the table's row count, its distance
range and the SHA-256 of the bytes that

    griesmer table --theorem T --q Q --k K --format json

prints.  Run from the repository root (about 28 s and a 243 MB peak on a
2-vCPU VM):

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

from griesmer.cli import main
from griesmer.pg import MAX_TRANSFORM_CELLS

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


if __name__ == "__main__":
    t0 = time.perf_counter()
    want = entries()
    bad = mismatches(want)
    for line in bad:
        print(line)
    print(f"{len(want)} entries rebuilt in {time.perf_counter() - t0:.1f} s, {len(bad)} mismatches")
    sys.exit(1 if bad else 0)
