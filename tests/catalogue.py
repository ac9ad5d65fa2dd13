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
"""

from __future__ import annotations

import hashlib
import io
import json
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


def rebuild(theorem: int, q: int, k: int) -> dict:
    """One catalogue entry, computed from the table command's output."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(["table", "--theorem", str(theorem), "--q", str(q), "--k", str(k),
                   "--format", "json"])
    if rc != 0:
        raise RuntimeError(f"table ({theorem}, {q}, {k}) exited {rc}")
    out = buf.getvalue()
    ds = [row["d"] for row in json.loads(out)]
    return {
        "theorem": theorem, "q": q, "k": k, "rows": len(ds), "d_min": min(ds), "d_max": max(ds),
        "sha256": hashlib.sha256(out.encode("ascii")).hexdigest(),
    }


def mismatches(want: list[dict]) -> list[str]:
    """One line per entry whose rebuild differs from the catalogue."""
    bad = []
    for entry in want:
        got = rebuild(entry["theorem"], entry["q"], entry["k"])
        if got != entry:
            diff = sorted(key for key in entry if got[key] != entry[key])
            bad.append(f"({entry['theorem']}, {entry['q']}, {entry['k']}): {', '.join(diff)} differ")
    return bad


if __name__ == "__main__":
    t0 = time.perf_counter()
    want = entries()
    bad = mismatches(want)
    for line in bad:
        print(line)
    print(f"{len(want)} entries rebuilt in {time.perf_counter() - t0:.1f} s, {len(bad)} mismatches")
    sys.exit(1 if bad else 0)
