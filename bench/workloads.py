"""The benchmark's workloads and the correctness gate applied to each run.

A workload is a list of CLI invocations (`griesmer.cli.main(argv)`), each
run in its own fresh child process, plus a check of everything those
invocations printed and wrote.  The gate never imports the library: the
Griesmer bound is recomputed here, and every output byte is compared with
the SHA-256 digests pinned in expected.json.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED = Path(__file__).with_name("expected.json")

# oracle-q5k6 targets: the distances of the theorem-2, q=5, k=6 range whose
# chain makes five removals with at least one line and one point
# (s lines + j points with s + j = 5), so every seed drives the same code
# paths and the same amount of work.  Seed 0 gives the default d = 9616.
ORACLE_DISTANCES = (9616, 9612, 9608)

COMMON_SPANS = (
    "cli.main",
    "gf.field_create",
    "pg.enumerate_points",
    "pg.hyperplane_multiplicities",
    "pg.rank",
    "mcode.PointMultiset.__init__",
    "mcode.code_params",
    "mcode.hyperplane_spectrum",
    "transforms.projective_dual",
)
REMOVAL_SPANS = (
    "transforms.find_disjoint_lines",
    "transforms.puncture_flat",
    "transforms.puncture_point",
    "pg.flat_points",
)


def griesmer_bound(q: int, k: int, d: int) -> int:
    """g_q(k, d) = sum of ceil(d / q^i) for i < k, computed independently."""
    return sum(-(-d // q**i) for i in range(k))


@dataclass(frozen=True)
class Workload:
    name: str
    key: str  # entry of expected.json holding the pinned digests
    steps: tuple[tuple[str, ...], ...]
    check: Callable[[dict[str, bytes]], list[str]]
    spans: tuple[str, ...]


def _table_check(q: int, k: int, rows: int) -> Callable[[dict[str, bytes]], list[str]]:
    def check(out: dict[str, bytes]) -> list[str]:
        table = json.loads(out["stdout.0"])
        problems = []
        if len(table) != rows:
            problems.append(f"expected {rows} rows, got {len(table)}")
        for i, row in enumerate(table):
            g = griesmer_bound(q, k, row["d"])
            if (row["q"], row["k"]) != (q, k):
                problems.append(f"row {i}: q, k = {row['q']}, {row['k']}")
            if row["d"] != table[0]["d"] - i:
                problems.append(f"row {i}: d = {row['d']} breaks the descending run")
            if not (row["n"] == row["griesmer_n"] == g and row["is_griesmer"] is True):
                problems.append(f"row {i}: [{row['n']},{k},{row['d']}]_{q} is not length-optimal")
        return problems

    return check


def _certified_line(q: int, k: int, d: int) -> str:
    n = griesmer_bound(q, k, d)
    return f"certified [{n},{k},{d}]_{q} griesmer_n={n} is_griesmer=True"


def _multiset_length(text: bytes, q: int, k: int) -> int | None:
    lines = text.decode("ascii").splitlines()
    if lines[0].split() != [str(q), str(k)]:
        return None
    return sum(int(ln.split()[0]) for ln in lines[1:] if ln.strip())


def _chain_check(out: dict[str, bytes]) -> list[str]:
    q, k, d, n = 5, 7, 53750, 67188
    problems = []
    if griesmer_bound(q, k, d) != n:
        problems.append(f"g_{q}({k}, {d}) != {n}")
    if out["stdout.0"].decode("ascii").splitlines()[0] != _certified_line(q, k, d):
        problems.append("chain did not print the certified parameters")
    report = json.loads(out["file.report.json"])
    if (report["n"], report["k"], report["d"], report["is_griesmer"]) != (n, k, d, True):
        problems.append("report does not certify [67188,7,53750]_5")
    if _multiset_length(out["file.code.ms"], q, k) != n:
        problems.append("multiset file does not hold a length-67188 code over PG(6,5)")
    return problems


def _oracle_check(d: int) -> Callable[[dict[str, bytes]], list[str]]:
    q, k = 5, 6
    n = griesmer_bound(q, k, d)

    def check(out: dict[str, bytes]) -> list[str]:
        problems = []
        if out["stdout.0"].decode("ascii").splitlines()[0] != _certified_line(q, k, d):
            problems.append("chain did not print the certified parameters")
        verify = out["stdout.1"].decode("ascii").splitlines()
        if not verify or not verify[0].startswith(f"[{n},{k},{d}]_{q} "):
            problems.append("verify did not recompute the chain's parameters")
        if f"oracle: {q ** k} codewords agree with the hyperplane computation" not in verify:
            problems.append("oracle agreement line missing")
        if _multiset_length(out["file.code.ms"], q, k) != n:
            problems.append(f"multiset file does not hold a length-{n} code")
        return problems

    return check


def workload(name: str, seed: int) -> Workload:
    """The workload called `name`; the seed only matters for oracle-q5k6."""
    if name == "table-q4k6":
        return Workload(
            name, name,
            (("table", "--theorem", "1", "--q", "4", "--k", "6", "--format", "json"),),
            _table_check(4, 6, 13),
            COMMON_SPANS + REMOVAL_SPANS + ("chains.reproduce_table", "constructs.code_c1"),
        )
    if name == "table-q5k6":
        return Workload(
            name, name,
            (("table", "--theorem", "2", "--q", "5", "--k", "6", "--format", "json"),),
            _table_check(5, 6, 21),
            COMMON_SPANS + REMOVAL_SPANS + ("chains.reproduce_table", "constructs.code_c2"),
        )
    if name == "chain-q5k7":
        return Workload(
            name, name,
            (("chain", "--theorem", "1", "--q", "5", "--k", "7", "--d", "53750",
              "--out", "code.ms", "--report", "report.json"),),
            _chain_check,
            COMMON_SPANS + ("chains.build_chain", "constructs.code_c1", "mcode.write_multiset"),
        )
    if name == "oracle-q5k6":
        d = ORACLE_DISTANCES[seed % len(ORACLE_DISTANCES)]
        n = griesmer_bound(5, 6, d)
        return Workload(
            name, f"{name}/d={d}",
            (("chain", "--theorem", "2", "--q", "5", "--k", "6", "--d", str(d), "--out", "code.ms"),
             ("verify", "--in", "code.ms", "--expect-n", str(n), "--expect-d", str(d), "--oracle")),
            _oracle_check(d),
            COMMON_SPANS + REMOVAL_SPANS + (
                "chains.build_chain", "constructs.code_c2", "mcode.write_multiset",
                "mcode.read_multiset", "mcode.oracle_weight_distribution",
            ),
        )
    raise KeyError(f"unknown workload {name!r}")


NAMES = ("table-q4k6", "table-q5k6", "chain-q5k7", "oracle-q5k6")


def digests(out: dict[str, bytes]) -> dict[str, str]:
    return {key: hashlib.sha256(data).hexdigest() for key, data in sorted(out.items())}


def gate(wl: Workload, out: dict[str, bytes]) -> list[str]:
    """Every reason the outputs of one run are wrong; empty when correct."""
    try:
        problems = wl.check(out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems = [f"malformed output: {exc!r}"]
    pinned = json.loads(EXPECTED.read_text())[wl.key]
    got = digests(out)
    for key in sorted(set(pinned) | set(got)):
        if pinned.get(key) != got.get(key):
            problems.append(f"{key}: digest {got.get(key)} != pinned {pinned.get(key)}")
    return problems
