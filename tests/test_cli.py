import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import griesmer
from griesmer import chains, cli, pg, transforms
from griesmer.cli import main
from griesmer.errors import TooLarge
from griesmer.mcode import code_params, read_gmatrix, read_multiset

TABLE_1 = [
    (3158, 2368), (3157, 2367), (3156, 2366), (3155, 2365), (3153, 2364),
    (3152, 2363), (3151, 2362), (3150, 2361), (3148, 2360), (3147, 2359),
    (3146, 2358), (3145, 2357), (3143, 2356),
]


def test_construct_writes_multiset(tmp_path, capsys):
    out = tmp_path / "c1.ms"
    rc = main(["construct", "--family", "c1", "--q", "4", "--k", "6", "--out", str(out)])
    assert rc == 0
    assert "[23,6,8]_4" in capsys.readouterr().out
    M = read_multiset(out)
    p = code_params(M)
    assert (p.n, p.k, p.d) == (23, 6, 8)
    assert (tmp_path / "c1.ms.meta.json").exists()


def test_construct_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "b1.ms"
    assert main(["construct", "--family", "base1", "--q", "3", "--k", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main([
        "verify", "--in", str(out),
        "--expect-n", "11", "--expect-k", "5", "--expect-d", "3",
    ])
    assert rc == 0
    assert "[11,5,3]_3" in capsys.readouterr().out


def test_verify_oracle(tmp_path, capsys):
    out = tmp_path / "b1.ms"
    main(["construct", "--family", "base1", "--q", "3", "--k", "5", "--out", str(out)])
    capsys.readouterr()
    rc = main(["verify", "--in", str(out), "--oracle"])
    assert rc == 0
    assert "codewords agree" in capsys.readouterr().out


def test_verify_oracle_on_the_k7_chain_head(tmp_path, capsys):
    # the paper's [67188, 7, 53750]_5 head: 19516 support points, whose
    # oracle transform runs over the 5^7 vectors of GF(5)^7
    out = tmp_path / "head.ms"
    assert main(["chain", "--theorem", "1", "--q", "5", "--k", "7", "--d", "53750",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--expect-d", "53750", "--oracle"]) == 0
    assert "oracle: 78125 codewords agree with the hyperplane computation" in capsys.readouterr().out


def test_verify_oracle_catches_a_spoiled_kernel_entry(tmp_path, capsys, monkeypatch):
    out = tmp_path / "b1.ms"
    main(["construct", "--family", "base1", "--q", "3", "--k", "5", "--out", str(out)])
    capsys.readouterr()
    kernel = pg.hyperplane_multiplicities

    def spoiled(*args):
        m = kernel(*args)
        m[0] -= 1  # moves one hyperplane to the next multiplicity down
        return m

    monkeypatch.setattr(pg, "hyperplane_multiplicities", spoiled)
    assert main(["verify", "--in", str(out), "--oracle"]) == 1
    captured = capsys.readouterr()
    assert re.search(r"^FAIL weight \d+: oracle count", captured.err, re.M)
    assert "codewords agree" not in captured.out


def _drop_the_zero_codeword(dist):
    del dist[0]
    return 0, "oracle count 0, spectrum gives 1"


def _move_one_codeword_up(dist):
    low, high = sorted(w for w in dist if w)[:2]
    dist[low] -= 1
    dist[high] += 1
    return low, f"oracle count {dist[low]}, spectrum gives {dist[low] + 1}"


@pytest.mark.parametrize("spoil", [_drop_the_zero_codeword, _move_one_codeword_up])
def test_verify_oracle_catches_a_spoiled_distribution(tmp_path, capsys, monkeypatch, spoil):
    # the oracle's distribution must equal {0: 1} and (q - 1) a_i at n - i
    out = tmp_path / "b1.ms"
    main(["construct", "--family", "base1", "--q", "3", "--k", "5", "--out", str(out)])
    capsys.readouterr()
    oracle, seen = cli.oracle_weight_distribution, []

    def spoiled(M):
        dist = oracle(M)
        seen.append(spoil(dist))
        return dist

    monkeypatch.setattr(cli, "oracle_weight_distribution", spoiled)
    assert main(["verify", "--in", str(out), "--oracle"]) == 1
    captured = capsys.readouterr()
    (weight, counts), = seen
    assert captured.err == f"FAIL weight {weight}: {counts}\n"
    assert "codewords agree" not in captured.out


def test_verify_mismatch_exit_1(tmp_path, capsys):
    out = tmp_path / "b1.ms"
    main(["construct", "--family", "base1", "--q", "3", "--k", "5", "--out", str(out)])
    rc = main(["verify", "--in", str(out), "--expect-d", "4"])
    assert rc == 1
    assert "expected 4" in capsys.readouterr().err


def test_construct_invalid_q_exit_2(capsys):
    rc = main(["construct", "--family", "c1", "--q", "6", "--k", "6"])
    assert rc == 2
    assert "invalid input" in capsys.readouterr().err


def test_construct_k5(capsys):
    assert main(["construct", "--family", "c1", "--q", "5", "--k", "5"]) == 0
    assert capsys.readouterr().out.startswith("c1: [34,5,20]_5 ")
    assert main(["construct", "--family", "c2", "--q", "5", "--k", "4"]) == 2
    # every family takes the same options, none of them a dimension switch
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--help"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.split("options:")[1]
    assert set(re.findall(r"--[\w-]+", options)) == {"--help", "--family", "--q", "--k", "--out"}
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "c1", "--q", "5", "--k", "5", "--experimental"])
    assert exc.value.code == 2


def test_chain_subcommand(tmp_path, capsys):
    out = tmp_path / "code.ms"
    report = tmp_path / "r.json"
    rc = main([
        "chain", "--theorem", "1", "--q", "4", "--k", "6", "--d", "2365",
        "--out", str(out), "--report", str(report),
    ])
    assert rc == 0
    assert "certified [3155,6,2365]_4" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["n"] == 3155 and payload["d"] == 2365 and payload["is_griesmer"]
    M = read_multiset(out)
    p = code_params(M)
    assert (p.n, p.d) == (3155, 2365)


def test_chain_theorem_2_row(tmp_path, capsys):
    out = tmp_path / "code.ms"
    report = tmp_path / "r.json"
    rc = main([
        "chain", "--theorem", "2", "--q", "5", "--k", "6", "--d", "9616",
        "--out", str(out), "--report", str(report),
    ])
    assert rc == 0
    assert "certified [12022,6,9616]_5" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["is_griesmer"] and payload["n"] == 12022


def test_each_report_step_is_its_transforms_record(tmp_path, capsys):
    # theorem 2 at (5, 6) heads its chains at d_top = 9625; 9616 takes a
    # line and four points, whose records the sidecar keeps.  The
    # punctured code's sidecar carries no dual record, but the head's does
    def chain(d):
        out, report = tmp_path / f"{d}.ms", tmp_path / f"{d}.json"
        assert main(["chain", "--theorem", "2", "--q", "5", "--k", "6", "--d", str(d),
                     "--out", str(out), "--report", str(report)]) == 0
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        return json.loads(report.read_text())["provenance"], meta

    steps, meta = chain(9616)
    construct, dual, *removals = steps
    assert [step["op"] for step in removals] == ["puncture_line"] + ["puncture_point"] * 4
    for step, record in zip(removals, meta["history"], strict=True):
        if record["op"] == "puncture_flat":
            assert record.pop("t") == 1
            record["op"] = "puncture_line"
        assert {key: step[key] for key in step if key not in ("n", "d")} == record
    head_steps, head_meta = chain(9625)
    assert head_steps == [construct, dual] and "history" not in head_meta
    transform = head_meta["transform"]
    assert (dual["m"], dual["t"]) == (transform["m"], transform["t"]) == (5, 5**3)
    assert construct["family"] == transform["source_family"] == meta["construction"]["family"]
    capsys.readouterr()


def test_construct_checks_the_space_before_the_field_tables(capsys):
    # 2897^2 is just above the cap: the space is refused before the field
    tracemalloc.start()
    try:
        assert main(["construct", "--family", "base1", "--q", "2897", "--k", "4"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20  # each table alone holds 2897^2 two-byte cells
    assert re.fullmatch(r"invalid input: PG\(3, 2897\) needs \d+ transform cells, "
                        r"above the bound \d+\n", capsys.readouterr().err)


def test_chain_out_of_scope_exit_2(capsys):
    rc = main(["chain", "--theorem", "1", "--q", "4", "--k", "5", "--d", "100"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["chain", "--theorem", "1", "--q", "6", "--k", "5", "--d", "10"],
    ["table", "--theorem", "2", "--q", "6", "--k", "5"],
], ids=["chain", "table"])
def test_a_family_over_a_q_that_is_not_a_prime_power_exit_2(argv, capsys):
    # no range is given for a field that does not exist
    assert main(argv) == 2
    assert capsys.readouterr().err == "invalid input: 6 is divisible by 2 but is not a power of it\n"


def test_table_txt(capsys):
    rc = main(["table", "--theorem", "1", "--q", "4", "--k", "6"])
    assert rc == 0
    rows = [tuple(int(x) for x in line.split()) for line in capsys.readouterr().out.splitlines()]
    assert rows == TABLE_1


def test_table_json(capsys):
    rc = main(["table", "--theorem", "1", "--q", "4", "--k", "6", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [(row["n"], row["d"]) for row in payload] == TABLE_1
    assert all(row["is_griesmer"] for row in payload)


def test_dual_and_puncture_files(tmp_path, capsys):
    c1 = tmp_path / "c1.ms"
    dual = tmp_path / "dual.ms"
    main(["construct", "--family", "c1", "--q", "4", "--k", "6", "--out", str(c1)])
    rc = main(["dual", "--in", str(c1), "--divisor", "4", "--out", str(dual)])
    assert rc == 0
    assert "[3158,6,2368]_4" in capsys.readouterr().out

    punct = tmp_path / "punct.ms"
    rc = main(["puncture", "--in", str(dual), "--lines", "1", "--points", "2", "--out", str(punct)])
    assert rc == 0
    assert "[3151,6," in capsys.readouterr().out
    M = read_multiset(punct)
    assert code_params(M).n == 3151


def test_dual_bad_divisor_exit_2(tmp_path, capsys):
    c1 = tmp_path / "c1.ms"
    main(["construct", "--family", "c1", "--q", "4", "--k", "6", "--out", str(c1)])
    rc = main(["dual", "--in", str(c1), "--divisor", "3"])
    assert rc == 2


def test_export_gmatrix(tmp_path, capsys):
    src = tmp_path / "b1.ms"
    gm = tmp_path / "b1.gm"
    main(["construct", "--family", "base1", "--q", "3", "--k", "5", "--out", str(src)])
    rc = main(["export", "--in", str(src), "--out", str(gm)])
    assert rc == 0
    M = read_gmatrix(gm)
    assert M == read_multiset(src)
    assert gm.read_text().splitlines()[0] == "3 5 11"


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "base1", "--q", "3", "--k", "5", "--out", "{bad}"],
    ["dual", "--in", "{c1}", "--divisor", "4", "--out", "{bad}"],
    ["puncture", "--in", "{c1}", "--points", "1", "--out", "{bad}"],
    ["chain", "--theorem", "1", "--q", "4", "--k", "6", "--d", "2363", "--out", "{bad}"],
    ["chain", "--theorem", "1", "--q", "4", "--k", "6", "--d", "2363", "--report", "{bad}"],
    ["export", "--in", "{c1}", "--out", "{bad}"],
], ids=["construct", "dual", "puncture", "chain-out", "chain-report", "export"])
def test_unwritable_output_exit_2(tmp_path, capsys, argv):
    c1 = tmp_path / "c1.ms"
    assert main(["construct", "--family", "c1", "--q", "4", "--k", "6", "--out", str(c1)]) == 0
    capsys.readouterr()
    paths = {"c1": str(c1), "bad": str(tmp_path / "missing" / "x.ms")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert "invalid input: cannot write" in capsys.readouterr().err


def test_unwritable_sidecar_exit_2(tmp_path, capsys):
    # the provenance sidecar cannot be written, so neither file is
    (tmp_path / "c1.ms.meta.json").mkdir()
    out = tmp_path / "c1.ms"
    assert main(["construct", "--family", "c1", "--q", "4", "--k", "6", "--out", str(out)]) == 2
    assert f"invalid input: cannot write {out}.meta.json" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c1.ms.meta.json"]


def test_undeletable_stale_sidecar_exit_2(tmp_path, capsys):
    # a file without provenance drops the old sidecar; when that cannot be
    # unlinked (here a directory), the new body is not written either
    bare = tmp_path / "bare.ms"
    bare.write_text("3 3\n1 1 0 0\n1 0 1 0\n1 0 0 1\n")
    out = tmp_path / "out.ms"
    old = "3 3\n1 1 0 0\n"
    out.write_text(old)
    (tmp_path / "out.ms.meta.json").mkdir()
    (tmp_path / "out.ms.meta.json" / "keep").write_text("")
    assert main(["puncture", "--in", str(bare), "--out", str(out)]) == 2
    assert re.fullmatch(rf"invalid input: cannot write {re.escape(str(out))}\.meta\.json: .*\n",
                        capsys.readouterr().err)
    assert out.read_text() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bare.ms", "out.ms", "out.ms.meta.json"]


def test_verify_bad_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ms"
    bad.write_text("not a multiset\n")
    rc = main(["verify", "--in", str(bad)])
    assert rc == 2


def test_verify_missing_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.ms"
    assert main(["verify", "--in", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"invalid input: cannot read {missing}: ")


@pytest.mark.parametrize("header", ["2 24", "9 9"])
def test_verify_oversized_header_exit_2(tmp_path, capsys, header):
    # PG(23, 2) and PG(8, 9) are above the point-array bound; the short
    # row would be a FileFormatError, so TooLarge shows the header alone
    # was checked, before any row was read or any array allocated
    big = tmp_path / "big.ms"
    big.write_text(f"{header}\n1 1 0\n")
    with pytest.raises(TooLarge):
        read_multiset(big)
    assert main(["verify", "--in", str(big)]) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [
    ["99999999999999999999 1 0", "1 0 1", "1 1 1"],  # past int64
    [f"{2**62} 1 0", f"{2**62} 0 1", f"{2**62} 1 1"],  # n would wrap in int64
    ["1000000000 1 0", "1 0 1", "1 1 1"],  # a 10^9-cell bincount
])
def test_verify_oversized_multiplicity_exit_2(tmp_path, capsys, rows):
    big = tmp_path / "big.ms"
    big.write_text("2 2\n" + "\n".join(rows) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            read_multiset(big)
        assert main(["verify", "--in", str(big)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "exceeds the bound" in capsys.readouterr().err
    assert peak < 1 << 20  # refused before any array near the bound exists


def test_puncture_negative_lines_exit_2(tmp_path, capsys):
    src = tmp_path / "b1.ms"
    main(["construct", "--family", "base1", "--q", "3", "--k", "5", "--out", str(src)])
    rc = main(["puncture", "--in", str(src), "--lines", "-1"])
    assert rc == 2
    capsys.readouterr()
    rc = main(["puncture", "--in", str(src), "--points", "-1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "punctured" not in captured.out
    assert "nonnegative number of points" in captured.err


def test_puncture_points_without_simple_point_exit_2(tmp_path, capsys):
    # every point of PG(1, 2) has multiplicity 2, so no point can go
    src = tmp_path / "double.ms"
    src.write_text("2 2\n2 1 0\n2 0 1\n2 1 1\n")
    rc = main(["puncture", "--in", str(src), "--points", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid input" in err and "multiplicity 1" in err


def test_identical_invocations_identical_bytes(tmp_path):
    a, b = tmp_path / "a.ms", tmp_path / "b.ms"
    main(["construct", "--family", "c2", "--q", "5", "--k", "6", "--out", str(a)])
    main(["construct", "--family", "c2", "--q", "5", "--k", "6", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.ms.meta.json").read_bytes() == (tmp_path / "b.ms.meta.json").read_bytes()


@pytest.fixture(scope="module")
def dual_c1_file(tmp_path_factory):
    root = tmp_path_factory.mktemp("dual")
    c1, dual = root / "c1.ms", root / "dual.ms"
    assert main(["construct", "--family", "c1", "--q", "4", "--k", "6", "--out", str(c1)]) == 0
    assert main(["dual", "--in", str(c1), "--divisor", "4", "--out", str(dual)]) == 0
    return dual


def _with_sidecar(ms, tmp_path, text):
    target = tmp_path / ms.name
    shutil.copy(ms, target)
    (tmp_path / (ms.name + ".meta.json")).write_text(text)
    return target


_REGION = "skew_region must be 6 integers in [0, 4)"
_HISTORY = "history must be a list"


@pytest.mark.parametrize(
    "key,value,message",
    [("skew_region", v, _REGION) for v in (
        [1, 0, 0, 0, 0, 9], "x", [1, 0, 0], [1, 0, 0, 0, 0, 0, 0], [0] * 6,
        [1, 0, 0, 0, 0, True], [1, 0, 0, 0, 0, 1.0], None)]
    + [("history", v, _HISTORY) for v in (5, "x", {"op": "dual"}, None)],
)
def test_puncture_bad_sidecar_key_exit_2(dual_c1_file, tmp_path, capsys, key, value, message):
    meta = json.loads(Path(str(dual_c1_file) + ".meta.json").read_text())
    meta[key] = value
    src = _with_sidecar(dual_c1_file, tmp_path, json.dumps(meta))
    capsys.readouterr()
    rc = main(["puncture", "--in", str(src), "--lines", "1"])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_puncture_malformed_sidecar_exit_2(dual_c1_file, tmp_path, capsys, text):
    src = _with_sidecar(dual_c1_file, tmp_path, text)
    capsys.readouterr()
    assert main(["puncture", "--in", str(src), "--lines", "1"]) == 2
    assert "meta.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "construction",
    [{}, {"l0": 5}, {"l0": [[1, 0, 0, 0, 0, 0]]}, {"l0": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 4]]},
     {"l0": [[1, 0, 0, 0, 0, 0], "x"]}, "x", None],
)
def test_dual_bad_construction_exit_2(dual_c1_file, tmp_path, capsys, construction):
    c1 = dual_c1_file.parent / "c1.ms"
    meta = json.loads(Path(str(c1) + ".meta.json").read_text())
    meta["construction"] = construction
    target = _with_sidecar(c1, tmp_path, json.dumps(meta))
    capsys.readouterr()
    rc = main(["dual", "--in", str(target), "--divisor", "4", "--out", str(tmp_path / "d.ms")])
    assert rc == 2
    assert "construction.l0[1] must be 6 integers in [0, 4)" in capsys.readouterr().err


MERSENNE_61 = 2**61 - 1  # prime: trial division up to its root would run for hours


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "c1", "--q", str(MERSENNE_61), "--k", "5"],
    ["chain", "--theorem", "1", "--q", str(MERSENNE_61), "--k", "5", "--d", "1"],
    ["table", "--theorem", "1", "--q", str(MERSENNE_61), "--k", "5"],
    ["chain", "--theorem", "1", "--q", "1000003", "--k", str(10**6), "--d", "1"],
    ["table", "--theorem", "1", "--q", "1000003", "--k", str(10**6)],
], ids=["construct-q", "chain-q", "table-q", "chain-k", "table-k"])
def test_huge_q_or_k_is_refused_at_the_bound(argv):
    # in a child with a timeout, so a size computed before the bound check
    # fails this test instead of hanging the suite
    env = dict(os.environ, PYTHONPATH=str(Path(griesmer.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "griesmer.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert re.search(r"(exceeds|above) the bound \d+$", proc.stderr.strip())
    assert len(proc.stderr) < 300


def test_python_m_cli_runs_main():
    env = dict(os.environ, PYTHONPATH=str(Path(griesmer.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "griesmer.cli", "construct", "--family", "base1",
         "--q", "3", "--k", "5"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("base1: [11,5,3]_3")


ENTRY_CASES = [(["table", "--theorem", "1", "--q", "3", "--k", "5"], 0),
               (["table", "--theorem", "1", "--q", "3", "--k", "5", "--bogus"], 2)]


@pytest.mark.parametrize("argv,code", ENTRY_CASES, ids=["table", "bad-flag"])
def test_entry_exits_with_mains_code(argv, code, monkeypatch, capsys):
    # the console script's entry point reads sys.argv
    monkeypatch.setattr(sys, "argv", ["griesmer", *argv])
    with pytest.raises(SystemExit) as done:
        cli.entry()
    assert done.value.code == code
    capsys.readouterr()


@pytest.mark.parametrize("argv,code", ENTRY_CASES, ids=["table", "bad-flag"])
def test_python_m_cli_exits_with_mains_code(argv, code, capsys):
    env = dict(os.environ, PYTHONPATH=str(Path(griesmer.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "griesmer.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code
    if code == 0:
        assert main(argv) == 0
        assert proc.stdout == capsys.readouterr().out
    else:
        assert "unrecognized arguments: --bogus" in proc.stderr


# arguments every command accepts
VALID_ARGS = {
    "construct": ["--family", "c1", "--q", "4", "--k", "6"],
    "dual": ["--in", "c1.ms", "--divisor", "4"],
    "puncture": ["--in", "c1.ms"],
    "chain": ["--theorem", "1", "--q", "4", "--k", "6", "--d", "10"],
    "table": ["--theorem", "1", "--q", "4", "--k", "6"],
    "verify": ["--in", "c1.ms"],
    "export": ["--in", "c1.ms", "--out", "c1.gm"],
}


# optional flags each command accepts, with values
OPTIONAL_ARGS = {
    "construct": ["--out", "c1.ms"],
    "dual": ["--out", "dual.ms"],
    "puncture": ["--lines", "1", "--points", "2", "--out", "short.ms"],
    "chain": ["--out", "code.ms", "--report", "r.json"],
    "table": ["--format", "json"],
    "verify": ["--expect-n", "23", "--expect-k", "6", "--expect-d", "8", "--oracle"],
    "export": ["--format", "gmatrix"],
}


def _parse(parser, argv, capsys):
    """(exit code, stdout, stderr) of a parse that exits."""
    with pytest.raises(SystemExit) as done:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return done.value.code, out.out, out.err


def _argparse_outcome(argv):
    """vars() of argparse's namespace for argv, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.make_parser().parse_args(argv))
        except SystemExit as done:
            return done.code


@pytest.mark.parametrize("command", sorted(VALID_ARGS))
def test_plain_args_give_argparse_namespace(command):
    required, optional = VALID_ARGS[command], OPTIONAL_ARGS[command]
    for argv in ([command, *required], [command, *required, *optional],
                 [command, *optional, *required]):
        plain = cli._plain_args(argv)
        assert plain is not None, argv
        assert vars(plain) == _argparse_outcome(argv), argv
    assert plain.func is getattr(cli, f"_cmd_{command}")


_TABLE = ["table", "--theorem", "1", "--q", "4", "--k", "6"]


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["table", "-h"],
    ["table", "--the", "1", "--q", "4", "--k", "6"],
    ["table", "--theorem", "1", "--q=4", "--k", "6"],
    ["chain", "--theorem", "1", "--q", "4", "--k", "6", "--d", "-5"],
    ["table", "--theorem", "1", "--q", "4"],
    ["table", "--theorem", "3", "--q", "4", "--k", "6"],
    ["table", "--theorem", "1", "--q", "four", "--k", "6"],
    [*_TABLE, "--bogus"],
    [*_TABLE, "--"],
    [*_TABLE, "--format"],
], ids=["empty", "help", "command-help", "abbreviation", "equals", "negative", "missing",
        "bad-choice", "non-integer", "unknown", "double-dash", "no-value"])
def test_refused_command_lines_reach_argparse(argv, capsys, monkeypatch):
    assert cli._plain_args(argv) is None
    # every handler records what it was called with, so the lines argparse
    # accepts run no command
    calls = []
    for name in cli._COMMANDS:
        monkeypatch.setattr(cli, f"_cmd_{name}", lambda args: calls.append(vars(args)) or 0)
    outcome = _argparse_outcome(argv)
    if isinstance(outcome, dict):
        assert main(argv) == 0 and calls == [outcome]
        return
    expected = _parse(cli.make_parser(), argv, capsys)
    with pytest.raises(SystemExit) as done:
        main(argv)
    got = capsys.readouterr()
    assert (done.value.code, got.out, got.err) == expected
    assert expected[0] == outcome and calls == []


_VALUES = ["1", "2", "3", "4", "6", "-5", " 4", "0x4", "four", "", "c1", "base2", "txt", "json",
           "gmatrix", "c1.ms", "a=b", "-", "--"]


def _good_chunk(argument):
    """A flag with a value it takes, or a store_true flag alone."""
    flag, options = argument
    if options.get("action") == "store_true":
        return st.just((flag,))
    if "choices" in options:
        values = [str(c) for c in options["choices"]]
    else:
        values = ["1", "2", "4", "6"] if "type" in options else ["c1.ms"]
    return st.tuples(st.just(flag), st.sampled_from(values))


@st.composite
def _command_lines(draw):
    """A command and tokens drawn from its flags, their abbreviations and
    `=` forms, and values inside and outside their choices."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    arguments = cli._COMMANDS[command][1]
    flag = st.sampled_from([flag for flag, _ in arguments])
    value = st.sampled_from(_VALUES)
    token = st.one_of(
        flag,
        st.builds(lambda f, n: f[:n], flag, st.integers(3, 8)),
        st.builds("{}={}".format, flag, value),
        value,
        st.sampled_from(["-h", "--help", "--bogus"]),
    )
    good = st.sampled_from(arguments).flatmap(_good_chunk)
    chunks = draw(st.lists(st.one_of(good, good, good, st.tuples(flag, value), st.tuples(token)),
                           max_size=6))
    head = VALID_ARGS[command] if draw(st.booleans()) else []
    return [command, *head, *itertools.chain.from_iterable(chunks)]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_command_lines())
def test_plain_args_is_argparse_or_none(argv):
    plain, outcome = cli._plain_args(argv), _argparse_outcome(argv)
    if isinstance(outcome, dict):
        assert plain is None or vars(plain) == outcome
    else:
        assert plain is None  # argparse exits, and says why


def test_a_well_formed_command_line_never_imports_argparse():
    # argparse, and the gettext and locale it imports, cost a cold CLI call
    # about 1.5 ms; only help and refused command lines load them
    env = dict(os.environ, PYTHONPATH=str(Path(griesmer.__file__).parent.parent))
    code = (
        "import sys\n"
        "from griesmer.cli import main\n"
        "rc = main(['table', '--theorem', '1', '--q', '3', '--k', '5'])\n"
        "print(rc, *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == "0\n"


@pytest.mark.parametrize("argv,code", [([], 2), (["--help"], 0), (["bogus"], 2)])
def test_no_command_gets_the_full_parser(argv, code, capsys):
    assert _parse(cli.make_parser(), argv, capsys)[0] == code
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == code
    out = capsys.readouterr()
    assert "{construct,dual,puncture,chain,table,verify,export}" in out.out + out.err


# SHA-256 of what `puncture --lines 1 --points 2` writes from the q=4, k=6
# c1 dual, pinned from the output of the from-scratch kernel at every step
PUNCTURE_DIGESTS = {
    "punct.ms": "842f92085a42f1e77889f005d35d6b2d34065210d1377585ba0d6e8f21ce2cc1",
    "punct.ms.meta.json": "9c432c68f8e41198b56d9d3d0634dd90290361eb0a8ac3e3edeec09bd3e56bdd",
}


def test_puncture_writes_the_pinned_bytes(dual_c1_file, tmp_path, capsys):
    out = tmp_path / "punct.ms"
    rc = main(["puncture", "--in", str(dual_c1_file), "--lines", "1", "--points", "2", "--out", str(out)])
    assert rc == 0
    assert "punctured: [3151,6,2362]_4" in capsys.readouterr().out
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PUNCTURE_DIGESTS}
    assert got == PUNCTURE_DIGESTS


def test_dual_rechecks_the_identity_vector(tmp_path, capsys, monkeypatch):
    c1, out = tmp_path / "c1.ms", tmp_path / "dual.ms"
    assert main(["construct", "--family", "c1", "--q", "4", "--k", "6", "--out", str(c1)]) == 0
    capsys.readouterr()
    mults = transforms._dual_mults
    # rolled, the dual's vector keeps its n, d, divisor and spectrum
    monkeypatch.setattr(transforms, "_dual_mults", lambda M, m: np.roll(mults(M, m), 1))
    assert main(["dual", "--in", str(c1), "--divisor", "4", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "differs from the kernel" in captured.err
    assert not out.exists()


def test_wrong_walked_vector_exits_1(dual_c1_file, tmp_path, capsys, off_by_one):
    rc = main(["chain", "--theorem", "1", "--q", "4", "--k", "6", "--d", "2363"])
    assert rc == 1
    assert "differs from the kernel" in capsys.readouterr().err
    rc = main(["puncture", "--in", str(dual_c1_file), "--lines", "1", "--points", "2"])
    assert rc == 1
    assert "differs from the kernel" in capsys.readouterr().err


@pytest.fixture
def unsupported_simple_point(monkeypatch):
    """chains.simple_point names a point of multiplicity 0, which
    puncture_point refuses with an InputError."""

    def zero_point(M):
        return tuple(pg.point_digits(M.q, M.r, np.flatnonzero(M.counts == 0)[:1])[0].tolist())

    monkeypatch.setattr(chains, "simple_point", zero_point)


@pytest.mark.parametrize("argv", [
    ["table", "--theorem", "1", "--q", "5", "--k", "5"],
    ["chain", "--theorem", "1", "--q", "5", "--k", "5", "--d", "899"],  # one point removal
])
def test_a_refused_removal_is_a_certification_failure(unsupported_simple_point, tmp_path, capsys, argv):
    # the walk chose the point, so the refusal is the pipeline's fault: exit 1
    out = tmp_path / "code.ms"
    if argv[0] == "chain":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"^verification failed: removal 1 failed: .* has multiplicity 0$", captured.err, re.M)
    assert not out.exists()
