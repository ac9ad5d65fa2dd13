"""Self-test of the benchmark harness: one untraced and one traced run of
table-q4k6, the correctness gate, and the trace bindings.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_griesmer_bound_matches_certified_lengths():
    assert workloads.griesmer_bound(5, 7, 53750) == 67188
    assert workloads.griesmer_bound(5, 6, 9616) == 12022


def test_gate_rejects_wrong_output():
    wl = workloads.workload("table-q4k6", 0)
    row = {"q": 4, "k": 6, "n": 100, "d": 60, "griesmer_n": 100, "is_griesmer": True}
    problems = workloads.gate(wl, {"stdout.0": json.dumps([row]).encode()})
    assert any("expected 13 rows" in p for p in problems)
    assert any("not length-optimal" in p for p in problems)
    assert any("digest" in p for p in problems)


def test_oracle_seed_picks_distance():
    assert workloads.workload("oracle-q5k6", 0).key == "oracle-q5k6/d=9616"
    pinned = json.loads(workloads.EXPECTED.read_text())
    assert {workloads.workload("oracle-q5k6", s).key for s in range(6)} <= set(pinned)


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_METRICS


def test_tracer_binds_every_by_name_import_and_restores():
    sys.path.insert(0, str(ROOT / "src"))
    import griesmer.cli  # noqa: F401  (imports every module the CLI uses)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "griesmer"]
    before = {m: dict(vars(m)) for m in modules}
    originals = [getattr(sys.modules[f"griesmer.{mod}"], attr) for mod, attr, _ in spans.TARGETS
                 if "." not in attr]
    init = sys.modules["griesmer.mcode"].PointMultiset.__init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        for m in modules:
            for key, value in vars(m).items():
                assert not any(value is fn for fn in originals), f"{m.__name__}.{key} left unwrapped"
        assert sys.modules["griesmer.mcode"].PointMultiset.__init__ is not init
    finally:
        tracer.uninstall()
    assert all(dict(vars(m)) == v for m, v in before.items())
    assert sys.modules["griesmer.mcode"].PointMultiset.__init__ is init


def test_untraced_and_traced_runs(tmp_path):
    wl = workloads.workload("table-q4k6", 0)
    plain = run.timed_run(ROOT, wl, 0.0, tmp_path)
    assert plain["env"]["numpy"] and plain["env"]["python"]
    assert (plain["correct"], plain["attempted"], plain["failed"]) == (True, 1, 0), plain["detail"]
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.traced_run(ROOT, wl, tmp_path)
    assert (traced["correct"], traced["failed"]) == (True, 0), traced["detail"]
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    assert set(layer) == set(spans.LAYER_METRICS)
    assert layer["chains.codes_certified"] == 13 and layer["pg.kernel_calls"] > 0
    assert layer["transforms.skew_search_s"] > 0 and layer["mcode.oracle_s"] == 0


def test_refuses_a_directory_without_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench/run.py"), "--workload", "table-q4k6",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == b""
