"""The griesmer benchmark: cold-process certification runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it drives src/griesmer there.
Closed loop, one client: each CLI invocation of a workload runs in a
fresh child interpreter (bench/child.py) and the next starts only after
it has ended, so every run pays the cold caches a CLI user pays.

--trace 0 repeats the workload for about S seconds and reports the
medians of the end-to-end metrics.  --trace 1 runs the workload once
untraced and twice with spans (bench/spans.py) and reports the per-layer
metrics.  Every run passes the correctness gate of bench/workloads.py.
The last stdout line is the JSON result; the line before it records the
environment.  Exit code 0 means every run was correct, 1 that some run
failed its gate, 2 that the checkout holds no griesmer source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 2    # import-only children before the first repetition; one more precedes each
CHILD_TIMEOUT = 170


def run_child(root: Path, workdir: Path, tag: str, mode: str, argv=()) -> tuple[dict, bytes]:
    """Start one child, wait for it, return (its measurements, its stdout)."""
    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    result = workdir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), str(root / "src"),
           repr(time.clock_gettime(time.CLOCK_MONOTONIC)), mode, *argv]
    try:
        proc = subprocess.run(cmd, cwd=out, capture_output=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        return {"error": f"no exit within {CHILD_TIMEOUT} s"}, exc.stdout or b""
    if proc.returncode != 0 or not result.exists():
        err = proc.stderr.decode(errors="replace").strip().splitlines()
        return {"error": f"exit {proc.returncode}: {err[-1] if err else ''}"}, proc.stdout
    data = json.loads(result.read_text())
    if Path(data["griesmer"]).resolve() != (root / "src/griesmer/cli.py").resolve():
        data["error"] = f"imported {data['griesmer']}, not the checkout's source"
    elif data.get("rc", 0) != 0:
        data["error"] = f"cli.main returned {data['rc']}"
    return data, proc.stdout


def run_once(root: Path, wl: workloads.Workload, workdir: Path, mode: str) -> dict:
    """All steps of a workload, each in its own child, then the gate."""
    shutil.rmtree(workdir, ignore_errors=True)
    sample = {"certify_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "setup_s": [],
              "spans": [], "problems": []}
    outputs: dict[str, bytes] = {}
    for i, argv in enumerate(wl.steps):
        data, stdout = run_child(root, workdir, f"step{i}", mode, argv)
        outputs[f"stdout.{i}"] = stdout
        if "error" in data:
            sample["problems"].append(f"step {i}: {data['error']}")
            return sample
        sample["certify_s"] += data["certify_s"]
        sample["cpu_s"] += data["cpu_s"]
        sample["peak_rss_mb"] = max(sample["peak_rss_mb"], data["peak_rss_mb"])
        sample["setup_s"].append(data["setup_s"])
        sample["spans"].append(data.get("spans", []))
    for path in sorted((workdir / "out").iterdir()):
        outputs[f"file.{path.name}"] = path.read_bytes()
    sample["problems"] = workloads.gate(wl, outputs)
    sample["digests"] = workloads.digests(outputs)
    sample["stdout_bytes"] = sum(len(v) for k, v in outputs.items() if k.startswith("stdout."))
    return sample


def setup_probe(root: Path, work: Path) -> tuple[dict, float]:
    """One import-only child: (environment, setup_s)."""
    data, _ = run_child(root, work / "setup", "probe", "setup")
    if "error" in data:
        raise SystemExit(f"cannot import griesmer.cli: {data['error']}")
    return data["env"], data["setup_s"]


def timed_run(root: Path, wl: workloads.Workload, seconds: float, work: Path) -> dict:
    # probes are spread over the run, like the repetitions, so that setup_s
    # and certify_s sample the same stretches of machine load
    start = time.monotonic()
    setups = [setup_probe(root, work)[1] for _ in range(SETUP_PROBES)]
    samples = []
    while True:
        t = time.monotonic()
        env, setup_s = setup_probe(root, work)
        setups.append(setup_s)
        samples.append(run_once(root, wl, work / "run", "run"))
        took = time.monotonic() - t
        if time.monotonic() - start + took > seconds:
            break
    good = [s for s in samples if not s["problems"]]
    for s in good:
        setups.extend(s["setup_s"])

    def median(key):
        return statistics.median(s[key] for s in good) if good else 0.0

    metrics = {
        "certify_s": (median("certify_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }
    detail = {"runs": len(samples), "certify_s": [s["certify_s"] for s in good],
              "setup_s": setups, "problems": [p for s in samples for p in s["problems"]]}
    return _result(samples, metrics, env, detail)


def traced_run(root: Path, wl: workloads.Workload, work: Path) -> dict:
    env, _ = setup_probe(root, work)
    plain = run_once(root, wl, work / "run", "run")
    traced = [run_once(root, wl, work / "run", "trace") for _ in range(2)]
    for s in traced:
        seen = {name for child in s["spans"] for name, *_ in child}
        missing = sorted(set(wl.spans) - seen)
        if missing:
            s["problems"].append(f"spans never recorded: {missing}")
        if s.get("digests") != plain.get("digests"):
            s["problems"].append("traced outputs differ from the untraced run's")
    samples = [plain, *traced]
    metrics = {}
    if not any(s["problems"] for s in samples):
        layers = [spans.layer_metrics(s["spans"]) for s in traced]
        for s, layer in zip(traced, layers):
            layer["cli.stdout_bytes"] = s["stdout_bytes"]
            layer["trace.overhead_s"] = s["certify_s"] - plain["certify_s"]
        counts = [{k: layer[k] for k in spans.COMPUTED_COUNTS} for layer in layers]
        if counts[0] != counts[1]:
            traced[1]["problems"].append(f"computed counts differ between traced runs: {counts}")
        metrics = {name: (statistics.median(layer[name] for layer in layers), unit)
                   for name, unit in spans.LAYER_METRICS.items()}
    detail = {"runs": len(samples), "problems": [p for s in samples for p in s["problems"]]}
    return _result(samples, metrics, env, detail)


def _result(samples, metrics, env, detail) -> dict:
    failed = sum(1 for s in samples if s["problems"])
    return {
        "env": env,
        "detail": detail,
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src/griesmer/cli.py").is_file():
        print(f"no griesmer source under {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2
    wl = workloads.workload(args.workload, args.seed)
    work = root / ".bench_work"
    try:
        if args.trace:
            result = traced_run(root, wl, work)
        else:
            result = timed_run(root, wl, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = result.pop("env")
    env.update(nproc=len(os.sched_getaffinity(0)), git_commit=git_commit(root), workload=wl.key,
               seed=args.seed, detail=result.pop("detail"))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
