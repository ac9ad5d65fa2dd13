"""Importing griesmer caps numpy's OpenBLAS at one thread, each check in a
fresh interpreter: the package never calls BLAS, and the idle workers only
spin.  A thread count that the caller set stays as set."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run(argv: list[str], preset: dict[str, str]) -> subprocess.CompletedProcess:
    """argv in a fresh interpreter whose environment holds none of the
    thread variables but those in preset."""
    env = {key: value for key, value in os.environ.items() if key not in VARIABLES}
    env.update(preset, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done


def _after(code: str, preset: dict[str, str]):
    """The JSON that code prints, run after the preset."""
    return json.loads(_run(["-c", code], preset).stdout)


ENVIRONMENT = f"import os, json, griesmer; print(json.dumps({{v: os.environ.get(v) for v in {VARIABLES}}}))"


@pytest.mark.parametrize("preset", [{}, *({v: "2"} for v in VARIABLES)],
                         ids=["none", *VARIABLES])
def test_import_caps_blas_threads_unless_the_caller_chose(preset):
    expected = dict.fromkeys(VARIABLES)
    expected.update(preset or {"OPENBLAS_NUM_THREADS": "1"})
    assert _after(ENVIRONMENT, preset) == expected


# OpenBLAS starts a worker per core beyond the first
many_cpus = pytest.mark.skipif(
    not (sys.platform == "linux" and Path("/proc/self/task").is_dir()
         and len(os.sched_getaffinity(0)) >= 2),
    reason="counts threads in /proc/self/task on Linux with 2 or more CPUs",
)
TASKS = "import os; print(len(os.listdir('/proc/self/task')))"


@many_cpus
def test_the_process_keeps_one_thread():
    assert _after(f"import griesmer; {TASKS}", {}) == 1


@many_cpus
def test_numpy_imported_first_or_a_preset_count_keeps_its_blas_threads():
    # whatever threads numpy's BLAS starts on its own, it still starts
    # when numpy loads first or when the caller set a count
    alone = _after(f"import numpy; {TASKS}", {})
    assert _after(f"import numpy, griesmer; {TASKS}", {}) == alone
    preset = {"OPENBLAS_NUM_THREADS": "2"}
    assert _after(f"import griesmer; {TASKS}", preset) == _after(f"import numpy; {TASKS}", preset)


def test_output_bytes_do_not_depend_on_blas_threads():
    argv = ["-m", "griesmer.cli", "table", "--theorem", "1", "--q", "4", "--k", "6", "--format", "json"]
    capped = _run(argv, {}).stdout
    assert capped and capped == _run(argv, {"OPENBLAS_NUM_THREADS": "2"}).stdout
