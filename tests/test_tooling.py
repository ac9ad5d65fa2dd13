"""The test run itself and the benchmark's span gate, checked in tier-1.

A failing Hypothesis test must fail as one test, not end the session; and
every span that bench/workloads.py expects of a workload must be recorded
when its steps run under bench/spans.py's tracer, so a change that drops a
span-gated call fails here and not only in a traced benchmark run.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from griesmer import cli, gf

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "bench") not in sys.path:
    sys.path.insert(0, str(ROOT / "bench"))

import spans  # noqa: E402  (bench/spans.py, read-only)
import workloads  # noqa: E402  (bench/workloads.py, read-only)

FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_given.py").write_text(FAILING_GIVEN)
    argv = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider"]
    run = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_gated_span_is_recorded(name, tmp_path, monkeypatch):
    # a field that an earlier test built would hide gf.field_create
    gf.field.cache_clear()
    monkeypatch.chdir(tmp_path)
    wl = workloads.workload(name, 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in wl.steps:
            assert cli.main(list(argv)) == 0
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert sorted(set(wl.spans) - recorded) == []
