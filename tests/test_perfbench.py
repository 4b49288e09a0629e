"""The benchmark in ``perfbench/`` runs on this checkout: its self-test
passes and short worker runs report correct output with no failed
operation.  A verdict of incorrect output or a failed run shows here first.

``cli_cold`` is left out: it takes seconds and writes CSVs into
``perfbench/out/``.
"""
import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT
from test_cli import src_env


def perfbench(script, *args):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "perfbench" / script), *args],
        capture_output=True, text=True, cwd=REPO_ROOT, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_selftest_passes():
    perfbench("selftest.py")


@pytest.mark.parametrize("workload", ["verify", "theta_sweeps", "fit"])
def test_worker_output_is_correct(workload):
    pytest.importorskip("scipy")  # the worker's environment record imports it
    proc = perfbench("worker.py", "--workload", workload, "--seed", "1", "--seconds", "0.3")
    report = json.loads(proc.stdout)
    assert report["failures"] == []
    assert report["correct"] is True
    assert report["failed"] == 0
    assert report["attempted"] > 0
