"""Benchmark for qiup: four workloads, end-to-end and per-layer metrics.

Run from the root of a qiup checkout; nothing needs installing:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Each workload runs in a fresh worker process (``worker.py``) with ``src`` on
``PYTHONPATH``.  With ``--trace 0`` the run also starts SETUP_RUNS - 1 workers
that only set up, and reports the median set-up time of all of them together
with the main worker's ``op_p50_ms``, ``ops_per_s`` and ``peak_rss_mb``.  With
``--trace 1`` one traced worker reports the per-layer metrics.  The last line
of standard output is the result as JSON; the line before it holds the
environment, the unscaled figures and any failed checks.  Both, and the trace,
are also written to ``perfbench/out/``.  README.md describes the workloads,
the metrics and the checks.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_cold", "verify", "theta_sweeps", "fit")
SETUP_RUNS = 3
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), *extra,
    ]
    src = str(Path.cwd() / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    # its own session, so a timeout also stops the CLI processes it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed("worker did not finish before the deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (Path.cwd() / "src" / "qiup" / "__init__.py").is_file():
        print("error: run from the root of a qiup checkout (no src/qiup here)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            run_worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS - 1)
        ]
        main_run = run_worker(args, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = main_run["metrics"]
    if not args.trace:
        setups.append(main_run["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    result = {
        "correct": main_run["correct"], "attempted": main_run["attempted"],
        "failed": main_run["failed"], "metrics": metrics,
    }
    details = {"env": main_run["env"], "raw": main_run["raw"], "setups_s": setups,
               "failures": main_run["failures"]}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**details, **result}, indent=1), encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
