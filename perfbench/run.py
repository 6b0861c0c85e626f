"""Benchmark command: one workload of dbdsim, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding
`src/dbdsim`).  Each call starts fresh processes with BLAS and OpenMP
pinned to one thread: SETUP_SAMPLES - 1 that only set up, then one that
sets up and runs the workload (workload.py).  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1.  Times are rescaled to a reference host speed by a
calibration kernel; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workload import REFERENCE_CALIBRATION_S, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def child(args, src, out_dir, setup_only, deadline):
    """Run workload.py once.

    Returns its set-up time (spawn to READY), the calibration it measured
    right after, and its last line.
    """
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir), "--src", str(src)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    env.pop("DBD_SIM_WORKERS", None)
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    tagged = {ln.split()[0]: float(ln.split()[1]) for ln in lines
              if ln.startswith(("READY ", "CALIBRATION "))}
    if len(tagged) != 2:
        raise SystemExit("workload process never reported READY")
    return tagged["READY"] - spawned, tagged["CALIBRATION"], lines[-1]


def main(argv=None):
    parser = argparse.ArgumentParser(description="dbdsim benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dbdsim" / "cli.py").is_file():
        print(f"no dbdsim source tree under {src}; run from the root of a "
              "dbdsim checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    (HERE / "_out").mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_out"))
    try:
        setups = [child(args, src, out_dir, True, deadline)[:2]
                  for _ in range(SETUP_SAMPLES - 1)]
        *setup, last = child(args, src, out_dir, False, deadline)
    except subprocess.TimeoutExpired:
        print("workload process timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    setups.append(tuple(setup))
    res = json.loads(last)
    for problem in res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)

    if args.trace:
        metrics = dict(res["per_layer"])
        metrics.update({
            "process.cpu_s": (res["cpu_s"], "s"),
            "process.wall_raw_s": (statistics.median(res["raw_walls"]), "s"),
            "process.calibration_s": (res["calibration_s"], "s"),
            "process.import_s": (res["import_s"], "s"),
            "process.strategies_s": (res["strategies_s"], "s"),
            "trace.overhead_s": (res["trace_overhead_s"], "s"),
        })
    else:
        metrics = {
            "setup_s": (statistics.median(
                raw * REFERENCE_CALIBRATION_S / cal for raw, cal in setups),
                "s"),
            "wall_s": (res["wall_s"], "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "psum_err": (res["psum_err"], "1"),
            "oracle_gap": (res["oracle_gap"], "1"),
        }
    print(f"{args.workload}: measured rounds "
          + ", ".join(f"{w:.3f}" for w in res["raw_walls"])
          + " s, set-ups " + ", ".join(f"{raw:.3f}" for raw, _ in setups)
          + f" s; calibration kernel {res['calibration_s']:.4f} s "
          f"(reference {REFERENCE_CALIBRATION_S} s)")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
