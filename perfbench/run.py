"""twarq benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every workload runs in fresh
`worker.py` processes started one after another (no threads, no parallel
processes), after one discarded set-up process: with `--trace 0`,
SETUP_EACH_SIDE set-up-only processes, one process that sets up, runs whole
rounds of CLI calls for about S seconds and checks every output, then
SETUP_EACH_SIDE more set-up-only processes; with `--trace 1`, one traced
process (see layers.py).
The last stdout line is the JSON result; details go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_EACH_SIDE = 3  # set-up-only processes before and after the timed one
DEADLINE_S = 170.0  # every worker must be done this long after start
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DEADLINE = time.monotonic() + DEADLINE_S
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker(mode: str, args, env: dict, *extra: str) -> dict:
    timeout = max(1.0, DEADLINE - time.monotonic())
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker still running {DEADLINE_S:.0f} s after start; stopped it")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "twarq" / "__init__.py").is_file():
        fail(f"no twarq sources under {ROOT / 'src'}; run from a twarq checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # One BLAS thread: the CLI pool already runs two workers on two cores, and
    # spinning BLAS threads on top of it make round times drift (see README).
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    OUT_DIR.mkdir(exist_ok=True)
    # One discarded set-up first: byte-compiling and cold file caches are
    # install-time costs, not set-up.
    worker("setup", args, env)

    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        res = worker("trace", args, env, "--spans", str(spans))
        metrics = res.pop("metrics")
        problems = res["problems"]
    else:
        setups = [worker("setup", args, env) for _ in range(SETUP_EACH_SIDE)]
        res = worker("run", args, env)
        setups += [worker("setup", args, env) for _ in range(SETUP_EACH_SIDE)]
        problems = res["problems"] + [p for s in setups for p in s["problems"]]
        samples = [s["setup_s"] for s in setups] + [res["setup_s"]]
        metrics = {
            "setup_s": {"value": statistics.median(samples), "unit": "s"},
            "rows_per_s": {"value": res["rows_per_round"] / res["round_s"], "unit": "rows/s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
        # Slots per row are fixed within a round, so this is rows_per_s times a
        # constant of the workload; it is printed here, not gated.
        print(f"perfbench: {args.workload} seed {args.seed}: {res['rounds']} rounds in "
              f"{res['timed_s']:.2f} s, median round {res['round_s']:.3f} s, "
              f"{res['slots_per_round'] / res['round_s']:.4g} simulated slots/s, set-up "
              f"samples {[round(s, 3) for s in samples]}, largest cross-engine |z| "
              f"{res['worst_z']:.2f}", file=sys.stderr)
        print(f"perfbench: environment {json.dumps(res['environment'])}", file=sys.stderr)
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
