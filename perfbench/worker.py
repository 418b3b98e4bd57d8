"""One fresh benchmark process: set-up, timed rounds through the CLI, checks.

    python3 perfbench/worker.py MODE --workload NAME --seed N --seconds S

MODE is `setup` (import plus warm-up, then exit), `run` (set-up, timed
rounds, output checks) or `trace` (the per-layer run in `layers.py`).  The
last stdout line is a JSON object for `run.py`.  `twarq` must be importable
(run.py puts the checkout's `src` on PYTHONPATH).  Nothing that loads numpy
or scipy is imported before set-up starts its clock, so set-up pays for them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def cli_call(main, call) -> tuple[int, str, str]:
    """Run one `twarq` command in this process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(call.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def setup(workload) -> tuple[object, float, list[str]]:
    """Import twarq (numpy and scipy with it) and run the warm-up calls.

    Returns (cli.main, seconds, problems).
    """
    start = time.perf_counter()
    from twarq.cli import main

    problems = []
    for call in workload.warmup:
        code, _, err = cli_call(main, call)
        if code != 0:
            problems.append(f"warm-up {' '.join(call.argv)} exited {code}: {err.strip()}")
    return main, time.perf_counter() - start, problems


def check_outputs(workload, results) -> tuple[dict, list[str], float]:
    """Count operations and check every successful call's CSV."""
    import checks

    tally = {"attempted": 0, "failed": 0, "rows": 0, "slots": 0}
    problems: list[str] = []
    worst_z = 0.0
    for call, code, out, err in results:
        tally["attempted"] += call.rows
        if code != 0:
            tally["failed"] += call.rows
            continue
        rows, shape = checks.parse(call, out)
        values, z = checks.check_rows(call, rows)
        problems += shape + values
        worst_z = max(worst_z, z)
        problems += checks.check_iid(rows)
        tally["rows"] += len(rows)
        if call.engines != "analytic":
            tally["slots"] += len(rows) * call.n_slots
    return tally, problems, worst_z


def link_outages(ratio_db: float, pss: float | None = None,
                 fs_db: float | None = None) -> tuple[float, float]:
    """(pss, psr) of a point given by its direct outage or its direct margin
    in dB, with the relay links `ratio_db` above it, as the CLI derives them."""
    from twarq.channel import db_to_linear, fading_margin_from_outage, linear_to_db
    from twarq.channel import outage_probability

    if fs_db is None:
        fs_db = linear_to_db(fading_margin_from_outage(pss))
    else:
        pss = outage_probability(db_to_linear(fs_db))
    return pss, outage_probability(db_to_linear(fs_db) * db_to_linear(ratio_db))


def check_replay(workload) -> list[str]:
    """Benchmark-owned replay against `twarq.run` over a prefix of each long run."""
    import checks
    from twarq import JointChannelModel, SimConfig, Strategy, run
    from twarq.simulate import CsiMode

    problems = []
    for point in workload.replay:
        model = JointChannelModel.symmetric(*link_outages(point.ratio_db, pss=point.pss),
                                            point.rho)
        path = checks.joint_path((model.s1r, model.s2r, model.s1s2), point.seed,
                                 checks.REPLAY_SLOTS)
        want = checks.replay_rounds(point.strategy, point.csi, path)
        stats = run(SimConfig(Strategy(point.strategy), model, checks.REPLAY_SLOTS,
                              point.seed, csi_mode=CsiMode(point.csi)))
        if stats.rounds_completed != want:
            problems.append(
                f"replay {point.strategy}/{point.csi} seed {point.seed}: twarq.run completed "
                f"{stats.rounds_completed} rounds in {checks.REPLAY_SLOTS} slots, replay {want}"
            )
    return problems


def environment() -> dict:
    """What the figures depend on besides the code: numba, cores, BLAS, versions."""
    import importlib.util
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numba": importlib.util.find_spec("numba") is not None,
        "cores": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def timed(workload, seconds: float) -> dict:
    """Set up, then repeat whole rounds for about `seconds`.

    A further round starts only while half a round (at the mean round time so
    far) still fits, so the timed part ends within half a round of `seconds`
    either way.  The reported round time is the sum over the round's calls of
    each call's median duration, so one slow call (another tenant, a GIL
    convoy) does not move the figure.
    """
    main, setup_s, problems = setup(workload)
    results = []
    durations = [[] for _ in workload.round]
    start = time.perf_counter()
    rounds = 0
    elapsed = 0.0
    while rounds == 0 or elapsed + 0.5 * elapsed / rounds < seconds:
        for call, spent in zip(workload.round, durations):
            t0 = time.perf_counter()
            results.append((call, *cli_call(main, call)))
            spent.append(time.perf_counter() - t0)
        rounds += 1
        elapsed = time.perf_counter() - start
    tally, found, worst_z = check_outputs(workload, results)
    problems += found + check_replay(workload)
    return {
        "setup_s": setup_s,
        "timed_s": elapsed,
        "rounds": rounds,
        "round_s": sum(statistics.median(d) for d in durations),
        "rows_per_round": tally["rows"] / rounds,
        "slots_per_round": tally["slots"] / rounds,
        "worst_z": worst_z,
        "environment": environment(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "problems": problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args()
    workload = workloads.build(args.workload, args.seed)
    if args.mode == "setup":
        _, setup_s, problems = setup(workload)
        result = {"setup_s": setup_s, "problems": problems}
    elif args.mode == "run":
        result = timed(workload, args.seconds)
    else:
        import layers

        result = layers.traced(workload, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
