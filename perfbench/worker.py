"""One workload in one fresh process: set-up, closed loop, oracle checks.

``run.py`` starts this script; it is not meant to be run by hand.  With
``--mode setup`` it stops once the first op is ready and reports only the
set-up time.  With ``--mode run`` it runs passes of the workload's ops in a
closed loop (one caller, the next op only after the previous one returned)
until ``--seconds`` have elapsed or ``--max-passes`` passes are done.  With
``--mode trace`` it first installs the per-layer wrappers and then runs one
pass.  Every op is bracketed by host-speed calibrations (see
``calibrate.py``); the raw timings and the calibrations are written as JSON
to ``--out``, one record per op to ``--ops-out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

from calibrate import Sampler, calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Calibrations right after set-up; the parent's bracket it from before.
SETUP_CALIBRATIONS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--max-passes", type=int, default=None)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in the parent just before it started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--ops-out", default=None)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def verdict(op, raw, error):
    """(ok, points, output, note) for one op, judged by its oracle."""
    if error is not None:
        return False, 0, None, error
    try:
        out = op.collect(raw)
        if out is None:
            return False, 0, None, f"unexpected result {raw!r}"
        if not op.judge(out):
            return False, op.points(out), out, "oracle rejected the output"
        return True, op.points(out), out, None
    except Exception as exc:  # an unreadable output is a failed op, not a crash
        return False, 0, None, f"oracle error {type(exc).__name__}: {exc}"


def self_check(op, out) -> bool | None:
    """Drop one point from a good output; True when the oracle then rejects it."""
    corrupted = op.drop(out) if op.drop is not None else None
    if corrupted is None:
        return None
    try:
        return not op.judge(corrupted)
    except Exception:
        return True


def main(argv=None) -> int:
    args = parse_args(argv)
    with Sampler() as setup_clock:
        workload, tracer, eps_start = set_up(args)
    setup_s = time.monotonic() - args.spawned - setup_clock.spent
    after = [calibration() for _ in range(SETUP_CALIBRATIONS)]
    setup_cal = setup_clock.samples + [statistics.median(after)]
    from cutproject import scalars

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": setup_s,
        "setup_cal_s": setup_cal,
        "env": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "cutproject_threads_unset": "CUTPROJECT_THREADS" not in os.environ,
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        },
    }
    if args.mode != "setup":
        result.update(run_passes(workload, args))
    result["env"]["float_eps_start"] = eps_start
    result["env"]["float_eps_end"] = scalars.FLOAT_EPS
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.report()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def set_up(args):
    """Import the package and build the workload: everything before the first op."""
    sys.path.insert(0, SRC)
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.install()
    import cutproject
    from cutproject import scalars

    if not os.path.abspath(cutproject.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"cutproject imported from {cutproject.__file__}, not from {SRC}")
    eps_start = scalars.FLOAT_EPS
    import workloads

    return workloads.WORKLOADS[args.workload](args.seed, args.workdir), tracer, eps_start


def run_passes(workload, args):
    max_passes = 1 if args.mode == "trace" else args.max_passes
    ops_log = open(args.ops_out, "w") if args.ops_out else None
    ops_out = []
    failures = []
    selfcheck = None
    started = time.perf_counter()
    try:
        index = 0
        while True:
            ops = workload.ops(index)
            timed = []
            cal = calibration()
            for op in ops:
                with Sampler() as clock:
                    try:
                        raw, error = op.call(), None
                    except Exception as exc:  # a raising op is a failed op
                        raw, error = None, f"{type(exc).__name__}: {exc}"
                cal_after = calibration()
                timed.append((raw, error, clock.elapsed, [cal] + clock.samples + [cal_after]))
                cal = cal_after
            for op, (raw, error, latency, cals) in zip(ops, timed):
                ok, n_points, out, note = verdict(op, raw, error)
                record = {
                    "pass": index,
                    "kind": op.kind,
                    "params": op.params,
                    "latency_s": latency,
                    "cal_s": cals,
                    "points": n_points,
                    "exit": raw if isinstance(raw, int) else (None if error else 0),
                    "ok": ok,
                }
                if not ok:
                    record["note"] = note
                    failures.append(record)
                elif selfcheck is None:
                    caught = self_check(op, out)
                    if caught is not None:
                        selfcheck = {"kind": op.kind, "pass": index, "caught": caught}
                ops_out.append({k: record[k] for k in ("pass", "latency_s", "cal_s", "points")})
                if ops_log is not None:
                    ops_log.write(json.dumps(record) + "\n")
            index += 1
            if max_passes is not None and index >= max_passes:
                break
            if (
                max_passes is None
                and index >= workload.min_passes
                and time.perf_counter() - started >= args.seconds
            ):
                break
    finally:
        if ops_log is not None:
            ops_log.close()
    return {"ops": ops_out, "failures": failures, "selfcheck": selfcheck}


if __name__ == "__main__":
    sys.exit(main())
