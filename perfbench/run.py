"""cutproject benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload generate-large --seed 1 --seconds 15 --trace 0

Workloads: generate-large, probe-small, certify, verify-suites (see
perfbench/README.md for what each one loads and why it was chosen).

With ``--trace 0`` the workload runs untraced in fresh processes and the
end-to-end metrics are reported, every timing scaled to a reference host
speed (see calibrate.py).  With ``--trace 1`` one untraced pass and
one traced pass run, each in its own fresh process, and the per-layer
metrics of the traced pass are reported with the tracing overhead (traced
minus untraced pass wall time).

Human-readable lines, each starting with "#", come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Every op record and the full result are also written under
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("generate-large", "probe-small", "certify", "verify-suites")

# Fresh processes whose set-up time is sampled per run; setup_s is the median.
SETUP_SAMPLES = 3
# A worker still running this many seconds after the start is killed, so a
# run always ends within three minutes.
RUN_BUDGET_S = 170
# Timings are reported at the speed where one calibration takes this long:
# the quiet speed of the 2-core x86-64 host the benchmark was tuned on.
REFERENCE_KERNEL_S = 1.0e-3
# Calibrations in the parent just before each worker starts.
SETUP_CALIBRATIONS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # the enumerator's thread pool is not part of any workload
    env.pop("CUTPROJECT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(args, mode, workdir, deadline, *, max_passes=None, ops_out=None) -> dict:
    """Run worker.py in a fresh process and return its result.

    The calibrations taken just before the start bracket the worker's
    set-up together with the ones it takes right after.
    """
    out = os.path.join(workdir, f"result-{mode}-{time.monotonic_ns()}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--workdir", workdir, "--out", out,
    ]
    if max_passes is not None:
        cmd += ["--max-passes", str(max_passes)]
    if ops_out is not None:
        cmd += ["--ops-out", ops_out]
    spawn_cal = [calibration() for _ in range(SETUP_CALIBRATIONS)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time budget exhausted before the worker started")
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned", repr(spawned)],
        env=worker_env(),
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr.fileno(),
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    with open(out) as fh:
        result = json.load(fh)
    result["spawn_cal_s"] = spawn_cal
    return result


def at_reference(seconds: float, cals) -> float:
    """``seconds`` measured while one calibration took mean(``cals``),
    scaled to the reference host speed (see calibrate.py)."""
    return seconds * REFERENCE_KERNEL_S / statistics.fmean(cals)


def setup_time(r) -> float:
    return at_reference(r["setup_s"], [statistics.median(r["spawn_cal_s"])] + r["setup_cal_s"])


def op_time(op) -> float:
    return at_reference(op["latency_s"], op["cal_s"])


def pass_walls(r) -> list[float]:
    walls = {}
    for op in r["ops"]:
        walls[op["pass"]] = walls.get(op["pass"], 0.0) + op_time(op)
    return [walls[k] for k in sorted(walls)]


def tail(latencies_ms):
    """(percentile, value) of the highest percentile with at least ten samples
    beyond it, or None when that percentile would not be above the median."""
    n = len(latencies_ms)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if pct <= 50:
        return None
    return pct, sorted(latencies_ms)[n - 11]


def end_to_end(args, workdir, deadline):
    results = [spawn(args, "setup", workdir, deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(args, "run", workdir, deadline, ops_out=os.path.join(OUT_DIR, f"{args.workload}.ops.jsonl"))
    results.append(run)
    setups = [setup_time(r) for r in results]
    latencies_ms = [op_time(op) * 1e3 for op in run["ops"]]
    walls = pass_walls(run)
    attempted = len(latencies_ms)
    failed = len(run["failures"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(latencies_ms),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw_setup = statistics.median(r["setup_s"] for r in results)
    slowdown = statistics.median(statistics.fmean(op["cal_s"]) for op in run["ops"]) / REFERENCE_KERNEL_S
    lines = [
        f"host speed: calibration {slowdown:.3f}x the reference during the ops; "
        "timings below are at reference speed",
        f"setup_s      {values['setup_s']:.4f} s    median of {len(setups)} fresh processes (raw {raw_setup:.4f} s)",
        f"wall_s       {values['wall_s']:.4f} s    median of {len(walls)} passes",
        f"op_p50_ms    {values['op_p50_ms']:.3f} ms   n={attempted}",
    ]
    t = tail(latencies_ms)
    if t is None:
        lines.append(f"op_tail_ms   omitted    n={attempted}: a tail above p50 needs more than 20 ops")
    else:
        lines.append(f"op_tail_ms   {t[1]:.3f} ms   p{t[0]}, n={attempted}")
    total_points = sum(op["points"] for op in run["ops"])
    if total_points:
        rate = total_points / (sum(latencies_ms) / 1e3)
        lines.append(f"points_per_s {rate:.1f} 1/s  {total_points} points over n={attempted} ops")
    else:
        lines.append("points_per_s omitted    the ops of this workload deliver no patch points")
    lines += [
        f"fail_ratio   {failed / attempted:.4f}     {failed}/{attempted} ops failed",
        f"ok_ratio     {values['ok_ratio']:.4f}     n={attempted}",
        f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB   peak of the workload process",
    ]
    return run, attempted, failed, values, END_TO_END_UNITS, lines


def per_layer(args, workdir, deadline):
    plain = spawn(args, "run", workdir, deadline, max_passes=1)
    traced = spawn(args, "trace", workdir, deadline,
                   ops_out=os.path.join(OUT_DIR, f"{args.workload}.trace.ops.jsonl"))
    layers = dict(traced["layers"])
    spans = layers.pop("spans")
    plain_wall = pass_walls(plain)[0]
    traced_wall = pass_walls(traced)[0]
    layers["trace.overhead_s"] = traced_wall - plain_wall
    units = {
        name: "s" if name.endswith("_s") else "ratio" if name.endswith(("_ratio", "_share")) else "count"
        for name in layers
    }
    attempted = len(plain["ops"]) + len(traced["ops"])
    failed = len(plain["failures"]) + len(traced["failures"])
    lines = [
        f"untraced pass {plain_wall:.4f} s, traced pass {traced_wall:.4f} s at reference speed, "
        f"overhead {layers['trace.overhead_s']:.4f} s; {spans} spans kept",
        "layer totals cover the traced process (set-up and one pass), in raw seconds",
    ]
    lines += [f"{name:48s} {value:.6g} {units[name]}" for name, value in sorted(layers.items())]
    traced["selfcheck"] = traced["selfcheck"] or plain["selfcheck"]
    traced["failures"] = plain["failures"] + traced["failures"]
    return traced, attempted, failed, layers, units, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(ROOT, "src", "cutproject", "__init__.py")):
        print(f"no cutproject sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        measure = per_layer if args.trace else end_to_end
        run, attempted, failed, values, units, lines = measure(args, workdir, deadline)
    except (WorkerError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    selfcheck = run["selfcheck"]
    env = run["env"]
    header = [
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{attempted} ops, {failed} failed",
        f"env: python {env['python']}, nproc {env['nproc']}, commit {env['commit']}, "
        f"CUTPROJECT_THREADS {'unset' if env['cutproject_threads_unset'] else 'SET'}, "
        f"FLOAT_EPS {env['float_eps_start']!r} -> {env['float_eps_end']!r}",
        "self-check: "
        + (
            f"a dropped point in a {selfcheck['kind']} output was "
            + ("caught" if selfcheck["caught"] else "NOT caught")
            if selfcheck
            else "no op output had a point to drop"
        ),
    ]
    if "CUTPROJECT_THREADS" in os.environ:
        header.append("CUTPROJECT_THREADS is set in the caller's environment; removed for the workers")
    for record in run["failures"]:
        header.append(f"failed op: {record['kind']} {json.dumps(record['params'])}: {record['note']}")
    for line in header + lines:
        print(f"# {line}")
    with open(os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
        json.dump({"env": env, "selfcheck": selfcheck, "failures": run["failures"],
                   "metrics": values}, fh, indent=1)
    correct = (
        failed == 0
        and bool(selfcheck and selfcheck["caught"])
        and env["cutproject_threads_unset"]
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
