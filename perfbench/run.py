#!/usr/bin/env python3
"""Whole-run benchmark of the SHARQFEC reproduction.

    python3 perfbench/run.py --workload fig10_sharqfec --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` it repeats the workload, one fresh process per iteration,
for as many iterations as fill ``--seconds`` on the reference machine
(``Workload.iterations``), checks every iteration's outputs, and reports
the end-to-end metrics over the iterations: host metrics as medians (times
scaled for machine-speed drift, see ``workloads.SpeedProbe``), simulated
outcomes pooled.  With ``--trace 1`` it makes one traced run and reports
the per-layer metrics.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, metrics and the layer map are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch and result files, inside the checkout.
OUT = os.path.join(ROOT, ".perfbench_out")
#: Hard limit on one invocation; iterations never start past it.
BUDGET_S = 170.0
#: Least time one iteration may take before it is stopped and counted failed.
ITERATION_TIMEOUT_S = 60.0
#: ``workloads.SpeedProbe``'s loop time on the machine the bounds were set on.
SPEED_REF_S = 0.0015

WORKLOAD_NAMES = ("fig10_sharqfec", "fig10_srm", "national_packet", "national_hybrid")

#: End-to-end metrics: unit per name, in report order.
END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completion": "ratio",
    "nacks_per_rx": "count",
    "recovery_p99_ms": "ms",
}


def machine_record() -> Dict[str, object]:
    mem_mb = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        revision = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        revision = None
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": mem_mb,
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "git_revision": revision,
    }


# ------------------------------------------------------------------ child side


def child_main(job: Dict[str, object]) -> int:
    """Run one job in this (fresh) process; the last stdout line is JSON."""
    sys.path.insert(0, SRC)
    import workloads

    w = workloads.workloads(job["size"])[job["workload"]]
    probe_dir = os.path.join(OUT, f"probe-{os.getpid()}")
    result: Dict[str, object]
    try:
        if job["mode"] == "trace":
            import traced

            result = traced.trace_workload(w, job["seed"], probe_dir)
        else:
            out = workloads.measure(w, job["seed"], probe_dir, job.get("sabotage"))
            result = {k: v for k, v in out.items() if k not in ("world", "merged")}
    except workloads.CheckFailed as exc:
        result = {"failure": str(exc)}
    except Exception as exc:  # any crash is one failed iteration, with its reason
        traceback.print_exc()
        result = {"failure": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


def run_child(job: Dict[str, object], timeout: float) -> Dict[str, object]:
    """One job in a fresh interpreter, its process group killed on timeout."""
    cmd = [sys.executable, os.path.abspath(__file__), "--job", json.dumps(job)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"failure": f"timed out after {timeout:.0f} s"}
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays such as orphaned workers
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        if proc.returncode < 0:
            reason = f"killed by {signal.Signals(-proc.returncode).name}"
        else:
            reason = f"exit code {proc.returncode}"
        return {"failure": f"iteration process {reason}: {tail}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"failure": f"unreadable iteration output: {lines[-1][:200]}"}


# ----------------------------------------------------------------- parent side


def measure_runs(args) -> Dict[str, object]:
    import workloads

    start = time.perf_counter()
    w = workloads.workloads(args.size)[args.workload]
    iterations: List[Dict[str, object]] = []
    longest = 0.0
    for _ in range(w.iterations(args.seconds)):
        elapsed = time.perf_counter() - start
        # Only a machine far slower than the reference one gets here.
        if iterations and elapsed + 1.5 * longest > BUDGET_S:
            print(f"stopped after {len(iterations)} iterations: time limit")
            break
        seed = workloads.derive_seed(args.seed, len(iterations))
        job = {"workload": args.workload, "seed": seed, "size": args.size,
               "mode": "measure", "sabotage": args.sabotage}
        t0 = time.perf_counter()
        # An iteration far slower than the run is a failure (for example a
        # NACK storm), not a measurement; it must not eat the whole budget.
        result = run_child(job, min(BUDGET_S - elapsed, max(ITERATION_TIMEOUT_S, 3 * args.seconds)))
        longest = max(longest, time.perf_counter() - t0)
        result["seed"] = seed
        iterations.append(result)
        line = f"iteration {len(iterations) - 1} seed={seed}"
        if "run_s" in result:
            d = result["digest"]
            line += (
                f" setup_s={result['setup_s']:.4f} run_s={result['run_s']:.4f}"
                f" probe_ms={result['probe_s'] * 1e3:.4f}"
                f" peak_rss_mb={result['peak_rss_mb']:.1f} events={d['events']}"
                f" digest={d['sha']} recv={d['recv']} drops={d['drops']}"
            )
        if result.get("failure"):
            line += f" FAILED: {result['failure']}"
        print(line)
    # Every iteration that ran to the end is measured, also one whose
    # checks failed; one that produced nothing counts 0 in ``completion``.
    measured = [r for r in iterations if "run_s" in r]
    pooled = workloads.outcome_metrics([r["tally"] for r in measured]) if measured else {}
    # Host times read as seconds on a machine where the probe takes
    # SPEED_REF_S: each iteration is scaled by its own probe time (a run
    # too short for one probe sample stays unscaled).
    host, unscaled = {}, {}
    for name in ("run_s", "setup_s"):
        unscaled[name] = statistics.median(r[name] for r in measured) if measured else 0.0
        scaled = [r[name] * SPEED_REF_S / r["probe_s"] if r["probe_s"] else r[name] for r in measured]
        host[name] = statistics.median(scaled) if measured else 0.0
    if measured:
        probe_ms = statistics.median(r["probe_s"] for r in measured) * 1e3
        print(f"speed probe {probe_ms:.4f} ms (reference {SPEED_REF_S * 1e3:.4f} ms); "
              f"unscaled run_s={unscaled['run_s']:.4f} setup_s={unscaled['setup_s']:.4f}")
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        if name == "completion":
            value = statistics.fmean(r.get("completion", 0.0) for r in iterations)
        elif name in pooled:
            value = pooled[name]
        elif name in host:
            value = host[name]
        else:
            value = statistics.median(r[name] for r in measured) if measured else 0.0
        metrics[name] = {"value": value, "unit": unit}
    for r in iterations:
        r.pop("tally", None)
    return {"iterations": iterations, "metrics": metrics,
            "attempted": len(iterations),
            "failed": sum(1 for r in iterations if r.get("failure")),
            "wrong": any(r.get("wrong") for r in iterations)}


def trace_run(args) -> Dict[str, object]:
    import traced

    job = {"workload": args.workload, "seed": args.seed, "size": args.size, "mode": "trace"}
    result = run_child(job, BUDGET_S)
    failed = bool(result.get("failure"))
    if failed:
        print(f"traced run FAILED: {result['failure']}")
    values = result.get("metrics", {})
    metrics = {
        name: {"value": values.get(name, 0.0), "unit": unit}
        for name, unit in traced.PER_LAYER_UNITS.items()
    }
    if values:
        print("span self time (s) and dispatch-loop profile share by layer:")
        shares = result["dispatch_shares"]
        for layer, seconds in sorted(result["span_self_s"].items()):
            print(f"  {layer:<9} span_self_s={seconds:.4f}")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<9} dispatch_share={share:.4f}")
        total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        print(
            f"  sum(self_s)={total:.4f} + unattributed_s={values['unattributed_s']:.4f} "
            f"= {total + values['unattributed_s']:.4f}; traced run_s={values['trace.run_s']:.4f}"
        )
    return {"trace": result, "metrics": metrics, "attempted": 1, "failed": int(failed),
            "wrong": bool(result.get("wrong"))}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (self-test)")
    parser.add_argument("--sabotage", choices=("completion", "worker"),
                        help="break every iteration on purpose (self-test)")
    parser.add_argument("--job", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.job:
        return child_main(json.loads(args.job))
    if args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, SRC)

    machine = machine_record()
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} size={args.size}")
    outcome = trace_run(args) if args.trace else measure_runs(args)
    attempted, failed = outcome["attempted"], outcome["failed"]
    for name, metric in outcome["metrics"].items():
        print(
            f"  {name:<28} {metric['value']:>14.6f} {metric['unit']:<6} "
            f"runs={attempted} failed_share={failed / attempted:.3f}"
        )
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}-{args.size}.json")
    with open(record, "w") as fh:
        json.dump({"machine": machine, "args": vars(args), **outcome}, fh, indent=1, default=str)
    # A failed iteration (crash, timeout, delivery short at the drain's end)
    # counts in ``failed``; only a wrong output makes the run incorrect.
    print(json.dumps({
        "correct": not outcome["wrong"],
        "attempted": attempted,
        "failed": failed,
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
