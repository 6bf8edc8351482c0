"""Wall-clock perf harness driver.

Measure mode (the default) runs the frozen benchmark kernels from
:mod:`suite` against the current tree and writes ``BENCH_PR3.json`` at the
repo root.  With ``--baseline-src PATH`` it *interleaves* baseline and
current rounds in separate subprocesses (alternating sides per round), so
machine-load drift hits both sides equally and the recorded speedups are
apples-to-apples.

Check mode (``--check``) reruns the kernels and compares the fresh numbers
against the committed ``BENCH_PR3.json``: the run fails if any headline
throughput falls below ``(1 - threshold)`` of the recorded value, or if a
kernel's seeded exact count (events fired, packets delivered) differs from
the recorded one.  The throughput threshold is deliberately generous — CI
machines are noisy and this gate exists to catch order-of-magnitude
regressions (an accidentally re-enabled slow path), not 5% drift.  The
counts do not depend on the machine, so they must match exactly: a change
there means the kernels simulate, or count events, differently.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py            # measure
    PYTHONPATH=src python benchmarks/perf/run_perf.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_PR3.json")

#: (bench, metric) pairs the --check gate enforces, higher is better.
HEADLINE_METRICS = (
    ("event_core", "events_per_sec"),
    ("forwarding", "packets_per_sec"),
    ("observer", "packets_per_sec_off"),
    ("codec", "encode_mb_per_sec"),
)
#: fig11 is gated on wall time, lower is better.
FIG11_METRIC = ("fig11", "wall_s")
#: (bench, metric) seeded counts the --check gate requires to be equal.
EXACT_COUNTS = (
    ("event_core", "events_fired"),
    ("forwarding", "events_fired"),
    ("forwarding", "packets_delivered"),
)


def _run_suite_subprocess(src_path: str, repeats: int) -> Dict[str, Dict[str, float]]:
    """Run the suite in a fresh interpreter against ``src_path``."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "from suite import run_suite\n"
        f"print(json.dumps(run_suite(repeats={repeats})))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = src_path
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _merge_best(rounds: list) -> Dict[str, Dict[str, float]]:
    """Across measurement rounds keep, per bench, the fastest round's dict.

    "Fastest" means lowest wall_s where present; codec (no wall_s) keeps
    the round with the highest encode throughput.
    """
    merged: Dict[str, Dict[str, float]] = {}
    for result in rounds:
        for bench, metrics in result.items():
            best = merged.get(bench)
            if best is None:
                merged[bench] = metrics
            elif "wall_s" in metrics:
                if metrics["wall_s"] < best["wall_s"]:
                    merged[bench] = metrics
            elif metrics.get("encode_mb_per_sec", 0) > best.get("encode_mb_per_sec", 0):
                merged[bench] = metrics
    return merged


def measure(out_path: str, baseline_src: Optional[str], rounds: int, repeats: int) -> Dict:
    current_rounds = []
    baseline_rounds = []
    for i in range(rounds):
        if baseline_src:
            baseline_rounds.append(_run_suite_subprocess(baseline_src, repeats))
        current_rounds.append(
            _run_suite_subprocess(os.path.join(REPO_ROOT, "src"), repeats)
        )
        print(f"round {i + 1}/{rounds} done", file=sys.stderr)
    report: Dict = {"current": _merge_best(current_rounds)}
    if baseline_rounds:
        report["baseline"] = _merge_best(baseline_rounds)
        speedup = {}
        for bench, metric in HEADLINE_METRICS:
            base = report["baseline"][bench][metric]
            cur = report["current"][bench][metric]
            speedup[f"{bench}.{metric}"] = round(cur / base, 3)
        bench, metric = FIG11_METRIC
        speedup["fig11.runtime"] = round(
            report["baseline"][bench][metric] / report["current"][bench][metric], 3
        )
        report["speedup"] = speedup
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report.get("speedup", report["current"]), indent=2))
    return report


def check(out_path: str, threshold: float, repeats: int) -> int:
    with open(out_path) as fh:
        committed = json.load(fh)["current"]
    fresh = _run_suite_subprocess(os.path.join(REPO_ROOT, "src"), repeats)
    failures = []
    for bench, metric in HEADLINE_METRICS:
        if bench not in committed:
            print(f"{bench}.{metric}: no committed baseline, skipping")
            continue
        recorded = committed[bench][metric]
        measured = fresh[bench][metric]
        floor = recorded * (1.0 - threshold)
        status = "ok" if measured >= floor else "REGRESSION"
        print(f"{bench}.{metric}: recorded={recorded:.1f} measured={measured:.1f} "
              f"floor={floor:.1f} [{status}]")
        if measured < floor:
            failures.append(f"{bench}.{metric}")
    bench, metric = FIG11_METRIC
    recorded = committed[bench][metric]
    measured = fresh[bench][metric]
    ceiling = recorded * (1.0 + threshold)
    status = "ok" if measured <= ceiling else "REGRESSION"
    print(f"{bench}.{metric}: recorded={recorded:.3f} measured={measured:.3f} "
          f"ceiling={ceiling:.3f} [{status}]")
    if measured > ceiling:
        failures.append(f"{bench}.{metric}")
    for bench, metric in EXACT_COUNTS:
        recorded = committed[bench][metric]
        measured = fresh[bench][metric]
        status = "ok" if measured == recorded else "MISMATCH"
        print(f"{bench}.{metric}: recorded={recorded:.0f} measured={measured:.0f} [{status}]")
        if measured != recorded:
            failures.append(f"{bench}.{metric}")
    if failures:
        print(f"perf regression in: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("perf smoke: all headline metrics within threshold, all counts exact")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=DEFAULT_OUT, help="report path")
    parser.add_argument(
        "--baseline-src",
        default=None,
        help="path to a pre-optimization src tree to measure alongside",
    )
    parser.add_argument("--rounds", type=int, default=3, help="measurement rounds")
    parser.add_argument("--repeats", type=int, default=3, help="repeats per kernel")
    parser.add_argument("--check", action="store_true", help="regression-gate mode")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="allowed fractional degradation in check mode (default 0.5)",
    )
    args = parser.parse_args()
    if args.check:
        return check(args.out, args.threshold, args.repeats)
    measure(args.out, args.baseline_src, args.rounds, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
