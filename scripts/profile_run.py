#!/usr/bin/env python
"""cProfile driver for the benchmark workloads.

Profiles one of the frozen perf-suite kernels and prints the top hotspots,
sorted by internal time.  Use this to find the next optimization target or
to confirm that a change moved the function it was meant to move:

    PYTHONPATH=src python scripts/profile_run.py traffic --top 25
    PYTHONPATH=src python scripts/profile_run.py srm --top 25
    PYTHONPATH=src python scripts/profile_run.py fig11 --sort cumulative

The profiler itself adds roughly 3-4x overhead to small hot functions, so
treat per-call numbers as relative weights — wall-clock truth comes from
``benchmarks/perf/run_perf.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys

PERF_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "perf")


def _run_traffic(protocol: str = "SHARQFEC") -> None:
    from repro.experiments.traffic_sim import clear_cache, run_traffic

    clear_cache()
    run_traffic(protocol, n_packets=128, seed=1)


def _run_srm() -> None:
    _run_traffic("SRM")


def _run_fig11() -> None:
    from repro.experiments.session_sim import run_rtt_experiment

    run_rtt_experiment(role="head", seed=1)


def _run_churn() -> None:
    import suite

    suite.run_timer_churn()


def _run_flood() -> None:
    import suite

    suite.run_flood()


def _run_national(fidelity: str = "packet") -> None:
    from repro.engine import run_reference
    from repro.experiments.national_scale import national_spec

    # A mid-sized national shape: big enough that fidelity matters,
    # small enough to profile in seconds at packet fidelity.
    run_reference(
        national_spec(
            regions=2,
            cities_per_region=3,
            suburbs_per_city=4,
            subscribers_per_suburb=20,
            n_packets=16,
            seed=1,
            fidelity=fidelity,
        )
    )


TARGETS = {
    "traffic": (_run_traffic, "full SHARQFEC run, 128 packets, paper topology"),
    "srm": (_run_srm, "full SRM run (full-mesh sessions), 128 packets, paper topology"),
    "fig11": (_run_fig11, "figure 11 session/RTT experiment"),
    "churn": (_run_churn, "timer-churn event-core workload"),
    "flood": (_run_flood, "forwarding-only multicast flood"),
    "national": (_run_national, "mid-size national run (honors --fidelity)"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "target",
        choices=sorted(TARGETS),
        help="; ".join(f"{name}: {desc}" for name, (_, desc) in sorted(TARGETS.items())),
    )
    parser.add_argument("--top", type=int, default=30, help="rows of hotspot output (default 30)")
    parser.add_argument(
        "--sort",
        default="tottime",
        choices=["tottime", "cumulative", "ncalls"],
        help="pstats sort key (default tottime)",
    )
    parser.add_argument("--out", default=None, help="also dump raw stats to this file (for snakeviz etc.)")
    parser.add_argument(
        "--fidelity",
        choices=("packet", "hybrid"),
        default="packet",
        help="engine fidelity for the 'national' target (default packet)",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, PERF_DIR)
    base_workload, _ = TARGETS[args.target]
    if args.target == "national":
        def workload() -> None:
            base_workload(args.fidelity)
    else:
        workload = base_workload
    workload()  # warm imports and caches so the profile shows steady state

    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()

    if args.out:
        profiler.dump_stats(args.out)
        print(f"raw stats written to {args.out}")
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats(args.sort).print_stats(args.top)
    print(buf.getvalue())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
