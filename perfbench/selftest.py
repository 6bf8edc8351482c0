#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints every metric that
``BENCHMARK.json`` names, with its unit, in the result line; that
deliberately broken runs are counted as failed rather than aborting; that
two runs with the same seed make the same iterations; that the
benchmark's own Figure 10 set-up simulates exactly what ``run_traffic``
does; and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

failures = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                "--trace", str(trace), "--size", "tiny")
            result = result_of(lines)
            label = f"{workload} trace={trace}"
            check(proc.returncode == 0 and result is not None, f"{label}: exits 0 with a result line")
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct, nothing failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted, f"{label}: every metric with its unit")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  f"{label}: numeric values")
            table = "\n".join(lines[:-1])
            check(all(f" {name} " in table and unit in table for name, unit in wanted.items()),
                  f"{label}: table prints every metric")
            if trace:
                values = {name: m["value"] for name, m in result["metrics"].items()}
                total = sum(v for n, v in values.items() if n.endswith(".self_s")) + values["unattributed_s"]
                check(abs(total - values["trace.run_s"]) < 1e-6,
                      f"{label}: self times + unattributed_s == traced run_s")

    runs = [bench("--workload", "fig10_sharqfec", "--seed", "9", "--seconds", "1", "--size", "tiny")
            for _ in range(2)]
    digests = [[line.split(" setup_s=")[0] + line.split(" digest=")[1].split()[0]
                for line in lines if line.startswith("iteration ")] for _, lines in runs]
    results = [result_of(lines) for _, lines in runs]
    check(None not in results and len(digests[0]) >= 2 and digests[0] == digests[1]
          and results[0]["attempted"] == results[1]["attempted"]
          and results[0]["failed"] == results[1]["failed"],
          "same --seed: same iterations, digests, attempted and failed")

    proc, lines = bench("--workload", "fig10_sharqfec", "--seconds", "1", "--size", "tiny",
                        "--sabotage", "completion")
    result = result_of(lines)
    check(proc.returncode == 0 and result is not None
          and result["failed"] == result["attempted"] >= 1
          and result["metrics"]["completion"]["value"] < 1.0,
          "cut-off repair tail: every run counted failed, completion below 1")
    proc, lines = bench("--workload", "national_packet", "--seconds", "1", "--size", "tiny",
                        "--sabotage", "worker")
    result = result_of(lines)
    check(proc.returncode == 0 and result is not None and result["failed"] == result["attempted"] >= 1
          and result["metrics"]["completion"]["value"] == 0.0 and "EOFError" in proc.stdout,
          "killed shard worker: counted failed with its EOFError, completion 0")

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from repro.experiments.common import run_traffic
    import workloads

    missed = workloads.verdict(0.99, ["receiver 7 incomplete"], [None])
    duplicated = workloads.verdict(1.0, [None], ["duplicate DATA delivery"])
    check(missed["failure"] and not missed["wrong"] and duplicated["failure"] and duplicated["wrong"],
          "a short delivery fails the run; only a wrong output makes it incorrect")

    for name in ("fig10_sharqfec", "fig10_srm"):
        w = workloads.workloads("tiny")[name]
        mine = workloads.measure_fig10(w, 5)
        theirs = run_traffic(w.protocol, n_packets=w.n_packets, seed=5)
        check((mine["events"], mine["completion"], mine["nacks"])
              == (theirs.events, theirs.completion, theirs.nacks_sent),
              f"{name}: benchmark set-up simulates what run_traffic does")

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig10_sharqfec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the sources: non-zero exit, no result line")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
