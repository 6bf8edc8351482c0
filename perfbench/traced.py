"""The traced run of a workload: per-layer metrics and cross-shard attribution.

One traced run makes, in this order:

1. an untraced iteration through the workload's own entry (``run_sharded``
   for ``national_packet``), which also times each logical shard's compute
   in the process that runs it: the base for ``engine.*``, ``trace.overhead``
   and ``sim.events_per_s``;
2. the traced pass, with span recorders installed (for national workloads,
   ``run_reference``'s loop driven shard by shard);
3. the profile pass (``run_reference`` for national workloads), whose
   result the traced shard loop must reproduce exactly.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.engine import (
    LogicalShardRunner,
    MergedRun,
    merge_results,
    plan_for_spec,
    run_reference,
    window_ends,
)

from layers import LAYERS, SpanRecorder, attribute
from workloads import CheckFailed, Workload, measure, measure_fig10

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.events_per_s": "1/s",
    "net.deliveries": "count",
    "net.drops": "count",
    "net.self_s": "s",
    "net.us_per_delivery": "us",
    "monitor.calls": "count",
    "monitor.bulk_share": "ratio",
    "monitor.self_s": "s",
    "obs.self_s": "s",
    "session.msgs": "count",
    "session.self_s": "s",
    "receiver.nacks_sent": "count",
    "receiver.repairs_recv": "count",
    "receiver.repair_useful_ratio": "ratio",
    "receiver.repair_per_data": "ratio",
    "receiver.self_s": "s",
    "receiver.recovery_p50_ms": "ms",
    "zcr.msgs": "count",
    "zcr.self_s": "s",
    "srm.msgs": "count",
    "srm.self_s": "s",
    "hybrid.self_s": "s",
    "hybrid.packet_event_share": "ratio",
    "engine.self_s": "s",
    "engine.windows": "count",
    "engine.boundary_msgs": "count",
    "engine.shard_compute_s_max": "s",
    "engine.shard_compute_s_sum": "s",
    "engine.route_s": "s",
    "engine.merge_s": "s",
    "engine.stall_s": "s",
    "fec.calls": "count",
    "fec.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead": "ratio",
    "unattributed_s": "s",
}


def _route(outbox: list, routed: List[list]) -> None:
    for message in outbox:
        routed[message.dst_shard].append(message)


def drive_shards(spec, spans: SpanRecorder) -> Tuple[MergedRun, Dict[str, float]]:
    """``run_reference``'s window loop, driven through the public
    ``LogicalShardRunner`` methods and ``merge_results`` under ``spans``,
    timing the routing between shards and the merge."""
    plan = plan_for_spec(spec)
    runners = [LogicalShardRunner(spec, plan, shard) for shard in plan.shards]
    spans.reset()
    clock = time.perf_counter
    start = clock()
    route_s = 0.0
    pending: List[list] = [[] for _ in plan.shards]
    for end in window_ends(spec.run_end, plan.lookahead):
        routed: List[list] = [[] for _ in plan.shards]
        for runner in runners:
            runner.inject(pending[runner.shard.index])
            runner.run_until(end)
            outbox = runner.drain_outbox()
            r0 = clock()
            spans.timed("engine", "route", _route, outbox, routed)
            route_s += clock() - r0
        pending = routed
    results = [runner.finish() for runner in runners]
    m0 = clock()
    merged = spans.timed("engine", "merge_results", merge_results, spec, plan, results)
    done = clock()
    return merged, {"run_s": done - start, "route_s": route_s, "merge_s": done - m0}


def _same_run(a: MergedRun, b: MergedRun) -> bool:
    return (a.events, a.completion, a.nacks, a.drops) == (b.events, b.completion, b.nacks, b.drops)


def trace_workload(w: Workload, seed: int, probe_dir: str) -> Dict[str, object]:
    """Per-layer metrics of ``w`` plus the tables that explain them."""
    untraced = measure(w, seed, probe_dir)
    failures = [untraced["failure"]] if untraced["failure"] else []
    wrong = untraced["wrong"]
    engine = dict.fromkeys(
        ("windows", "messages", "compute_max", "compute_sum", "route_s", "merge_s", "stall_s"), 0.0
    )
    if w.topology == "figure10":
        spans = SpanRecorder().install()
        try:
            traced = measure_fig10(w, seed, recorder=spans)
        finally:
            spans.uninstall()
        profile = SpanRecorder(profile=True).install()
        try:
            measure_fig10(w, seed, recorder=profile)
        finally:
            profile.uninstall()
        traced_run_s = traced["run_s"]
        base_run_s = untraced["run_s"]
        events, nacks = traced["events"], traced["nacks"]
        if traced["digest"]["sha"] != untraced["digest"]["sha"]:
            failures.append("traced run simulated differently from the untraced run")
            wrong = True
    else:
        spec = w.spec(seed)
        spans = SpanRecorder().install()
        try:
            merged, timing = drive_shards(spec, spans)
        finally:
            spans.uninstall()
        profile = SpanRecorder(profile=True).install()
        try:
            reference = run_reference(spec)
        finally:
            profile.uninstall()
        for label, run in (("untraced engine run", untraced["merged"]), ("traced shard loop", merged)):
            if not _same_run(run, reference):
                failures.append(f"{label} differs from run_reference")
                wrong = True
        traced_run_s = timing["run_s"]
        events, nacks = merged.events, merged.nacks
        # Compute per logical shard, as the untraced run measured it in the
        # process that ran the shard; the slowest process bounds the run.
        shards = untraced["shards"]
        compute = [r["compute_s"] for r in shards]
        per_process: Dict[int, float] = {}
        for r in shards:
            per_process[r["pid"]] = per_process.get(r["pid"], 0.0) + r["compute_s"]
        base_run_s = sum(compute)
        engine.update(
            windows=max(r["windows"] for r in shards),
            messages=sum(r["messages"] for r in shards),
            compute_max=max(compute),
            compute_sum=sum(compute),
            route_s=timing["route_s"],
            merge_s=timing["merge_s"],
            stall_s=untraced["run_s"] - max(per_process.values()),
        )
    shares = profile.dispatch_shares()
    layer_s, unattributed = attribute(spans, shares, traced_run_s)
    calls = spans.calls

    def calls_of(prefix: str) -> int:
        return sum(n for key, n in calls.items() if key.startswith(prefix))

    deliveries = calls["monitor:on_receive"]
    bulk = calls["monitor:record_bulk"]
    repairs = spans.counts["receiver.repairs_recv"]
    flow_events = calls["hybrid:_on_group"] + calls["hybrid:_apply"]
    metrics = {
        "sim.events": events,
        "sim.events_per_s": events / untraced["run_s"],
        "net.deliveries": deliveries,
        "net.drops": calls["monitor:on_drop"] + spans.counts["net.bulk_drops"],
        "net.us_per_delivery": layer_s["net"] / deliveries * 1e6 if deliveries else 0.0,
        "monitor.calls": calls_of("monitor:"),
        "monitor.bulk_share": bulk / (bulk + deliveries) if bulk + deliveries else 0.0,
        "session.msgs": calls["session:handle_session"],
        "receiver.nacks_sent": nacks if w.protocol == "SHARQFEC" else 0,
        "receiver.repairs_recv": repairs,
        "receiver.repair_useful_ratio": spans.counts["receiver.repairs_useful"] / repairs if repairs else 0.0,
        "receiver.repair_per_data": untraced["repair_per_data"],
        "receiver.recovery_p50_ms": untraced["recovery_p50_ms"],
        "zcr.msgs": calls_of("zcr:handle_"),
        "srm.msgs": calls_of("srm:"),
        "hybrid.packet_event_share": 1.0 - flow_events / events if events else 0.0,
        "engine.windows": engine["windows"],
        "engine.boundary_msgs": engine["messages"],
        "engine.shard_compute_s_max": engine["compute_max"],
        "engine.shard_compute_s_sum": engine["compute_sum"],
        "engine.route_s": engine["route_s"],
        "engine.merge_s": engine["merge_s"],
        "engine.stall_s": engine["stall_s"],
        "fec.calls": calls_of("fec:"),
        "trace.run_s": traced_run_s,
        "trace.overhead": traced_run_s / base_run_s,
        "unattributed_s": unattributed,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_s[layer]
    if set(metrics) != set(PER_LAYER_UNITS):
        raise CheckFailed(f"per-layer metric set mismatch: {sorted(set(metrics) ^ set(PER_LAYER_UNITS))}")
    return {
        "metrics": metrics,
        "span_self_s": dict(spans.self_s),
        "dispatch_shares": shares,
        "calls": dict(calls),
        "untraced": {k: untraced[k] for k in ("setup_s", "run_s", "peak_rss_mb", "digest")},
        "failure": "; ".join(failures) or None,
        "wrong": wrong,
    }
