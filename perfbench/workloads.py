"""The benchmark's workloads and one measured iteration of each.

Every workload drives the public APIs of ``repro`` from outside: the Figure
10 runs build the topology and protocol the way ``run_traffic`` does (so
set-up and the simulated run can be timed apart, and the protocol object
stays available for the latency and invariant checks), and the national
runs go through ``run_sharded`` / ``run_reference`` unchanged.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import signal
import statistics
import time
import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.latency import recovery_latencies
from repro.core.protocol import SharqfecProtocol
from repro.errors import InvariantViolation
from repro.engine import LogicalShardRunner, MergedRun, run_reference, run_sharded
from repro.experiments.common import DATA_START, DEFAULT_DRAIN, SESSION_START, variant_config
from repro.experiments.national_scale import national_spec
from repro.net.monitor import TrafficMonitor
from repro.sim.scheduler import Simulator
from repro.srm.config import SrmConfig
from repro.srm.pdus import SrmDataPdu, SrmRepairPdu
from repro.srm.protocol import SrmProtocol
from repro.testing import assert_eventual_delivery, assert_no_duplicate_delivery
from repro.topology.figure10 import build_figure10

#: Monitor kinds counted as repair traffic (SHARQFEC's FEC, SRM's REPAIR).
REPAIR_KINDS = ("FEC", "REPAIR")
#: Figure 10 set-ups timed per iteration.
SETUP_REPEATS = 9
#: Simulated seconds between two speed-probe samples in a Figure 10 run.
PROBE_EVERY_S = 0.25
#: Engine windows between two speed-probe samples in a national run.
PROBE_EVERY_WINDOWS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str  # "figure10" or "national"
    protocol: str  # "SHARQFEC" or "SRM"
    n_packets: int
    #: national shape: regions, cities/region, suburbs/city, subscribers/suburb
    shape: Tuple[int, int, int, int] = (0, 0, 0, 0)
    fidelity: str = "packet"
    #: worker processes for ``run_sharded``; 0 runs ``run_reference``
    workers: int = 0
    drain: float = DEFAULT_DRAIN
    #: wall seconds of one iteration, process start included, on the 2-CPU
    #: machine the bounds were set on; sizes a run (see ``iterations``)
    iteration_s: float = 1.0

    def iterations(self, seconds: float) -> int:
        """Iterations of a ``seconds``-long run, at least two.

        The count depends on ``seconds`` only, never on the clock, so the
        same ``--seed`` and ``--seconds`` always run the same inputs, and
        two runs of the same code attempt (and fail) the same iterations.
        """
        return max(2, round(seconds / self.iteration_s))

    def spec(self, seed: int):
        regions, cities, suburbs, subscribers = self.shape
        return national_spec(
            regions=regions,
            cities_per_region=cities,
            suburbs_per_city=suburbs,
            subscribers_per_suburb=subscribers,
            n_packets=self.n_packets,
            seed=seed,
            drain=self.drain,
            fidelity=self.fidelity,
        )


def _workers() -> int:
    return min(2, os.cpu_count() or 1)


def workloads(size: str = "full") -> Dict[str, Workload]:
    """The named workloads; ``size="tiny"`` shrinks each for the self-test."""
    tiny = size == "tiny"
    return {
        w.name: w
        for w in (
            Workload("fig10_sharqfec", "figure10", "SHARQFEC", 32 if tiny else 512, iteration_s=3.0),
            Workload("fig10_srm", "figure10", "SRM", 16 if tiny else 128, iteration_s=4.0),
            Workload(
                "national_packet",
                "national",
                "SHARQFEC",
                16 if tiny else 128,
                shape=(2, 2, 2, 3) if tiny else (4, 3, 4, 20),
                workers=_workers(),
                iteration_s=18.0,
            ),
            Workload(
                "national_hybrid",
                "national",
                "SHARQFEC",
                32 if tiny else 128,
                shape=(2, 2, 2, 3) if tiny else (4, 3, 4, 10),
                fidelity="hybrid",
                iteration_s=2.5,
            ),
        )
    }


class SpeedProbe:
    """A fixed loop of method calls, dict stores and heap operations, timed
    between slices of a run, in the process that runs them.

    The shared host drifts in speed by up to ±20 % over minutes, which
    medians within one run cannot remove.  The probe runs no code of the
    program under test, and it runs at the same time, on the same CPU, as
    the run it samples, so its mean time tracks that run's host speed.
    Its own time is taken out of the run's time.
    """

    class _Node:
        __slots__ = ("a", "b")

        def __init__(self, a: int, b: int) -> None:
            self.a, self.b = a, b

        def step(self, x: int) -> int:
            return (self.a * x + self.b) & 0xFFFF

    def __init__(self) -> None:
        rng = random.Random(5)
        self.keys = [rng.random() for _ in range(1500)]
        self.samples: List[float] = []

    def sample(self) -> float:
        """Run the loop once; returns (and keeps) its host seconds."""
        t0 = time.perf_counter()
        node, slots, acc = self._Node(3, 7), {}, 0
        for i in range(4000):
            acc = node.step(acc + i)
            slots[acc & 63] = i
        heap: list = []
        for i, key in enumerate(self.keys):
            heapq.heappush(heap, (key, i, None))
        while heap:
            heapq.heappop(heap)
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed


def probe_time(samples: List[float]) -> float:
    """The typical probe time of a run: the mean of the middle 90 % of its
    samples.

    The host switches between a fast and a slow state (about 1.3 and 2.0
    ms per sample) many times a second.  A run's time follows the share of
    it spent in the slow state, which the mean measures and the median, of
    a two-peaked sample, does not; the trim drops rare outliers such as a
    garbage collection inside a sample.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    cut = len(ordered) // 20
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class CheckFailed(Exception):
    """An output check failed: the run is counted as failed."""


def derive_seed(seed: int, iteration: int) -> int:
    """The simulator seed of one iteration of a run seeded ``seed``."""
    digest = hashlib.sha256(f"{seed}:{iteration}".encode()).hexdigest()
    return int(digest[:8], 16)


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def rss_mb() -> float:
    """This process's peak resident memory, in MB.

    ``VmHWM`` is read because ``ru_maxrss`` carries over the peak of the
    process that forked and exec'd this one.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def monitor_digest(events: int, monitor: TrafficMonitor) -> Dict[str, object]:
    """Events fired plus monitor totals, and a hash of them.

    Two builds that simulate identically print the same ``sha``.
    """
    recv: Dict[str, int] = {}
    for (kind, _node), (_bins, packets, _nbytes) in monitor.receive_records():
        recv[kind] = recv.get(kind, 0) + packets
    totals = {
        "events": events,
        "recv": dict(sorted(recv.items())),
        "sends": dict(sorted(monitor.sends.items())),
        "drops": dict(sorted(monitor.drops_by_kind().items())),
    }
    blob = json.dumps(totals, sort_keys=True).encode()
    totals["sha"] = hashlib.sha256(blob).hexdigest()[:16]
    return totals


def tally(monitor: TrafficMonitor, nacks: int, receivers: int, latencies: List[float]) -> Dict[str, object]:
    """One iteration's raw outcome; :func:`outcome_metrics` pools them."""
    return {
        "nacks": nacks,
        "receivers": receivers,
        "data_rx": monitor.total(["DATA"]),
        "repair_rx": monitor.total(REPAIR_KINDS),
        "latencies": latencies,
    }


def outcome_metrics(tallies: List[Dict[str, object]]) -> Dict[str, float]:
    """Simulated outcome metrics over the pooled tallies of a run."""
    samples = [s for t in tallies for s in t["latencies"]]
    if not samples:
        raise CheckFailed("no completed groups to measure recovery latency on")
    data = sum(t["data_rx"] for t in tallies)
    return {
        "nacks_per_rx": sum(t["nacks"] for t in tallies) / sum(t["receivers"] for t in tallies),
        "repair_per_data": sum(t["repair_rx"] for t in tallies) / data if data else 0.0,
        "recovery_p50_ms": percentile(samples, 50) * 1000.0,
        "recovery_p99_ms": percentile(samples, 99) * 1000.0,
    }


class SrmReceipts:
    """First-arrival time of every SRM packet at every receiver.

    SRM keeps no completion times, so a second delivery handler on the data
    group records them.  Subscribing a member again changes neither the
    group (same subscriber set) nor the event schedule.
    """

    def __init__(self, protocol: SrmProtocol) -> None:
        self.first: Dict[int, Dict[int, float]] = {}
        self.duplicates: List[Tuple[int, int]] = []
        self.config = protocol.config
        sim = protocol.sim
        for rid in protocol.receiver_ids:
            seen: Dict[int, float] = {}
            data_seen: set = set()
            self.first[rid] = seen

            def handler(packet, rid=rid, seen=seen, data_seen=data_seen) -> None:
                if isinstance(packet, SrmDataPdu):
                    if packet.seq in data_seen:
                        self.duplicates.append((rid, packet.seq))
                    data_seen.add(packet.seq)
                elif not isinstance(packet, SrmRepairPdu):
                    return
                seen.setdefault(packet.seq, sim.now)

            protocol.network.subscribe(protocol.data_group, rid, handler)

    def latencies(self, group_size: int, data_start: float) -> List[float]:
        """Per-(receiver, block of ``group_size``) recovery latency.

        The same definition as ``repro.analysis.latency`` uses for
        SHARQFEC groups: completion of the block minus the send time of its
        last packet, clamped at zero.
        """
        n = self.config.n_packets
        ipt = self.config.inter_packet_interval
        samples: List[float] = []
        for seen in self.first.values():
            for start in range(0, n, group_size):
                seqs = range(start, min(start + group_size, n))
                if all(s in seen for s in seqs):
                    done = max(seen[s] for s in seqs)
                    samples.append(max(0.0, done - (data_start + seqs[-1] * ipt)))
        return samples


@dataclass
class Fig10World:
    """One constructed Figure 10 run, ready to simulate."""

    sim: Simulator
    topo: object
    monitor: TrafficMonitor
    protocol: object
    run_end: float
    receipts: Optional[SrmReceipts] = None


def build_fig10(w: Workload, seed: int) -> Fig10World:
    sim = Simulator(seed=seed)
    topo = build_figure10(sim)
    monitor = TrafficMonitor(bin_width=0.1)
    topo.network.add_observer(monitor)
    receipts = None
    if w.protocol == "SRM":
        config = SrmConfig(n_packets=w.n_packets)
        protocol = SrmProtocol(topo.network, config, topo.source, topo.receivers)
        receipts = SrmReceipts(protocol)
        data_end = DATA_START + w.n_packets * config.inter_packet_interval
    else:
        config = variant_config(w.protocol, w.n_packets)
        protocol = SharqfecProtocol(
            topo.network, config, topo.source, topo.receivers, topo.hierarchy
        )
        data_end = protocol.data_end_time(DATA_START)
    protocol.start(SESSION_START, DATA_START)
    return Fig10World(sim, topo, monitor, protocol, data_end + w.drain, receipts)


def fig10_outcome(w: Workload, world: Fig10World) -> Dict[str, object]:
    """Outcome metrics and output checks of a finished Figure 10 run."""
    protocol = world.protocol
    receivers = world.topo.receivers
    out: Dict[str, object] = {"completion": protocol.completion_fraction()}
    if world.receipts is not None:
        samples = world.receipts.latencies(16, DATA_START)
    else:
        samples = recovery_latencies(protocol, DATA_START)
    out["tally"] = tally(world.monitor, protocol.total_nacks_sent(), len(receivers), samples)
    out.update(outcome_metrics([out["tally"]]))
    out["digest"] = monitor_digest(world.sim.events_fired, world.monitor)
    out["events"] = world.sim.events_fired
    out["nacks"] = protocol.total_nacks_sent()
    if world.receipts is not None:
        duplicates = world.receipts.duplicates
        wrong = f"duplicate DATA delivery (receiver, seq): {duplicates[:5]}" if duplicates else None
        missed, _ = delivery_checks(protocol, duplicates=False)
    else:
        missed, wrong = delivery_checks(protocol)
    out.update(verdict(out["completion"], [missed], [wrong]))
    return out


def delivery_checks(protocol, duplicates: bool = True) -> Tuple[Optional[str], Optional[str]]:
    """``(missed, wrong)``: the ``repro.testing`` eventual-delivery and
    no-duplicate-delivery invariants on a finished protocol's receivers."""
    missed = wrong = None
    try:
        assert_eventual_delivery(protocol)
    except InvariantViolation as exc:
        missed = str(exc)
    if duplicates:
        try:
            assert_no_duplicate_delivery(protocol)
        except InvariantViolation as exc:
            wrong = str(exc)
    return missed, wrong


def verdict(completion: float, missed: List[Optional[str]], wrong: List[Optional[str]]) -> Dict[str, object]:
    """An iteration's ``failure`` reason and whether an output was ``wrong``.

    Any reason fails the iteration.  Only a wrong output makes the run
    incorrect.  A receiver still short of its stream when the drain ends is a
    failed delivery, like a request that missed its deadline.
    """
    missed = [m for m in missed if m]
    wrong = [w for w in wrong if w]
    if completion != 1.0:
        missed.insert(0, f"completion {completion:.6f} != 1.0")
    return {"failure": "; ".join(missed + wrong) or None, "wrong": bool(wrong)}


def measure_fig10(w: Workload, seed: int, recorder=None) -> Dict[str, object]:
    """One untraced (or, with ``recorder``, traced) Figure 10 iteration.

    Set-up takes tens of milliseconds, so it is repeated and its median
    reported; the last world built is the one simulated.  Untraced, the
    simulation runs in slices of ``PROBE_EVERY_S`` simulated seconds with a
    speed-probe sample after each, and ``run_s`` leaves the samples out;
    traced, it runs in one ``Simulator.run``, the root span.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        world = build_fig10(w, seed)
        setups.append(time.perf_counter() - t0)
    probe = SpeedProbe()
    t1 = time.perf_counter()
    if recorder is not None:
        recorder.reset()
        world.sim.run(until=world.run_end)
    else:
        horizon = 0.0
        while horizon < world.run_end:
            horizon = min(horizon + PROBE_EVERY_S, world.run_end)
            world.sim.run(until=horizon)
            probe.sample()
    world.protocol.stop()
    world.protocol.completion_fraction()
    t2 = time.perf_counter()
    out = fig10_outcome(w, world)
    out.update(
        setup_s=statistics.median(setups),
        run_s=t2 - t1 - sum(probe.samples),
        probe_s=probe_time(probe.samples),
        peak_rss_mb=rss_mb(),
        world=world,
    )
    return out


# ------------------------------------------------------------------ national


class ShardProbe:
    """Reads each logical shard's set-up end, compute time, peak memory and
    outcome, from whichever process runs the shard, and samples a
    :class:`SpeedProbe` in each process every ``PROBE_EVERY_WINDOWS`` windows.

    ``run_sharded`` builds and steps its shards inside worker processes, so
    the probe wraps ``LogicalShardRunner``'s methods (a few calls per shard
    per window, off the per-event path) and has each shard write one JSON
    record into ``directory`` at ``finish``.  ``time.perf_counter`` reads the
    system-wide monotonic clock, so worker and parent timestamps compare
    directly.
    """

    STEPS = ("inject", "run_until", "drain_outbox")

    def __init__(self, directory: str, kill_workers: bool = False) -> None:
        self.directory = directory
        self.kill_workers = kill_workers
        self._saved: Dict[str, object] = {}

    def install(self) -> None:
        os.makedirs(self.directory, exist_ok=True)
        originals = {name: vars(LogicalShardRunner)[name] for name in ("__init__", "finish", *self.STEPS)}
        self._saved = originals
        directory, kill, parent = self.directory, self.kill_workers, os.getpid()
        # shard index -> [set-up end, compute seconds, windows, boundary messages]
        shards: Dict[int, list] = {}
        clock = time.perf_counter
        # This process's probe, last window end seen, and windows seen.
        speed = {"probe": SpeedProbe(), "end": None, "windows": 0}

        def probed_init(runner, *args, **kwargs):
            originals["__init__"](runner, *args, **kwargs)
            shards[runner.shard.index] = [clock(), 0.0, 0, 0]

        def timed(name):
            step = originals[name]

            def probed_step(runner, *args):
                if kill and name == "run_until" and os.getpid() != parent:
                    # Stand-in for the kernel's out-of-memory killer.
                    os.kill(os.getpid(), signal.SIGKILL)
                if name == "run_until" and args[0] != speed["end"]:
                    # First shard of a new window in this process.  Every
                    # process sees every window, so all sample the same ones.
                    speed["end"] = args[0]
                    speed["windows"] += 1
                    if speed["windows"] % PROBE_EVERY_WINDOWS == 0:
                        speed["probe"].sample()
                t0 = clock()
                value = step(runner, *args)
                entry = shards[runner.shard.index]
                entry[1] += clock() - t0
                if name == "run_until":
                    entry[2] += 1
                elif name == "drain_outbox":
                    entry[3] += len(value)
                return value

            return probed_step

        def probed_finish(runner):
            t0 = clock()
            result = originals["finish"](runner)
            entry = shards[runner.shard.index]
            entry[1] += clock() - t0
            protocol = runner.protocol
            missed, wrong = delivery_checks(protocol)
            record = {
                "shard": runner.shard.index,
                "pid": os.getpid(),
                "setup_done": entry[0],
                "compute_s": entry[1],
                "windows": entry[2],
                "messages": entry[3],
                "rss_mb": rss_mb(),
                "latencies": recovery_latencies(protocol, runner.spec.data_start),
                "probes": speed["probe"].samples,
                "missed": missed,
                "wrong": wrong,
            }
            path = os.path.join(directory, f"shard-{runner.shard.index}.json")
            with open(path, "w") as fh:
                json.dump(record, fh)
            return result

        LogicalShardRunner.__init__ = probed_init
        LogicalShardRunner.finish = probed_finish
        for name in self.STEPS:
            setattr(LogicalShardRunner, name, timed(name))

    def uninstall(self) -> None:
        for name, original in self._saved.items():
            setattr(LogicalShardRunner, name, original)
        self._saved = {}

    def collect(self) -> List[Dict[str, object]]:
        records = []
        for name in sorted(os.listdir(self.directory)):
            with open(os.path.join(self.directory, name)) as fh:
                records.append(json.load(fh))
        shutil.rmtree(self.directory, ignore_errors=True)
        return records


def merged_outcome(merged: MergedRun, records: List[Dict[str, object]]) -> Dict[str, object]:
    """Outcome metrics and output checks of a finished national run."""
    out: Dict[str, object] = {"completion": merged.completion}
    samples = [s for r in records for s in r["latencies"]]
    out["tally"] = tally(merged.monitor, merged.nacks, merged.n_receivers, samples)
    out.update(outcome_metrics([out["tally"]]))
    out["digest"] = monitor_digest(merged.events, merged.monitor)
    out["events"] = merged.events
    out["nacks"] = merged.nacks
    wrong = [r["wrong"] for r in records]
    if len(records) != merged.plan.n_shards:
        wrong.append(f"{len(records)} shard records for {merged.plan.n_shards} shards")
    out.update(verdict(merged.completion, [r["missed"] for r in records], wrong))
    return out


def measure_national(w: Workload, seed: int, probe_dir: str, kill_workers: bool = False) -> Dict[str, object]:
    """One untraced national iteration through the engine's public entry."""
    spec = w.spec(seed)
    probe = ShardProbe(probe_dir, kill_workers=kill_workers)
    probe.install()
    try:
        t0 = time.perf_counter()
        if w.workers:
            merged = run_sharded(spec, workers=w.workers)
        else:
            merged = run_reference(spec)
        t2 = time.perf_counter()
    except (EOFError, BrokenPipeError) as exc:
        # A worker that dies without answering (the OOM killer's SIGKILL)
        # reaches the parent only as a bare EOFError on its pipe.
        raise CheckFailed(f"shard worker died without a reply: {type(exc).__name__} {exc}") from exc
    finally:
        probe.uninstall()
    records = probe.collect()
    out = merged_outcome(merged, records)
    setup_end = max(r["setup_done"] for r in records)
    # Each process's probe samples, in window order; a sampled window waits
    # for the slowest process's sample, which is taken out of ``run_s``.
    probes = list({r["pid"]: r["probes"] for r in records}.values())
    probe_wait = sum(max(window) for window in zip(*probes))
    samples = [s for p in probes for s in p]
    own = os.getpid()
    workers_rss: Dict[int, float] = {}
    for r in records:
        if r["pid"] != own:
            workers_rss[r["pid"]] = max(workers_rss.get(r["pid"], 0.0), r["rss_mb"])
    out.update(
        setup_s=setup_end - t0,
        run_s=t2 - setup_end - probe_wait,
        probe_s=probe_time(samples),
        peak_rss_mb=rss_mb() + sum(workers_rss.values()),
        merged=merged,
        shards=[{k: r[k] for k in ("shard", "pid", "compute_s", "windows", "messages")} for r in records],
    )
    return out


def measure(w: Workload, seed: int, probe_dir: str, sabotage: Optional[str] = None) -> Dict[str, object]:
    """One untraced iteration of ``w``; ``sabotage`` breaks it on purpose."""
    if sabotage == "completion":
        # No drain: the repair tail is cut off, so completion < 1.
        w = dataclasses.replace(w, drain=0.0)
    if w.topology == "figure10":
        return measure_fig10(w, seed)
    return measure_national(w, seed, probe_dir, kill_workers=(sabotage == "worker"))
