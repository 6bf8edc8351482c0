"""Per-shard execution and result merging for the sharded engine.

A :class:`LogicalShardRunner` is one logical shard's complete world: its
own :class:`~repro.sim.scheduler.Simulator`, a full copy of the topology
(every shard must compute identical multicast trees), a protocol slice
with real agents only for owned nodes, its own traffic monitor and run
observer.  The runner is driven window-by-window by the engine and never
touches another shard except through picklable
:class:`~repro.engine.sync.CrossShardMessage` values — which is exactly
why the same code runs in-process (the reference engine) and in worker
processes (the multiprocessing engine) with byte-identical results.

Everything a shard reports back crosses a process boundary, so
:class:`ShardResult` is plain data: traffic records, a metrics-registry
snapshot, serialized trace dicts and scalar totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.protocol import SharqfecProtocol
from repro.engine.partition import LogicalShard, ShardPlan, plan_shards
from repro.engine.sync import CrossShardMessage, message_sort_key
from repro.errors import EngineError
from repro.experiments.common import variant_config
from repro.faults.injector import FaultInjector
from repro.faults.plan import CHURN_KINDS, FaultPlan
from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.obs.export import trace_record_to_dict
from repro.obs.recorder import RunObserver
from repro.obs.registry import MetricsRegistry
from repro.scoping.zone import ZoneHierarchy
from repro.sim.scheduler import Simulator


@dataclass(frozen=True)
class ShardedRunSpec:
    """A fully picklable description of one run (workers rebuild it all).

    ``topology_params`` is a tuple of ``(key, value)`` pairs passed to the
    topology builder (kept as a tuple so the spec hashes and pickles).
    """

    topology: str = "figure10"
    protocol: str = "SHARQFEC"
    n_packets: int = 64
    seed: int = 1
    session_start: float = 1.0
    data_start: float = 6.0
    drain: float = 10.0
    bin_width: float = 0.1
    topology_params: Tuple[Tuple[str, object], ...] = ()
    fault_plan: Optional[FaultPlan] = None
    capture_trace: bool = False
    #: "packet" runs the reference engine; "hybrid" swaps in the
    #: packet/flow fidelity protocol (see docs/HYBRID.md).
    fidelity: str = "packet"

    def validate(self) -> None:
        if self.topology not in ("figure10", "national"):
            raise EngineError(f"unknown topology {self.topology!r}")
        if self.fidelity not in ("packet", "hybrid"):
            raise EngineError(f"unknown fidelity {self.fidelity!r}")
        if self.fault_plan is not None:
            churn = [a for a in self.fault_plan.actions() if a.kind in CHURN_KINDS]
            if churn:
                raise EngineError(
                    f"fault plan contains churn actions {sorted({a.kind for a in churn})}; "
                    "receiver churn mutates tree membership and is not "
                    "supported by the sharded engine"
                )

    @property
    def data_end(self) -> float:
        config = variant_config(self.protocol, self.n_packets)
        return self.data_start + self.n_packets * config.inter_packet_interval

    @property
    def run_end(self) -> float:
        return self.data_end + self.drain


@dataclass
class BuiltModel:
    """A constructed topology plus the session roles on it."""

    network: Network
    hierarchy: ZoneHierarchy
    source: int
    receivers: List[int]


def build_model(spec: ShardedRunSpec, sim: Simulator) -> BuiltModel:
    """Build the spec's topology on ``sim`` (identical in every shard)."""
    params = dict(spec.topology_params)
    if spec.topology == "figure10":
        from repro.topology.figure10 import build_figure10

        fig = build_figure10(sim, **params)
        return BuiltModel(fig.network, fig.hierarchy, fig.source, fig.receivers)
    if spec.topology == "national":
        from repro.topology.national import NationalParams, build_national_network

        max_nodes = int(params.pop("max_nodes", 200_000))
        nat = build_national_network(sim, NationalParams(**params), max_nodes=max_nodes)
        return BuiltModel(nat.network, nat.hierarchy, nat.source, nat.receivers)
    raise EngineError(f"unknown topology {spec.topology!r}")


def plan_for_spec(spec: ShardedRunSpec) -> ShardPlan:
    """The spec's shard decomposition (built on a scratch simulator)."""
    spec.validate()
    sim = Simulator(seed=spec.seed)
    model = build_model(spec, sim)
    return plan_shards(model.hierarchy, model.network.adjacency())


@dataclass
class ShardResult:
    """Everything one shard reports at run end (plain picklable data)."""

    index: int
    key: str
    n_receivers: int
    groups_complete: int
    nacks: int
    events: int
    recv: List[Tuple[str, int, Dict[int, int], int, int]] = field(default_factory=list)
    send: List[Tuple[str, int, Dict[int, int]]] = field(default_factory=list)
    drop: List[Tuple[str, int, Dict[int, int], int, int]] = field(default_factory=list)
    registry: List[Dict[str, object]] = field(default_factory=list)
    trace: List[Dict[str, object]] = field(default_factory=list)


class LogicalShardRunner:
    """One logical shard's simulator, protocol slice and observers."""

    def __init__(self, spec: ShardedRunSpec, plan: ShardPlan, shard: LogicalShard) -> None:
        self.spec = spec
        self.plan = plan
        self.shard = shard
        self.outbox: List[CrossShardMessage] = []
        self._seq = 0
        self.sim = Simulator(seed=spec.seed)
        model = build_model(spec, self.sim)
        self.network = model.network
        self.network.set_partition(shard.nodes, self._on_boundary, shard.loss_stream)
        self.monitor = TrafficMonitor(bin_width=spec.bin_width)
        self.network.add_observer(self.monitor)
        # Fault injections and reconvergence fire identically in every
        # shard (the plan is replicated); only shard 0's observer records
        # them, so merged counters match a single-engine run.
        self.observer = RunObserver(
            self.sim,
            bin_width=spec.bin_width,
            capture_trace=spec.capture_trace,
            global_events=(shard.index == 0),
        ).attach()
        config = variant_config(spec.protocol, spec.n_packets)
        if spec.fidelity == "hybrid":
            from repro.hybrid import HybridSharqfecProtocol

            protocol_cls = HybridSharqfecProtocol
        else:
            protocol_cls = SharqfecProtocol
        self.protocol = protocol_cls(
            self.network,
            config,
            model.source,
            model.receivers,
            model.hierarchy,
            local_nodes=shard.nodes,
        )
        self.protocol.start(spec.session_start, spec.data_start)
        if spec.fault_plan is not None:
            FaultInjector(self.network, spec.fault_plan).arm()

    # ------------------------------------------------------------- windowing

    def _on_boundary(self, arrival: float, node: int, packet: object) -> None:
        self.outbox.append(
            CrossShardMessage(
                arrival, self.shard.index, self._seq, node, self.plan.owner[node], packet
            )
        )
        self._seq += 1

    def inject(self, messages: List[CrossShardMessage]) -> None:
        """Schedule exchanged packets for delivery at their arrival times.

        Sorted canonically so injection order — and therefore event
        tie-break sequencing — is independent of worker count.  ``call_at``
        raises if an arrival lies in the shard's past, which would mean
        the lookahead window was unsafe.
        """
        call_at = self.sim.call_at
        deliver = self.network.deliver_remote
        for message in sorted(messages, key=message_sort_key):
            call_at(message.arrival, deliver, message.packet, message.node)

    def run_until(self, t: float) -> None:
        self.sim.run(until=t)

    def drain_outbox(self) -> List[CrossShardMessage]:
        out = self.outbox
        self.outbox = []
        return out

    # --------------------------------------------------------------- results

    def finish(self) -> ShardResult:
        self.protocol.stop()
        self.observer.detach()
        return ShardResult(
            index=self.shard.index,
            key=self.shard.key,
            n_receivers=len(self.protocol.receivers),
            groups_complete=sum(
                r.groups_complete() for r in self.protocol.receivers.values()
            ),
            nacks=self.protocol.total_nacks_sent(),
            events=self.sim.events_fired,
            recv=[
                (kind, node, bins, packets, nbytes)
                for (kind, node), (bins, packets, nbytes) in self.monitor.receive_records()
            ],
            send=[
                (kind, node, bins)
                for (kind, node), bins in self.monitor.send_records()
            ],
            drop=[
                (kind, node, bins, packets, nbytes)
                for (kind, node), (bins, packets, nbytes) in self.monitor.drop_records()
            ],
            registry=self.observer.registry.snapshot(),
            trace=[trace_record_to_dict(r) for r in self.observer.trace_records],
        )


@dataclass
class MergedRun:
    """A complete run's merged, engine-agnostic output."""

    spec: ShardedRunSpec
    plan: ShardPlan
    monitor: TrafficMonitor
    registry: MetricsRegistry
    trace: List[Dict[str, object]]
    completion: float
    nacks: int
    events: int
    n_receivers: int
    #: 0 for the in-process reference engine, else the worker-process count.
    workers: int = 0
    wall_seconds: float = 0.0

    @property
    def drops(self) -> int:
        return self.monitor.drops

    def run_summary(self) -> Dict[str, object]:
        """The metrics file's ``run`` record (same schema as run_traffic)."""
        return {
            "protocol": self.spec.protocol,
            "fidelity": self.spec.fidelity,
            "n_packets": self.spec.n_packets,
            "seed": self.spec.seed,
            "data_start": self.spec.data_start,
            "data_end": self.spec.data_end,
            "run_end": self.spec.run_end,
            "completion": self.completion,
            "nacks_sent": self.nacks,
            "events": self.events,
            "drops": self.monitor.drops,
        }


def merge_results(
    spec: ShardedRunSpec, plan: ShardPlan, results: List[ShardResult]
) -> MergedRun:
    """Fold per-shard results in canonical shard order.

    Every ingredient is either owned by exactly one shard (traffic series
    per node, agent counters) or recorded by only the primary shard
    (faults, reconvergence), and the folds are additive — so the merged
    output is a pure function of the logical-shard results, independent
    of how shards were packed onto workers.
    """
    if sorted(r.index for r in results) != list(range(plan.n_shards)):
        raise EngineError("merge requires exactly one result per logical shard")
    monitor = TrafficMonitor(bin_width=spec.bin_width)
    registry = MetricsRegistry()
    keyed: List[Tuple[float, int, int, Dict[str, object]]] = []
    groups_complete = 0
    n_receivers = 0
    nacks = 0
    events = 0
    for result in sorted(results, key=lambda r: r.index):
        for kind, node, bins, packets, nbytes in result.recv:
            monitor.load_record("recv", kind, node, bins, packets, nbytes)
        for kind, node, bins in result.send:
            monitor.load_record("send", kind, node, bins)
        for kind, node, bins, packets, nbytes in result.drop:
            monitor.load_record("drop", kind, node, bins, packets, nbytes)
        registry.merge(result.registry)
        keyed.extend(
            (record["t"], result.index, i, record)
            for i, record in enumerate(result.trace)
        )
        groups_complete += result.groups_complete
        n_receivers += result.n_receivers
        nacks += result.nacks
        events += result.events
    keyed.sort(key=lambda item: (item[0], item[1], item[2]))
    config = variant_config(spec.protocol, spec.n_packets)
    total = n_receivers * config.n_groups
    return MergedRun(
        spec=spec,
        plan=plan,
        monitor=monitor,
        registry=registry,
        trace=[record for _, _, _, record in keyed],
        completion=(groups_complete / total) if total else 1.0,
        nacks=nacks,
        events=events,
        n_receivers=n_receivers,
    )
