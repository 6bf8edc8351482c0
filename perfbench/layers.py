"""Per-layer attribution: span recorders at public entry points, and a
cProfile pass grouped by module.

Spans.  ``SpanRecorder.install`` wraps the public entry points of each layer
(class attributes, patched before any object is built, so callbacks bound at
construction see the wrappers).  A span's self time is its duration minus
the durations of the spans opened inside it.

The dispatch loop.  ``Simulator.run`` is the root span.  Its self time is
the event core *plus* every callback that has no public boundary: per-hop
forwarding in ``Network``'s private arrival callbacks, and the agents'
private timers.  The profile pass splits it: the profiler is switched on
only while the innermost open span is ``Simulator.run``, so the module
breakdown it gives is exactly the composition of the dispatch loop's self
time.  Each layer's reported self time is its span self time plus its share
of the dispatch loop; whatever the profile cannot place, and all time
outside spans, is ``unattributed_s``.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Layers in report order.  ``sim`` is the dispatch loop.
LAYERS = (
    "sim", "net", "monitor", "obs", "session", "receiver", "zcr", "srm",
    "hybrid", "engine", "fec",
)

#: Module path fragment -> layer, first match wins (profile grouping).
MODULE_LAYERS = (
    ("/repro/net/monitor.py", "monitor"),
    ("/repro/obs/binning.py", "monitor"),
    ("/repro/sim/", "sim"),
    ("/repro/net/", "net"),
    ("/repro/scoping/", "net"),
    ("/repro/transport/", "net"),
    ("/repro/core/session.py", "session"),
    ("/repro/core/rtt.py", "session"),
    ("/repro/core/zcr.py", "zcr"),
    ("/repro/core/election.py", "zcr"),
    ("/repro/core/", "receiver"),
    ("/repro/srm/", "srm"),
    ("/repro/hybrid/", "hybrid"),
    ("/repro/obs/", "obs"),
    ("/repro/engine/", "engine"),
    ("/repro/fec/", "fec"),
)


def _entry_points() -> List[Tuple[type, Tuple[str, ...], str]]:
    """(class, method names, layer) for every wrapped public entry point."""
    from repro.core.agent import SharqfecEndpoint
    from repro.core.election import ElectionCoordinator
    from repro.core.receiver import SharqfecReceiver
    from repro.core.session import SessionManager
    from repro.core.zcr import ZcrElection
    from repro.engine import LogicalShardRunner
    from repro.fec.codec import ErasureCodec
    from repro.hybrid.flow import FlowDataEngine
    from repro.net.monitor import TrafficMonitor
    from repro.net.network import Network
    from repro.obs.recorder import RunObserver
    from repro.sim.scheduler import Simulator
    from repro.srm.agent import SrmAgent

    points = [
        (Simulator, ("run",), "sim"),
        (Network, ("multicast", "unicast", "deliver_remote"), "net"),
        (TrafficMonitor, ("on_send", "on_receive", "on_drop", "record_bulk"), "monitor"),
        (SessionManager, ("handle_session",), "session"),
        (ZcrElection, ("handle_challenge", "handle_response", "handle_elect", "handle_takeover"), "zcr"),
        (ElectionCoordinator, ("handle_elect", "note_alive", "on_belief_sync", "on_deposed"), "zcr"),
        (SharqfecEndpoint, ("handle_data", "handle_nack", "handle_fec"), "receiver"),
        (SharqfecReceiver, ("handle_data", "handle_fec"), "receiver"),
        # SRM's handlers are private; they are its agents' delivery boundary.
        (SrmAgent, ("_handle_data", "_handle_request", "_handle_repair", "_handle_session"), "srm"),
        (FlowDataEngine, ("begin", "_on_group", "_apply"), "hybrid"),
        # The observer's listeners are bound at attach(), after install.
        (RunObserver, tuple(
            name for name, value in vars(RunObserver).items()
            if callable(value) and (name.startswith("_on_") or name == "_record_trace")
        ), "obs"),
        (LogicalShardRunner, ("inject", "run_until", "drain_outbox", "finish"), "engine"),
        (ErasureCodec, ("encode", "encode_one", "decode"), "fec"),
    ]
    try:
        from repro.fec.fast import NumpyErasureCodec
    except ImportError:  # numpy absent: only the pure-Python codec exists
        pass
    else:
        points.append((NumpyErasureCodec, ("encode", "encode_one", "decode"), "fec"))
    return points


class SpanRecorder:
    """Self time and call counts per layer, from wrapped entry points.

    With ``profile=True`` the recorder also gates a ``cProfile.Profile`` so
    that it only runs while ``Simulator.run`` is the innermost open span.
    """

    def __init__(self, profile: bool = False) -> None:
        self.profiler: Optional[cProfile.Profile] = cProfile.Profile() if profile else None
        self._saved: List[Tuple[type, str, Callable]] = []
        self._stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (spans still open keep going)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        if self.profiler is not None:
            self.profiler.disable()
            self.profiler = cProfile.Profile()
            if self._stack and self._stack[-1][0] == "sim":
                self.profiler.enable()

    # ---------------------------------------------------------------- spans

    def _wrap(self, layer: str, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        recorder = self

        def gate(top_is_sim: bool) -> None:
            if top_is_sim:
                recorder.profiler.enable()
            else:
                recorder.profiler.disable()

        profiled = self.profiler is not None
        key = f"{layer}:{name}"

        def span(*args, **kwargs):
            if count is not None:
                count(recorder.counts, *args)
            frame = [layer, 0.0]
            if profiled:
                gate(layer == "sim")
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                recorder.self_s[layer] += duration - frame[1]
                recorder.calls[key] += 1
                if stack:
                    stack[-1][1] += duration
                if profiled:
                    gate(bool(stack) and stack[-1][0] == "sim")

        span.__name__ = getattr(fn, "__name__", name)
        span.__wrapped__ = fn
        return span

    def timed(self, layer: str, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` as a span of ``layer`` (the benchmark's own steps)."""
        return self._wrap(layer, name, fn, None)(*args)

    def install(self) -> "SpanRecorder":
        counters = _counters()
        for cls, names, layer in _entry_points():
            for name in names:
                if name not in vars(cls):
                    continue
                original = vars(cls)[name]
                self._saved.append((cls, name, original))
                setattr(cls, name, self._wrap(layer, name, original, counters.get((cls.__name__, name))))
        return self

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()
        if self.profiler is not None:
            self.profiler.disable()

    # -------------------------------------------------------------- profile

    def dispatch_shares(self) -> Dict[str, float]:
        """Share of the dispatch loop's profiled time per layer (+ ``other``).

        Functions outside ``repro`` (builtins, the standard library) take
        the layer of their callers, split by the time each caller edge
        contributed; time no layer can claim is ``other``.
        """
        stats = pstats.Stats(self.profiler).stats
        own: Dict[tuple, Optional[str]] = {}
        for func in stats:
            own[func] = _module_layer(func[0])

        def resolve(func, tt: float, depth: int, into: Dict[str, float]) -> None:
            layer = own.get(func)
            if layer is not None:
                into[layer] += tt
                return
            callers = stats[func][4] if func in stats else {}
            edge_total = sum(edge[2] for edge in callers.values())
            if depth >= 4 or edge_total <= 0:
                into["other"] += tt
                return
            for caller, edge in callers.items():
                resolve(caller, tt * edge[2] / edge_total, depth + 1, into)

        totals: Dict[str, float] = defaultdict(float)
        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            if tt > 0:
                resolve(func, tt, 0, totals)
        grand = sum(totals.values())
        return {layer: value / grand for layer, value in totals.items()} if grand else {}


def _module_layer(path: str) -> Optional[str]:
    path = path.replace("\\", "/")
    if "/perfbench/" in path:
        return "trace"
    for fragment, layer in MODULE_LAYERS:
        if fragment in path:
            return layer
    return None


def _counters() -> Dict[Tuple[str, str], Callable]:
    """Work counts taken at entry points: ``(class, method) -> counter``."""

    def repairs(counts, receiver, pdu) -> None:
        counts["receiver.repairs_recv"] += 1
        state = receiver.groups.get(pdu.group_id)
        if state is None or (not state.complete and pdu.index not in state.indices):
            counts["receiver.repairs_useful"] += 1

    def bulk(counts, monitor, direction, kind, node, t_base, dt, mask, size) -> None:
        counts["monitor.record_bulk"] += 1
        if direction == "drop":
            counts["net.bulk_drops"] += bin(mask).count("1")

    return {
        ("SharqfecReceiver", "handle_fec"): repairs,
        ("TrafficMonitor", "record_bulk"): bulk,
    }


def attribute(
    spans: SpanRecorder, shares: Dict[str, float], run_s: float
) -> Tuple[Dict[str, float], float]:
    """Per-layer self time over a traced run of ``run_s`` seconds.

    Returns ``(self_s by layer, unattributed_s)``; the self times plus
    ``unattributed_s`` add up to ``run_s`` by construction.
    """
    dispatch = spans.self_s.get("sim", 0.0)
    layer_s = {layer: 0.0 for layer in LAYERS}
    for layer, seconds in spans.self_s.items():
        if layer != "sim":
            layer_s[layer] += seconds
    for layer, share in shares.items():
        if layer in layer_s:
            layer_s[layer] += dispatch * share
    return layer_s, run_s - sum(layer_s.values())
