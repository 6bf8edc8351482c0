"""Regression tests for the hot-path optimization layer.

Every optimization in this PR (tuple heap, tombstone compaction, event
recycling, handle-free ``push_call`` entries, compiled forwarding, numpy
codec default) is required to be *behaviour-preserving*: seeded runs must
replay byte-identically whichever path executes.  These tests pin the
equivalences and the queue bookkeeping that the optimizations rely on.
"""

from __future__ import annotations

import pytest

from repro.net.monitor import TrafficMonitor
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.events import COMPACT_MIN_DEAD, EventQueue
from repro.sim.scheduler import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import Tracer
from repro.topology.figure10 import build_figure10
from tests.forwarding_oracle import use_reference_forwarding


# --------------------------------------------------------- queue bookkeeping


def test_clear_resets_sequence_counter():
    q = EventQueue()
    for _ in range(5):
        q.push(1.0, lambda: None)
    q.clear()
    event = q.push(1.0, lambda: None)
    assert event.seq == 0


def test_reset_replays_same_time_events_in_original_order():
    """A reset simulator must re-run with the seed queue's tie-breaks.

    All events fire at the same instant, so ordering is decided purely by
    sequence numbers; if ``clear()`` carried the counter over, the replay
    would still fire in schedule order but any code comparing recorded
    sequences (or mixing in new pushes) would diverge from a fresh run.
    """

    def run_once(sim: Simulator) -> list:
        order = []
        for tag in range(8):
            sim.schedule(0.5, order.append, tag)
        sim.run()
        return order

    sim = Simulator(seed=3)
    first = run_once(sim)
    seqs_before = sim.queue._next_seq
    sim.reset(seed=3)
    assert sim.queue._next_seq == 0
    second = run_once(sim)
    assert first == second
    assert sim.queue._next_seq == seqs_before


def test_cancel_after_fire_is_noop_and_len_stays_consistent():
    q = EventQueue()
    event = q.push(1.0, lambda: None)
    other = q.push(2.0, lambda: None)
    assert len(q) == 2
    fired = q.pop()
    assert fired is event and fired.fired
    assert len(q) == 1
    # Cancelling a fired event must not decrement the live count again.
    q.cancel(event)
    assert len(q) == 1
    assert not event.cancelled
    q.cancel(other)
    assert len(q) == 0
    q.cancel(other)  # double cancel: still a no-op
    assert len(q) == 0
    assert q.pop() is None


def test_tombstone_compaction_bounds_heap_size():
    q = EventQueue()
    # One long-lived survivor plus a churn of cancellations far beyond the
    # compaction floor: the raw heap must not grow with the cancel count.
    q.push(1000.0, lambda: None)
    for i in range(20 * COMPACT_MIN_DEAD):
        q.cancel(q.push(1.0 + i, lambda: None))
    assert len(q) == 1
    assert q.heap_size <= 2 * COMPACT_MIN_DEAD + 2
    assert q.tombstones <= q.heap_size


def test_compaction_preserves_pop_order():
    q = EventQueue()
    fired = []
    keepers = []
    for i in range(300):
        event = q.push(float(i), fired.append, (i,))
        if i % 3 == 0:
            keepers.append(i)
        else:
            q.cancel(event)
    while q:
        q.pop().fire()
    assert fired == keepers


def test_same_time_ordering_across_entry_kinds():
    """push, push_call, reschedule and rearm share one tie-break sequence."""
    q = EventQueue()
    fired = []
    q.push(1.0, fired.append, ("push-0",))
    q.push_call(1.0, fired.append, ("call-1",))
    moved = q.push(0.5, fired.append, ("resched-2",))
    q.reschedule(moved, 1.0)  # consumes seq 3: fires after call-1
    q.push_call(1.0, fired.append, ("call-3",))
    while q:
        q.pop().fire()
    assert fired == ["push-0", "call-1", "resched-2", "call-3"]


def test_reschedule_rejects_fired_and_cancelled_events():
    q = EventQueue()
    event = q.push(1.0, lambda: None)
    q.cancel(event)
    with pytest.raises(ValueError):
        q.reschedule(event, 2.0)
    live = q.push(1.0, lambda: None)
    q.pop().fire()
    with pytest.raises(ValueError):
        q.reschedule(live, 2.0)


def test_rearm_fired_recycles_event_object():
    q = EventQueue()
    fired = []
    event = q.push(1.0, fired.append, ("x",))
    q.pop().fire()
    assert q.rearm_fired(event, 2.0) is event
    assert len(q) == 1 and not event.fired
    popped = q.pop()
    assert popped is event and popped.time == 2.0
    popped.fire()
    assert fired == ["x", "x"]


def test_rearm_fired_rejects_pending_and_cancelled_events():
    q = EventQueue()
    pending = q.push(1.0, lambda: None)
    with pytest.raises(ValueError):
        q.rearm_fired(pending, 2.0)
    q.cancel(pending)
    with pytest.raises(ValueError):
        q.rearm_fired(pending, 2.0)


def test_push_call_fires_through_run_loop():
    sim = Simulator()
    fired = []
    sim.call_at(0.25, fired.append, "a")
    sim.schedule(0.25, fired.append, "b")
    sim.call_at(0.25, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 0.25


def test_push_call_respects_run_horizon():
    sim = Simulator()
    fired = []
    sim.call_at(1.0, fired.append, "late")
    sim.run(until=0.5)
    assert fired == []
    assert sim.now == 0.5
    sim.run()
    assert fired == ["late"]


def test_timer_restart_recycles_after_fire():
    sim = Simulator()
    count = [0]
    timer = Timer(sim, lambda: count.__setitem__(0, count[0] + 1), name="t")
    timer.start(0.1)
    sim.run()
    assert count[0] == 1 and not timer.running
    timer.restart(0.1)  # recycles the fired event in place
    assert timer.running
    sim.run()
    assert count[0] == 2


# ----------------------------------------------------------------- tracing


def test_tracer_version_bumps_on_table_and_enable_changes():
    tracer = Tracer()
    v0 = tracer.version
    listener = lambda record: None
    tracer.subscribe("pkt.recv", listener)
    assert tracer.version > v0
    v1 = tracer.version
    tracer.enabled = False
    assert tracer.version > v1
    v2 = tracer.version
    tracer.enabled = False  # unchanged value: no bump
    assert tracer.version == v2
    tracer.unsubscribe("pkt.recv", listener)
    assert tracer.version > v2


def test_tracer_wants_tracks_subscriptions_and_enabled():
    tracer = Tracer()
    assert not tracer.wants("pkt.recv")
    listener = lambda record: None
    tracer.subscribe("pkt.recv", listener)
    assert tracer.wants("pkt.recv")
    assert not tracer.wants("pkt.send")
    tracer.enabled = False
    assert not tracer.wants("pkt.recv")
    tracer.enabled = True
    tracer.subscribe(None, listener)  # wildcard reaches every category
    assert tracer.wants("pkt.send")


# --------------------------------------------- forwarding path equivalence


def _flood(n_packets: int = 60, seed: int = 11):
    """Flood the Figure 10 topology and return observable outcomes."""
    sim = Simulator(seed=seed)
    fig = build_figure10(sim)
    net = fig.network
    group = net.create_group("flood")
    delivered = []
    for node in fig.receivers:
        net.subscribe(group.group_id, node, lambda pkt, n=node: delivered.append((n, pkt.uid)))
    monitor = TrafficMonitor()
    net.add_observer(monitor)
    recv_trace = []
    sim.tracer.subscribe("pkt.recv", lambda rec: recv_trace.append((rec.time, rec.node)))

    def send() -> None:
        net.multicast(fig.source, Packet("DATA", fig.source, group.group_id, 1024))

    for i in range(n_packets):
        sim.at(i * 0.003, send)
    sim.run()
    series = {
        node: monitor.series(["DATA"], node, t_end=sim.now) for node in fig.receivers
    }
    # Packet uids come from a process-global counter; normalize to the
    # run's first uid so two runs compare by position in the stream.
    base = min((uid for _, uid in delivered), default=0)
    deliveries = [(node, uid - base) for node, uid in delivered]
    return (
        deliveries,
        recv_trace,
        monitor.total(["DATA"]),
        monitor.drops,
        series,
        sim.events_fired,
    )


def test_compiled_forwarding_matches_reference_walk(monkeypatch):
    """The compiled fast path must replay the dict-walk byte for byte.

    Same seed, same topology, same sends: every delivery in delivery order,
    every traced arrival time, every loss draw, every per-interval bin and
    the event count must agree — the compiled schedule may only change
    *speed*, never outcomes.
    """
    fast = _flood()
    with monkeypatch.context() as patch:
        use_reference_forwarding(patch)
        reference = _flood()
    assert fast == reference
    assert fast[2] > 0  # the comparison is not vacuous
    assert fast[3] > 0  # losses actually occurred on the lossy links


def _star(sim: Simulator, leaves: int, bandwidth_bps: float, latency_s: float) -> Network:
    net = Network(sim)
    for _ in range(leaves + 1):
        net.add_node()
    for leaf in range(1, leaves + 1):
        net.add_link(0, leaf, bandwidth_bps, latency_s)
    return net


def _sibling_crash():
    """Four same-instant siblings; the first one's handler crashes the
    second and unsubscribes the third before they arrive."""
    sim = Simulator(seed=5)
    net = _star(sim, 4, 10e6, 0.005)
    group = net.create_group("g")
    order = []
    handlers = {
        leaf: (lambda pkt, n=leaf: order.append(("handler", n, sim.now)))
        for leaf in (2, 3, 4)
    }

    def first(pkt) -> None:
        order.append(("handler", 1, sim.now))
        net.set_node_up(2, False)
        net.unsubscribe(group.group_id, 3, handlers[3])

    handlers[1] = first
    for leaf in range(1, 5):
        net.subscribe(group.group_id, leaf, handlers[leaf])
    monitor = TrafficMonitor()
    net.add_observer(monitor)
    for category in ("pkt.recv", "pkt.nodedrop"):
        sim.tracer.subscribe(
            category, lambda rec: order.append((rec.category, rec.node, rec.time))
        )
    entries = []

    def send() -> None:
        net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
        entries.append(sim.pending)

    sim.at(0.0, send)
    sim.run()
    outcome = (order, monitor.total(["DATA"]), monitor.drops, sim.events_fired)
    return outcome, entries[0]


def test_sibling_crash_and_unsubscribe_match_reference_walk(monkeypatch):
    """A handler that crashes a sibling and unsubscribes another, at the
    same instant, affects them exactly as with one heap entry per arrival."""
    fast, fast_entries = _sibling_crash()
    with monkeypatch.context() as patch:
        use_reference_forwarding(patch)
        reference, reference_entries = _sibling_crash()
    assert fast == reference
    order = fast[0]
    # Node 2 is down when the packet reaches it; node 3 is no longer a
    # subscriber, so it neither records a receipt nor runs a handler.
    assert [(what, node) for what, node, _ in order] == [
        ("pkt.recv", 1),
        ("handler", 1),
        ("pkt.nodedrop", 2),
        ("pkt.recv", 4),
        ("handler", 4),
    ]
    assert len({t for _, _, t in order}) == 1  # all at the same instant
    # One send event, four arrivals, one reconvergence after the crash.
    assert fast[3] == 6
    # The four siblings shared one heap entry; the reference walk used four.
    assert (fast_entries, reference_entries) == (1, 4)


def _drop_schedules_between_siblings():
    """Zero-delay hops; dropping the middle sibling makes a ``pkt.drop``
    subscriber schedule a zero-delay event between the other two."""
    sim = Simulator(seed=5)
    net = _star(sim, 3, float("inf"), 0.0)
    net.loss_oracle = lambda link, pkt: link.dst == 2
    group = net.create_group("g")
    order = []
    for leaf in range(1, 4):
        net.subscribe(group.group_id, leaf, lambda pkt, n=leaf: order.append(n))
    sim.tracer.subscribe(
        "pkt.drop", lambda rec: sim.schedule(0.0, order.append, "marker")
    )
    entries = []

    def send() -> None:
        net.multicast(0, Packet("DATA", 0, group.group_id, 1000))
        entries.append(sim.pending)

    sim.at(1.0, send)
    sim.run()
    return (order, sim.events_fired), entries[0]


def test_sequence_used_between_siblings_splits_the_fan_out(monkeypatch):
    """Siblings merge only when no sequence number was taken in between:
    the event a drop subscriber schedules keeps its place between them."""
    fast, fast_entries = _drop_schedules_between_siblings()
    with monkeypatch.context() as patch:
        use_reference_forwarding(patch)
        reference, reference_entries = _drop_schedules_between_siblings()
    assert fast == reference == ([1, "marker", 3], 4)
    assert fast_entries == reference_entries == 3


# ------------------------------------------------------------ codec default


def test_default_codec_selection(monkeypatch):
    from repro.fec import ErasureCodec
    from repro.fec.fast import HAVE_NUMPY, NumpyErasureCodec, default_codec

    monkeypatch.delenv("SHARQFEC_PURE_FEC", raising=False)
    expected = NumpyErasureCodec if HAVE_NUMPY else ErasureCodec
    assert type(default_codec(8)) is expected
    monkeypatch.setenv("SHARQFEC_PURE_FEC", "1")
    assert type(default_codec(8)) is ErasureCodec


def test_numpy_and_pure_codecs_are_bit_identical():
    from repro.fec import ErasureCodec
    from repro.fec.fast import HAVE_NUMPY, NumpyErasureCodec

    if not HAVE_NUMPY:
        pytest.skip("numpy unavailable; only the pure path exists")
    k, width, n_repairs = 12, 97, 5
    data = [bytes((i * 37 + j * 11 + 5) % 256 for j in range(width)) for i in range(k)]
    pure, fast = ErasureCodec(k), NumpyErasureCodec(k)
    pure_repairs = pure.encode(data, n_repairs)
    fast_repairs = fast.encode(data, n_repairs)
    assert pure_repairs == fast_repairs
    # Drop the first n_repairs data blocks; both decoders must rebuild them.
    available = {i: data[i] for i in range(n_repairs, k)}
    for r in range(n_repairs):
        available[k + r] = pure_repairs[r]
    assert pure.decode(dict(available)) == fast.decode(dict(available)) == data
