"""Reference multicast forwarding: the per-packet children-dict walk.

``Network`` forwards multicast along compiled per-hop delivery schedules.
This module keeps the straightforward walk it was derived from — one
``children`` dict lookup, one ``_drops`` call and one ``link.transmit`` per
hop, observers dispatched by name — as a test oracle.  Swapping it in with
:func:`use_reference_forwarding` must leave every delivery, loss draw,
trace record and observer event unchanged; the equivalence tests
(``test_perf_optimizations.py``, ``test_env_toggle_matrix.py``) pin that.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ScopeError, TopologyError
from repro.net.monitor import PacketEvent
from repro.net.network import Network
from repro.net.packet import Packet


def _notify(net: Network, method: str, event: PacketEvent) -> None:
    for observer in net._observers:
        callback = getattr(observer, method, None)
        if callback is not None:
            callback(event)


def multicast(net: Network, src: int, packet: Packet) -> None:
    """Reference :meth:`Network.multicast`."""
    group = net._group(packet.group)
    if not group.allows(src):
        raise ScopeError(
            f"node {src} cannot send on group {group.name!r}: outside scope"
        )
    if net.sim.tracer.version != net._trace_version:
        net._refresh_trace_flags()
    if not net.nodes[src].up:
        # A crashed host's transmissions die at the NIC.
        if net._t_stifled:
            net.sim.tracer.emit(net.sim.now, "pkt.stifled", src, packet)
        return
    children = net._tree_for(src, group)
    if net._observers:
        _notify(
            net,
            "on_send",
            PacketEvent(net.sim.now, src, packet.kind, packet.size_bytes, True),
        )
    if net._t_send:
        net.sim.tracer.emit(net.sim.now, "pkt.send", src, packet)
    _forward_hops(net, children, src, packet)


def _forward_hops(net: Network, children: Dict[int, List[int]], node: int, packet: Packet) -> None:
    kids = children.get(node)
    if not kids:
        return
    now = net.sim.now
    for child in kids:
        link = net._links[(node, child)]
        if net._drops(link, packet):
            link.record_drop()
            if net._observers:
                _notify(
                    net,
                    "on_drop",
                    PacketEvent(now, child, packet.kind, packet.size_bytes, False),
                )
            net.sim.tracer.emit(now, "pkt.drop", child, packet)
            continue
        arrival = link.transmit(now, packet.size_bytes)
        if arrival is None:  # drop-tail queue overflow
            if net._observers:
                _notify(
                    net,
                    "on_drop",
                    PacketEvent(now, child, packet.kind, packet.size_bytes, False),
                )
            net.sim.tracer.emit(now, "pkt.qdrop", child, packet)
            continue
        if net._owned is not None and child not in net._owned:
            net._boundary(arrival, child, packet)
            continue
        net.sim.at(arrival, _arrive_multicast, net, packet, children, child)


def _arrive_multicast(net: Network, packet: Packet, children: Dict[int, List[int]], node: int) -> None:
    if not net.nodes[node].up:
        # The packet reached a crashed node: neither delivered to local
        # handlers nor forwarded into the subtree below.
        if net._observers:
            _notify(
                net,
                "on_drop",
                PacketEvent(net.sim.now, node, packet.kind, packet.size_bytes, False),
            )
        net.sim.tracer.emit(net.sim.now, "pkt.nodedrop", node, packet)
        return
    group = net.groups.get(packet.group)
    is_subscriber = group is not None and node in group.subscribers
    if net._observers:
        _notify(
            net,
            "on_receive",
            PacketEvent(net.sim.now, node, packet.kind, packet.size_bytes, is_subscriber),
        )
    if is_subscriber:
        net.sim.tracer.emit(net.sim.now, "pkt.recv", node, packet)
        net.nodes[node].deliver(packet)
    _forward_hops(net, children, node, packet)


def deliver_remote(net: Network, packet: Packet, node: int) -> None:
    """Reference :meth:`Network.deliver_remote`."""
    if node not in net.nodes:
        raise TopologyError(f"unknown node {node}")
    if net.sim.tracer.version != net._trace_version:
        net._refresh_trace_flags()
    group = net._group(packet.group)
    children = net._tree_for(packet.src, group)
    _arrive_multicast(net, packet, children, node)


def use_reference_forwarding(monkeypatch) -> None:
    """Route every ``Network`` through the reference walk for this test."""
    monkeypatch.setattr(Network, "multicast", multicast)
    monkeypatch.setattr(Network, "deliver_remote", deliver_remote)
