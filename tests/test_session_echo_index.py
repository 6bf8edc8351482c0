"""Session echoes are found through the per-PDU peer index.

A session message is one multicast; each receiver closes the RTT loop on
the one entry about itself.  These tests pin that the indexed lookup gives
what the old linear scan over ``pdu.entries`` gave — one RTT sample when the
receiver's entry is present wherever it sits, none when it is absent —
that the index survives a shard crossing (a pickle after a local receiver
already consulted it), and that it never reaches the wire.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import SharqfecConfig
from repro.core.pdus import SessionEntry, SessionPdu
from repro.core.rtt import RttTable
from repro.core.session import SessionManager
from repro.net.network import Network
from repro.scoping.channels import ScopedChannels
from repro.scoping.zone import ZoneHierarchy
from repro.sim.scheduler import Simulator
from repro.srm.agent import SrmAgent
from repro.srm.config import SrmConfig
from repro.srm.pdus import SrmSessionEntry, SrmSessionPdu
from repro.transport.wire import decode, encode

ME = 1
PEER = 0
OTHERS = (5, 7, 9, 11)
POSITIONS = ("first", "middle", "last", "absent")


def peer_order(position):
    """Peer ids of a session message with our entry at ``position``."""
    others = list(OTHERS)
    if position == "first":
        return [ME] + others
    if position == "middle":
        return others[:2] + [ME] + others[2:]
    if position == "last":
        return others + [ME]
    return others


def scan_oracle(pdu, node_id, now):
    """The pre-index behaviour: a fresh table fed by a linear scan."""
    table = RttTable(node_id)
    samples = 0
    for entry in pdu.entries:
        if entry.peer_id == node_id:
            table.close_echo(pdu.src, entry.peer_timestamp, entry.elapsed, now)
            samples += 1
    return samples, table.get(pdu.src)


def count_echoes(monkeypatch, rtt):
    closed = []
    real = rtt.close_echo

    def counting(*args):
        closed.append(args)
        return real(*args)

    monkeypatch.setattr(rtt, "close_echo", counting)
    return closed


# ------------------------------------------------------------------- SRM


def srm_receiver(node_id=ME):
    sim = Simulator(seed=1)
    net = Network(sim)
    for _ in range(2):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.010)
    members = {0, 1}
    data = net.create_group("d", scope=members).group_id
    sess = net.create_group("s", scope=members).group_id
    agent = SrmAgent(node_id, sim, net, data, sess, SrmConfig(n_packets=8), PEER)
    sim.run(until=2.0)
    return agent


def srm_pdu(position):
    entries = tuple(
        SrmSessionEntry(peer, 0.25 + 0.01 * peer, 0.125) for peer in peer_order(position)
    )
    return SrmSessionPdu(PEER, 0, 40 + 12 * len(entries), 1.5, -1, entries)


@pytest.mark.parametrize("position", POSITIONS)
def test_srm_echo_matches_linear_scan(monkeypatch, position):
    agent = srm_receiver()
    pdu = srm_pdu(position)
    closed = count_echoes(monkeypatch, agent.rtt)
    agent._handle_session(pdu)
    samples, estimate = scan_oracle(pdu, ME, agent.clock.now)
    assert len(closed) == samples == (0 if position == "absent" else 1)
    assert agent.rtt.get(PEER) == estimate
    assert (estimate is None) == (position == "absent")


@pytest.mark.parametrize("position", POSITIONS)
def test_srm_echo_survives_a_shard_crossing(position):
    pdu = srm_pdu(position)
    local = srm_receiver()
    local._handle_session(pdu)  # builds the index on this PDU object
    crossed = pickle.loads(pickle.dumps(pdu))
    remote, fresh = srm_receiver(), srm_receiver()
    remote._handle_session(crossed)
    fresh._handle_session(srm_pdu(position))
    assert crossed.entries == pdu.entries
    assert remote.rtt.get(PEER) == fresh.rtt.get(PEER) == local.rtt.get(PEER)


def test_srm_index_is_not_on_the_wire():
    pdu = srm_pdu("middle")
    frame = encode(pdu)
    assert pdu.entry_for(ME) == SrmSessionEntry(ME, 0.26, 0.125)
    assert encode(pdu) == frame
    clone = decode(frame)
    assert clone.entries == pdu.entries
    assert clone.entry_for(ME) == pdu.entry_for(ME)
    assert clone.entry_for(3) is None


# -------------------------------------------------------------- SHARQFEC


def sharqfec_session():
    """Node ``ME`` in leaf zone ZA = {1, 2, 3}, whose ZCR is node 2.

    ``PEER`` sits in ZA too, so its session messages on ZA are ones ``ME``
    participates in; node 2's messages on the root zone are the ZCR
    parent-zone announcements ``ME`` overhears.
    """
    sim = Simulator(seed=0)
    net = Network(sim)
    for _ in range(6):
        net.add_node()
    net.add_link(0, 1, 10e6, 0.01)
    h = ZoneHierarchy()
    root = h.add_root(range(6), name="Z0")
    za = h.add_zone(root.zone_id, {0, 1, 2, 3}, name="ZA")
    channels = ScopedChannels(net, h)
    session = SessionManager(ME, sim, net, channels, SharqfecConfig(n_packets=8), top_zcr=0)
    session.zcr_ids[za.zone_id] = 2
    sim.run(until=2.0)
    return session, root, za


def sharqfec_pdu(position, zone, src=PEER, rtts=None):
    entries = tuple(
        SessionEntry(peer, 0.25 + 0.01 * peer, 0.125, (rtts or {}).get(peer, -1.0))
        for peer in peer_order(position)
    )
    return SessionPdu(src, 0, 40 + 16 * len(entries), zone.zone_id, 1.5, 2, 0.03, entries)


@pytest.mark.parametrize("position", POSITIONS)
def test_sharqfec_echo_matches_linear_scan(monkeypatch, position):
    session, root, za = sharqfec_session()
    pdu = sharqfec_pdu(position, za)
    closed = count_echoes(monkeypatch, session.rtt)
    session.handle_session(pdu)
    samples, estimate = scan_oracle(pdu, ME, session.clock.now)
    assert len(closed) == samples == (0 if position == "absent" else 1)
    assert session.rtt.get(PEER) == estimate


@pytest.mark.parametrize("position", POSITIONS)
def test_sharqfec_echo_survives_a_shard_crossing(position):
    _, _, za = sharqfec_session()
    pdu = sharqfec_pdu(position, za)
    local = sharqfec_session()[0]
    local.handle_session(pdu)
    crossed = pickle.loads(pickle.dumps(pdu))
    remote, fresh = sharqfec_session()[0], sharqfec_session()[0]
    remote.handle_session(crossed)
    fresh.handle_session(sharqfec_pdu(position, za))
    assert crossed.entries == pdu.entries
    assert remote.rtt.get(PEER) == fresh.rtt.get(PEER) == local.rtt.get(PEER)


def test_sharqfec_overheard_zcr_rtts_match_linear_scan():
    session, root, za = sharqfec_session()
    rtts = {5: 0.04, 7: -1.0, 9: 0.0, 11: 0.09}
    pdu = sharqfec_pdu("absent", root, src=2, rtts=rtts)
    session.handle_session(pdu)
    for peer, rtt in rtts.items():
        expected = rtt if rtt >= 0 else None
        assert session.rtt.zcr_peer_rtt(2, peer) == expected
    assert pdu.peer_rtts() == ((5, 0.04), (9, 0.0), (11, 0.09))


def test_sharqfec_overhear_without_known_rtts_records_nothing():
    session, root, za = sharqfec_session()
    before = session.rtt.state_size()
    session.handle_session(sharqfec_pdu("absent", root, src=2))
    assert session.rtt.state_size() == before
    assert session.rtt.zcr_peer_rtt(2, 5) is None


def test_sharqfec_index_is_not_on_the_wire():
    _, _, za = sharqfec_session()
    pdu = sharqfec_pdu("last", za, rtts={5: 0.02})
    frame = encode(pdu)
    assert pdu.entry_for(ME).peer_id == ME
    assert pdu.peer_rtts() == ((5, 0.02),)
    assert encode(pdu) == frame
    clone = decode(frame)
    assert clone.entries == pdu.entries
    assert clone.entry_for(ME) == pdu.entry_for(ME)
    assert clone.peer_rtts() == pdu.peer_rtts()
