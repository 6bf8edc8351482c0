"""SRM protocol data units."""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.net.packet import Packet


class SrmDataPdu(Packet):
    """An original data packet (sequence-numbered, no grouping)."""

    __slots__ = ("seq",)

    def __init__(self, src: int, group: int, size_bytes: int, seq: int) -> None:
        super().__init__("DATA", src, group, size_bytes)
        self.seq = seq

    _DESCRIBE_FIELDS = ("seq",)


class SrmRequestPdu(Packet):
    """A repair request for one specific sequence number."""

    __slots__ = ("seq",)

    def __init__(self, src: int, group: int, size_bytes: int, seq: int) -> None:
        super().__init__("NACK", src, group, size_bytes, loss_exempt=True)
        self.seq = seq

    _DESCRIBE_FIELDS = ("seq",)


class SrmRepairPdu(Packet):
    """A retransmission of one original packet."""

    __slots__ = ("seq",)

    def __init__(self, src: int, group: int, size_bytes: int, seq: int) -> None:
        super().__init__("REPAIR", src, group, size_bytes)
        self.seq = seq

    _DESCRIBE_FIELDS = ("seq",)


class SrmSessionEntry(NamedTuple):
    """Echo record about one peer (same role as SHARQFEC's SessionEntry)."""

    peer_id: int
    peer_timestamp: float
    elapsed: float


class SrmSessionPdu(Packet):
    """Full-mesh session message: timestamp echoes + highest sequence seen.

    The advertised ``highest_seq`` lets receivers detect tail losses that
    sequence gaps cannot reveal — standard SRM session semantics.
    """

    __slots__ = ("timestamp", "highest_seq", "entries", "_by_peer")

    def __init__(
        self,
        src: int,
        group: int,
        size_bytes: int,
        timestamp: float,
        highest_seq: int,
        entries: Tuple[SrmSessionEntry, ...],
    ) -> None:
        super().__init__("SESSION", src, group, size_bytes, loss_exempt=True)
        self.timestamp = timestamp
        self.highest_seq = highest_seq
        self.entries = entries
        self._by_peer: Optional[Dict[int, SrmSessionEntry]] = None

    _DESCRIBE_FIELDS = ("timestamp", "highest_seq", "entries")

    def entry_for(self, peer_id: int) -> Optional[SrmSessionEntry]:
        """The echo record about ``peer_id``, or None when it is absent.

        One multicast reaches every member, and each looks up only its own
        entry, so the peer index is built once per PDU object (on the first
        lookup) and shared by all receivers.  It is derived from
        ``entries`` and never encoded by :mod:`repro.transport.wire`.
        Entries are unique per peer (they are built from a dict).
        """
        by_peer = self._by_peer
        if by_peer is None:
            by_peer = self._by_peer = {entry.peer_id: entry for entry in self.entries}
        return by_peer.get(peer_id)
