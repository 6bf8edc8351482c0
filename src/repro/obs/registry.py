"""A small metrics registry: counters, gauges, time-binned histograms.

The registry is the in-process half of the observability layer: protocol
hooks and trace listeners update metrics here, and the JSONL exporter
(:mod:`repro.obs.export`) serializes a snapshot at run end.  Metrics are
identified by ``(name, labels)`` — labels are a frozen, sorted tuple of
``(key, value)`` pairs, so ``registry.counter("repairs", zone=3)`` always
resolves to the same object.

Everything is plain Python with O(1) updates; no background threads, no
locks (the simulator is single-threaded), and nothing here is on the
forwarding hot path — the network layer only reaches the registry through
tracer subscriptions, which cost nothing when no observer is attached.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.binning import BinCursor, n_bins

LabelKey = Tuple[Tuple[str, object], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can move in both directions (queue depth, completion)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class TimeHistogram:
    """Per-interval event counts over virtual time.

    The same shape as one :class:`~repro.net.monitor.TrafficMonitor` series
    — a sparse ``{bin_index: count}`` dict over fixed-width bins — and the
    same integer-safe binning (a :class:`repro.obs.binning.BinCursor`), so
    an observation at exactly ``t = k * bin_width`` lands in bin ``k``.
    """

    __slots__ = ("name", "labels", "bin_width", "bins", "count", "total", "_bin")

    def __init__(self, name: str, labels: LabelKey, bin_width: float) -> None:
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.name = name
        self.labels = labels
        self.bin_width = float(bin_width)
        self.bins: Dict[int, float] = {}
        self.count = 0
        self.total = 0.0
        self._bin = BinCursor(self.bin_width).index

    def observe(self, time: float, amount: float = 1.0) -> None:
        """Record ``amount`` at virtual ``time``."""
        index = self._bin(time)
        self.bins[index] = self.bins.get(index, 0) + amount
        self.count += 1
        self.total += amount

    def series(self, t_end: Optional[float] = None) -> List[float]:
        """Dense per-bin values from t=0, padded with zeros to ``t_end``."""
        length = n_bins(t_end, self.bin_width) if t_end is not None else 0
        if self.bins:
            length = max(length, max(self.bins) + 1)
        return [self.bins.get(i, 0) for i in range(length)]


class MetricsRegistry:
    """Owner of every metric of one run, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], TimeHistogram] = {}

    # ------------------------------------------------------------- accessors

    def counter(self, name: str, **labels: object) -> Counter:
        """Fetch-or-create the counter ``name{labels}``."""
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(name, key[1])
        return metric

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Fetch-or-create the gauge ``name{labels}``."""
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(self, name: str, bin_width: float = 0.1, **labels: object) -> TimeHistogram:
        """Fetch-or-create the time histogram ``name{labels}``.

        ``bin_width`` only applies on creation; a later fetch with a
        different width is a programming error and raises.
        """
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = TimeHistogram(name, key[1], bin_width)
        elif metric.bin_width != float(bin_width):
            raise ValueError(
                f"histogram {name!r} already registered with "
                f"bin_width={metric.bin_width}, not {bin_width}"
            )
        return metric

    # --------------------------------------------------------------- queries

    def counters(self) -> Iterator[Counter]:
        return iter(self._counters.values())

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[TimeHistogram]:
        return iter(self._histograms.values())

    def counter_values(self, name: str) -> Dict[LabelKey, int]:
        """All label-sets of one counter family, mapped to their values."""
        return {
            labels: c.value
            for (n, labels), c in self._counters.items()
            if n == name
        }

    def labeled_totals(self, name: str, label: str) -> Dict[object, int]:
        """Collapse one counter family onto a single label dimension.

        E.g. ``labeled_totals("repairs_sent", "zone")`` returns
        ``{zone_id: total}`` summed over every other label.
        """
        out: Dict[object, int] = {}
        for (n, labels), counter in self._counters.items():
            if n != name:
                continue
            value = dict(labels).get(label)
            out[value] = out.get(value, 0) + counter.value
        return out

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> List[Dict[str, object]]:
        """Serializable records for every metric (the export payload)."""
        records: List[Dict[str, object]] = []
        for counter in self._counters.values():
            records.append(
                {
                    "record": "counter",
                    "name": counter.name,
                    "labels": dict(counter.labels),
                    "value": counter.value,
                }
            )
        for gauge in self._gauges.values():
            records.append(
                {
                    "record": "gauge",
                    "name": gauge.name,
                    "labels": dict(gauge.labels),
                    "value": gauge.value,
                }
            )
        for hist in self._histograms.values():
            records.append(
                {
                    "record": "hist",
                    "name": hist.name,
                    "labels": dict(hist.labels),
                    "bin_width": hist.bin_width,
                    "count": hist.count,
                    "total": hist.total,
                    "bins": {str(i): v for i, v in sorted(hist.bins.items())},
                }
            )
        return records

    def restore(self, records: List[Dict[str, object]]) -> None:
        """Rebuild metrics from :meth:`snapshot` output (loader support)."""
        for rec in records:
            kind = rec.get("record")
            labels = {str(k): v for k, v in dict(rec.get("labels", {})).items()}
            if kind == "counter":
                self.counter(str(rec["name"]), **labels).inc(int(rec["value"]))
            elif kind == "gauge":
                self.gauge(str(rec["name"]), **labels).set(float(rec["value"]))
            elif kind == "hist":
                hist = self.histogram(
                    str(rec["name"]), float(rec["bin_width"]), **labels
                )
                hist.bins = {int(i): v for i, v in dict(rec["bins"]).items()}
                hist.count = int(rec.get("count", 0))
                hist.total = float(rec.get("total", 0.0))

    def merge(self, records: List[Dict[str, object]]) -> None:
        """Additively merge :meth:`snapshot` output into this registry.

        Unlike :meth:`restore` (which overwrites histogram state), merging
        sums histogram bins/count/total and *adds* gauge values — the
        sharded engine folds per-shard registries with this, in canonical
        shard order so the merged insertion order is deterministic.
        """
        for rec in records:
            kind = rec.get("record")
            labels = {str(k): v for k, v in dict(rec.get("labels", {})).items()}
            if kind == "counter":
                self.counter(str(rec["name"]), **labels).inc(int(rec["value"]))
            elif kind == "gauge":
                self.gauge(str(rec["name"]), **labels).add(float(rec["value"]))
            elif kind == "hist":
                hist = self.histogram(
                    str(rec["name"]), float(rec["bin_width"]), **labels
                )
                for i, v in dict(rec["bins"]).items():
                    index = int(i)
                    hist.bins[index] = hist.bins.get(index, 0) + v
                hist.count += int(rec.get("count", 0))
                hist.total += float(rec.get("total", 0.0))
