"""Exact time-to-bin arithmetic shared by every interval-binning consumer.

The paper's traffic figures count packets over 0.1 s intervals, and binary
floating point cannot represent 0.1: the naive ``int(t / width)`` misplaces
arrivals that land exactly on a bin boundary (``0.3 / 0.1`` is
``2.9999999999999996``, so an arrival at t = 0.3 s lands in bin 2 instead
of bin 3).  These helpers snap quotients that sit within a relative epsilon
of an integer back onto it, so the half-open bin convention
``bin k = [k*width, (k+1)*width)`` holds for boundary times regardless of
how the time was computed.

Everything that bins by time — :class:`repro.net.monitor.TrafficMonitor`,
the :class:`repro.obs.registry.TimeHistogram`, the series padding in the
figure pipeline — goes through :func:`bin_index` / :func:`n_bins`, or
through a :class:`BinCursor` (a memo of :func:`bin_index` for the per-packet
hot paths), so the whole tree shares one definition of "which bin is t in".
"""

from __future__ import annotations

import math

#: Relative tolerance for recognizing "t is exactly a bin boundary up to
#: float error".  Simulation times come out of sums of latencies and
#: serialization delays, so accumulated error is a few ulps — 1e-9 relative
#: is orders of magnitude above that while still far below any physically
#: distinct event spacing.
BOUNDARY_RTOL = 1e-9


def bin_index(time: float, bin_width: float) -> int:
    """The index of the half-open bin ``[k*bin_width, (k+1)*bin_width)``
    containing ``time``, robust to float bin-edge error.

    An arrival at exactly ``t = k * bin_width`` lands in bin ``k`` even
    when the division rounds just below ``k``.
    """
    q = time / bin_width
    nearest = round(q)
    if abs(q - nearest) <= BOUNDARY_RTOL * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.floor(q))


def n_bins(t_end: float, bin_width: float) -> int:
    """Number of bins covering ``[0, t_end)`` (0 when ``t_end <= 0``).

    ``ceil`` with the same boundary snap as :func:`bin_index`: an end time
    of exactly ``k * bin_width`` needs exactly ``k`` bins, whether the
    quotient rounds just above ``k`` (a plain ``ceil`` would give ``k + 1``)
    or just below it.
    """
    if t_end <= 0.0:
        return 0
    q = t_end / bin_width
    nearest = round(q)
    if abs(q - nearest) <= BOUNDARY_RTOL * max(1.0, abs(nearest)):
        return int(nearest)
    return int(math.ceil(q))


def bin_start(index: int, bin_width: float) -> float:
    """Left edge of bin ``index``."""
    return index * bin_width


def bin_midpoint(index: int, bin_width: float) -> float:
    """Midpoint time of bin ``index`` (what the figure tables print)."""
    return (index + 0.5) * bin_width


#: Past this index the snap tolerance ``BOUNDARY_RTOL * k`` is no longer
#: small against one bin, so :class:`BinCursor` stops caching.
CURSOR_MAX_INDEX = int(0.25 / BOUNDARY_RTOL)


class BinCursor:
    """:func:`bin_index` for one ``bin_width``, memoized on the last bin.

    Consecutive lookups from one run mostly fall in the same bin.  After a
    lookup lands in bin ``0 <= k < CURSOR_MAX_INDEX`` the cursor keeps a
    safe interior ``[lo, hi)`` of that bin — every time in it is one
    :func:`bin_index` maps to ``k`` — and answers times inside it without
    redoing the arithmetic.  ``lo`` is ``k * width`` (a quotient at or just
    under ``k`` snaps or floors to ``k``); ``hi`` is
    ``(k + 1) * (1 - 2 * BOUNDARY_RTOL) * width``, twice the snap tolerance
    short of the next edge, so float error in ``t / width`` (a few ulps) can
    never reach the region that snaps up to ``k + 1``.  Any other time falls
    through to :func:`bin_index`, so results are identical for every time,
    in any order.
    """

    __slots__ = ("width", "_hi_scale", "_lo", "_hi", "_index")

    def __init__(self, bin_width: float) -> None:
        self.width = float(bin_width)
        self._hi_scale = (1.0 - 2.0 * BOUNDARY_RTOL) * self.width
        self._lo = math.inf  # empty interval: the first lookup misses
        self._hi = -math.inf
        self._index = 0

    def index(self, time: float) -> int:
        """``bin_index(time, self.width)``."""
        if self._lo <= time < self._hi:
            return self._index
        k = bin_index(time, self.width)
        if 0 <= k < CURSOR_MAX_INDEX:
            self._lo = k * self.width
            self._hi = (k + 1) * self._hi_scale
            self._index = k
        return k
