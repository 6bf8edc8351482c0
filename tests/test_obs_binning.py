"""The bin cursor is a memo of ``bin_index``: same answer for every time."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.binning as binning
from repro.obs.binning import CURSOR_MAX_INDEX, BinCursor, bin_index

WIDTHS = st.sampled_from([0.1, 0.05, 0.25, 0.3, 1.0, 1e-3, 7.0, 1 / 3])
TIMES = st.floats(min_value=-1e3, max_value=1e5, allow_nan=False)


def assert_matches(width, times):
    cursor = BinCursor(width)
    for t in times:
        assert cursor.index(t) == bin_index(t, width), (t, width)


def boundary_times(width, k):
    """``k * width``, one ulp and 1e-12 either side of it, and (for small
    ``k``) the same edge reached by summing ``width`` step by step."""
    edge = k * width
    times = [
        edge,
        math.nextafter(edge, math.inf),
        math.nextafter(edge, -math.inf),
        edge + 1e-12,
        edge - 1e-12,
    ]
    if k <= 50:
        times.append(sum([width] * k))
    return times


@settings(max_examples=200, deadline=None)
@given(WIDTHS, st.lists(TIMES, max_size=60))
def test_cursor_matches_bin_index_in_any_order(width, times):
    assert_matches(width, times)


@settings(max_examples=200, deadline=None)
@given(WIDTHS, st.lists(TIMES, max_size=60))
def test_cursor_matches_bin_index_on_monotone_times(width, times):
    assert_matches(width, sorted(times))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-4, max_value=1e3, allow_nan=False, allow_infinity=False),
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=20),
)
def test_cursor_matches_bin_index_on_boundaries(width, ks):
    times = [t for k in ks for t in boundary_times(width, k)]
    assert_matches(width, times)
    assert_matches(width, sorted(times))


def test_cursor_matches_bin_index_on_every_small_boundary():
    for width in (0.1, 0.05, 0.3, 1.0):
        times = [t for k in range(2000) for t in boundary_times(width, k)]
        assert_matches(width, times)


@settings(max_examples=100, deadline=None)
@given(
    WIDTHS,
    st.lists(
        st.integers(min_value=CURSOR_MAX_INDEX - 3, max_value=CURSOR_MAX_INDEX * 10**4),
        min_size=1,
        max_size=10,
    ),
)
def test_cursor_matches_bin_index_at_huge_indices(width, ks):
    times = [t for k in ks for t in boundary_times(width, k)]
    assert_matches(width, times)


def test_cursor_caches_ordinary_bins_and_stops_caching_huge_ones(monkeypatch):
    calls = []
    real = binning.bin_index

    def counting(time, width):
        calls.append(time)
        return real(time, width)

    monkeypatch.setattr(binning, "bin_index", counting)
    cursor = BinCursor(0.1)
    for t in (0.31, 0.32, 0.35, 0.3999):
        assert cursor.index(t) == 3
    assert len(calls) == 1
    huge = (CURSOR_MAX_INDEX + 10) * 0.1 + 0.05
    expected = real(huge, 0.1)
    calls.clear()
    for _ in range(3):
        assert cursor.index(huge) == expected
    assert len(calls) == 3
    # The last cached (ordinary) bin is still answered from the cache.
    calls.clear()
    assert cursor.index(0.33) == 3
    assert calls == []
