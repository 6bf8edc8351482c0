"""Equivalence tests: the NumPy codec must match the reference bit-exactly."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError, ConfigError
from repro.fec.codec import ErasureCodec
from repro.fec.fast import HAVE_NUMPY, NumpyErasureCodec, default_codec


def make_data(k, width=64, seed=3):
    return [bytes((seed * 31 + i * 7 + j) % 256 for j in range(width)) for i in range(k)]


def test_encode_matches_reference():
    k = 16
    data = make_data(k)
    ref = ErasureCodec(k).encode(data, 6)
    fast = NumpyErasureCodec(k).encode(data, 6)
    assert fast == ref


def test_encode_one_matches_reference():
    k = 8
    data = make_data(k)
    ref = ErasureCodec(k)
    fast = NumpyErasureCodec(k)
    for r in range(5):
        assert fast.encode_one(data, r) == ref.encode_one(data, r)


def test_decode_matches_reference():
    k = 8
    data = make_data(k)
    fast = NumpyErasureCodec(k)
    repairs = fast.encode(data, k)
    packets = {0: data[0], 3: data[3]}
    packets.update({k + r: repairs[r] for r in range(k - 2)})
    assert fast.decode(packets) == data
    assert ErasureCodec(k).decode(packets) == data


def test_zero_repairs():
    fast = NumpyErasureCodec(4)
    assert fast.encode(make_data(4), 0) == []


def test_all_original_fast_path():
    k = 4
    data = make_data(k)
    assert NumpyErasureCodec(k).decode({i: data[i] for i in range(k)}) == data


def test_validation_shared_with_reference():
    fast = NumpyErasureCodec(3)
    with pytest.raises(CodecError):
        fast.encode([b"aa", b"bb"], 1)
    with pytest.raises(CodecError):
        fast.encode([b"aa", b"bb", b"ccc"], 1)
    with pytest.raises(CodecError):
        fast.decode({0: b"aa", 1: b"bb"})
    with pytest.raises(CodecError):
        fast.encode(make_data(3), -1)


def test_can_decode_delegates():
    fast = NumpyErasureCodec(4)
    assert fast.can_decode([0, 1, 5, 9])
    assert not fast.can_decode([0, 1, 2])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=128),
    st.randoms(use_true_random=False),
)
def test_random_roundtrips_equal_reference(k, n_repairs, width, rnd):
    data = [bytes(rnd.randrange(256) for _ in range(width)) for _ in range(k)]
    ref = ErasureCodec(k)
    fast = NumpyErasureCodec(k)
    assert fast.encode(data, n_repairs) == ref.encode(data, n_repairs)
    pool = {i: data[i] for i in range(k)}
    repairs = fast.encode(data, n_repairs)
    pool.update({k + r: repairs[r] for r in range(n_repairs)})
    indices = sorted(pool)
    rnd.shuffle(indices)
    survivors = {i: pool[i] for i in indices[: k]}
    if len(survivors) >= k:
        assert fast.decode(survivors) == data


# ------------------------------------------------------- codec selection


@pytest.mark.parametrize("value", [None, "0", "1"])
def test_default_codec_env(monkeypatch, value):
    """``SHARQFEC_PURE_FEC=1`` forces the reference codec; unset or ``0``
    takes the numpy codec whenever numpy imports."""
    if value is None:
        monkeypatch.delenv("SHARQFEC_PURE_FEC", raising=False)
    else:
        monkeypatch.setenv("SHARQFEC_PURE_FEC", value)
    expected = NumpyErasureCodec if HAVE_NUMPY and value != "1" else ErasureCodec
    assert type(default_codec(4)) is expected


@pytest.mark.parametrize("value", ["true", "yes", "on", "off", "", " 1", "2"])
def test_default_codec_rejects_other_env_values(monkeypatch, value):
    """Anything but unset/``0``/``1`` is an error, never a silent "off"."""
    monkeypatch.setenv("SHARQFEC_PURE_FEC", value)
    with pytest.raises(ConfigError, match="SHARQFEC_PURE_FEC"):
        default_codec(4)
