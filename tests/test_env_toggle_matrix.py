"""The implementation-equivalence matrix.

Forwarding (``Network``'s compiled schedules vs the reference walk in
``tests/forwarding_oracle.py``) and ``SHARQFEC_PURE_FEC`` (pure-python vs
accelerated codec) select implementations, not behaviors: every
combination must produce the same simulation, event for event.  The
oracle is patched onto ``Network`` and the codec toggle is read at codec
construction, so the matrix runs in-process.

The check is maximally strict: the exported trace and metrics JSONL files
of all four combinations must be byte-identical.
"""

from __future__ import annotations

import itertools
import os

import pytest

from repro.experiments.common import (
    ObservabilityOptions,
    observe_runs,
    run_slug,
    run_traffic,
)
from tests.forwarding_oracle import use_reference_forwarding

N_PACKETS = 16
SEED = 7

COMBOS = list(itertools.product(["0", "1"], ["0", "1"]))


def _run_combo(tmp_path, monkeypatch, compiled: str, pure_fec: str):
    root = tmp_path / f"c{compiled}_f{pure_fec}"
    options = ObservabilityOptions(
        metrics_dir=str(root / "metrics"), trace_dir=str(root / "trace")
    )
    with monkeypatch.context() as patch:
        patch.setenv("SHARQFEC_PURE_FEC", pure_fec)
        if compiled == "0":
            use_reference_forwarding(patch)
        with observe_runs(options):
            result = run_traffic("SHARQFEC", n_packets=N_PACKETS, seed=SEED, drain=5.0)
    slug = run_slug("SHARQFEC", N_PACKETS, SEED, drain=5.0)
    with open(os.path.join(options.trace_dir, f"{slug}.trace.jsonl"), "rb") as f:
        trace_bytes = f.read()
    with open(os.path.join(options.metrics_dir, f"{slug}.metrics.jsonl"), "rb") as f:
        metrics_bytes = f.read()
    return result, trace_bytes, metrics_bytes


def test_forwarding_and_codec_toggles_are_behavior_preserving(tmp_path, monkeypatch):
    results = {}
    for compiled, pure_fec in COMBOS:
        results[(compiled, pure_fec)] = _run_combo(
            tmp_path, monkeypatch, compiled, pure_fec
        )

    baseline_result, baseline_trace, baseline_metrics = results[("1", "0")]
    assert len(baseline_trace.splitlines()) > N_PACKETS  # a real trace
    for combo, (result, trace_bytes, metrics_bytes) in results.items():
        assert trace_bytes == baseline_trace, f"trace diverged for {combo}"
        assert metrics_bytes == baseline_metrics, f"metrics diverged for {combo}"
        assert result.completion == baseline_result.completion
        assert result.nacks_sent == baseline_result.nacks_sent
        assert result.events == baseline_result.events


def test_toggles_select_distinct_implementations(monkeypatch):
    """The matrix is meaningful: the toggles really switch code paths."""
    from repro.fec.codec import ErasureCodec
    from repro.fec.fast import HAVE_NUMPY, default_codec
    from repro.net.network import Network
    from repro.net.packet import Packet
    from repro.sim.scheduler import Simulator

    monkeypatch.setenv("SHARQFEC_PURE_FEC", "1")
    pure = default_codec(4)
    assert type(pure) is ErasureCodec
    monkeypatch.setenv("SHARQFEC_PURE_FEC", "0")
    fast = default_codec(4)
    if HAVE_NUMPY:
        assert type(fast) is not ErasureCodec

    def send_one() -> Network:
        net = Network(Simulator(seed=1))
        for _ in range(3):
            net.add_node()
        net.add_link(0, 1, 10e6, 0.010)
        net.add_link(1, 2, 10e6, 0.010)
        group = net.create_group("g")
        net.subscribe(group.group_id, 2, lambda packet: None)
        net.multicast(0, Packet("DATA", 0, group.group_id, 100))
        net.sim.run()
        return net

    assert send_one()._sched_cache  # compiled schedules were built
    use_reference_forwarding(monkeypatch)
    assert not send_one()._sched_cache  # the oracle walks the children dict
