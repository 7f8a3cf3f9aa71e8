"""Ablation: batch streaming (throughput mode).

The paper evaluates batch 1 (Sec. 5).  With back-to-back samples, fill,
filter-load, and staging amortize over the batch, so throughput rises
toward the steady-state pipeline rate and then saturates — quantifying
how much of batch-1 latency is one-time overhead.
"""

import pytest

from repro.errors import MappingError
from repro.nn.workloads import resnet18_spec
from repro.sim import simulate


def test_batch_scaling(benchmark):
    net = resnet18_spec()

    def run():
        return {b: simulate(net, batch=b) for b in (1, 2, 8, 32)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    thr = {b: r.throughput_samples_s for b, r in results.items()}

    # Throughput rises monotonically with batch and saturates.
    assert thr[1] < thr[2] < thr[8] <= thr[32] * 1.001
    gain_1_to_8 = thr[8] / thr[1]
    gain_8_to_32 = thr[32] / thr[8]
    assert gain_1_to_8 > 1.02
    assert gain_8_to_32 < gain_1_to_8

    # Batch-1 is already near steady state: one-time overheads are a
    # modest fraction (the paper's pipelining works at batch 1 too).
    assert thr[32] / thr[1] < 1.3

    # Efficiency (samples/s/W) also improves with batch.
    assert results[32].throughput_per_watt > results[1].throughput_per_watt


def test_total_latency_scales_with_batch():
    net = resnet18_spec()
    one = simulate(net, batch=1)
    four = simulate(net, batch=4)
    assert four.latency_ms > 3 * one.latency_ms
    assert four.latency_ms < 4.2 * one.latency_ms


def test_invalid_batch_rejected():
    with pytest.raises(MappingError):
        simulate(resnet18_spec(), batch=0)
