"""Ablation: operand bit width n in {2, 4, 8, 16}.

MAC.C costs n^2 cycles while capacity scales as 64/n - 1 slots per slice
(Table 2 / Sec. 4.1), so lower precision buys superlinear throughput —
the "high throughput at low precision" argument of Sec. 2.2.  Verified at
two levels: the bit-true MAC primitive and the chip-level ResNet18 run.
"""

import numpy as np
import pytest

from repro.cmem.cmem import CMem
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, resnet18_spec
from repro.sim import simulate


def resnet_at_precision(n_bits: int) -> NetworkSpec:
    layers = tuple(
        ConvLayerSpec(
            index=s.index, name=s.name, h=s.h, w=s.w, c=s.c, m=s.m,
            r=s.r, s=s.s, stride=s.stride, padding=s.padding,
            kind=s.kind, n_bits=n_bits,
        )
        for s in resnet18_spec()
    )
    return NetworkSpec(name=f"resnet18_int{n_bits}", layers=layers)


def test_bit_true_mac_all_precisions(benchmark):
    def run():
        out = {}
        for n in (2, 4, 8, 16):
            rng = np.random.default_rng(n)
            lo, hi = -(1 << (n - 1)), 1 << (n - 1)
            a = rng.integers(lo, hi, 256)
            b = rng.integers(lo, hi, 256)
            cmem = CMem()
            cmem.store_vector_transposed(1, 0, a, n, signed=True)
            cmem.store_vector_transposed(1, n, b, n, signed=True)
            assert cmem.mac(1, 0, n, n, signed=True) == int(np.dot(a, b))
            out[n] = cmem.stats.busy_cycles
        return out

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    assert cycles == {2: 4, 4: 16, 8: 64, 16: 256}  # n^2 each


def test_chip_level_precision_sweep(benchmark):
    # 16-bit ResNet18 no longer fits the 208-core array (Q = 64/16 - 1 = 3
    # slots per slice), which is itself a finding: the paper's design point
    # assumes int8.  Sweep 2/4/8 at chip level.
    def run():
        return {
            n: simulate(resnet_at_precision(n)).latency_ms
            for n in (2, 4, 8)
        }

    latency = benchmark.pedantic(run, rounds=1, iterations=1)
    # Lower precision is strictly faster end to end.
    assert latency[2] < latency[4] < latency[8]


def test_16bit_exceeds_array_capacity():
    """At int16, conv4_1's split-filter minimum exceeds the 208 cores."""
    from repro.errors import CapacityError
    from repro.mapping.capacity import CapacityModel

    spec = resnet_at_precision(16).layer(16)
    with pytest.raises(CapacityError):
        CapacityModel().min_nodes(spec, max_nodes=207)
