"""The cycle tier's numerics on drawn small networks, not only the shipped ones.

One bounded property: 1 to 3 chained conv layers (each consumes the one
before it) with h and w up to 9, c up to 300 (so a first layer may take
two 256-lane sub-vectors), m up to 24, 1x1 or 3x3 kernels, stride 1 or 2,
padding 0 or 1, ``n_bits`` from 2 to 16 and a drawn seed.  On every run
each segment is ``numerics_verified`` and its ``checksum`` equals the sum,
modulo 2**64, of :func:`~repro.core.node.reference_accumulators` over
operands redrawn here at NumPy's default int64 dtype from
``default_rng((seed, index))``: whatever width the tier draws and stores
its operands at, they must be the historical int64 operands.  A run may
refuse its drawn network, but only with a :mod:`repro.errors` type.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.node import reference_accumulators  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.nn.workloads import ConvLayerSpec, NetworkSpec  # noqa: E402
from repro.sim import SimConfig, simulate  # noqa: E402
from repro.utils.fixedpoint import fixed_range  # noqa: E402

MASK = (1 << 64) - 1


@st.composite
def _networks(draw):
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    c = draw(st.integers(1, 300))
    layers = []
    for index in range(1, draw(st.integers(1, 3)) + 1):
        padding = draw(st.integers(0, 1))
        # A 3x3 kernel needs an ifmap it fits once padded.
        r = draw(st.sampled_from([1, 3])) if h + 2 * padding >= 3 else 1
        s = draw(st.sampled_from([1, 3])) if w + 2 * padding >= 3 else 1
        spec = ConvLayerSpec(
            index, f"conv{index}", h=h, w=w, c=c, m=draw(st.integers(1, 24)),
            r=r, s=s, stride=draw(st.integers(1, 2)), padding=padding,
            n_bits=draw(st.integers(2, 16)),
        )
        layers.append(spec)
        (h, w), c = spec.ofmap_hw, spec.m
    return NetworkSpec(name="drawn", layers=tuple(layers))


def _historical_checksum(layers, seed: int) -> int:
    """The segment checksum over operands drawn at the default int64 dtype."""
    checksum = 0
    for spec in layers:
        lo, hi = fixed_range(spec.n_bits)
        rng = np.random.default_rng((seed, spec.index))
        weights = rng.integers(lo, hi + 1, (spec.m, spec.c, spec.r, spec.s))
        bias = rng.integers(-1000, 1000, spec.m)
        q_in = rng.integers(lo, hi + 1, (spec.c, spec.h, spec.w))
        acc = reference_accumulators(spec, weights, bias, q_in)
        checksum = (checksum + int(acc.sum())) & MASK
    return checksum


@settings(max_examples=100, deadline=2000)
@given(network=_networks(), seed=st.integers(0, 2**16))
def test_cycle_tier_numerics_on_drawn_networks(network, seed):
    try:
        report = simulate(network, backend="cycle", config=SimConfig(seed=seed))
    except ReproError:
        return
    assert sum(len(run.segment.layers) for run in report.runs) == len(network.layers)
    for run in report.runs:
        assert run.numerics_verified is True
        assert run.checksum == _historical_checksum(run.segment.layers, seed)
