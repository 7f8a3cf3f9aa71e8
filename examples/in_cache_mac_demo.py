#!/usr/bin/env python3
"""The computing memory from the bit-lines up.

Walks the paper's core mechanism at three levels:

1. raw bit-line computing — activate two SRAM word-lines, sense AND/NOR;
2. the CMem vector-MAC primitive (Fig. 4(b)) — adder tree +
   shift-accumulator over transposed vectors, with CSR lane masking;
3. the same MAC issued from RISC-V assembly through the extended ISA
   (Table 2), on the cycle-level pipeline.

Run:  python examples/in_cache_mac_demo.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro import CMem, Core
from repro.sram.array import SRAMArray, SRAMArrayConfig


def check(what: str, got: int, want: int) -> None:
    """Stop the demo if the hardware result differs from NumPy's."""
    if got != want:
        raise SystemExit(f"{what}: got {got}, numpy says {want}")


def demo_bitline() -> None:
    print("=== 1. bit-line computing (Jeloka et al.) ===")
    array = SRAMArray(SRAMArrayConfig(rows=4, cols=8))
    array.write_row(0, [1, 1, 0, 0, 1, 0, 1, 0])
    array.write_row(1, [1, 0, 1, 0, 1, 1, 0, 0])
    sensed = array.activate_pair(0, 1)
    print("  row0      :", array.read_row(0).tolist())
    print("  row1      :", array.read_row(1).tolist())
    print("  BL  (AND) :", sensed.and_bits.tolist())
    print("  BLB (NOR) :", sensed.nor_bits.tolist())
    print("  derived OR:", sensed.or_bits.tolist())
    print()


def demo_mac_primitive() -> None:
    print("=== 2. the CMem MAC primitive (Fig. 4(b)) ===")
    rng = np.random.default_rng(1)
    a = rng.integers(-128, 128, 256)
    b = rng.integers(-128, 128, 256)
    cmem = CMem()
    cmem.store_vector_transposed(1, 0, a, 8, signed=True)
    cmem.store_vector_transposed(1, 8, b, 8, signed=True)
    got = cmem.mac(1, 0, 8, 8, signed=True)
    want = int(np.dot(a, b))
    print(f"  256-lane int8 dot product: {got}  (numpy: {want})")
    check("CMem MAC", got, want)
    print(f"  cycles: {cmem.stats.busy_cycles} (n^2 = 64 for the MAC itself)")
    print(f"  energy: {cmem.energy.total_pj:.1f} pJ "
          "(28.25 pJ/MAC + staging writes)")

    masked = cmem.mac(1, 0, 8, 8, signed=True, mask=0x0F)
    want = int(np.dot(a[:128], b[:128]))
    print(f"  CSR mask 0x0F (lanes 0-3): {masked} (numpy on 128 lanes: {want})")
    check("masked CMem MAC", masked, want)
    print()


def demo_isa() -> None:
    print("=== 3. the same MAC from RISC-V assembly (Table 2 ISA) ===")
    rng = np.random.default_rng(2)
    a = rng.integers(-128, 128, 256)
    b = rng.integers(-128, 128, 256)
    core = Core()
    core.cmem.store_vector_transposed(3, 0, a, 8, signed=True)
    core.cmem.store_vector_transposed(3, 8, b, 8, signed=True)
    program = """
        # Vector MAC in slice 3, result into a0; independent scalar work
        # proceeds under the 64-cycle CMem operation (scoreboard).
        mac.c a0, 3, 0, 8, 8
        li   t0, 0
        li   t1, 10
    loop:
        addi t0, t0, 1
        bne  t0, t1, loop
        sw   a0, 0(zero)
        halt
    """
    stats = core.run(program)
    got = core.regs.read_signed(10)
    want = int(np.dot(a, b))
    print(f"  result register a0 = {got} (numpy: {want})")
    check("mac.c result", got, want)
    print(f"  pipeline: {stats.instructions} instructions in "
          f"{stats.cycles} cycles (IPC {stats.ipc:.2f}) — the scalar loop "
          "ran inside the MAC's delay slots")


if __name__ == "__main__":
    demo_bitline()
    demo_mac_primitive()
    demo_isa()
