"""Algorithm-1 code generator: one computing core's CONV kernel.

Emits simulator assembly for one node of a node group, fully unrolled over
ifmap pixels (the paper schedules CMem instructions by hand; unrolling is
that, mechanized).  Per incoming ifmap vector the kernel:

1. *recv* — pulls the transposed vector's ``N`` rows into slice 0
   (``LoadRow.RC``; in the full chip the previous core pushes instead —
   same row count either way);
2. *compute* — broadcasts the vector into the used compute slices
   (``Move.C``) and issues ``MAC.C`` for every valid (filter pixel, output
   pixel) pair **round-robin across slices**, so all slices run
   concurrently — this is what makes the paper's ``7N + Q N^2`` iteration
   cost achievable;
3. *accumulate* — folds each MAC result into the int32 psum array in data
   memory (bias-initialized, matching the quantized reference);
4. *aux* — requantizes, applies branchless ReLU and stores every ofmap
   value completed by this vector;
5. *send* (optional) — forwards the vector rows downstream
   (``StoreRow.RC``).

The emitted order is the *dynamic-scheduling baseline*;
:func:`repro.core.scheduler.static_schedule` reorders it at "compile time"
to hide CMem latency (Table 5's static rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import CapacityError, ConfigurationError
from repro.core.datalayout import LayoutEntry, NodeLayout
from repro.riscv.assembler import assemble
from repro.riscv.isa import Instruction
from repro.riscv.memory import LOCAL_DMEM_SIZE, encode_remote_address

# Registers the generator may rotate MAC results through (a0-a7, s2-s11).
_MAC_REG_POOL = [f"a{i}" for i in range(8)] + [f"s{i}" for i in range(2, 12)]
_ADDR_REG = "t5"
_ACC_REG = "t3"
_TMP_REG = "t4"
_MULT_REG = "t6"

# Virtual ifmap source: rows of pixel ``p`` live at remote offset p*16 + row.
_IFMAP_ROW_STRIDE = 16


def ifmap_row_address(pixel_index: int, row: int) -> int:
    """Remote address the kernel reads ifmap vector rows from."""
    return encode_remote_address(0, 0, pixel_index * _IFMAP_ROW_STRIDE + row)


@dataclass(frozen=True)
class RequantParams:
    """Fixed-point requantization q = (acc * mult + round) >> shift."""

    mult: int
    shift: int = 8


@dataclass
class KernelPlan:
    """Everything the generator derived, for tests and the node driver."""

    layout: NodeLayout
    psum_base: int = 0
    out_base: int = 0
    psum_bytes: int = 0
    asm: str = ""
    pixels: int = 0

    def psum_address(self, f: int, oy: int, ox: int) -> int:
        oh, ow = self.layout.spec.ofmap_hw
        return self.psum_base + ((f * oh + oy) * ow + ox) * 4

    def out_address(self, f: int, oy: int, ox: int) -> int:
        oh, ow = self.layout.spec.ofmap_hw
        return self.out_base + (f * oh + oy) * ow + ox


def _round_robin(layout: NodeLayout) -> List[LayoutEntry]:
    """Interleave entries across slices so consecutive MACs hit free slices."""
    per_slice: Dict[int, List[LayoutEntry]] = {}
    for entry in layout.entries:
        per_slice.setdefault(entry.slice_index, []).append(entry)
    order: List[LayoutEntry] = []
    round_index = 0
    while True:
        emitted = False
        for slice_index in sorted(per_slice):
            entries = per_slice[slice_index]
            if round_index < len(entries):
                order.append(entries[round_index])
                emitted = True
        if not emitted:
            return order
        round_index += 1


def _output_target(
    spec, y: int, x: int, entry: LayoutEntry
) -> Optional[Tuple[int, int]]:
    """Ofmap (oy, ox) the MAC of ifmap pixel (y, x) with this entry feeds."""
    oy_num = y + spec.padding - entry.fr
    ox_num = x + spec.padding - entry.fs
    if oy_num % spec.stride or ox_num % spec.stride:
        return None
    oy, ox = oy_num // spec.stride, ox_num // spec.stride
    oh, ow = spec.ofmap_hw
    if not (0 <= oy < oh and 0 <= ox < ow):
        return None
    return oy, ox


def _completion_pixel(spec, entryless_oy: int, ox: int) -> Tuple[int, int]:
    """Last ifmap pixel (raster order) contributing to ofmap (oy, ox)."""
    y = min(spec.h - 1, entryless_oy * spec.stride - spec.padding + spec.r - 1)
    x = min(spec.w - 1, ox * spec.stride - spec.padding + spec.s - 1)
    return y, x


class ConvKernelGenerator:
    """Generates the unrolled Algorithm-1 kernel for one node."""

    def __init__(
        self,
        layout: NodeLayout,
        *,
        bias: Optional[List[int]] = None,
        requant: Optional[RequantParams] = None,
        include_recv: bool = True,
        include_forward: bool = False,
        include_aux: bool = True,
        forward_base: Optional[int] = None,
    ) -> None:
        self.layout = layout
        self.spec = layout.spec
        self.bias = bias or [0] * layout.num_filters
        if len(self.bias) != layout.num_filters:
            raise ConfigurationError("one bias per held filter required")
        self.requant = requant or RequantParams(mult=1, shift=0)
        self.include_recv = include_recv
        self.include_forward = include_forward
        self.include_aux = include_aux
        self.forward_base = forward_base
        self._lines: List[Tuple[str, str]] = []  # (asm line, category)

    # -- emission helpers ------------------------------------------------------

    def _emit(self, line: str, category: str) -> None:
        self._lines.append((line, category))

    def _li(self, reg: str, value: int, category: str) -> None:
        self._emit(f"li {reg}, {value}", category)

    # -- plan ------------------------------------------------------------------

    def generate(self) -> KernelPlan:
        spec = self.spec
        oh, ow = spec.ofmap_hw
        plan = KernelPlan(layout=self.layout)
        plan.psum_bytes = self.layout.num_filters * oh * ow * 4
        plan.out_base = plan.psum_base + plan.psum_bytes
        out_bytes = self.layout.num_filters * oh * ow
        if plan.out_base + out_bytes > LOCAL_DMEM_SIZE:
            raise CapacityError(
                f"{spec.name}: psum+ofmap of {plan.psum_bytes + out_bytes} B "
                f"exceed the {LOCAL_DMEM_SIZE} B data memory"
            )
        plan.pixels = spec.h * spec.w

        self._emit_init(plan)
        mac_order = _round_robin(self.layout)
        completion: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
        if self.include_aux:
            for f in range(self.layout.num_filters):
                for oy in range(oh):
                    for ox in range(ow):
                        key = _completion_pixel(spec, oy, ox)
                        completion.setdefault(key, []).append((f, oy, ox))

        pixel_index = 0
        for y in range(spec.h):
            for x in range(spec.w):
                self._emit_iteration(plan, y, x, pixel_index, mac_order, completion)
                pixel_index += 1
        self._emit("halt", "other")
        plan.asm = "\n".join(line for line, _ in self._lines)
        return plan

    def _emit_init(self, plan: KernelPlan) -> None:
        """Bias-initialize the psum array (category: init)."""
        oh, ow = self.spec.ofmap_hw
        for f in range(self.layout.num_filters):
            self._li(_ACC_REG, int(self.bias[f]), "init")
            for oy in range(oh):
                for ox in range(ow):
                    self._emit(
                        f"sw {_ACC_REG}, {plan.psum_address(f, oy, ox)}(zero)",
                        "init",
                    )
        if self.include_aux:
            self._li(_MULT_REG, self.requant.mult, "init")

    def _emit_iteration(
        self,
        plan: KernelPlan,
        y: int,
        x: int,
        pixel_index: int,
        mac_order: List[LayoutEntry],
        completion: Dict[Tuple[int, int], List[Tuple[int, int, int]]],
    ) -> None:
        n = self.layout.n_bits
        if self.include_recv:
            for row in range(n):
                self._li(_ADDR_REG, ifmap_row_address(pixel_index, row), "recv_ifmap")
                self._emit(f"loadrow.rc 0, {row}, {_ADDR_REG}", "recv_ifmap")

        # Broadcast into every used slice.
        for s in self.layout.slices_used:
            self._emit(f"move.c 0, 0, {s}, 0, {n}", "compute")

        # MACs round-robin across slices; remember (entry -> result reg).
        # Results accumulate into data memory in batches: whenever the
        # register pool fills, flush the pending accumulates so no MAC
        # result is clobbered before it is consumed.  The flush naturally
        # overlaps the next batch's CMem work under the scoreboard.
        pending: List[Tuple[LayoutEntry, str, Tuple[int, int]]] = []
        reg_cursor = 0

        def flush() -> None:
            for entry, reg, (oy, ox) in pending:
                addr = plan.psum_address(entry.filter_index, oy, ox)
                self._emit(f"lw {_ACC_REG}, {addr}(zero)", "accumulate")
                self._emit(f"add {_ACC_REG}, {_ACC_REG}, {reg}", "accumulate")
                self._emit(f"sw {_ACC_REG}, {addr}(zero)", "accumulate")
            pending.clear()

        for entry in mac_order:
            target = _output_target(self.spec, y, x, entry)
            if target is None:
                continue
            reg = _MAC_REG_POOL[reg_cursor % len(_MAC_REG_POOL)]
            reg_cursor += 1
            self._emit(
                f"mac.c {reg}, {entry.slice_index}, 0, {entry.row}, {n}", "compute"
            )
            pending.append((entry, reg, target))
            if len(pending) == len(_MAC_REG_POOL):
                flush()
        flush()

        # Forward the vector downstream (inter-node streaming).
        if self.include_forward and self.forward_base is not None:
            for row in range(n):
                self._li(_ADDR_REG, self.forward_base + pixel_index * _IFMAP_ROW_STRIDE + row, "send_ifmap")
                self._emit(f"storerow.rc 0, {row}, {_ADDR_REG}", "send_ifmap")

        # Auxiliary functions for every ofmap value completed this pixel.
        if self.include_aux:
            for f, oy, ox in completion.get((y, x), ()):
                self._emit_aux(plan, f, oy, ox)

    def _emit_aux(self, plan: KernelPlan, f: int, oy: int, ox: int) -> None:
        """Requantize + branchless ReLU + byte store (category: aux)."""
        psum = plan.psum_address(f, oy, ox)
        out = plan.out_address(f, oy, ox)
        rnd = 1 << (self.requant.shift - 1) if self.requant.shift else 0
        self._emit(f"lw {_ACC_REG}, {psum}(zero)", "aux")
        self._emit(f"mul {_ACC_REG}, {_ACC_REG}, {_MULT_REG}", "aux")
        if rnd:
            self._emit(f"addi {_ACC_REG}, {_ACC_REG}, {rnd}", "aux")
        if self.requant.shift:
            self._emit(f"srai {_ACC_REG}, {_ACC_REG}, {self.requant.shift}", "aux")
        # Branchless ReLU: mask = acc >> 31; acc &= ~mask.
        self._emit(f"srai {_TMP_REG}, {_ACC_REG}, 31", "aux")
        self._emit(f"xori {_TMP_REG}, {_TMP_REG}, -1", "aux")
        self._emit(f"and {_ACC_REG}, {_ACC_REG}, {_TMP_REG}", "aux")
        self._emit(f"sb {_ACC_REG}, {out}(zero)", "aux")

    # -- assembled output ----------------------------------------------------------

    def instructions(self, plan: Optional[KernelPlan] = None) -> List[Instruction]:
        """Assemble with per-instruction category tags."""
        if plan is None:
            plan = self.generate()
        program = assemble(plan.asm)
        if len(program) != len(self._lines):
            raise ConfigurationError("category tagging out of sync with assembly")
        for instr, (_, category) in zip(program, self._lines):
            instr.category = category
        return program
