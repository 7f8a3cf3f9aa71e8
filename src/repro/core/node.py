"""A single MAICC node driving a CONV workload end-to-end (bit-true).

Used for the node-level evaluation (Tables 4 and 5): stage quantized
filters into the CMem, generate the Algorithm-1 kernel, stream ifmap
vectors from a virtual data-collection core (the remote handler), run the
cycle-level pipeline, and read back the int32 accumulators for comparison
with the NumPy reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cmem.geometry import COLS
from repro.core.conv_kernel import (
    ConvKernelGenerator,
    KernelPlan,
    RequantParams,
    _IFMAP_ROW_STRIDE,
)
from repro.core.datalayout import NodeLayout, load_filters_into_cmem, plan_node_layout
from repro.core.scheduler import static_schedule
from repro.errors import ConfigurationError
from repro.nn.layers import _im2col
from repro.nn.workloads import ConvLayerSpec
from repro.riscv.core import Core
from repro.riscv.isa import Instruction
from repro.riscv.pipeline import PipelineConfig, PipelineStats
from repro.telemetry import TelemetrySink, current as _current_telemetry
from repro.utils.bitops import sign_extend, to_twos_complement
from repro.utils.fixedpoint import exact_matmul


def table4_workload() -> ConvLayerSpec:
    """The paper's single-node workload: 5 filters of 3x3x256 on 9x9x256."""
    return ConvLayerSpec(
        index=0, name="table4", h=9, w=9, c=256, m=5, r=3, s=3,
        stride=1, padding=0,
    )


def reference_accumulators(
    spec: ConvLayerSpec,
    weights: np.ndarray,
    bias: np.ndarray,
    ifmap: np.ndarray,
) -> np.ndarray:
    """Int64 conv accumulators: the oracle for the node and group simulations.

    One whole-layer im2col GEMM, exact on float64 BLAS
    (:func:`~repro.utils.fixedpoint.exact_matmul`).  Weights and ifmap
    keep their own integer dtype, so the im2col columns of an int8
    ifmap take one byte per value; only the bias is widened.
    """
    m = weights.shape[0]
    cols = _im2col(ifmap, spec.r, spec.s, spec.stride, spec.padding)
    acc = exact_matmul(weights.reshape(m, -1), cols)
    acc += np.asarray(bias, dtype=np.int64)[:, None]
    oh, ow = spec.ofmap_hw
    return acc.reshape(m, oh, ow)


@dataclass
class NodeRunResult:
    """Outputs of one node-level run."""

    stats: PipelineStats
    psums: np.ndarray
    outputs: np.ndarray
    forwarded_rows: int
    cmem_busy_cycles: int
    cmem_energy_pj: float


class _VirtualDC:
    """Remote handler acting as data-collection core and downstream sink.

    Serves transposed ifmap rows on LoadRow.RC and swallows (counting)
    forwarded rows on StoreRow.RC.
    """

    def __init__(self, spec: ConvLayerSpec, ifmap: np.ndarray, n_bits: int) -> None:
        c, h, w = ifmap.shape
        if (h, w) != (spec.h, spec.w) or c != spec.c:
            raise ConfigurationError(
                f"ifmap shape {ifmap.shape} does not match spec "
                f"({spec.c}, {spec.h}, {spec.w})"
            )
        self.n_bits = n_bits
        self.store_count = 0
        encoded = to_twos_complement(
            ifmap.reshape(c, h * w).T, n_bits
        )  # (pixels, channels)
        width = COLS
        self._rows: List[List[int]] = []
        for p in range(h * w):
            packed_rows = []
            for row in range(n_bits):
                packed = 0
                for ch in range(min(c, width)):
                    packed |= int((encoded[p, ch] >> row) & 1) << ch
                packed_rows.append(packed)
            self._rows.append(packed_rows)

    def __call__(self, is_store: bool, addr: int, size: int, value: int) -> int:
        if is_store:
            self.store_count += 1
            return 0
        offset = addr & 0x3FFF
        pixel, row = divmod(offset, _IFMAP_ROW_STRIDE)
        if pixel >= len(self._rows) or row >= self.n_bits:
            raise ConfigurationError(
                f"virtual DC has no ifmap row at pixel {pixel}, row {row}"
            )
        return self._rows[pixel][row]


class MAICCNode:
    """One computing core + CMem, wired to a virtual DC."""

    def __init__(
        self,
        spec: ConvLayerSpec,
        weights: np.ndarray,
        bias: Optional[np.ndarray] = None,
        *,
        pipeline: Optional[PipelineConfig] = None,
        requant: Optional[RequantParams] = None,
        include_forward: bool = False,
        telemetry: Optional[TelemetrySink] = None,
        node_id: int = 0,
    ) -> None:
        self.spec = spec
        self.weights = np.asarray(weights, dtype=np.int64)
        if self.weights.shape != (spec.m, spec.c, spec.r, spec.s):
            raise ConfigurationError(
                f"weights shape {self.weights.shape} != "
                f"({spec.m}, {spec.c}, {spec.r}, {spec.s})"
            )
        self.bias = (
            np.zeros(spec.m, dtype=np.int64)
            if bias is None
            else np.asarray(bias, dtype=np.int64)
        )
        self.pipeline_config = pipeline or PipelineConfig()
        self.telemetry = telemetry if telemetry is not None else _current_telemetry()
        self.node_id = node_id
        self.requant = requant or RequantParams(mult=1, shift=8)
        self.include_forward = include_forward
        self.layout: NodeLayout = plan_node_layout(spec, spec.m)
        self._plan: Optional[KernelPlan] = None
        self._program: Optional[List[Instruction]] = None
        self._program_static: Optional[List[Instruction]] = None

    # -- program construction -------------------------------------------------

    def build_program(self, *, static: bool = False) -> List[Instruction]:
        """Generate (and cache) the kernel, optionally statically scheduled."""
        if self._program is None:
            generator = ConvKernelGenerator(
                self.layout,
                bias=[int(b) for b in self.bias],
                requant=self.requant,
                include_recv=True,
                include_forward=self.include_forward,
                forward_base=0x4000_4000 if self.include_forward else None,
            )
            self._plan = generator.generate()
            self._program = generator.instructions(self._plan)
        if static:
            if self._program_static is None:
                self._program_static = static_schedule(self._program)
            return self._program_static
        return self._program

    @property
    def plan(self) -> KernelPlan:
        if self._plan is None:
            self.build_program()
        assert self._plan is not None
        return self._plan

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        ifmap: np.ndarray,
        *,
        static: bool = False,
        pipeline: Optional[PipelineConfig] = None,
    ) -> NodeRunResult:
        """Run one full layer on this node; returns stats + results."""
        program = self.build_program(static=static)
        dc = _VirtualDC(self.spec, np.asarray(ifmap, dtype=np.int64), self.spec.n_bits)
        core = Core(
            pipeline or self.pipeline_config,
            remote_handler=dc,
            node_id=self.node_id,
            telemetry=self.telemetry,
        )
        load_filters_into_cmem(core.cmem, self.layout, self.weights)
        for s in self.layout.slices_used:
            core.cmem.slice(s).csr_mask = self.layout.csr_mask
        stats = core.run(program)
        plan = self.plan
        oh, ow = self.spec.ofmap_hw
        psums = np.zeros((self.spec.m, oh, ow), dtype=np.int64)
        outputs = np.zeros((self.spec.m, oh, ow), dtype=np.int64)
        for f in range(self.spec.m):
            for oy in range(oh):
                for ox in range(ow):
                    word = core.memory.load(plan.psum_address(f, oy, ox), 4)
                    psums[f, oy, ox] = sign_extend(word, 32)
                    outputs[f, oy, ox] = core.memory.load(
                        plan.out_address(f, oy, ox), 1
                    )
        if self.telemetry.enabled:
            # The pipeline already published its own stats; add the CMem
            # tally and the node-level outcome counters.
            assert self.telemetry.registry is not None
            core.cmem.publish_stats(f"core/{self.node_id}/cmem")
            self.telemetry.registry.counter(
                f"core/{self.node_id}/forwarded_rows"
            ).add(dc.store_count)
        return NodeRunResult(
            stats=stats,
            psums=psums,
            outputs=outputs,
            forwarded_rows=dc.store_count,
            cmem_busy_cycles=core.cmem.stats.busy_cycles,
            cmem_energy_pj=core.cmem.energy.total_pj,
        )

    def reference(self, ifmap: np.ndarray) -> np.ndarray:
        return reference_accumulators(self.spec, self.weights, self.bias, ifmap)
