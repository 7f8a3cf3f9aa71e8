"""The MAICC node's processor core: pipeline + CMem + local memory.

``Core`` is the single-node facade used by tests, the Table 4/5
experiments, and the kernel generator: assemble a program, point it at a
CMem, optionally install remote/DRAM handlers, and run.

The paper's node (Fig. 3(b)): a 5-stage RV32IMA pipeline, a 4 KB
instruction cache (not timed separately: single-cycle fetch), a 4 KB
data memory, and a 16 KB CMem.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.cmem.cmem import CMem
from repro.riscv.assembler import assemble
from repro.riscv.executor import Executor
from repro.riscv.isa import Instruction
from repro.riscv.memory import NodeMemory, RemoteHandler
from repro.riscv.pipeline import Pipeline, PipelineConfig, PipelineStats
from repro.riscv.registers import RegisterFile
from repro.telemetry import TelemetrySink, current as _current_telemetry


class Core:
    """One lightweight RISC-V core with an attached CMem."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        cmem: Optional[CMem] = None,
        remote_handler: Optional[RemoteHandler] = None,
        dram_handler: Optional[RemoteHandler] = None,
        node_id: int = 0,
        telemetry: Optional[TelemetrySink] = None,
        track: Optional[str] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.node_id = node_id
        self.telemetry = telemetry if telemetry is not None else _current_telemetry()
        self.track = track if track is not None else f"core/{node_id}"
        self.cmem = (
            cmem
            if cmem is not None
            else CMem(telemetry=self.telemetry, track=f"{self.track}/cmem-array")
        )
        self.regs = RegisterFile()
        self.memory = NodeMemory(
            slice0=self.cmem.slice0,
            remote_handler=remote_handler,
            dram_handler=dram_handler,
        )
        self.executor = Executor(self.regs, self.memory, self.cmem)
        self.last_stats: Optional[PipelineStats] = None

    def run(
        self,
        program: Union[str, List[Instruction]],
        *,
        max_instructions: Optional[int] = None,
    ) -> PipelineStats:
        """Assemble (if needed) and run a program to completion."""
        if isinstance(program, str):
            program = assemble(program)
        pipeline = Pipeline(
            program,
            self.executor,
            self.config,
            telemetry=self.telemetry,
            track=self.track,
        )
        self.last_stats = pipeline.run(max_instructions=max_instructions)
        return self.last_stats
