"""Lightweight RV32IMA core model: ISA, assembler, pipeline, memory map.

The simulator is *assembly-level*: instructions are Python objects produced
by :mod:`repro.riscv.assembler`, executed functionally with sequential
semantics while a scoreboard-based timing model (5-stage pipeline, in-order
issue, out-of-order completion, CMem issue queue, configurable write-back
ports) accounts cycles.  This mirrors the paper's methodology, which
schedules CMem instructions by hand rather than through a compiler.
"""

from repro.riscv.isa import FunctionalUnit, Instruction, OpSpec, OPCODES
from repro.riscv.assembler import assemble, AssemblerError
from repro.riscv.registers import RegisterFile, reg_index, REG_NAMES
from repro.riscv.memory import AddressRegion, MemoryMap, NodeMemory
from repro.riscv.pipeline import Pipeline, PipelineConfig, PipelineStats
from repro.riscv.core import Core

__all__ = [
    "FunctionalUnit",
    "Instruction",
    "OpSpec",
    "OPCODES",
    "assemble",
    "AssemblerError",
    "RegisterFile",
    "reg_index",
    "REG_NAMES",
    "AddressRegion",
    "MemoryMap",
    "NodeMemory",
    "Pipeline",
    "PipelineConfig",
    "PipelineStats",
    "Core",
]
