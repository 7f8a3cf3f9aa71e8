"""Lint assembly text: the fixture shape of the kernel-verifier tests."""

from repro.analysis import verify_program
from repro.riscv.assembler import assemble


def lint_text(asm_text, config=None):
    """Assemble program text and verify it."""
    return verify_program(assemble(asm_text), config)
