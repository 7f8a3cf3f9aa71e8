"""Exception hierarchy for the MAICC reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one base class.  Sub-classes are grouped by subsystem so
tests can assert on the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A configuration object was constructed with inconsistent values."""


class SRAMError(ReproError):
    """Illegal operation on an SRAM array (bad row/column, width mismatch)."""


class CMemError(ReproError):
    """Illegal operation on the computing memory (CMem)."""


class SliceIndexError(CMemError):
    """A slice index was outside the configured slice range."""


class RowIndexError(CMemError):
    """A row index was outside the 64-row slice range."""


class AssemblerError(ReproError):
    """Failure while parsing assembly text."""


class DecodeError(ReproError):
    """An instruction could not be decoded or executed."""


class MemoryMapError(ReproError):
    """An address fell outside every mapped region (Table 1)."""


class AlignmentError(MemoryMapError):
    """A memory access violated the required alignment."""


class NoCError(ReproError):
    """Illegal NoC operation (bad coordinates, oversized payload)."""


class DRAMError(ReproError):
    """Illegal DRAM operation (bad channel or address)."""


class QuantizationError(ReproError):
    """Invalid quantization parameters or out-of-range values."""


class GraphError(ReproError):
    """Malformed DNN graph (cycles, dangling inputs, shape mismatch)."""


class ShapeError(GraphError):
    """Tensor shape mismatch between connected layers."""


class MappingError(ReproError):
    """The model could not be mapped onto the many-core array."""


class CapacityError(MappingError):
    """A layer does not fit the per-node CMem capacity model."""


class PlanVerificationError(MappingError):
    """Static pre-flight analysis rejected a plan before simulation.

    Raised by :func:`repro.sim.simulate` (``SimConfig.preflight``) and
    by serving admission when :func:`repro.analysis.analyze_plan` finds
    error-severity diagnostics.  ``report`` carries the full
    :class:`repro.analysis.LintReport`.
    """

    def __init__(self, message: str, report: object = None) -> None:
        super().__init__(message)
        self.report = report


class PlacementError(MappingError):
    """Zig-zag placement could not place a node group on the mesh."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state (deadlock, overrun)."""


class BackendError(SimulationError):
    """An unknown or misconfigured simulation backend was requested."""


class SchedulingError(ReproError):
    """The static instruction scheduler detected an illegal reorder."""


class TelemetryError(ReproError):
    """Invalid metric path, trace event, or malformed exported trace."""


class ObservabilityError(ReproError):
    """Broken attribution invariant, alert config, or report schema."""
