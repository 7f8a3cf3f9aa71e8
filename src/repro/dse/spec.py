"""Declarative design-space sweeps: axes in, design points out.

A :class:`SweepSpec` names the architecture and run axes to cross —
mesh dimensions, CMem slice count and row geometry, DRAM channel count,
mapping strategy, backend tier, network — and :meth:`SweepSpec.expand`
produces the full cartesian product as frozen, picklable
:class:`DesignPoint` records in a deterministic order (axes iterate in
declaration order, rightmost fastest, exactly like nested for-loops).

Each :class:`DesignPoint` knows how to derive the concrete machine
description the simulator stack consumes (:meth:`DesignPoint.sim_config`).
The derivations are *exact at the paper's defaults*: the default point
(16x16 mesh, 7 compute slices, 64 rows, 32 DRAM channels) reproduces
``SimConfig()`` — same :class:`~repro.core.chip.ChipConfig`, same
:class:`~repro.energy.constants.ChipConstants`, same
:class:`~repro.core.perfmodel.TimingParams`, bit-for-bit — which is what
lets the table/figure experiment drivers run through the sweep engine
while staying byte-identical to their pre-refactor outputs.

Off-default axes describe a different chip, and every model reads it
from the one :class:`~repro.sim.config.SimConfig`:

* ``mesh`` keeps the Fig. 3(a) floorplan at any size (LLC rows top and
  bottom, the host column rightmost).  The mapper's array size and the
  core and LLC-tile counts the energy and area models bill follow from
  the geometry (``ChipConfig.compute_tiles`` and ``llc_tiles``; two LLC
  rows of ``mesh_width`` tiles whatever the channel count).
* ``cmem_slices`` / ``cmem_rows`` set the capacity model, from which the
  area and energy models also take the CMem area (slice area scales with
  rows) and the node leakage (in proportion to CMem area).
* ``dram_channels`` scales, linearly from the 32-channel reference, the
  aggregate weight-load bandwidth, the streamed-ifmap fetch cost and the
  DRAM background power: the one machine fact a ``SimConfig`` records
  nowhere else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Tuple

from repro.core.chip import ChipConfig
from repro.core.perfmodel import TimingParams
from repro.energy.constants import REF_ROWS, REF_SLICES, ChipConstants
from repro.errors import ConfigurationError
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import (
    NetworkSpec,
    lstm_cell_spec,
    mlp_spec,
    resnet18_spec,
    small_cnn_spec,
    transformer_block_spec,
    vgg11_spec,
)
from repro.riscv.memory import DRAM_CHANNELS
from repro.sim.config import SimConfig, check_batch

#: Networks a sweep can name (factory per name, so every design point
#: builds its own spec — workers never share mutable state).
NETWORKS: Dict[str, Callable[[], NetworkSpec]] = {
    "resnet18": resnet18_spec,
    "small_cnn": small_cnn_spec,
    "vgg11": vgg11_spec,
    "mlp": mlp_spec,
    "lstm_cell": lstm_cell_spec,
    "transformer_block": transformer_block_spec,
}

#: The reference design every scaling is anchored to: the default
#: chip's mesh and its ``DRAM_CHANNELS`` channels.  Its CMem geometry,
#: ``REF_SLICES`` x ``REF_ROWS``, is the one the per-unit CMem costs are
#: quoted for.
REF_MESH = (ChipConfig().mesh_width, ChipConfig().mesh_height)


@dataclass(frozen=True)
class DesignPoint:
    """One fully-specified (machine, run) pair of a sweep.

    Plain frozen data — picklable, hashable, and cheap to ship to a
    worker process.  All derivation happens in the accessor methods so
    the record itself stays a pure coordinate tuple.
    """

    network: str
    backend: str
    strategy: str = "heuristic"
    mesh: Tuple[int, int] = REF_MESH
    cmem_slices: int = REF_SLICES
    cmem_rows: int = REF_ROWS
    dram_channels: int = DRAM_CHANNELS
    batch: int = 1
    batch_requests: int = 1

    def __post_init__(self) -> None:
        if self.network not in NETWORKS:
            raise ConfigurationError(
                f"unknown network {self.network!r}; "
                f"choose from {sorted(NETWORKS)}"
            )
        w, h = self.mesh
        if w < 3 or h < 4:
            raise ConfigurationError(
                f"mesh {w}x{h} leaves no compute region (need >= 3x4)"
            )
        if self.cmem_slices < 1:
            raise ConfigurationError("cmem_slices must be >= 1")
        if self.cmem_rows < 16:
            raise ConfigurationError("cmem_rows must be >= 16")
        if self.dram_channels < 1:
            raise ConfigurationError("dram_channels must be >= 1")
        check_batch("batch", self.batch)
        check_batch("batch_requests", self.batch_requests)

    # -- identity ---------------------------------------------------------------

    @property
    def point_id(self) -> str:
        """Stable human-readable id, unique within any sweep."""
        w, h = self.mesh
        pid = (
            f"{self.network}/{self.backend}/{self.strategy}"
            f"/m{w}x{h}/s{self.cmem_slices}r{self.cmem_rows}"
            f"/d{self.dram_channels}"
        )
        if self.batch != 1 or self.batch_requests != 1:
            pid += f"/b{self.batch}q{self.batch_requests}"
        return pid

    def axes_dict(self) -> Dict[str, object]:
        """The coordinate tuple as a JSON-safe dict."""
        return {
            "network": self.network,
            "backend": self.backend,
            "strategy": self.strategy,
            "mesh": list(self.mesh),
            "cmem_slices": self.cmem_slices,
            "cmem_rows": self.cmem_rows,
            "dram_channels": self.dram_channels,
            "batch": self.batch,
            "batch_requests": self.batch_requests,
        }

    # -- derived machine description --------------------------------------------

    @property
    def compute_tiles(self) -> int:
        w, h = self.mesh
        return ChipConfig(mesh_width=w, mesh_height=h).compute_tiles

    def chip_config(self) -> ChipConfig:
        """The mesh, with the DRAM background power scaled per channel
        (``ChipConstants()`` bit for bit at the reference count)."""
        w, h = self.mesh
        base = ChipConstants()
        scale = self.dram_channels / DRAM_CHANNELS
        constants = replace(base, dram_background_w=base.dram_background_w * scale)
        return ChipConfig(mesh_width=w, mesh_height=h, constants=constants)

    def timing_params(self) -> TimingParams:
        """Unit costs with the DRAM-bandwidth terms scaled per channel."""
        base = TimingParams()
        scale = self.dram_channels / DRAM_CHANNELS
        return replace(
            base,
            filter_load_bw=base.filter_load_bw * scale,
            dram_fetch_cost_per_byte=base.dram_fetch_cost_per_byte / scale,
        )

    def capacity(self) -> CapacityModel:
        return CapacityModel(
            compute_slices=self.cmem_slices, rows=self.cmem_rows
        )

    def sim_config(self) -> SimConfig:
        return SimConfig(
            chip=self.chip_config(),
            params=self.timing_params(),
            capacity=self.capacity(),
            strategy=self.strategy,
            batch=self.batch,
            batch_requests=self.batch_requests,
        )

    def build_network(self) -> NetworkSpec:
        return NETWORKS[self.network]()


@dataclass(frozen=True)
class SweepSpec:
    """The declarative description of a design-space sweep.

    Every field except ``name``/``batch``/``batch_requests`` is an axis;
    :meth:`expand` crosses them in declaration order (network outermost,
    DRAM channels innermost).  Axis values must be unique; the expansion
    order is part of the artifact contract (JSON points appear in it).
    """

    name: str
    networks: Tuple[str, ...] = ("resnet18",)
    backends: Tuple[str, ...] = ("streaming",)
    strategies: Tuple[str, ...] = ("heuristic",)
    meshes: Tuple[Tuple[int, int], ...] = (REF_MESH,)
    cmem_slices: Tuple[int, ...] = (REF_SLICES,)
    cmem_rows: Tuple[int, ...] = (REF_ROWS,)
    dram_channels: Tuple[int, ...] = (DRAM_CHANNELS,)
    batch: int = 1
    batch_requests: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                if not value:
                    raise ConfigurationError(f"axis {f.name!r} is empty")
                if len(set(value)) != len(value):
                    raise ConfigurationError(
                        f"axis {f.name!r} has duplicate values: {value}"
                    )

    @property
    def size(self) -> int:
        return (
            len(self.networks) * len(self.backends) * len(self.strategies)
            * len(self.meshes) * len(self.cmem_slices)
            * len(self.cmem_rows) * len(self.dram_channels)
        )

    def expand(self) -> List[DesignPoint]:
        """The full cartesian product, in deterministic axis order."""
        return [
            DesignPoint(
                network=network,
                backend=backend,
                strategy=strategy,
                mesh=mesh,
                cmem_slices=slices,
                cmem_rows=rows,
                dram_channels=channels,
                batch=self.batch,
                batch_requests=self.batch_requests,
            )
            for network, backend, strategy, mesh, slices, rows, channels
            in itertools.product(
                self.networks, self.backends, self.strategies, self.meshes,
                self.cmem_slices, self.cmem_rows, self.dram_channels,
            )
        ]

    def axes_dict(self) -> Dict[str, object]:
        """JSON-safe summary of the sweep's axes (report meta section)."""
        return {
            "networks": list(self.networks),
            "backends": list(self.backends),
            "strategies": list(self.strategies),
            "meshes": [list(m) for m in self.meshes],
            "cmem_slices": list(self.cmem_slices),
            "cmem_rows": list(self.cmem_rows),
            "dram_channels": list(self.dram_channels),
            "batch": self.batch,
            "batch_requests": self.batch_requests,
        }


__all__ = [
    "NETWORKS",
    "REF_MESH",
    "REF_ROWS",
    "REF_SLICES",
    "DesignPoint",
    "SweepSpec",
]
