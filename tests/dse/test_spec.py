"""SweepSpec / DesignPoint: expansion, ids, and derivation exactness."""

import pytest

from repro.core.chip import ChipConfig
from repro.dse.spec import (
    REF_MESH,
    REF_ROWS,
    REF_SLICES,
    DesignPoint,
    SweepSpec,
)
from repro.energy.area import area_breakdown
from repro.errors import ConfigurationError
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import small_cnn_spec
from repro.riscv.memory import DRAM_CHANNELS
from repro.sim import SimConfig, simulate

MESH_12 = ChipConfig(mesh_width=12, mesh_height=12)


class TestDesignPoint:
    def test_default_point_reproduces_sim_config_exactly(self):
        """The linchpin of the experiment-driver refactor: at the paper's
        coordinates every scale factor is exactly 1.0, so the derived
        config is bit-for-bit the repo default and drivers routed through
        the engine stay byte-identical."""
        point = DesignPoint(network="resnet18", backend="streaming")
        assert point.mesh == REF_MESH
        assert point.cmem_slices == REF_SLICES
        assert point.cmem_rows == REF_ROWS
        assert point.dram_channels == DRAM_CHANNELS
        derived = point.sim_config()
        default = SimConfig()
        assert derived.chip == default.chip
        assert derived.params == default.params
        assert derived.capacity == default.capacity
        assert derived.array_size == default.array_size

    def test_point_id_round_trips_the_axes(self):
        point = DesignPoint(
            network="small_cnn", backend="analytic", strategy="greedy",
            mesh=(12, 12), cmem_slices=5, cmem_rows=32, dram_channels=16,
        )
        assert point.point_id == "small_cnn/analytic/greedy/m12x12/s5r32/d16"

    def test_batched_point_id_carries_the_batch(self):
        point = DesignPoint(
            network="resnet18", backend="streaming",
            batch=4, batch_requests=2,
        )
        assert point.point_id.endswith("/b4q2")

    def test_compute_tiles_mirrors_chip_config(self):
        point = DesignPoint(network="resnet18", backend="streaming",
                            mesh=(20, 16))
        assert point.compute_tiles == point.sim_config().chip.compute_tiles
        assert point.sim_config().array_size == point.compute_tiles - 2

    @pytest.mark.parametrize(
        "axes,hand_built",
        [
            ({"mesh": (12, 12)}, SimConfig(chip=MESH_12)),
            ({"cmem_slices": 5}, SimConfig(capacity=CapacityModel(compute_slices=5))),
            ({"cmem_rows": 32}, SimConfig(capacity=CapacityModel(rows=32))),
            (
                {"mesh": (12, 12), "cmem_slices": 5, "cmem_rows": 32},
                SimConfig(
                    chip=MESH_12,
                    capacity=CapacityModel(compute_slices=5, rows=32),
                ),
            ),
        ],
        ids=["mesh", "slices", "rows", "all"],
    )
    def test_hand_built_config_bills_the_design_point(self, axes, hand_built):
        """A SimConfig built by hand is the chip its DesignPoint derives,
        and the area and energy models bill that chip, not the paper's."""
        derived = DesignPoint("small_cnn", "analytic", **axes).sim_config()
        assert hand_built == derived
        area = area_breakdown(hand_built)
        assert area == area_breakdown(derived)
        assert area.total < area_breakdown(SimConfig()).total
        energy = [
            simulate(small_cnn_spec(), backend="analytic", config=c).energy.total
            for c in (hand_built, derived)
        ]
        assert energy[0] == energy[1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mesh": (2, 4)},
            {"cmem_slices": 0},
            {"cmem_rows": 8},
            {"dram_channels": 0},
            {"network": "nope"},
        ],
    )
    def test_invalid_axes_raise(self, kwargs):
        base = {"network": "resnet18", "backend": "streaming"}
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            DesignPoint(**base)


class TestSweepSpec:
    def test_expand_size_and_order(self):
        spec = SweepSpec(
            name="t",
            networks=("resnet18", "small_cnn"),
            backends=("analytic",),
            meshes=((12, 12), (16, 16)),
            dram_channels=(16, 32),
        )
        points = spec.expand()
        assert len(points) == spec.size == 8
        # Network is the outermost axis, channels the innermost.
        assert [p.network for p in points[:4]] == ["resnet18"] * 4
        assert [p.dram_channels for p in points[:2]] == [16, 32]

    def test_expansion_is_deterministic(self):
        spec = SweepSpec(name="t", networks=("small_cnn",),
                         backends=("analytic",), cmem_slices=(5, 7))
        assert [p.point_id for p in spec.expand()] == [
            p.point_id for p in spec.expand()
        ]

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(name="t", networks=("resnet18", "resnet18"),
                      backends=("analytic",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(name="t", networks=(), backends=("analytic",))

    def test_axes_dict_lists_every_axis(self):
        spec = SweepSpec(name="t", networks=("resnet18",),
                         backends=("analytic",))
        axes = spec.axes_dict()
        for key in ("networks", "backends", "strategies", "meshes",
                    "cmem_slices", "cmem_rows", "dram_channels"):
            assert key in axes
