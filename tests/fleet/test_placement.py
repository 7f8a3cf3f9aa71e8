"""Replica placement: FFD bin-packing, hard rules, and re-placement."""

import pytest

from repro.errors import SimulationError
from repro.fleet.placement import (
    FleetPlacement,
    best_chip_for,
    place_replicas,
)
from repro.fleet.profiles import ModelProfile

PROFILES = {
    "vision": ModelProfile("vision", 0.8, cores=64),
    "speech": ModelProfile("speech", 1.1, cores=96),
    "detect": ModelProfile("detect", 2.2, cores=128),
}


class TestPlaceReplicas:
    def test_ffd_packs_big_partitions_first(self):
        placement = place_replicas(
            PROFILES,
            {"vision": 4, "speech": 3, "detect": 2},
            n_chips=8,
            array_size=210,
        )
        # FFD: detect(128) on chips 0,1; speech(96) on 2,3,4; vision(64)
        # fills back from chip 0.
        assert placement.chips_of("detect") == [0, 1]
        assert placement.chips_of("speech") == [2, 3, 4]
        assert placement.chips_of("vision") == [0, 1, 2, 3]
        for chip in range(8):
            assert placement.used_cores(chip) <= 210

    def test_region_starts_tile_the_array(self):
        placement = place_replicas(
            PROFILES, {"detect": 1, "vision": 1}, n_chips=1, array_size=210
        )
        rows = sorted(placement.on_chip(0), key=lambda a: a.region_start)
        assert rows[0].region_start == 0
        assert rows[1].region_start == rows[0].cores

    def test_at_most_one_replica_per_chip(self):
        with pytest.raises(SimulationError, match="max one replica per chip"):
            place_replicas(PROFILES, {"vision": 3}, n_chips=2, array_size=210)

    def test_share_must_fit_the_array(self):
        profiles = {"huge": ModelProfile("huge", 1.0, cores=300)}
        with pytest.raises(SimulationError, match="exceeds"):
            place_replicas(profiles, {"huge": 1}, n_chips=4, array_size=210)

    def test_rejects_overfull_fleet(self):
        with pytest.raises(SimulationError, match="no .*chip has room"):
            place_replicas(
                PROFILES,
                {"vision": 2, "speech": 2, "detect": 2},
                n_chips=2,
                array_size=210,
            )

    def test_deterministic(self):
        kwargs = dict(
            replicas={"vision": 3, "speech": 2}, n_chips=4, array_size=210
        )
        a = place_replicas(PROFILES, **kwargs).as_dict()
        b = place_replicas(PROFILES, **kwargs).as_dict()
        assert a == b


class TestFleetPlacement:
    def test_add_rejects_duplicate_model_on_chip(self):
        placement = FleetPlacement(array_size=210, n_chips=2)
        placement.add("vision", 0, 64)
        with pytest.raises(SimulationError, match="already hosts"):
            placement.add("vision", 0, 64)

    def test_add_rejects_overflow(self):
        placement = FleetPlacement(array_size=100, n_chips=1)
        placement.add("a", 0, 64)
        with pytest.raises(SimulationError, match="free"):
            placement.add("b", 0, 64)

    def test_remove_and_evict(self):
        placement = place_replicas(
            PROFILES, {"vision": 2, "speech": 1}, n_chips=2, array_size=210
        )
        lost = placement.evict_chip(0)
        assert {a.model for a in lost} == {"speech", "vision"}
        assert placement.on_chip(0) == []
        placement.remove("vision", 1)
        assert placement.replica_count("vision") == 0
        with pytest.raises(SimulationError, match="to remove"):
            placement.remove("vision", 1)


class TestBestChipFor:
    def test_prefers_most_free_then_lowest_id(self):
        placement = FleetPlacement(array_size=210, n_chips=3)
        placement.add("speech", 0, 96)
        # chips 1 and 2 tie on free cores; the lowest id wins.
        assert best_chip_for(placement, "vision", 64) == 1

    def test_respects_exclusions_and_hosts(self):
        placement = FleetPlacement(array_size=210, n_chips=3)
        placement.add("vision", 1, 64)
        assert best_chip_for(placement, "vision", 64, exclude=[0]) == 2
        placement.add("vision", 2, 64)
        assert best_chip_for(placement, "vision", 64, exclude=[0]) is None
