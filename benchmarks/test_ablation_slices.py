"""Ablation: CMem slice count (the Sec. 3.2 slicing trade-off).

More, thinner slices buy MAC parallelism (operations in different slices
do not interfere) at the cost of per-slice capacity and data movement;
the paper picks eight slices (seven computing).  Swept at chip level
under the slice-parallel timing model: ResNet18 latency should improve
with more slices and the capacity minimums should shrink.
"""

import pytest

from repro.core.node import table4_workload
from repro.core.perfmodel import TimingParams
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import resnet18_spec
from repro.sim import SimConfig, simulate


def chip_latency_ms(compute_slices: int) -> float:
    config = SimConfig(
        params=TimingParams(slice_parallel_cmem=True),
        capacity=CapacityModel(compute_slices=compute_slices),
    )
    return simulate(resnet18_spec(), config=config).latency_ms


def test_slice_count_sweep(benchmark):
    latency = benchmark.pedantic(
        lambda: {k: chip_latency_ms(k) for k in (7, 10, 14)},
        rounds=1,
        iterations=1,
    )
    # More compute slices -> more parallel MACs and more capacity ->
    # lower latency, with diminishing returns.
    assert latency[7] >= latency[10] >= latency[14]


def test_seven_slices_is_the_feasibility_floor():
    """Below seven compute slices, conv4_x no longer fits 208 cores even
    with split filters — the paper's 8-slice CMem is the smallest geometry
    that maps full ResNet18."""
    from repro.errors import CapacityError

    spec = resnet18_spec().layer(17)  # conv4_2: 512 filters of 3x3x512
    assert CapacityModel(compute_slices=7).min_nodes(spec, max_nodes=207) <= 207
    with pytest.raises(CapacityError):
        CapacityModel(compute_slices=5).min_nodes(spec, max_nodes=207)


def test_fewer_slices_reduce_capacity():
    spec = table4_workload()
    assert (
        CapacityModel(compute_slices=4).filters_per_node(spec)
        < CapacityModel(compute_slices=7).filters_per_node(spec)
    )


def test_fewer_slices_need_more_nodes():
    spec = resnet18_spec().layer(12)  # conv3_2
    assert (
        CapacityModel(compute_slices=3).min_nodes(spec)
        > CapacityModel(compute_slices=7).min_nodes(spec)
    )
