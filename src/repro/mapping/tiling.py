"""Output-channel tiling for layers that exceed the whole array.

The weight-stationary execution framework requires a layer's filters to be
resident across its node group.  Very large FC layers (VGG's fc6 holds
102 M weights against the chip's ~2.6 M resident slots) cannot fit even
with split filters, so they execute in *passes*: the output channels are
tiled, each tile mapped as its own (maximally sized) layer, and passes run
back to back, reloading weights between them.  This trades latency for
capacity — and surfaces an honest architectural point: MAICC is
filter-load-bound on VGG-class fully-connected layers.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List

from repro.errors import CapacityError, MappingError
from repro.mapping.capacity import CapacityModel
from repro.nn.workloads import ConvLayerSpec, NetworkSpec


def passes_required(
    spec: ConvLayerSpec,
    capacity: CapacityModel,
    array_size: int,
) -> int:
    """How many sequential passes a layer needs on ``array_size`` cores."""
    cap = array_size - 1  # one core is the DC
    try:
        capacity.min_nodes(spec, max_nodes=cap)
        return 1
    except CapacityError:
        pass
    split = capacity.min_nodes_split(spec)
    passes = math.ceil(split / cap)
    # Verify one tile actually fits (guards degenerate geometries).
    tile_m = math.ceil(spec.m / passes)
    tile = replace(spec, m=tile_m)
    if capacity.min_nodes_split(tile) > cap:
        raise MappingError(
            f"{spec.name}: even 1/{passes} of the filters exceeds the array"
        )
    return passes


def tile_network(
    network: NetworkSpec, capacity: CapacityModel, array_size: int
) -> NetworkSpec:
    """Rewrite a network so every layer fits the array.

    Oversized layers become ``passes`` consecutive layers named
    ``<name>@p<k>``, each holding a contiguous slice of the output
    channels.  Indices are renumbered sequentially; the result is
    otherwise equivalent (the concatenation of the passes' ofmaps is the
    original ofmap).
    """
    tiled: List[ConvLayerSpec] = []
    changed = False
    for spec in network:
        passes = passes_required(spec, capacity, array_size)
        if passes == 1:
            tiled.append(spec)
            continue
        changed = True
        base, extra = divmod(spec.m, passes)
        for k in range(passes):
            tile_m = base + (1 if k < extra else 0)
            tiled.append(
                replace(spec, name=f"{spec.name}@p{k}", m=tile_m)
            )
    if not changed:
        return network
    renumbered = tuple(
        replace(spec, index=i + 1) for i, spec in enumerate(tiled)
    )
    return NetworkSpec(name=network.name, layers=renumbered)
