"""The host-side deployment runtime.

The paper's host CPU "runs the operating system and is responsible for
resource management and task allocation of the many-core array"
(Sec. 3.1).  ``MAICCRuntime`` is that role as an API: it takes a float
model, quantizes it, derives the mapped-layer description, plans the
segmentation/placement, and then serves inferences — producing both the
*actual integer outputs* (functional node-group execution, exactly equal
to the quantized reference) and the *performance estimate* (cycles,
energy) of running them on the chip.

    runtime = MAICCRuntime()
    deployed = runtime.deploy(graph, calibration_inputs)
    result = deployed.infer(x)
    result.logits, result.latency_ms, result.energy_mj
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.functional import simulate_quantized_graph
from repro.errors import MappingError
from repro.mapping.placement import NodePlacement, zigzag_placement
from repro.nn.graph import Graph
from repro.nn.quantize import QConv2d, QLinear, QuantizedGraph, quantize_graph
from repro.nn.workloads import ConvLayerSpec, NetworkSpec
from repro.sim import RunReport, SimConfig, simulate


def network_spec_of(qgraph: QuantizedGraph, name: str = "model") -> NetworkSpec:
    """Derive the mapped-layer description from a quantized graph.

    Conv and FC nodes become mapped layers in topological order; auxiliary
    nodes (ReLU, pooling, adds) run on the scalar cores and do not map.
    """
    shapes: Dict[str, tuple] = {}
    layers: List[ConvLayerSpec] = []
    for node_name in qgraph.order:
        node = qgraph.nodes[node_name]
        layer = node.layer
        if hasattr(layer, "shape"):  # QInput
            shapes[node_name] = tuple(layer.shape)
            continue
        in_shape = shapes[node.inputs[0]]
        if isinstance(layer, QConv2d):
            m, c, r, s = layer.weight_q.shape
            h, w = in_shape[1], in_shape[2]
            layers.append(
                ConvLayerSpec(
                    index=len(layers) + 1, name=node_name, h=h, w=w, c=c,
                    m=m, r=r, s=s, stride=layer.stride, padding=layer.padding,
                    n_bits=layer.n_bits,
                )
            )
            oh = (h + 2 * layer.padding - r) // layer.stride + 1
            ow = (w + 2 * layer.padding - s) // layer.stride + 1
            shapes[node_name] = (m, oh, ow)
        elif isinstance(layer, QLinear):
            c = int(np.prod(in_shape))
            m = layer.weight_q.shape[0]
            layers.append(
                ConvLayerSpec(
                    index=len(layers) + 1, name=node_name, h=1, w=1, c=c,
                    m=m, r=1, s=1, padding=0, kind="linear",
                    n_bits=layer.n_bits,
                )
            )
            shapes[node_name] = (m,)
        else:
            # Auxiliary layers keep (or pool) the input shape.
            from repro.nn.quantize import QAvgPool2d, QMaxPool2d, QFlatten

            if isinstance(layer, (QMaxPool2d, QAvgPool2d)):
                kernel = layer.pool.kernel if isinstance(layer, QMaxPool2d) else layer.kernel
                stride = layer.pool.stride if isinstance(layer, QMaxPool2d) else layer.stride
                padding = layer.pool.padding if isinstance(layer, QMaxPool2d) else layer.padding
                c, h, w = in_shape
                oh = (h + 2 * padding - kernel) // stride + 1
                ow = (w + 2 * padding - kernel) // stride + 1
                shapes[node_name] = (c, oh, ow)
            elif isinstance(layer, QFlatten):
                shapes[node_name] = (int(np.prod(in_shape)),)
            else:
                shapes[node_name] = in_shape
    if not layers:
        raise MappingError("the model contains no mappable conv/FC layers")
    return NetworkSpec(name=name, layers=tuple(layers))


@dataclass
class InferenceResult:
    """One served inference: real outputs + modeled cost."""

    outputs: np.ndarray
    activations: Dict[str, np.ndarray]
    latency_ms: float
    energy_mj: float

    @property
    def logits(self) -> np.ndarray:
        return self.outputs


@dataclass
class DeployedModel:
    """A model resident on the chip: quantized graph + plan + placements."""

    name: str
    qgraph: QuantizedGraph
    network: NetworkSpec
    performance: RunReport
    placements: List[NodePlacement] = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        return self.performance.latency_ms

    @property
    def throughput_samples_s(self) -> float:
        return self.performance.throughput_samples_s

    def infer(self, x: np.ndarray) -> InferenceResult:
        """Run one input through the functional MAICC path."""
        activations = simulate_quantized_graph(self.qgraph, x)
        output = activations[self.qgraph.output_name]
        return InferenceResult(
            outputs=output,
            activations=activations,
            latency_ms=self.performance.latency_ms,
            energy_mj=self.performance.energy.total * 1e3,
        )

    def summary(self) -> str:
        lines = [
            f"model {self.name!r}: {len(self.network)} mapped layers, "
            f"{self.network.total_macs / 1e6:.1f} MMACs",
            f"  latency {self.latency_ms:.3f} ms, "
            f"{self.throughput_samples_s:.0f} samples/s, "
            f"{self.performance.average_power_w:.2f} W",
        ]
        for run, placement in zip(self.performance.runs, self.placements):
            names = ",".join(s.name for s in run.segment.layers)
            lines.append(
                f"  segment [{names}]: {run.segment.total_nodes} cores, "
                f"{run.cycles / 1e3:.1f} kcycles, "
                f"chain hops {placement.average_chain_hops():.2f}"
            )
        return "\n".join(lines)


class MAICCRuntime:
    """Host-side model deployment onto the MAICC chip."""

    def __init__(
        self,
        *,
        strategy: str = "heuristic",
        backend: Optional[str] = None,
    ) -> None:
        """``backend`` selects the performance-estimate fidelity tier
        (``repro.sim`` name); ``None`` is the default ``streaming`` tier."""
        self.config = SimConfig(strategy=strategy)
        self.backend = backend

    def deploy(
        self,
        graph: Graph,
        calibration_inputs: Sequence[np.ndarray],
        *,
        name: str = "model",
        n_bits: int = 8,
    ) -> DeployedModel:
        """Quantize, map, and place a float model."""
        qgraph = quantize_graph(graph, calibration_inputs, n_bits=n_bits)
        network = network_spec_of(qgraph, name)
        performance = simulate(network, backend=self.backend, config=self.config)
        placements = [
            zigzag_placement(run.segment) for run in performance.runs
        ]
        return DeployedModel(
            name=name,
            qgraph=qgraph,
            network=network,
            performance=performance,
            placements=placements,
        )
