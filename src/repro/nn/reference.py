"""Reference inference engines (float and integer).

``run_quantized`` is the oracle for every MAICC simulation test: the
many-core functional path must reproduce its integer activations exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.graph import Graph
from repro.nn.quantize import QuantizedGraph


def run_float(graph: Graph, x: np.ndarray) -> np.ndarray:
    """Float forward pass; returns the output node's activation."""
    acts = graph.forward(x)
    return acts[graph.output_name]


def run_quantized(qgraph: QuantizedGraph, x: np.ndarray) -> np.ndarray:
    """Integer forward pass; returns the output node's integer activation."""
    acts = qgraph.forward(x)
    return acts[qgraph.output_name]


def quantization_error(
    graph: Graph, qgraph: QuantizedGraph, inputs: Sequence[np.ndarray]
) -> float:
    """Mean relative L2 error of the quantized output vs the float output."""
    errors = []
    for x in inputs:
        ref = run_float(graph, x).astype(np.float64)
        out = qgraph.dequantize(qgraph.output_name, run_quantized(qgraph, x))
        denom = np.linalg.norm(ref)
        errors.append(np.linalg.norm(out - ref) / denom if denom else 0.0)
    return float(np.mean(errors))
