"""DNN substrate: layers, graphs, int8 quantization, reference inference.

The paper's benchmark is ResNet18 with 8-bit quantization (Jacob et al.,
CVPR 2018) at batch size 1.  This package provides float model
construction, post-training symmetric quantization with batch-norm
folding, and an integer reference engine whose arithmetic is exactly what
the MAICC simulation must reproduce (int8 operands, int32 accumulation,
requantization between fused layers).
"""

from repro.nn.layers import (
    Add,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Input,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.graph import Graph, GraphNode
from repro.nn.quantize import QuantizedGraph, quantize_graph
from repro.nn.reference import run_float, run_quantized
from repro.nn.workloads import ConvLayerSpec, NetworkSpec, resnet18_spec

__all__ = [
    "Add",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "Flatten",
    "Input",
    "Layer",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "Graph",
    "GraphNode",
    "QuantizedGraph",
    "quantize_graph",
    "run_float",
    "run_quantized",
    "ConvLayerSpec",
    "NetworkSpec",
    "resnet18_spec",
]
