"""DAG model of a network: named nodes, topological execution, shapes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import GraphError
from repro.nn.layers import Input, Layer


@dataclass
class GraphNode:
    name: str
    layer: Layer
    inputs: List[str] = field(default_factory=list)


class Graph:
    """A DAG of layers.  Nodes are added in any order; execution is
    topological.  Exactly one :class:`Input` node is required."""

    def __init__(self) -> None:
        self.nodes: Dict[str, GraphNode] = {}
        self._order: Optional[List[str]] = None

    def add(self, name: str, layer: Layer, inputs: Sequence[str] = ()) -> str:
        """Add a node; returns its name for chaining."""
        if name in self.nodes:
            raise GraphError(f"duplicate node name {name!r}")
        inputs = list(inputs)
        if isinstance(layer, Input):
            if inputs:
                raise GraphError("Input nodes take no predecessors")
        elif len(inputs) != layer.arity:
            raise GraphError(
                f"{name}: layer arity {layer.arity} but {len(inputs)} inputs given"
            )
        self.nodes[name] = GraphNode(name=name, layer=layer, inputs=inputs)
        self._order = None
        return name

    @property
    def output_name(self) -> str:
        """The unique node no other node consumes."""
        consumed = {i for node in self.nodes.values() for i in node.inputs}
        sinks = [n for n in self.nodes if n not in consumed]
        if len(sinks) != 1:
            raise GraphError(f"graph must have exactly one output, found {sinks}")
        return sinks[0]

    def topological_order(self) -> List[str]:
        if self._order is not None:
            return self._order
        in_degree = {name: len(node.inputs) for name, node in self.nodes.items()}
        dependents: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for name, node in self.nodes.items():
            for pred in node.inputs:
                if pred not in self.nodes:
                    raise GraphError(f"{name}: unknown input {pred!r}")
                dependents[pred].append(name)
        ready = sorted(name for name, deg in in_degree.items() if deg == 0)
        order: List[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for dep in dependents[name]:
                in_degree[dep] -= 1
                if in_degree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(self.nodes):
            raise GraphError("graph contains a cycle")
        self._order = order
        return order

    def forward(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Run the float graph; returns every node's activation."""
        acts: Dict[str, np.ndarray] = {}
        for name in self.topological_order():
            node = self.nodes[name]
            if isinstance(node.layer, Input):
                acts[name] = node.layer.forward(x)
            else:
                acts[name] = node.layer.forward(*[acts[i] for i in node.inputs])
        return acts
