"""Full ResNet18 through the functional MAICC path, bit-for-bit.

The headline correctness result: the paper's benchmark network (all 20
mapped layers plus stem, pooling, residual adds, and the classifier) runs
through the node-group execution model — CMem data layout, filter
splitting, 256-lane sub-vectors, per-group accumulation — and reproduces
the int8 reference engine exactly at full 224x224 resolution.

~45 s; marked slow (deselect with ``-m 'not slow'``).
"""

import numpy as np
import pytest

from repro.core.functional import simulate_quantized_graph
from repro.nn import quantize_graph
from tests.models import build_resnet18


@pytest.mark.slow
def test_resnet18_functional_equals_reference():
    graph = build_resnet18()
    x = np.random.default_rng(2023).normal(size=(3, 224, 224))
    qgraph = quantize_graph(graph, [x])

    reference = qgraph.forward(x)
    simulated = simulate_quantized_graph(qgraph, x)

    mismatched = [
        name for name in reference
        if not np.array_equal(reference[name], simulated[name])
    ]
    assert not mismatched, f"activations diverge at {mismatched}"

    # And the classification outcome is identical, of course.
    assert int(np.argmax(simulated[qgraph.output_name])) == int(
        np.argmax(reference[qgraph.output_name])
    )
