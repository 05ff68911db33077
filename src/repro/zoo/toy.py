"""The 3-layer toy network of the paper's Fig. 1.

Fig. 1 illustrates why greedy per-layer selection fails: the path through
the *fastest intermediate implementation* (red) loses to the globally
fastest path (blue) once layout/processor conversion penalties are
charged.  The Fig. 1 experiment verifies QS-DNN against the exact
optimum, and the tests against exhaustive enumeration, which this
network is small enough for.
"""

from __future__ import annotations

from repro.nn.builder import NetworkBuilder
from repro.nn.graph import NetworkGraph
from repro.nn.tensor import TensorShape


def fig1_network() -> NetworkGraph:
    """Three convolution layers on a small feature map (Fig. 1)."""
    b = NetworkBuilder("fig1_toy", TensorShape(8, 32, 32))
    b.conv("layer1", out_channels=16, kernel=3, padding=1)
    b.conv("layer2", out_channels=16, kernel=3, padding=1)
    b.conv("layer3", out_channels=8, kernel=3, padding=1)
    return b.build()
