#!/usr/bin/env python3
"""Object detection: comparing every search method on Tiny-YOLO-v2.

A real-time detector has a hard latency budget, so the *quality* of the
found configuration matters — and so does the *time to find it*.  This
example pits every selector in the repo against each other on the same
profiled look-up table (paper §VI-B: RL vs Random Search; related work:
PBQP of Anderson & Gregg):

* all-Vanilla and Best Single Library (the no-search baselines),
* greedy per-layer selection (the Fig. 1 trap),
* Random Search at the same episode budget as QS-DNN,
* PBQP (the optimization-based competitor, solved exactly here),
* QS-DNN (this paper),
* the exact optimum (PBQP's answer, once the solver proves it).

Run:  python examples/object_detection_search_methods.py
"""

from repro import (
    InferenceEngineOptimizer,
    Mode,
    build_network,
    jetson_tx2,
)
from repro.analysis import compare_methods
from repro.analysis.curves import fig4_learning_curve


def main() -> None:
    platform = jetson_tx2()
    network = build_network("tiny_yolo_v2")

    optimizer = InferenceEngineOptimizer(network, platform, mode=Mode.GPGPU, seed=0)
    lut = optimizer.profile()

    comparison = compare_methods(lut, episodes=1000, seed=0)
    print(comparison.render())
    fps = 1000.0 / comparison.qsdnn_ms
    print(
        f"\nQS-DNN's schedule sustains ~{fps:.0f} frames/s on the TX-2 "
        "model\n(the detector is conv-only, so the GPU sweeps the board "
        "here -\ncontrast with MobileNet, where the CPU wins layers back)."
    )

    print("\nLearning curve (Fig. 4 protocol, 1000 episodes):\n")
    print(fig4_learning_curve(lut, episodes=1000, seed=0).render())


if __name__ == "__main__":
    main()
