"""QS-DNN reproduction: RL-based search for DNN primitive selection on
heterogeneous embedded systems (de Prado, Pazos, Benini — DATE 2019).

Quick start
-----------
>>> from repro import (jetson_tx2, build_network, Mode,
...                    InferenceEngineOptimizer, QSDNNSearch, SearchConfig)
>>> platform = jetson_tx2()
>>> network = build_network("lenet5")
>>> optimizer = InferenceEngineOptimizer(network, platform, mode=Mode.GPGPU)
>>> lut = optimizer.profile()                       # phase 1: on "device"
>>> result = QSDNNSearch(lut, SearchConfig(episodes=200)).run()  # phase 2
>>> report = optimizer.deploy(result.schedule())    # measure end-to-end
"""

from repro.backends import DesignSpace, Layout, Mode, cpu_space, design_space, gpgpu_space
from repro.baselines import (
    best_single_library,
    cross_entropy_method,
    genetic_search,
    greedy_per_layer,
    pbqp_solve,
    random_search,
    single_library_results,
)
from repro.core import (
    EpsilonSchedule,
    MultiSeedResult,
    MultiSeedSearch,
    QSDNNSearch,
    SearchConfig,
    SearchResult,
    seed_range,
)
from repro.engine import (
    CostEngine,
    InferenceEngineOptimizer,
    LatencyTable,
    NetworkSchedule,
    Profiler,
)
from repro.hw import Platform, ProcessorKind, jetson_tx2, jetson_tx2_maxn, raspberry_pi3
from repro.nn import NetworkBuilder, NetworkGraph, TensorShape
from repro.zoo import TABLE2_NETWORKS, available_networks, build_network

__version__ = "1.0.0"

__all__ = [
    "Mode",
    "Layout",
    "DesignSpace",
    "cpu_space",
    "gpgpu_space",
    "design_space",
    "random_search",
    "best_single_library",
    "single_library_results",
    "greedy_per_layer",
    "cross_entropy_method",
    "genetic_search",
    "pbqp_solve",
    "EpsilonSchedule",
    "MultiSeedResult",
    "MultiSeedSearch",
    "seed_range",
    "QSDNNSearch",
    "SearchConfig",
    "SearchResult",
    "CostEngine",
    "InferenceEngineOptimizer",
    "LatencyTable",
    "NetworkSchedule",
    "Profiler",
    "Platform",
    "ProcessorKind",
    "jetson_tx2",
    "jetson_tx2_maxn",
    "raspberry_pi3",
    "NetworkBuilder",
    "NetworkGraph",
    "TensorShape",
    "build_network",
    "available_networks",
    "TABLE2_NETWORKS",
    "__version__",
]
