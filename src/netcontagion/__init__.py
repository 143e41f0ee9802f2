"""Contagion in network coordination games with local and global effects.

The package computes, exactly, how a deviating action spreads through a
weighted network when each player switches once enough (weighted) neighbor
support plus a global-effect bonus outweighs the relative miscoordination
cost q: best-response cascades, full-network contagion thresholds, depth
step functions, virality, equilibrium and cohesion checks, a brute-force
oracle for small instances, and a Monte Carlo harness over scale-free
networks.
"""

from .contagion import (
    CascadeResult,
    DepthFunction,
    ThresholdResult,
    ThresholdStage,
    cascade,
    coexisting_conventions,
    cohesiveness,
    depth_at,
    depth_function,
    full_contagion_threshold,
    is_nash,
    is_uniformly_at_most_cohesive,
    virality,
)
from .game import (
    GameConfig,
    InfluenceWeights,
    ParametricGlobalEffect,
    TabularGlobalEffect,
    benefit_for_resilience,
    global_share,
    has_incentive,
    local_support,
    switch_threshold,
)
from .graphs import Network, dump_edge_list, generate_ba, is_connected, load_edge_list
from .montecarlo import (
    Aggregator,
    ExperimentGrid,
    derive_seed,
    inverse_depth,
    iter_batches,
    singularity_interval,
)

__version__ = "0.1.0"

__all__ = [
    "CascadeResult", "DepthFunction", "ThresholdResult", "ThresholdStage",
    "cascade", "coexisting_conventions", "cohesiveness", "depth_at",
    "depth_function", "full_contagion_threshold", "is_nash",
    "is_uniformly_at_most_cohesive", "virality",
    "GameConfig", "InfluenceWeights", "ParametricGlobalEffect",
    "TabularGlobalEffect", "benefit_for_resilience", "global_share",
    "has_incentive", "local_support", "switch_threshold",
    "Network", "dump_edge_list", "generate_ba", "is_connected",
    "load_edge_list",
    "Aggregator", "ExperimentGrid", "derive_seed", "inverse_depth",
    "iter_batches", "singularity_interval",
    "__version__",
]
