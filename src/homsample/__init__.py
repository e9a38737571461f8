"""Feature-homophily graph subsampling toolkit.

Samples node-induced subgraphs by deleting the nodes with the largest
standardized-feature scores, preserving Laplacian trace (a connectivity
proxy) better than random subsampling on homophilic graphs, at O(dm) cost.
Ships baseline samplers, connectivity metrics, a small graph convolutional
network for transfer experiments, graphon generators, and a CLI harness.
"""

from .errors import DataError, NumericalError
from .features import (
    NormalizedFeatures,
    feature_homophily,
    node_scores,
    normalize_features,
    trace_lower_bound,
)
from .gnn import GnnConfig, GnnModel, conv_filterbank, evaluate, forward, shift_matrix, train
from .graph import (
    Graph,
    adjusted_trace,
    build_graph,
    connected_components,
    induced_subgraph,
    laplacian_rank,
    laplacian_trace,
)
from .graphon import GraphonSpec, generate_dataset, homophilic_features, sample_graphon_graph
from .sampling import (
    SampleResult,
    SampleSpec,
    sample,
    sample_degree_greedy,
    sample_homophily,
    sample_random,
)
from .spectral import conv_span_dimension, leverage_identity_check, numerical_rank

__version__ = "0.1.0"
