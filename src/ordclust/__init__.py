"""Clustering for categorical and mixed data with learned value orders.

The library learns an integer order over each categorical attribute's values
jointly with the data partition, measures samples against cluster value
profiles through normalized rank differences, and ships the baselines,
ablations and validity indices needed to benchmark the approach.
"""

from .cluster import (
    BenchRow,
    FitConfig,
    FitResult,
    FitTrace,
    Partition,
    assign,
    efficiency_bench,
    fit_fixed_order,
    fit_kmodes,
    fit_kprototypes,
    fit_mixed,
    fit,
)
from .data import (
    AttributeSchema,
    DataError,
    Dataset,
    SchemaError,
    load_csv,
    load_dataset,
    load_schema,
    normalize_numerical,
    synthesize,
)
from .evaluate import (
    MetricReport,
    RunMetrics,
    adjusted_rand_index,
    aggregate,
    clustering_accuracy,
    compactness,
    normalized_mutual_info,
    score,
)
from .metric import (
    ClusterProfile,
    ObjectiveReport,
    compute_profile,
    objective,
    pairwise_distance_matrix,
)
from .order import (
    LinkDensityTable,
    OrderSet,
    consensus_order,
    dictionary_orders,
    hamming_orders,
    learn_orders,
    link_density,
    random_orders,
    semantic_orders,
)

__version__ = "0.1.0"
