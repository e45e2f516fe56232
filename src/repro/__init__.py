"""repro: dynamic histograms for evolving data sets.

A from-scratch reproduction of *"Dynamic Histograms: Capturing Evolving Data
Sets"* (Donjerkovic, Ioannidis & Ramakrishnan, ICDE 2000): incrementally
maintained histograms (DC, DVO, DADO), the new static SSBM and SADO
histograms, the classic static baselines, the sampling-based Approximate
Compressed comparator, selectivity estimation, shared-nothing global
histograms, and an experiment harness that regenerates every figure of the
paper's evaluation.

Quickstart
----------

>>> from repro import DADOHistogram, DataDistribution, ks_statistic
>>> histogram = DADOHistogram(n_buckets=32)
>>> truth = DataDistribution()
>>> for value in range(1000):
...     histogram.insert(value % 97)
...     truth.add(value % 97)
>>> ks_statistic(truth, histogram) < 0.1
True
"""

from .exceptions import (
    ClusterError,
    ConfigurationError,
    DeletionError,
    DomainError,
    DuplicateAttributeError,
    EmptyHistogramError,
    HistogramError,
    InsufficientDataError,
    ServiceError,
    ShardUnavailableError,
    UnknownAttributeError,
)
from .metrics import (
    DataDistribution,
    average_relative_error,
    chi_square_probability,
    chi_square_statistic,
    ks_statistic,
    ks_statistic_between,
)
from .core import (
    Bucket,
    SubBucketedBucket,
    Histogram,
    DynamicHistogram,
    MemoryModel,
    buckets_for_memory,
    DeviationMetric,
    DCHistogram,
    DVOHistogram,
    DADOHistogram,
    build_dynamic_histogram,
    build_static_histogram,
)
from .static import (
    CompressedHistogram,
    EquiDepthHistogram,
    EquiWidthHistogram,
    ExactHistogram,
    SADOHistogram,
    SSBMHistogram,
    VOptimalHistogram,
)
from .sampling import ApproximateCompressedHistogram, BackingSample, ReservoirSampler
from .datagen import (
    ClusterDistributionConfig,
    MailOrderConfig,
    generate_cluster_distribution,
    generate_cluster_values,
    generate_mail_order_values,
    reference_config,
    static_comparison_config,
)
from .workloads import (
    UpdateOp,
    UpdateStream,
    random_insertions,
    sorted_insertions,
    insertions_with_interleaved_deletions,
    insertions_then_random_deletions,
    sorted_insertions_then_sorted_deletions,
)
from .estimation import SelectivityEstimator, Between, Equals
from .distributed import (
    GlobalHistogramCoordinator,
    GlobalStrategy,
    Site,
    SiteGenerationConfig,
    generate_sites,
    superimpose,
    reduce_segments,
)
from .experiments import ExperimentSettings, SweepResult, format_sweep_table
from .persistence import (
    FrozenHistogram,
    freeze,
    histogram_from_dict,
    histogram_to_dict,
    load_histogram,
    save_histogram,
)
# The service and cluster layers (HTTP server, threading pipeline, shard
# fan-out) are re-exported lazily via module __getattr__ below, so `import
# repro` for the figure experiments and library users never pays for the
# http.server/http.client stack.
_SERVICE_EXPORTS = frozenset(
    [
        "AttributeStats",
        "DurabilityConfig",
        "HistogramStore",
        "IngestPipeline",
        "StatisticsServer",
        "StatisticsClient",
        "WriteAheadLog",
    ]
)
_CLUSTER_EXPORTS = frozenset(
    [
        "ClusterCoordinator",
        "ClusterClient",
        "ClusterServer",
        "LocalShard",
        "ShardBackend",
        "ShardRouter",
        "RangePartition",
    ]
)


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from . import service

        return getattr(service, name)
    if name in _CLUSTER_EXPORTS:
        from . import cluster

        return getattr(cluster, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # exceptions
    "HistogramError",
    "ConfigurationError",
    "EmptyHistogramError",
    "DomainError",
    "DeletionError",
    "InsufficientDataError",
    "ServiceError",
    "UnknownAttributeError",
    "DuplicateAttributeError",
    "ClusterError",
    "ShardUnavailableError",
    # metrics
    "DataDistribution",
    "ks_statistic",
    "ks_statistic_between",
    "chi_square_statistic",
    "chi_square_probability",
    "average_relative_error",
    # core
    "Bucket",
    "SubBucketedBucket",
    "Histogram",
    "DynamicHistogram",
    "MemoryModel",
    "buckets_for_memory",
    "DeviationMetric",
    "DCHistogram",
    "DVOHistogram",
    "DADOHistogram",
    "build_dynamic_histogram",
    "build_static_histogram",
    # static
    "ExactHistogram",
    "EquiWidthHistogram",
    "EquiDepthHistogram",
    "CompressedHistogram",
    "VOptimalHistogram",
    "SADOHistogram",
    "SSBMHistogram",
    # sampling
    "ReservoirSampler",
    "BackingSample",
    "ApproximateCompressedHistogram",
    # data generation
    "ClusterDistributionConfig",
    "MailOrderConfig",
    "generate_cluster_values",
    "generate_cluster_distribution",
    "generate_mail_order_values",
    "reference_config",
    "static_comparison_config",
    # workloads
    "UpdateOp",
    "UpdateStream",
    "random_insertions",
    "sorted_insertions",
    "insertions_with_interleaved_deletions",
    "insertions_then_random_deletions",
    "sorted_insertions_then_sorted_deletions",
    # estimation
    "SelectivityEstimator",
    "Equals",
    "Between",
    # distributed
    "Site",
    "SiteGenerationConfig",
    "generate_sites",
    "superimpose",
    "reduce_segments",
    "GlobalHistogramCoordinator",
    "GlobalStrategy",
    # experiments
    "ExperimentSettings",
    "SweepResult",
    "format_sweep_table",
    # persistence
    "FrozenHistogram",
    "freeze",
    "histogram_to_dict",
    "histogram_from_dict",
    "save_histogram",
    "load_histogram",
    # service
    "AttributeStats",
    "HistogramStore",
    "IngestPipeline",
    "StatisticsServer",
    "StatisticsClient",
    # cluster
    "ClusterCoordinator",
    "ClusterClient",
    "ClusterServer",
    "LocalShard",
    "ShardBackend",
    "ShardRouter",
    "RangePartition",
]
