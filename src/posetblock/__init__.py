"""Exact combinatorics of weighted-coordinates poset block spaces over Z_q.

The space Z_q^N is split into n labeled blocks; a poset on the block
labels and a symbol weight induce a metric whose complete weight
distribution, ball volumes and code-theoretic structure (I-perfect,
r-perfect, MDS, duality) this package computes exactly, with a brute
enumeration oracle validating every closed form at desk scale.

The oracle is the one module that imports numpy, so its names are served
on first use (a module __getattr__): the closed forms run without numpy.
"""

from importlib import import_module

from .codes import (
    CodeReport,
    LinearCode,
    chain_mds_code,
    codewords,
    construct_I_perfect,
    dual_code,
    i_ball_contains,
    is_I_perfect,
    is_r_error_correcting,
    is_r_perfect,
    linear_code,
    mds_chain_ball_counts,
    mds_chain_distribution,
    min_distance,
    singleton_report,
    verify_duality,
)
from .distribution import (
    DistributionTable,
    applicable_methods,
    ball_volume,
    distribution,
    distribution_chain,
    distribution_general,
    table_from_json_dict,
    table_to_csv,
    table_to_json,
    table_to_json_dict,
)
from .errors import (
    BoundsError,
    ConfigError,
    ConsistencyError,
    CycleError,
    DimensionError,
    ExplosionError,
    HypothesisError,
    InvalidWeightError,
    NonPrimeError,
    PosetBlockError,
    PreconditionError,
    TrivialCodeError,
    WeightWarning,
)
from .poset import (
    Ideal,
    IdealFamily,
    LevelDecomposition,
    Poset,
    PosetClass,
    build_poset,
    chain_order,
    classify,
    dual_poset,
    enumerate_ideals,
    ideal_closure,
    is_finer,
    level_decomposition,
    poset_from_json,
)
from .space import (
    LabelMap,
    block_weight,
    label_map,
    pi_support,
    pwpi_distance,
    pwpi_weight,
    vector_sub,
)
from .weights import (
    WeightModel,
    block_class_size,
    custom_weight,
    hamming_weight,
    lee_weight,
    weight_from_json,
)

__version__ = "0.1.0"

_ORACLE_NAMES = (
    "MetricAxiomReport",
    "OracleResult",
    "PerfectnessResult",
    "oracle_distribution",
    "oracle_metric_axioms",
    "oracle_perfectness",
)


def __getattr__(name: str):
    """The oracle submodule and its public names, imported on first use."""
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = import_module(f"{__name__}.oracle")
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
