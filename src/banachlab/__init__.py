"""banachlab: exotic sequence-space norms at desk scale.

Computes Schlumprecht-type norms exactly by interval-partition dynamic
programming, their interpolation family via certified Calderon-product
optimization, polyhedral dual norms by cutting-plane LP, and ships the
experiment drivers that verify the quantitative identities these
constructions satisfy.
"""

__version__ = "0.1.0"

from .calderon import lp_product_oracle, space_spr, spr_summing_identity
from .descriptors import (
    CalderonProduct,
    Convexified,
    Dual,
    FunctionalFamily,
    Lp,
    Schlumprecht,
    YDistortion,
    parse_space,
    space_to_str,
)
from .duality import DualEvaluation, dual_block_bound, dual_norm, lozanovskii_check
from .engine import (
    Factorization,
    NormEvaluator,
    calderon_norm,
    convexified_norm,
    get_evaluator,
)
from .errors import (
    BanachLabError,
    ConvergenceError,
    SizeCapError,
    UnsupportedSpaceError,
    ValidationError,
)
from .experiments import (
    beta_estimate,
    classX_verify,
    distortion_y_norm,
    equivalence_constant,
    l1_average,
    block_sum_growth,
    modulus_convexity_estimate,
    modulus_smoothness_estimate,
    projection_bound,
    unconditionality_ratio,
    vn_averages,
)
from .gauges import (
    LOG2P1,
    ONE,
    SQRT,
    GaugeFunction,
    check_gauge_class,
    check_prop5_hypothesis,
    gauge_by_name,
)
from .reports import ExperimentReport
from .schlumprecht import (
    PartitionCertificate,
    best_partition,
    fixed_point_check,
    reference_norm,
    s_norm,
    s_norm_value,
    summing_norm_table,
)
from .vectors import (BlockSequence, Interval, SeqVector, lp_norm, pairing, parse_vector,
                      pointwise_power, restrict)

__all__ = [
    "__version__",
    "SeqVector",
    "Interval",
    "lp_norm",
    "restrict",
    "pointwise_power",
    "parse_vector",
    "GaugeFunction",
    "LOG2P1",
    "SQRT",
    "ONE",
    "gauge_by_name",
    "check_gauge_class",
    "check_prop5_hypothesis",
    "s_norm",
    "s_norm_value",
    "best_partition",
    "fixed_point_check",
    "summing_norm_table",
    "reference_norm",
    "PartitionCertificate",
    "Lp",
    "Schlumprecht",
    "Convexified",
    "CalderonProduct",
    "Dual",
    "YDistortion",
    "FunctionalFamily",
    "parse_space",
    "space_to_str",
    "NormEvaluator",
    "get_evaluator",
    "calderon_norm",
    "convexified_norm",
    "Factorization",
    "space_spr",
    "lp_product_oracle",
    "spr_summing_identity",
    "pairing",
    "dual_norm",
    "DualEvaluation",
    "lozanovskii_check",
    "dual_block_bound",
    "BlockSequence",
    "l1_average",
    "block_sum_growth",
    "vn_averages",
    "equivalence_constant",
    "projection_bound",
    "beta_estimate",
    "distortion_y_norm",
    "unconditionality_ratio",
    "modulus_convexity_estimate",
    "modulus_smoothness_estimate",
    "classX_verify",
    "ExperimentReport",
    "BanachLabError",
    "ValidationError",
    "ConvergenceError",
    "SizeCapError",
    "UnsupportedSpaceError",
]
