"""Hybrid entropy, escort distributions, q-deformed calculus, and numerical
verification of the q-additive entropic chain rule for finite distributions.

The verifiers are imported from ``escortropy.axioms``, which the package
itself never loads.
"""

# The suites run_suite runs, and "all". They live here, so that
# verify --suite reads them without importing escortropy.axioms.
SUITES = ("qcalc", "escort", "axioms", "all")

from .errors import (
    DomainCutoffError,
    EscortropyError,
    MalformedWeightsError,
    NegativeWeightError,
    NonpositiveArgumentError,
    NotNormalizedError,
    UnreachableFloorError,
    ZeroMarginalColumnError,
)
from .prob import (
    EPS_NORM,
    ConditionalDistribution,
    Distribution,
    DistributionStack,
    JointDistribution,
    JointStack,
    drop_zero_columns,
    marginal_a,
    mutual_information,
    product_joint,
    random_joint,
    random_joints,
)
from .qcalc import kn_map, kn_map_inv, q_add, q_exp, q_log
from .escort import (
    escort,
    escort_ratio,
    is_escort_consistent,
    joint_escort_correct,
    joint_escort_naive,
)
from .entropies import (
    aczel_daroczy,
    hybrid,
    renyi,
    shannon,
    tsallis,
)
from .chain_rules import (
    ChainRuleReport,
    ChainRuleReports,
    chain_rule_grid,
    chain_rule_report,
    corrected_conditional,
)

__version__ = "0.1.0"

__all__ = [
    "EPS_NORM",
    "ChainRuleReport",
    "ChainRuleReports",
    "ConditionalDistribution",
    "Distribution",
    "DistributionStack",
    "DomainCutoffError",
    "EscortropyError",
    "JointDistribution",
    "JointStack",
    "MalformedWeightsError",
    "NegativeWeightError",
    "NonpositiveArgumentError",
    "NotNormalizedError",
    "UnreachableFloorError",
    "ZeroMarginalColumnError",
    "aczel_daroczy",
    "chain_rule_grid",
    "chain_rule_report",
    "corrected_conditional",
    "drop_zero_columns",
    "escort",
    "escort_ratio",
    "hybrid",
    "is_escort_consistent",
    "joint_escort_correct",
    "joint_escort_naive",
    "kn_map",
    "kn_map_inv",
    "marginal_a",
    "mutual_information",
    "product_joint",
    "q_add",
    "q_exp",
    "q_log",
    "random_joint",
    "random_joints",
    "renyi",
    "shannon",
    "tsallis",
]
