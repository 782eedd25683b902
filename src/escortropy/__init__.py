"""Hybrid entropy, escort distributions, q-deformed calculus, and numerical
verification of the q-additive entropic chain rule for finite distributions.

The verifiers of ``escortropy.axioms`` load on first use: the submodule,
and its names exported here, are imported when one of them is first looked
up (PEP 562), so importing the package, or running any command but
``verify``, never loads them. ``SUITES`` is defined here, before any
submodule loads, so ``run_suite`` and ``verify --suite`` read one tuple
without the command line importing the verifiers.
"""

# The suites run_suite runs, and "all".
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
    "AxiomVerdict",
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
    "check_additivity_dependent",
    "check_additivity_independent",
    "check_continuity",
    "check_expansibility",
    "check_maximality",
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
    "project_to_simplex",
    "q_add",
    "q_exp",
    "q_log",
    "random_joint",
    "random_joints",
    "renyi",
    "sample_dependent_joint",
    "shannon",
    "tsallis",
]

# The names of escortropy.axioms exported here, loaded by __getattr__.
_AXIOMS_NAMES = (
    "AxiomVerdict",
    "check_additivity_dependent",
    "check_additivity_independent",
    "check_continuity",
    "check_expansibility",
    "check_maximality",
    "project_to_simplex",
    "sample_dependent_joint",
)


def __getattr__(name: str):
    """The axioms submodule, or one of its exported names, imported on first
    use; each name is then bound here, so later lookups skip this call."""
    if name != "axioms" and name not in _AXIOMS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    axioms = importlib.import_module(".axioms", __name__)
    if name == "axioms":
        return axioms
    value = globals()[name] = getattr(axioms, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_AXIOMS_NAMES, "axioms"})
