"""The two conditional hybrid entropies, the additivity residual, and its repair.

The q-additive composition rule for the hybrid entropy reads

    D_q(A,B) = D_q(A) (+)_q D_q(B|A)

with (+)_q the deformed addition. There are two inequivalent ways to define
the conditional term:

* the chain route: subtract additive-scale entropies,
  kn_map(D_q(B|A)) = kn_map(D_q(A,B)) - kn_map(D_q(A));
* the axiomatic route: the Kolmogorov-Nagumo mean with escort weights,
  kn_map(D_q(B|A)) = sum_l P(q)_l * AD(B | A = A_l).

The two differ by exactly (1/q) * (cross entropy minus Shannon entropy of the
naive joint escort), which is the quantity ``s_gap`` below. The composition
rule holds with the axiomatic conditional precisely when that gap vanishes
(product joints, q = 1, and dependent joints whose conditional columns have
equal power sums); otherwise the exponential tilt ``corrected_conditional``
closes the residual exactly.

``chain_rule_report`` is the only implementation: one pass over the joint
computes p, r_{k|l}, ln r and the q-th powers once each and derives every
field from them. The single-quantity functions are views of that report, so
call ``chain_rule_report`` once when you need more than one field.

All intermediate arithmetic is done in the additive scale and converted to the
deformed scale only at the boundary, which avoids compounding exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropies import _masked_log
from .prob import JointDistribution, QOrder, _marginal_and_conditional, as_order
from .qcalc import kn_map_inv, q_add


@dataclass(frozen=True, eq=False)
class ChainRuleReport:
    """Every quantity of the additivity analysis for one (joint, q) pair.

    Entropy-like fields are in the additive scale; the residuals are in the
    deformed (D_q) scale.
    """

    q: QOrder
    joint_entropy: float
    marginal_entropy: float
    conditional_chain: float
    conditional_axiomatic: float
    gap: float
    s_gap: float
    lower_bound: float
    upper_bound: float
    residual: float
    corrected_residual: float


def _tilted(axiomatic: float, s_gap_value: float, order: QOrder) -> float:
    """The axiomatic conditional tilted by exp(-((1-q)/q) * s_gap), deformed scale.

    In the additive scale the tilt subtracts s_gap / q, so it is mapped back
    once, with no cancellation between exponentially large terms.
    """
    return kn_map_inv(axiomatic - s_gap_value / order.value, order)


def chain_rule_report(r: JointDistribution, q: float | QOrder) -> ChainRuleReport:
    """Evaluate every quantity of the additivity analysis for (r, q) in one pass.

    The two conditionals come from Aczel-Daroczy sums and ``s_gap`` from the
    cross entropy of the two joint escorts, so ``gap = s_gap / q`` is checked
    across independent routes. Raises ZeroMarginalColumnError when an A
    outcome has zero probability, since conditioning on it is undefined.
    """
    order = as_order(q)
    w = r.weights
    p, cond = _marginal_and_conditional(w)
    log_w = _masked_log(w)
    log_p = np.log(p)
    log_cond = np.where(w > 0, log_w - log_p, 0.0)
    # No branch at q = 1: there every power is the identity, so both joint
    # escorts are r up to rounding and s_gap, the gap and the bounds vanish.
    cond_q = cond**order.value
    col_sums = cond_q.sum(axis=0)
    w_q = w**order.value
    p_q = p**order.value
    p_escort = p_q / p_q.sum()
    naive = w_q / w_q.sum()
    correct = cond_q / col_sums * p_escort
    log_naive = _masked_log(naive)

    joint_ad = float(-(naive * log_w).sum())
    marginal_ad = float(-(p_escort * log_p).sum())
    chain = joint_ad - marginal_ad
    axiomatic = float(-(correct * log_cond).sum())
    naive_terms = naive * log_naive
    gap_value = float(-(correct * log_naive).sum()) - float(-naive_terms.sum())

    col_entropy = -naive_terms.sum(axis=0)
    lower = float((((cond_q.min(axis=1).sum() - col_sums) / col_sums) * col_entropy).sum())
    upper = float((((cond_q.max(axis=1).sum() - col_sums) / col_sums) * col_entropy).sum())

    joint_value = kn_map_inv(joint_ad, order)
    marginal_value = kn_map_inv(marginal_ad, order)
    residual = joint_value - q_add(marginal_value, kn_map_inv(axiomatic, order), order)
    corrected = _tilted(axiomatic, gap_value, order)
    return ChainRuleReport(
        q=order,
        joint_entropy=joint_ad,
        marginal_entropy=marginal_ad,
        conditional_chain=chain,
        conditional_axiomatic=axiomatic,
        gap=axiomatic - chain,
        s_gap=gap_value,
        lower_bound=lower,
        upper_bound=upper,
        residual=residual,
        corrected_residual=joint_value - q_add(marginal_value, corrected, order),
    )


def conditional_chain(r: JointDistribution, q: float | QOrder) -> float:
    """Additive-scale conditional via subtraction: AD(A,B) - AD(A)."""
    return chain_rule_report(r, q).conditional_chain


def conditional_axiomatic(r: JointDistribution, q: float | QOrder) -> float:
    """Additive-scale conditional as the escort-weighted mean of per-outcome
    Aczel-Daroczy entropies of B given each A outcome."""
    return chain_rule_report(r, q).conditional_axiomatic


def s_gap(r: JointDistribution, q: float | QOrder) -> float:
    """Cross entropy of the correct escort against the naive one, minus the
    naive escort's own Shannon entropy.

    Zero iff the two joint escort constructions coincide; sign-indefinite in
    general. Equals q times the difference between the two conditionals.
    """
    return chain_rule_report(r, q).s_gap


def minmax_bounds(r: JointDistribution, q: float | QOrder) -> tuple[float, float]:
    """Sandwich on s_gap from the min-max theorem for means.

    Replacing each column's power sum by the row-wise minimum (maximum) over
    columns bounds the cellwise escort ratio from below (above). The lower
    bound is always <= 0 and the upper always >= 0; both collapse to zero iff
    the conditional rows are constant across columns.
    """
    report = chain_rule_report(r, q)
    return report.lower_bound, report.upper_bound


def additivity_residual(r: JointDistribution, q: float | QOrder) -> float:
    """Defect of the q-additive composition rule with the axiomatic conditional.

    D_q(A,B) minus D_q(A) (+)_q D_q(B|A), in the deformed scale. Zero for
    product joints and at q = 1; nonzero for a generic dependent joint.
    """
    return chain_rule_report(r, q).residual


def corrected_conditional(r: JointDistribution, q: float | QOrder) -> float:
    """The axiomatic conditional after the exponential tilt that restores
    q-additivity, in the deformed scale.

    The tilt multiplies the shifted conditional by exp(-((1-q)/q) * s_gap),
    which in the additive scale subtracts exactly (1/q) * s_gap and therefore
    lands on the chain-route conditional. The tilt factor is 1 on product
    joints, and the map is the identity at q = 1.
    """
    report = chain_rule_report(r, q)
    return _tilted(report.conditional_axiomatic, report.s_gap, report.q)
