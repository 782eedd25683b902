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
rule holds with the axiomatic conditional precisely when that gap vanishes.
It vanishes wherever the two joint escort constructions coincide (product
joints, q = 1, and dependent joints whose conditional columns have equal
power sums), so escort consistency at q implies closure at q. The converse
fails at a single order: ``s_gap`` is sign-indefinite and can vanish at one
order on an escort-inconsistent joint. Wherever it does not vanish, the
exponential tilt ``corrected_conditional`` closes the residual exactly.

``chain_rule_grid`` is the one evaluation path. It takes a stack of T joints
of one shape and a grid of orders. It computes the q-independent passes
(p, r_{k|l}, ln r, ln p and ln r_{k|l}) once per grid and the q-th powers once
per order, and derives every field from them as a (T,) array.
``chain_rule_report`` is row 0 of the grid of one joint at one order. Each
joint's sums run over its own two axes in the same order whatever else is in
the stack, so a joint's fields have the same bits in any stack and at any
position of any grid. Read the fields you need from one ``chain_rule_report``,
and call ``chain_rule_grid`` once for many joints or many orders.

All intermediate arithmetic is done in the additive scale and converted to the
deformed scale only at the boundary, which avoids compounding exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .escort import _CELLS, _power_escort
from .prob import (
    JointDistribution,
    JointStack,
    _marginal_and_conditional,
    _masked_log,
    _order,
)
from .qcalc import kn_map_inv, q_add


@dataclass(frozen=True, eq=False)
class ChainRuleReport:
    """Every quantity of the additivity analysis for one (joint, q) pair.

    Entropy-like fields are in the additive scale; the residuals are in the
    deformed (D_q) scale.

    * ``conditional_chain`` is AD(A,B) - AD(A); ``conditional_axiomatic`` is
      the escort-weighted mean of the Aczel-Daroczy entropies of B given each
      A outcome, and ``gap`` is the second minus the first.
    * ``s_gap`` is the cross entropy of the correct joint escort against the
      naive one, minus the naive escort's own Shannon entropy. It is zero
      where the two constructions coincide, sign-indefinite in general, and
      equals q * gap. The converse fails: a dependent joint whose
      constructions differ can still have s_gap = 0 at one order.
    * ``lower_bound`` <= ``s_gap`` <= ``upper_bound`` is the min-max sandwich:
      each column's power sum is replaced by the row-wise minimum (maximum)
      over columns. Always lower <= 0 <= upper; both collapse to zero iff the
      conditional rows are constant across columns.
    * ``residual`` is D_q(A,B) minus D_q(A) (+)_q D_q(B|A) with the axiomatic
      conditional: zero on product joints and at q = 1, nonzero on a generic
      dependent joint. ``corrected_residual`` is the same defect with the
      tilted conditional of ``corrected_conditional``, zero up to rounding.
    """

    q: float
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


# The value fields of a report, in order, after q.
_VALUES = tuple(field.name for field in fields(ChainRuleReport))[1:]


@dataclass(frozen=True, eq=False)
class ChainRuleReports(ChainRuleReport):
    """The ChainRuleReport fields of a stack of T joints at one q.

    Each value field is a (T,) array whose entry t belongs to joint t, and
    ``reports[t]`` is joint t's ChainRuleReport.
    """

    def __len__(self) -> int:
        return len(self.joint_entropy)

    def __getitem__(self, t: int) -> ChainRuleReport:
        return ChainRuleReport(self.q, *(float(getattr(self, name)[t]) for name in _VALUES))


def _order_free(w: np.ndarray) -> tuple:
    """The q-independent passes over validated joint weights, shared by every
    order: (w, p, r_{k|l}, ln r, ln p, ln r_{k|l}). Raises
    ZeroMarginalColumnError when some p_l is 0."""
    p, cond = _marginal_and_conditional(w)
    log_w = _masked_log(w)
    log_p = np.log(p)
    log_cond = np.where(w > 0, log_w - log_p, 0.0)
    return w, p, cond, log_w, log_p, log_cond


def _evaluate(passes: tuple, q: float) -> tuple:
    """The ten value fields of ChainRuleReport, in order, as (T,) arrays from
    the ``_order_free`` passes over a (T, n_b, n_a) stack."""
    w, p, cond, log_w, log_p, log_cond = passes
    # No branch at q = 1: there every power is the identity, so both joint
    # escorts are r up to rounding and s_gap, the gap and the bounds vanish.
    cond_q, col_sums, cond_escort = _power_escort(cond, q, -2)
    p_escort = _power_escort(p, q, -1)[2]
    naive = _power_escort(w, q, _CELLS)[2]
    correct = cond_escort * p_escort
    log_naive = _masked_log(naive)

    joint_ad = -(naive * log_w).sum(axis=_CELLS)
    marginal_ad = -(p_escort * log_p).sum(axis=_CELLS)
    chain = joint_ad - marginal_ad
    axiomatic = -(correct * log_cond).sum(axis=_CELLS)
    naive_terms = naive * log_naive
    # Cross entropy of the correct escort against the naive one, minus the
    # naive escort's Shannon entropy.
    gap_value = naive_terms.sum(axis=_CELLS) - (correct * log_naive).sum(axis=_CELLS)

    col_entropy = -naive_terms.sum(axis=-2, keepdims=True)
    row_min = cond_q.min(axis=-1, keepdims=True).sum(axis=-2, keepdims=True)
    row_max = cond_q.max(axis=-1, keepdims=True).sum(axis=-2, keepdims=True)
    lower = (((row_min - col_sums) / col_sums) * col_entropy).sum(axis=_CELLS)
    upper = (((row_max - col_sums) / col_sums) * col_entropy).sum(axis=_CELLS)

    # The tilt of the corrected conditional subtracts s_gap / q in the
    # additive scale and is mapped back once, so no two exponentially large
    # terms cancel.
    joint_value = kn_map_inv(joint_ad, q)
    marginal_value = kn_map_inv(marginal_ad, q)
    residual = joint_value - q_add(marginal_value, kn_map_inv(axiomatic, q), q)
    tilted = kn_map_inv(axiomatic - gap_value / q, q)
    corrected = joint_value - q_add(marginal_value, tilted, q)
    return (
        joint_ad, marginal_ad, chain, axiomatic, axiomatic - chain, gap_value,
        lower, upper, residual, corrected,
    )


def chain_rule_grid(weights, q_grid) -> list[ChainRuleReports]:
    """Evaluate every quantity of the additivity analysis for a stack of
    joints at each order of a grid.

    ``weights`` is a JointStack or a (T, n_b, n_a) array of T joints, which
    is validated as JointStack does. Entry i holds the reports at
    ``q_grid[i]``, and its row t equals ``chain_rule_report`` of joint t at
    that order bit for bit. The q-independent passes run once for the whole
    grid; only each order's (T,) columns are kept. Raises
    ZeroMarginalColumnError when an A outcome of some joint has zero
    probability.
    """
    stack = weights if isinstance(weights, JointStack) else JointStack(weights)
    orders = [_order(q) for q in q_grid]
    passes = _order_free(stack.weights)
    return [ChainRuleReports(order, *_evaluate(passes, order)) for order in orders]


def chain_rule_report(r: JointDistribution, q: float) -> ChainRuleReport:
    """Evaluate every quantity of the additivity analysis for (r, q) in one pass.

    The two conditionals come from Aczel-Daroczy sums and ``s_gap`` from the
    cross entropy of the two joint escorts, so ``gap = s_gap / q`` is checked
    across independent routes. Raises ZeroMarginalColumnError when an A
    outcome has zero probability, since conditioning on it is undefined.
    This is row 0 of ``chain_rule_grid`` on the one-joint stack of r.
    """
    return chain_rule_grid(JointStack.of([r]), [q])[0][0]


def corrected_conditional(r: JointDistribution, q: float) -> float:
    """The axiomatic conditional after the exponential tilt that restores
    q-additivity, in the deformed scale.

    The tilt multiplies the shifted conditional by exp(-((1-q)/q) * s_gap),
    which in the additive scale subtracts exactly (1/q) * s_gap and therefore
    lands on the chain-route conditional. The tilt factor is 1 on product
    joints, and the map is the identity at q = 1.
    """
    report = chain_rule_report(r, q)
    return kn_map_inv(report.conditional_axiomatic - report.s_gap / report.q, report.q)
