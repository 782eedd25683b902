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
fails, at one order and at every order: ``s_gap`` is sign-indefinite, and on
some escort-inconsistent joints it vanishes at one order, on others, such as
[[1/3, 1/3], [1/3, 0]], at every order. Wherever it does not vanish, the
exponential tilt ``corrected_conditional`` closes the residual exactly.

``chain_rule_grid`` is the one evaluation path, for a stack of T joints of
one shape and a grid of G orders, and returns one ``ChainRuleReports`` of
(G, T) fields. Its q-independent passes run once per grid. The orders run in
chunks, one kernel pass per chunk, each chunk as large as keeps a pass within
PASS_CELLS cells (orders times joints times cells per joint) and one order
for a stack above that budget; every pass has a leading order axis, a chunk
of one order included. In a pass only r_{k|l}, p and their extremes are
raised to the q-th power, each order's power a scalar power stacked along
the order axis; every other step runs once on (G, T, ...) arrays, and each
field is a (G, T) sum over the A columns, with no joint escort matrix formed.
``chain_rule_report`` is entry [0, 0] of the grid of one joint at one order.
Each joint's sums run over its own two axes in the same order whatever else
is in the stack, so a joint's fields have the same bits in any stack and at
any position of any grid. Read the fields you need from one
``chain_rule_report``, and call ``chain_rule_grid`` once for many joints or
many orders.

All intermediate arithmetic is done in the additive scale and converted to the
deformed scale only at the boundary, which avoids compounding exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .escort import _CELLS, _power_escort, _power_sums, _powers
from .prob import JointDistribution, JointStack, _marginal_and_conditional, _order
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
      constructions differ can still have s_gap = 0, at one order or at all.
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


# The most cells one kernel pass holds, orders times joints times cells per
# joint: enough that the per-call cost of a pass vanishes over many small
# joints, few enough that each temporary stays near half a megabyte.
PASS_CELLS = 1 << 16

# The value fields of a report, in order, after q.
_VALUES = tuple(field.name for field in fields(ChainRuleReport))[1:]


@dataclass(frozen=True, eq=False)
class ChainRuleReports(ChainRuleReport):
    """The ChainRuleReport fields of a stack of T joints at a grid of G orders.

    ``q`` is the (G,) array of the orders. Each value field is a (G, T) array
    whose entry [g, t] belongs to joint t at order q[g], and
    ``reports[g, t]`` is that pair's ChainRuleReport.
    """

    def __getitem__(self, index: tuple[int, int]) -> ChainRuleReport:
        g, t = index
        return ChainRuleReport(float(self.q[g]), *(float(getattr(self, name)[g, t]) for name in _VALUES))


def _order_free(w: np.ndarray) -> tuple:
    """The q-independent passes over validated joint weights: p, -ln p,
    r_{k|l}, ln(r_{k|l} / m_l), m_l, -ln m_l with m_l the largest r_{k|l} of
    column l, the index of the largest p_l in an array of column values
    with a leading order axis, and each row's min and max over
    the columns; x^q keeps every max, min and argmax. Raises
    ZeroMarginalColumnError when some p_l is 0."""
    p, cond = _marginal_and_conditional(w)
    top = cond.max(axis=-2, keepdims=True)
    extremes = np.concatenate([cond.min(axis=-1)[:, None], cond.max(axis=-1)[:, None]], axis=-2)
    lead = (Ellipsis, np.arange(len(w))[:, None, None], 0, p.argmax(axis=-1, keepdims=True))
    # _masked_log(cond / top), taken in the quotient itself: a cell that is
    # not positive, -0.0 included, gives +0.0.
    log_rel = cond / top
    zero = log_rel <= 0.0
    np.log(log_rel, out=log_rel, where=~zero)
    log_rel[zero] = 0.0
    return p, -np.log(p), cond, log_rel, top, -np.log(top), lead, extremes


def _evaluate(passes: tuple, orders: list[float]) -> tuple:
    """The ten value fields of ChainRuleReport, in order, as (G, T) arrays
    whose row g belongs to orders[g], from the ``_order_free`` passes over a
    (T, n_b, n_a) stack and a list of G >= 1 orders. Each order's q-th powers
    are scalar powers stacked along a leading order axis, so they keep their
    bits, and every other step runs once for all G orders."""
    p, neg_log_p, cond, log_rel, top, neg_log_top, lead, extremes = passes
    # The orders broadcast as a (G, 1, 1, 1) column over the stacked powers.
    q = np.array(orders)[:, None, None, None]
    # No branch at q = 1: there every power is the identity, each column
    # power sum S_l is 1 up to rounding, and s_gap, gap and the bounds vanish.
    cond_q, col_sums = _power_sums(cond, orders, -2)
    p_escort = _power_escort(p, orders, -1)
    # Escort means of ln(r_{k|l} / m_l), of -ln r_{k|l} and of -ln r_{kl} over
    # column l (-mu_l): each adds terms of one sign, so no digits cancel.
    # cond_q is spent once its column sums are taken: the product overwrites it.
    cond_q *= log_rel
    rel_mean = cond_q.sum(axis=-2, keepdims=True) / col_sums
    cond_entropy = neg_log_top - rel_mean
    col_entropy = cond_entropy + neg_log_p
    # N_l = P_l S_l / S-bar, S-bar = sum_j P_j S_j, is the naive escort's A-marginal.
    # P - N takes each S_l less that of the lead column, where P is largest.
    weighted = p_escort * col_sums
    mean_sum = weighted.sum(axis=-1, keepdims=True)
    shift = col_sums - col_sums[lead]
    deficit = p_escort * ((p_escort * shift).sum(axis=-1, keepdims=True) - shift) / mean_sum
    naive_mass = weighted / mean_sum
    # H_l - ln N_l (H_l the entropy of escorted column l) needs no ln S_l, only -ln of
    # its largest naive cell P_l m_l^q / S-bar, floored at the least double if it underflows.
    largest = p_escort * _powers(top, orders) / mean_sum
    info = -q * rel_mean - np.log(np.maximum(largest, 5e-324))

    terms = [naive_mass * col_entropy, p_escort * neg_log_p, p_escort * cond_entropy]
    terms += [deficit * col_entropy, deficit * info]
    joint_ad, marginal_ad, axiomatic, gap, s_gap = np.array(terms).sum(axis=_CELLS)
    # The sandwich weights each naive escort column's entropy, N_l info_l,
    # by the change of S_l when each row takes its min (max) over columns.
    row_sums = _powers(extremes, orders).sum(axis=-1, keepdims=True)
    bounds = (((row_sums - col_sums) / col_sums) * (naive_mass * info)).sum(axis=-1)
    lower, upper = bounds[..., 0], bounds[..., 1]

    # The tilt subtracts s_gap / q in the additive scale and is mapped back
    # once, so no two exponentially large terms cancel.
    q = q[..., 0, 0]
    deformed = kn_map_inv(np.array([joint_ad, marginal_ad, axiomatic, axiomatic - s_gap / q]), q)
    residual, corrected = deformed[0] - q_add(deformed[1], deformed[2:], q)
    chain = joint_ad - marginal_ad
    return joint_ad, marginal_ad, chain, axiomatic, gap, s_gap, lower, upper, residual, corrected


def chain_rule_grid(r: JointDistribution | JointStack, q_grid) -> ChainRuleReports:
    """Evaluate every quantity of the additivity analysis for a stack of
    joints at each order of a grid.

    A lone JointDistribution is read as a stack of one joint. The result's
    ``q`` is the (G,) array of the orders, each value field is a (G, T)
    array, and entry [g, t] equals ``chain_rule_report`` of joint t at
    ``q_grid[g]`` bit for bit. The q-independent passes run once for the
    whole grid; the orders are evaluated in chunks, one kernel pass each, of
    as many orders as keep a pass within PASS_CELLS cells, and one order a
    pass for a stack above it. Raises ZeroMarginalColumnError when an A
    outcome of some joint has zero probability, and ValueError for an empty
    grid.
    """
    orders = [_order(q) for q in q_grid]
    if not orders:
        raise ValueError("the grid of orders is empty")
    w = r.weights
    passes = _order_free(w[None] if w.ndim == 2 else w)
    step = max(1, PASS_CELLS // w.size)
    chunks = [_evaluate(passes, orders[start : start + step]) for start in range(0, len(orders), step)]
    return ChainRuleReports(np.array(orders), *map(np.concatenate, zip(*chunks)))


def chain_rule_report(r: JointDistribution, q: float) -> ChainRuleReport:
    """Evaluate every quantity of the additivity analysis for (r, q) in one pass.

    ``gap`` and ``s_gap`` share the column excess N - P, so ``gap = s_gap /
    q`` holds by algebra; the direct-formula oracles check both. Raises
    ZeroMarginalColumnError when an A outcome has zero probability, since
    conditioning on it is undefined.
    This is entry [0, 0] of ``chain_rule_grid`` on r at the one order q.
    """
    return chain_rule_grid(r, [q])[0, 0]


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
