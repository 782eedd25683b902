"""Escort transforms and the two competing joint escort constructions.

For a single distribution the escort of order q reweights p into
P(q)_k = p_k^q / sum_i p_i^q. For a joint there are two candidates:

* the naive construction, which raises every cell to the q-th power and
  renormalizes globally;
* the marginal-times-conditional construction, which escorts the A-marginal
  and each conditional column separately and multiplies them back together.

The two coincide exactly when the column power sums sum_k r_{k|l}^q are the
same for every column l -- in particular for every product joint -- and
differ otherwise. Their cellwise ratio has a closed form that depends only on
the column index, which keeps it finite even on zero cells.

Every function takes an already-validated Distribution or JointDistribution
and returns a plain array; nothing is revalidated inside. The escort at order
1/q inverts the escort at order q. Throughout, 0^q = 0 for q > 0: zero
entries stay zero under every transform. At q = 1 every escort is the
identity (p^1 = p), so no order needs a branch.
"""

from __future__ import annotations

import numpy as np

from .prob import (
    Distribution,
    JointDistribution,
    QOrder,
    _marginal_and_conditional,
    as_order,
)


def escort(p: Distribution, q: float | QOrder) -> np.ndarray:
    """Escort transform P(q)_k = p_k^q / sum_i p_i^q."""
    w = p.weights ** as_order(q).value
    return w / w.sum()


def joint_escort_naive(r: JointDistribution, q: float | QOrder) -> np.ndarray:
    """Cellwise power then global normalization: R(q)_{kl} = r_{kl}^q / sum r^q."""
    w = r.weights ** as_order(q).value
    return w / w.sum()


def conditional_escort(r: JointDistribution, q: float | QOrder) -> np.ndarray:
    """Column-wise escort of the conditional of B given A."""
    _, cond = _marginal_and_conditional(r.weights)
    w = cond ** as_order(q).value
    return w / w.sum(axis=0)


def joint_escort_correct(r: JointDistribution, q: float | QOrder) -> np.ndarray:
    """Marginal-times-conditional escort: escort(p)_l times the escorted column l.

    Its A-marginal equals the escort of the A-marginal by construction, which
    is exactly the property the naive construction loses on dependent joints.
    """
    value = as_order(q).value
    p, cond = _marginal_and_conditional(r.weights)
    p_q = p**value
    cond_q = cond**value
    return cond_q / cond_q.sum(axis=0) * (p_q / p_q.sum())


def escort_ratio(r: JointDistribution, q: float | QOrder) -> np.ndarray:
    """Cellwise ratio correct/naive via its closed form, finite on zero cells.

    The ratio is constant down each column: it equals the escort-weighted mean
    of the column power sums divided by the power sum of the cell's own column.
    Cellwise division of the two constructions reproduces it wherever the
    naive matrix is positive.
    """
    value = as_order(q).value
    p, cond = _marginal_and_conditional(r.weights)
    p_q = p**value
    col_power_sums = (cond**value).sum(axis=0)
    mean_power_sum = float((p_q / p_q.sum() * col_power_sums).sum())
    return np.tile(mean_power_sum / col_power_sums, (r.n_b, 1))


def is_escort_consistent(r: JointDistribution, q: float | QOrder, tol: float = 1e-9) -> bool:
    """True when the two joint escort constructions agree cellwise within tol.

    Identically true at q = 1 and on product joints; on a generic dependent
    joint the constructions disagree, though symmetric joints whose conditional
    columns are permutations of one another stay consistent at every order.
    """
    gap = joint_escort_naive(r, q) - joint_escort_correct(r, q)
    return float(np.abs(gap).max()) < tol
