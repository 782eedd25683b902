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

Throughout, 0^q = 0 for q > 0: zero entries stay zero under every transform.
At q = 1 every escort is the identity (p^1 = p), so no order needs a branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prob import (
    ConditionalDistribution,
    Distribution,
    JointDistribution,
    QOrder,
    as_order,
    condition_on_a,
    marginal_a,
)


@dataclass(frozen=True, eq=False)
class EscortView:
    """An escort-transformed distribution that remembers where it came from."""

    weights: Distribution
    order: QOrder
    origin: Distribution


@dataclass(frozen=True, eq=False)
class JointEscortPair:
    """Both joint escort constructions for one (joint, q) pair."""

    naive: np.ndarray
    correct: np.ndarray
    order: QOrder


def _powers(w: np.ndarray, q: float) -> np.ndarray:
    return np.where(w > 0, w**q, 0.0)


def escort(p: Distribution, q: float | QOrder) -> EscortView:
    """Escort transform P(q)_k = p_k^q / sum_i p_i^q."""
    order = as_order(q)
    w = _powers(p.weights, order.value)
    return EscortView(Distribution(w / w.sum()), order, p)


def escort_inverse(view: EscortView) -> Distribution:
    """Recover the origin: p_k = P(q)_k^(1/q) / sum_i P(q)_i^(1/q)."""
    u = _powers(view.weights.weights, 1.0 / view.order.value)
    return Distribution(u / u.sum())


def joint_escort_naive(r: JointDistribution, q: float | QOrder) -> np.ndarray:
    """Cellwise power then global normalization: R(q)_{kl} = r_{kl}^q / sum r^q."""
    order = as_order(q)
    w = _powers(r.weights, order.value)
    return w / w.sum()


def conditional_escort(r: JointDistribution, q: float | QOrder) -> ConditionalDistribution:
    """Column-wise escort of the conditional of B given A."""
    cond = condition_on_a(r)
    order = as_order(q)
    w = _powers(cond.weights, order.value)
    return ConditionalDistribution(w / w.sum(axis=0, keepdims=True))


def joint_escort_correct(r: JointDistribution, q: float | QOrder) -> np.ndarray:
    """Marginal-times-conditional escort: escort(p)_l times the escorted column l.

    Its A-marginal equals the escort of the A-marginal by construction, which
    is exactly the property the naive construction loses on dependent joints.
    """
    order = as_order(q)
    p_escort = escort(marginal_a(r), order).weights.weights
    cond = conditional_escort(r, order)
    return cond.weights * p_escort[None, :]


def joint_escort_pair(r: JointDistribution, q: float | QOrder) -> JointEscortPair:
    order = as_order(q)
    return JointEscortPair(joint_escort_naive(r, order), joint_escort_correct(r, order), order)


def escort_ratio(r: JointDistribution, q: float | QOrder) -> np.ndarray:
    """Cellwise ratio correct/naive via its closed form, finite on zero cells.

    The ratio is constant down each column: it equals the escort-weighted mean
    of the column power sums divided by the power sum of the cell's own column.
    Cellwise division of the two constructions reproduces it wherever the
    naive matrix is positive.
    """
    order = as_order(q)
    p_escort = escort(marginal_a(r), order).weights.weights
    cond = condition_on_a(r)
    col_power_sums = _powers(cond.weights, order.value).sum(axis=0)
    mean_power_sum = float((p_escort * col_power_sums).sum())
    return np.tile(mean_power_sum / col_power_sums, (r.n_b, 1))


def is_escort_consistent(r: JointDistribution, q: float | QOrder, tol: float = 1e-9) -> bool:
    """True when the two joint escort constructions agree cellwise within tol.

    Identically true at q = 1 and on product joints; on a generic dependent
    joint the constructions disagree, though symmetric joints whose conditional
    columns are permutations of one another stay consistent at every order.
    """
    pair = joint_escort_pair(r, q)
    return float(np.abs(pair.naive - pair.correct).max()) < tol
