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

Every escort is one formula, ``_power_escort`` (raise to the q-th power,
then divide by the sum over the escorted axes), and
``entropies.aczel_daroczy_rows`` and the chain-rule kernel call it too, so it
is stated once; the kernel takes its column power sums from the same power
pass, ``_power_sums``, and never forms a joint escort matrix. Every
function takes already-validated weights and returns a plain array; nothing
is revalidated inside. A Distribution is one row (n,) and a
DistributionStack T rows (T, n); a JointDistribution is one joint
(n_b, n_a) and a JointStack T joints (T, n_b, n_a). Every sum runs over the
last axes of one item, so an item's result has the same bits alone and as
any row of any stack. The escort at order 1/q inverts the escort at order q.
Throughout, 0^q = 0 for q > 0: zero entries stay zero under every transform.
At q = 1 every escort is the identity (p^1 = p), so no order needs a branch.
"""

from __future__ import annotations

import numpy as np

from .prob import (
    Distribution,
    DistributionStack,
    JointDistribution,
    JointStack,
    _marginal_and_conditional,
    _order,
)

# The B and A axes of each joint. On a contiguous stack a sum over both is the
# pairwise sum of each joint's own flat cells, so a joint's sums have the same
# bits in any stack, a stack of one included.
_CELLS = (-2, -1)


def _powers(w: np.ndarray, value) -> np.ndarray:
    """w^value. A list of values gives each value's power along a new leading
    axis, each written in place by the one scalar power ``np.power``, so it
    has the bits of that value's power alone."""
    if not isinstance(value, list):
        return np.power(w, value)
    stacked = np.empty((len(value), *w.shape))
    for v, out in zip(value, stacked):
        np.power(w, v, out=out)
    return stacked


def _power_sums(w: np.ndarray, value, axis) -> tuple[np.ndarray, np.ndarray]:
    """(w^value, its sums over axis kept as length-1 axes): the power pass of
    every escort, and the column power sums of the chain-rule kernel. A list
    of values stacks their powers as ``_powers`` does; axis must then count
    from the end."""
    w_q = _powers(w, value)
    return w_q, w_q.sum(axis=axis, keepdims=True)


def _power_escort(w: np.ndarray, value, axis) -> np.ndarray:
    """The one escort formula: w^value divided by its sums over axis. Every
    escort of the package, the Aczel-Daroczy rows' included, is one call."""
    w_q, sums = _power_sums(w, value, axis)
    return w_q / sums


def escort(p: Distribution | DistributionStack, q: float) -> np.ndarray:
    """Escort transform P(q)_k = p_k^q / sum_i p_i^q of each row."""
    return _power_escort(p.weights, _order(q), -1)


def joint_escort_naive(r: JointDistribution | JointStack, q: float) -> np.ndarray:
    """Cellwise power then global normalization: R(q)_{kl} = r_{kl}^q / sum r^q.
    Defined on joints with a zero column too."""
    return _power_escort(r.weights, _order(q), _CELLS)


def joint_escort_correct(r: JointDistribution | JointStack, q: float) -> np.ndarray:
    """Marginal-times-conditional escort: escort(p)_l times the escorted column l.

    Its A-marginal equals the escort of the A-marginal by construction, which
    is exactly the property the naive construction loses on dependent joints.
    """
    q = _order(q)
    p, cond = _marginal_and_conditional(r.weights)
    return _power_escort(cond, q, -2) * _power_escort(p, q, -1)


def escort_ratio(r: JointDistribution | JointStack, q: float) -> np.ndarray:
    """Cellwise ratio correct/naive via its closed form, finite on zero cells.

    The ratio is constant down each column: it equals the escort-weighted mean
    of the column power sums divided by the power sum of the cell's own column.
    Cellwise division of the two constructions reproduces it wherever the
    naive matrix is positive.
    """
    q = _order(q)
    p, cond = _marginal_and_conditional(r.weights)
    col_power_sums = _power_sums(cond, q, -2)[1]
    mean_power_sum = (_power_escort(p, q, -1) * col_power_sums).sum(axis=-1, keepdims=True)
    return np.repeat(mean_power_sum / col_power_sums, r.weights.shape[-2], axis=-2)


def _construction_gap(r: JointDistribution | JointStack, q: float) -> float | np.ndarray:
    """Largest cellwise difference between the two joint escort constructions:
    a float for a joint, the (T,) array of each joint's value for a stack."""
    gap = np.abs(joint_escort_naive(r, q) - joint_escort_correct(r, q)).max(axis=_CELLS)
    return float(gap) if gap.ndim == 0 else gap


def is_escort_consistent(
    r: JointDistribution | JointStack, q: float, tol: float = 1e-9
) -> bool | np.ndarray:
    """True when the two joint escort constructions agree cellwise within tol.

    Identically true at q = 1 and on product joints; on a generic dependent
    joint the constructions disagree, though symmetric joints whose conditional
    columns are permutations of one another stay consistent at every order.
    A JointStack gives the (T,) boolean array of each joint's answer.
    """
    return _construction_gap(r, q) < tol
