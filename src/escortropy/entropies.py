"""The entropy functionals: Shannon, Renyi, Tsallis, hybrid, Aczel-Daroczy.

The hybrid entropy is the escort-weighted exponential mean of -ln p,

    D_q(p) = ( exp(-(1-q) sum_k P(q)_k ln p_k) - 1 ) / (1-q),

whose image under the additive-scale map is the Aczel-Daroczy entropy

    kn_map(D_q(p)) = -sum_k p_k^q ln p_k / sum_k p_k^q.

All sums use the 0^q ln 0 = 0 convention (q > 0), so appending zero-probability
outcomes never changes a value. Vectorized row helpers back the checks in the
axioms module; the scalar functions delegate to them so there is a single
implementation of each formula. No formula branches on q = 1: the
powers p^q are continuous there, the Tsallis sum uses exprel(t) = expm1(t)/t,
and every other division by 1 - q happens in ``kn_map`` / ``kn_map_inv``;
each fills its removable singularity with the limit.

The escort weights P(q) of ``aczel_daroczy_rows`` come from the one escort
formula of the escort module. The cross entropy of the two joint escorts is
not a functional of its own: it is ``s_gap`` of ``chain_rules`` plus the
Shannon entropy of the naive joint escort.
"""

from __future__ import annotations

import numpy as np

from .prob import Distribution, _masked_log, _order, nat_entropy
from .escort import _power_escort
from .qcalc import kn_map, kn_map_inv


def aczel_daroczy_rows(w: np.ndarray, q: float) -> np.ndarray:
    """Aczel-Daroczy entropy of each row: the escort mean -sum P(q)_k ln p_k."""
    q = _order(q)
    w = np.atleast_2d(np.asarray(w, dtype=float))
    # 0.0 - sum, not -sum: a point mass's sum is +0, and its entropy prints 0.
    return 0.0 - (_power_escort(w, q, 1) * _masked_log(w)).sum(axis=1)


def hybrid_rows(w: np.ndarray, q: float) -> np.ndarray:
    """Hybrid entropy of each row: the deformed-scale image of its Aczel-Daroczy entropy."""
    return kn_map_inv(aczel_daroczy_rows(w, q), q)


def shannon(p: Distribution) -> float:
    """Shannon entropy -sum p ln p in nats."""
    return nat_entropy(p.weights)


def _tsallis_value(w: np.ndarray, q: float) -> float:
    # (sum p^q - 1)/(1-q) is the sum of the non-negative terms
    # (p^q - p)/(1-q) = p (-ln p) exprel(t), t = (q-1) ln p, exprel(t) =
    # expm1(t)/t, which is continuous through q = 1 (the Shannon term at t = 0).
    # exprel keeps the digits that p^q - p cancels for |t| < 1; beyond, the
    # difference loses at most two bits, and expm1(t) could overflow on
    # subnormal p. The + 0.0 turns the -0.0 of a point mass into 0.0.
    log_w = np.log(w)
    t = (q - 1.0) * log_w
    terms = -w * log_w
    near = (np.abs(t) < 1.0) & (t != 0.0)
    terms[near] *= np.expm1(t[near]) / t[near]
    far = np.abs(t) >= 1.0
    terms[far] = (w[far] ** q - w[far]) / (1.0 - q)
    return float(terms.sum()) + 0.0


def renyi(p: Distribution, alpha: float) -> float:
    """Renyi entropy ln(sum p^alpha)/(1-alpha), continuous through alpha = 1.

    Where sum p^alpha is within 1/2 of 1 it is kn_map of the Tsallis entropy,
    which keeps full precision near alpha = 1 and equals Shannon there;
    elsewhere the power sum is taken relative to the largest weight, in the
    log domain, so it neither underflows nor overflows at extreme orders.
    """
    alpha = _order(alpha)
    w = p.weights[p.weights > 0]
    one_m_a = 1.0 - alpha
    tsallis_value = _tsallis_value(w, alpha)
    if abs(one_m_a * tsallis_value) < 0.5:
        return kn_map(tsallis_value, alpha)
    log_w = np.log(w)
    log_top = log_w.max()
    power_sum = np.exp(alpha * (log_w - log_top)).sum()
    return float((alpha * log_top + np.log(power_sum)) / one_m_a)


def tsallis(p: Distribution, q: float) -> float:
    """Tsallis entropy (sum p^q - 1)/(1-q), continuous through q = 1 (Shannon)."""
    return _tsallis_value(p.weights[p.weights > 0], _order(q))


def aczel_daroczy(p: Distribution, q: float) -> float:
    """The additive-scale image of the hybrid entropy: -sum p^q ln p / sum p^q."""
    return float(aczel_daroczy_rows(p.weights[None, :], q)[0])


def hybrid(p: Distribution, q: float) -> float:
    """Hybrid entropy D_q; equals kn_map_inv(aczel_daroczy(p, q))."""
    return float(hybrid_rows(p.weights[None, :], q)[0])
