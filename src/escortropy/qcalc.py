"""Deformed exponential/logarithm pair, q-addition, and the additive-scale map.

``kn_map`` is the Kolmogorov-Nagumo function ln(q_exp(x)) under which the
deformed addition collapses to ordinary addition:

    kn_map(q_add(a, b)) = kn_map(a) + kn_map(b)

Every formula here is continuous through q = 1, where the deformed functions
become exp, ln and the identity. ``kn_map`` and ``kn_map_inv`` are the only
places that divide by 1 - q; they evaluate log1p(u)/(1-q) and
expm1((1-q)x)/(1-q), which keep full relative precision for q arbitrarily
close to 1 (1 - q is exact there), and fill the removable singularity at
exactly q = 1 with its limit. ``q_exp`` and ``q_log`` are built from them.
They take any real order; only the entropy layer restricts q to q > 0.
``kn_map_inv`` and ``q_add`` also take an array of orders, each entry
evaluated at its own order, so the chain-rule kernel maps a chunk of orders
back in one call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainCutoffError, NonpositiveArgumentError


def q_exp(x: float, q: float) -> float:
    """Deformed exponential [1 + (1-q)x]^(1/(1-q)) = exp(kn_map(x, q)).

    Raises DomainCutoffError when 1 + (1-q)x <= 0; a cutoff always signals an
    out-of-contract input here, never a value to be saturated to zero.
    """
    return math.exp(kn_map(x, q))


def q_log(y: float, q: float) -> float:
    """Deformed logarithm (y^(1-q) - 1)/(1-q) = kn_map_inv(ln y, q).

    Inverse of q_exp on its domain. Requires y > 0.
    """
    if y <= 0.0:
        raise NonpositiveArgumentError(f"deformed logarithm needs a positive argument, got {y!r}")
    return kn_map_inv(math.log(y), q)


def kn_map(x: float, q: float) -> float:
    """Map to the additive scale: ln[1 + (1-q)x] / (1-q); identity at q = 1."""
    one_m_q = 1.0 - float(q)
    u = one_m_q * x
    if 1.0 + u <= 0.0:
        raise DomainCutoffError(f"1 + (1-q)x = {1.0 + u!r} <= 0 for x={x!r}, q={float(q)!r}")
    return math.log1p(u) / one_m_q if one_m_q else float(x)


def kn_map_inv(x, q):
    """Inverse of kn_map: (e^((1-q)x) - 1)/(1-q); identity at q = 1.

    Defined on the whole real line. Takes a float or an array of them and
    returns the same kind. q may also be an array of orders that broadcasts
    against x; each entry is then the value at its own order, x itself
    where that order is 1, with the bits of a call at that order alone.
    """
    one_m_q = _one_minus(q)
    if isinstance(x, np.ndarray) or isinstance(one_m_q, np.ndarray):
        unit = one_m_q == 0.0
        return np.where(unit, x, np.expm1(one_m_q * x) / np.where(unit, 1.0, one_m_q))
    return math.expm1(one_m_q * x) / one_m_q if one_m_q else float(x)


def q_add(a: float, b: float, q: float) -> float:
    """Deformed addition a + b + (1-q)ab; commutative, with neutral element 0.
    Takes arrays, and an array of orders, that broadcast together."""
    return a + b + _one_minus(q) * a * b


def _one_minus(q):
    """1 - q as a float, or as a float array for an array of orders."""
    return 1.0 - (q.astype(float) if isinstance(q, np.ndarray) else float(q))
