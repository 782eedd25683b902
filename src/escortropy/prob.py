"""Validated finite probability objects and the elementary operations on them.

Distributions are stored as double-precision weight vectors, renormalized
exactly (divided by their sum) on construction so that downstream identities
never inherit input noise. All objects are immutable and all operations are
pure functions; randomness enters only through explicitly seeded generators.

Joint distributions follow a fixed orientation: rows index the outcomes of
the second variable B, columns index the outcomes of the first variable A,
so ``weights[k, l]`` is P(B = B_k, A = A_l).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MalformedWeightsError,
    NegativeWeightError,
    NotNormalizedError,
    ZeroMarginalColumnError,
)

# Maximum |sum - 1| accepted before an input is rejected as unnormalized.
EPS_NORM = 1e-9


def _finite_nonnegative(values, ndim: int) -> np.ndarray:
    try:
        w = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise MalformedWeightsError(f"weights must be an array of numbers: {exc}") from exc
    if w.ndim != ndim or w.size == 0:
        raise MalformedWeightsError(f"expected a non-empty {ndim}-d array, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise MalformedWeightsError("weights must be finite")
    if np.any(w < 0):
        k = int(np.argmin(w))
        raise NegativeWeightError(f"negative weight {w.ravel()[k]!r} at flat index {k}")
    return w


def _checked_weights(values, ndim: int) -> np.ndarray:
    w = _finite_nonnegative(values, ndim)
    total = float(w.sum())
    if abs(total - 1.0) > EPS_NORM:
        raise NotNormalizedError(total - 1.0)
    w = w / total
    w.setflags(write=False)
    return w


@dataclass(frozen=True, eq=False)
class Distribution:
    """A finite discrete probability vector p_k, k = 1..n."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _checked_weights(self.weights, 1))

    @property
    def size(self) -> int:
        return self.weights.size

    def __len__(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:
        return f"Distribution({self.weights.tolist()!r})"


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A joint probability matrix r_{kl} = P(B = B_k, A = A_l)."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _checked_weights(self.weights, 2))

    @property
    def n_b(self) -> int:
        return self.weights.shape[0]

    @property
    def n_a(self) -> int:
        return self.weights.shape[1]

    def __repr__(self) -> str:
        return f"JointDistribution({self.weights.tolist()!r})"


@dataclass(frozen=True, eq=False)
class ConditionalDistribution:
    """Columns of conditional probabilities: column l holds P(B = B_k | A = A_l).

    ``columns_kept`` records which original A columns survive when zero-marginal
    columns were dropped in lenient conditioning; it is None when nothing was
    dropped.
    """

    weights: np.ndarray
    columns_kept: tuple[int, ...] | None = None

    def __post_init__(self):
        w = _finite_nonnegative(self.weights, 2)
        sums = w.sum(axis=0)
        bad = np.abs(sums - 1.0) > EPS_NORM
        if np.any(bad):
            raise NotNormalizedError(float(sums[bad][0] - 1.0))
        w = w / sums[None, :]
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class QOrder:
    """The entropic order q > 0.

    Every consumer evaluates one formula at every order, q = 1 included: the
    q-th powers are continuous there, and the division by 1 - q is confined
    to ``qcalc.kn_map`` / ``kn_map_inv``, which fill q = 1 with the limit.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or v <= 0.0:
            raise ValueError(f"entropic order must be a positive real, got {self.value!r}")
        object.__setattr__(self, "value", v)


def as_order(q: float | QOrder) -> QOrder:
    """Coerce a plain number to a validated QOrder."""
    return q if isinstance(q, QOrder) else QOrder(float(q))


def marginal_a(r: JointDistribution) -> Distribution:
    """Marginal of the first variable A: p_l = sum_k r_{kl} (column sums)."""
    return Distribution(r.weights.sum(axis=0))


def marginal_b(r: JointDistribution) -> Distribution:
    """Marginal of the second variable B: row sums of the joint."""
    return Distribution(r.weights.sum(axis=1))


def condition_on_a(r: JointDistribution, strict: bool = True) -> ConditionalDistribution:
    """Conditional probabilities of B given A: column l becomes r_{kl} / p_l.

    A column with zero marginal probability raises ZeroMarginalColumnError in
    strict mode. In lenient mode such columns are dropped and the surviving
    original column indices are recorded on ``columns_kept``.
    """
    p = r.weights.sum(axis=0)
    zero = np.flatnonzero(p == 0.0)
    if zero.size:
        if strict:
            raise ZeroMarginalColumnError(int(zero[0]))
        kept = np.flatnonzero(p > 0.0)
        cols = r.weights[:, kept] / p[kept][None, :]
        return ConditionalDistribution(cols, columns_kept=tuple(int(i) for i in kept))
    return ConditionalDistribution(r.weights / p[None, :])


def drop_zero_columns(r: JointDistribution) -> tuple[JointDistribution, tuple[int, ...]]:
    """Remove zero-marginal A columns and renormalize; reports kept indices."""
    p = r.weights.sum(axis=0)
    kept = np.flatnonzero(p > 0.0)
    reduced = r.weights[:, kept]
    return JointDistribution(reduced / reduced.sum()), tuple(int(i) for i in kept)


def product_joint(p_a: Distribution, q_b: Distribution) -> JointDistribution:
    """Joint of two independent variables: r_{kl} = q_b[k] * p_a[l]."""
    return JointDistribution(np.outer(q_b.weights, p_a.weights))


def nat_entropy(weights: np.ndarray) -> float:
    """Shannon entropy in nats of a bare weight array, with 0 ln 0 = 0."""
    w = np.asarray(weights, dtype=float).ravel()
    w = w[w > 0]
    return float(-(w * np.log(w)).sum())


def mutual_information(r: JointDistribution) -> float:
    """Mutual information S(A) + S(B) - S(A,B) in nats.

    Nonnegative up to rounding; zero exactly when the joint factorizes.
    Used as the dependence scale when filtering sampled ensembles.
    """
    return (
        nat_entropy(r.weights.sum(axis=0))
        + nat_entropy(r.weights.sum(axis=1))
        - nat_entropy(r.weights)
    )


def random_distribution(n: int, seed: int, concentration: float = 1.0) -> Distribution:
    """A seeded draw from the symmetric Dirichlet law on the n-simplex.

    Deterministic for fixed (n, seed, concentration); concentration 1 is the
    uniform law on the simplex.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    rng = np.random.default_rng(seed)
    return Distribution(rng.dirichlet(np.full(n, float(concentration))))


def random_joint(n_b: int, n_a: int, seed: int, concentration: float = 1.0) -> JointDistribution:
    """A seeded Dirichlet draw on the (n_b * n_a)-simplex, reshaped to a joint."""
    if n_b < 1 or n_a < 1:
        raise ValueError("sizes must be at least 1")
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    rng = np.random.default_rng(seed)
    flat = rng.dirichlet(np.full(n_b * n_a, float(concentration)))
    return JointDistribution(flat.reshape(n_b, n_a))
