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


def _checked(values, ndim: int, axes: tuple[int, ...]) -> np.ndarray:
    """Validated weights: a non-empty ndim-d array of finite non-negative
    numbers whose items, the cells over axes, each sum to 1 within EPS_NORM
    and are divided by their own sum. Booleans and strings are not numbers:
    an array's dtype shows them, and a list or tuple is scanned for booleans
    once, since numpy reads one beside numbers as 0 or 1. numpy refuses
    lists nested deeper than its array dimensions before that scan recurses
    into them, and integers beyond the double range.
    The array is made C-contiguous first, so an item's sum is the pairwise
    sum of its flat cells in any layout, alone as in a stack. A list or
    tuple becomes a new array, divided in place; an array is never written
    to, and the result shares no memory with it."""
    listed = isinstance(values, (list, tuple))
    try:
        w = np.asarray(values)
        if listed and _holds_boolean(values):
            raise TypeError("booleans are not numbers")
        if w.dtype.kind in "bUS":
            raise TypeError("booleans and strings are not numbers")
        w = np.asarray(w, dtype=float, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedWeightsError(f"weights must be an array of numbers: {exc}") from exc
    if w.ndim != ndim or w.size == 0:
        raise MalformedWeightsError(f"expected a non-empty {ndim}-d array, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise MalformedWeightsError("weights must be finite")
    if (w < 0).any():
        k = int(w.argmin())
        raise NegativeWeightError(f"negative weight {w.ravel()[k]!r} at flat index {k}")
    sums = w.sum(axis=axes, keepdims=True)
    off = np.abs(sums - 1.0) > EPS_NORM
    if off.any():
        raise NotNormalizedError(float(sums[off][0] - 1.0))
    if listed:
        w /= sums
    else:
        w = w / sums
    w.setflags(write=False)
    return w


def _holds_boolean(values: list | tuple) -> bool:
    """Whether a list or tuple holds a boolean, np.bool_ included, at any
    depth of nested lists and tuples. An array item is not entered: its
    dtype shows a boolean."""
    kinds = set(map(type, values))
    if np.ndarray in kinds:
        kinds.update(v.dtype.type for v in values if type(v) is np.ndarray)
    return bool in kinds or np.bool_ in kinds or (
        (list in kinds or tuple in kinds)
        and any(_holds_boolean(v) for v in values if type(v) in (list, tuple))
    )


@dataclass(frozen=True, eq=False)
class _Weights:
    """Validated weights; each subclass's ``_rule`` is the ``(ndim, axes)``
    of ``_checked``: the array's dimension and the axes of one item."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _checked(self.weights, *self._rule))


class Distribution(_Weights):
    """A finite discrete probability vector p_k, k = 1..n."""

    _rule = (1, (0,))

    @property
    def size(self) -> int:
        return self.weights.size

    def __len__(self) -> int:
        return self.weights.size

    def __repr__(self) -> str:
        return f"Distribution({self.weights.tolist()!r})"


class JointDistribution(_Weights):
    """A joint probability matrix r_{kl} = P(B = B_k, A = A_l)."""

    _rule = (2, (0, 1))

    @property
    def n_b(self) -> int:
        return self.weights.shape[0]

    @property
    def n_a(self) -> int:
        return self.weights.shape[1]

    def __repr__(self) -> str:
        return f"JointDistribution({self.weights.tolist()!r})"


class DistributionStack(_Weights):
    """T probability vectors of one length: ``weights[t]`` is row t.

    Each row is validated by the rules of Distribution and divided by its own
    sum, so ``DistributionStack(ws).weights[t]`` has the bits of
    ``Distribution(ws[t]).weights``.
    """

    _rule = (2, (1,))


class JointStack(_Weights):
    """T joint matrices of one shape: ``weights[t]`` is joint t.

    Each joint is validated by the rules of JointDistribution and divided by
    its own sum, so ``JointStack(ws).weights[t]`` has the bits of
    ``JointDistribution(ws[t]).weights``.
    """

    _rule = (3, (1, 2))


class ConditionalDistribution(_Weights):
    """Columns of conditional probabilities: column l holds P(B = B_k | A = A_l)."""

    _rule = (2, (0,))


def _order(q: float) -> float:
    """The entropic order q > 0 as a built-in float.

    Every consumer evaluates one formula at every order, q = 1 included: the
    q-th powers are continuous there, and the division by 1 - q is confined
    to ``qcalc.kn_map`` / ``kn_map_inv``, which fill q = 1 with the limit.
    """
    value = float(q)
    if not 0.0 < value < np.inf:
        raise ValueError(f"entropic order must be a positive real, got {value!r}")
    return value


def _non_negative(value: int, name: str) -> int:
    """A seed or sampler index, refused with its name when negative, as
    ``--seed`` is refused: numpy's own message names no argument."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


# numpy's SeedSequence hash (pool of 4 uint32 words).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
# The hash rows of each entropy width.
_HASH_ROWS: dict[int, np.ndarray] = {}
_PAD = [0, 0, 0, 0]


def _rngs(entropies):
    """For each entropy in order, a new generator in the state of
    ``np.random.default_rng(entropy)``, bit for bit. An entropy is a
    non-negative integer seed, or a tuple of them such as the sampler's
    (seed, index, attempt); a negative one is refused by name, and one that
    is not an integer with TypeError, before anything is drawn. Every
    generator of the package is built here.

    The seed words of all entropies come from one vectorized hash (see
    ``_seed_words``), and numpy's own ``PCG64`` constructor takes each row
    through its seeding step. ``_Hashed`` is registered as numpy's seed
    sequence interface here, not at import, so importing the package loads
    no ``numpy.random``."""
    words = _seed_words(entropies)
    np.random.bit_generator.ISeedSequence.register(_Hashed)
    for row in words:
        yield np.random.Generator(np.random.PCG64(_Hashed(row)))


class _Hashed:
    """A seed sequence whose ``generate_state(4, uint64)`` is a row of
    ``_seed_words``, already hashed: the one call ``PCG64`` makes of it."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype):
        return self.row


def _seed_words(entropies) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, uint64)`` for each entropy,
    as the rows of one native-endian (N, 4) uint64 array. Entropies of one
    hash width are hashed together: a width is the entropy's uint32 word
    count, and every count up to 4, the pool size, hashes as 4 words
    zero-padded. The words run through numpy's hash as columns of uint32
    arrays, which wrap without a warning."""
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for t, entropy in enumerate(entropies):
        words = _words(entropy)
        members, pool = groups.setdefault(max(len(words), 4), ([], []))
        members.append(t)
        pool += words
        pool += _PAD[len(words):]
    seeds = np.empty((sum(len(members) for members, _ in groups.values()), 4), dtype=np.uint64)
    for width, (members, pool) in groups.items():
        pools = np.array(pool, dtype=np.uint32).reshape(len(members), width)
        seeds[members] = _hashed_pools(pools).astype("<u4", copy=False).view("<u8")
    return seeds


def _words(entropy) -> list[int]:
    """The uint32 words, least significant first, of each integer of an
    entropy in turn, as ``SeedSequence`` splits them: 0 is one word."""
    words = []
    for k, part in enumerate(entropy if type(entropy) is tuple else (entropy,)):
        if type(part) is not int:
            if not isinstance(part, (int, np.integer)):
                raise TypeError(f"seed must be an integer, got {part!r}")
            part = int(part)
        if part < 0:
            _non_negative(part, "stream" if k else "seed")
        words.append(part & _MASK32)
        while part > _MASK32:
            part >>= 32
            words.append(part & _MASK32)
    return words


def _hashed_pools(pool: np.ndarray) -> np.ndarray:
    """``generate_state(8, uint32)`` of ``SeedSequence`` for each row of a
    (N, width) uint32 array of entropy words, as (N, 8) words. The pool is
    filled, each pool word is mixed into the other three, then each word past
    the fourth into all four. Every row of ``_hash_rows(width)`` is repeated
    to (N, 4) first: numpy takes an operation on two arrays of one shape
    several times faster than a broadcast one."""
    width = pool.shape[1]
    rows = np.repeat(_hash_rows(width)[:, None, :], len(pool), axis=1)
    left, right, shift = rows[:3]

    def hashmix(values: np.ndarray, step: int) -> np.ndarray:
        h = values ^ rows[3 + 2 * step]
        h *= rows[4 + 2 * step]
        h ^= h >> shift
        return h

    def mix(mixer: np.ndarray, hashed: np.ndarray) -> np.ndarray:
        h = mixer * left
        hashed *= right
        h -= hashed
        h ^= h >> shift
        return h

    mixer = hashmix(pool[:, :4], 0)
    for s in range(4):
        mixed = mix(mixer, hashmix(mixer[:, s:s + 1], 1 + s))
        mixed[:, s] = mixer[:, s]
        mixer = mixed
    for i in range(4, width):
        mixer = mix(mixer, hashmix(pool[:, i:i + 1], 1 + i))
    return np.concatenate([hashmix(mixer, width + 1), hashmix(mixer, width + 2)], axis=1)


def _hash_rows(width: int) -> np.ndarray:
    """The uint32 constant rows of ``SeedSequence``'s hash of an entropy of
    width words, built once per width: the mix's two multipliers and the
    shift 16, then the xor and multiplier rows of each step. The steps fill
    the pool, run the four mixing rounds, mix in each word past the fourth,
    and give words 0-3 and 4-7 of ``generate_state``. Hash call j xors the
    j-th power of its constant and multiplies by the next. A mixing round's
    own source column takes an unused call, since the caller keeps that
    column."""
    if width not in _HASH_ROWS:
        a, b = _powers(_INIT_A, _MULT_A, 4 * width + 2), _powers(_INIT_B, _MULT_B, 9)
        calls = [range(4)]
        calls += [[4 + 3 * s + d - (d > s) for d in range(4)] for s in range(4)]
        calls += [range(4 * i, 4 * i + 4) for i in range(4, width)]
        rows = [[0xCA01F9DD] * 4, [0x4973F715] * 4, [16] * 4]
        rows += [[a[j + k] for j in js] for js in calls for k in (0, 1)]
        rows += [b[0:4], b[1:5], b[4:8], b[5:9]]
        _HASH_ROWS[width] = np.array(rows, dtype=np.uint32)
    return _HASH_ROWS[width]


def _powers(first: int, factor: int, count: int) -> list[int]:
    """first times each power 0..count - 1 of factor, modulo 2**32."""
    powers = [first]
    while len(powers) < count:
        powers.append(powers[-1] * factor & _MASK32)
    return powers


def marginal_a(r: JointDistribution) -> Distribution:
    """Marginal of the first variable A: p_l = sum_k r_{kl} (column sums)."""
    return Distribution(r.weights.sum(axis=0))


def _marginal_and_conditional(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The A-marginal p and the conditional columns r_{kl} / p_l of joint
    weights, as arrays. p keeps the summed B axis with length 1, so it
    broadcasts against the cells: (1, n_a) for a joint, (T, 1, n_a) for a
    stack of T joints. Raises ZeroMarginalColumnError when some p_l is 0,
    since conditioning on that outcome is undefined; ``drop_zero_columns``
    removes such columns first."""
    p = w.sum(axis=-2, keepdims=True)
    if not p.all():
        raise ZeroMarginalColumnError(int(np.argwhere(p == 0.0)[0][-1]))
    return p, w / p


def drop_zero_columns(r: JointDistribution) -> tuple[JointDistribution, tuple[int, ...]]:
    """Remove zero-marginal A columns and renormalize; reports kept indices.
    A joint with no zero column is returned as it is, not divided again."""
    p = r.weights.sum(axis=0)
    kept = np.flatnonzero(p > 0.0)
    indices = tuple(kept.tolist())
    if kept.size == p.size:
        return r, indices
    reduced = r.weights[:, kept]
    return JointDistribution(reduced / reduced.sum()), indices


def product_joint(p_a: Distribution, q_b: Distribution) -> JointDistribution:
    """Joint of two independent variables: r_{kl} = q_b[k] * p_a[l]."""
    return JointDistribution(np.outer(q_b.weights, p_a.weights))


def nat_entropy(weights: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in nats over the last axis of a weight array, with
    0 ln 0 = 0: a float for one row, an array for a stack of rows. A point
    mass's sum is +0, so 0.0 - sum gives +0 where -sum would give -0."""
    value = 0.0 - (weights * _masked_log(weights)).sum(axis=-1)
    return float(value) if value.ndim == 0 else value


def mutual_information(r: JointDistribution | JointStack) -> float | np.ndarray:
    """Mutual information S(A) + S(B) - S(A,B) in nats.

    Nonnegative up to rounding; zero exactly when the joint factorizes.
    Used as the dependence scale when filtering sampled ensembles. One
    formula serves a joint and a stack: every sum runs over the last axes of
    one joint, so a JointStack gives the (T,) array of each joint's value,
    bit for bit the value of that joint alone.
    """
    w = r.weights
    cells = w.reshape(*w.shape[:-2], -1)
    return nat_entropy(w.sum(axis=-2)) + nat_entropy(w.sum(axis=-1)) - nat_entropy(cells)


def _masked_log(w: np.ndarray) -> np.ndarray:
    """ln w where w > 0 and 0 elsewhere, so that 0 ln 0 = 0 in every sum."""
    out = np.zeros_like(w)
    np.log(w, out=out, where=w > 0)
    return out


def _finish(raws: list[np.ndarray]) -> list[np.ndarray]:
    """Each raw draw of standard exponentials, of any shape, times the
    reciprocal of the in-order sum of its cells, in one stacked pass per
    shape: the one place the package scales a uniform draw. k exponentials
    from a generator finish as its ``dirichlet(np.ones(k))`` bit for bit,
    which leaves it in the same state: numpy draws each coordinate as a
    standard gamma of shape 1, a standard exponential, sums them in order and
    multiplies by the reciprocal of the sum. An accumulate runs along each
    row alone, so a draw has these bits in any stack."""
    def divide(e: np.ndarray) -> np.ndarray:
        flat = e.reshape(len(e), -1)
        return (flat * (1.0 / flat.cumsum(axis=1)[:, -1:])).reshape(e.shape)

    return _by_shape(np.array, raws, divide)


def _by_shape(make_stack, items: list[np.ndarray], evaluate) -> list:
    """``evaluate(make_stack(group))`` for each group of items of one shape,
    in order of first appearance, and row t of its result for each item t,
    in item order. DistributionStack and JointStack validate each item as
    Distribution or JointDistribution validates it alone, with the same
    bits, and every evaluation the package runs this way sums over the last
    axes of one item, so each row is that of its item alone."""
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for t, item in enumerate(items):
        by_shape.setdefault(item.shape, []).append(t)
    rows = [None] * len(items)
    for members in by_shape.values():
        for t, row in zip(members, evaluate(make_stack([items[t] for t in members]))):
            rows[t] = row
    return rows


def random_joint(n_b: int, n_a: int, seed: int) -> JointDistribution:
    """A seeded uniform draw on the (n_b * n_a)-simplex, reshaped to a joint."""
    return JointDistribution(_joint_draws(n_b, n_a, [seed])[0])


def random_joints(n_b: int, n_a: int, seeds) -> JointStack:
    """``random_joint(n_b, n_a, s)`` for each of one or more seeds s, as one stack."""
    return JointStack(_joint_draws(n_b, n_a, seeds))


def _joint_draws(n_b: int, n_a: int, seeds) -> list[np.ndarray]:
    """The finished (n_b, n_a) draw of each seed, sizes then seeds checked
    first: a tuple, a stream entropy of ``_rngs``, is no seed here."""
    if n_b < 1 or n_a < 1:
        raise ValueError("sizes must be at least 1")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must hold at least one seed")
    if tuple in set(map(type, seeds)):
        raise TypeError(f"seed must be an integer, got {next(s for s in seeds if type(s) is tuple)!r}")
    return _finish([rng.standard_exponential(n_b * n_a).reshape(n_b, n_a) for rng in _rngs(seeds)])
