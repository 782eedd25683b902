import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escortropy import (
    ConditionalDistribution,
    Distribution,
    DistributionStack,
    JointDistribution,
    JointStack,
    MalformedWeightsError,
    NegativeWeightError,
    NotNormalizedError,
    ZeroMarginalColumnError,
    drop_zero_columns,
    marginal_a,
    mutual_information,
    product_joint,
    random_joint,
    random_joints,
)
import escortropy as ep
from escortropy.entropies import aczel_daroczy_rows, hybrid_rows
from escortropy import axioms
from escortropy.axioms import MAX_SIDE
from escortropy.prob import _finish, _marginal_and_conditional, _rngs

import oracles


def conditional_columns(r):
    """The conditional columns r_{kl} / p_l of a joint, as the kernel gets them."""
    return _marginal_and_conditional(r.weights)[1]


def test_validate_accepts_symmetric_pair():
    d = Distribution([0.5, 0.5])
    assert d.size == 2
    assert np.allclose(d.weights, [0.5, 0.5])


def test_validate_accepts_degenerate_singleton():
    d = Distribution([1.0])
    assert d.size == 1
    assert d.weights[0] == 1.0


def test_validate_rejects_unnormalized():
    with pytest.raises(NotNormalizedError) as info:
        Distribution([0.5, 0.6])
    assert info.value.deficit == pytest.approx(0.1, abs=1e-12)


def test_validate_rejects_negative():
    with pytest.raises(NegativeWeightError):
        Distribution([1.2, -0.2])


def test_weights_are_renormalized_exactly_and_frozen():
    d = Distribution([0.3, 0.7 + 3e-10])
    assert d.weights.sum() == 1.0
    with pytest.raises(ValueError):
        d.weights[0] = 0.9


# Each weight type and the shape of an input for it.
WEIGHT_SHAPES = {
    Distribution: (7,),
    DistributionStack: (3, 7),
    JointDistribution: (4, 5),
    JointStack: (3, 4, 5),
    ConditionalDistribution: (4, 5),
}


@pytest.mark.parametrize("make, shape", WEIGHT_SHAPES.items(), ids=lambda x: getattr(x, "__name__", ""))
def test_validation_never_writes_an_input_array_and_divides_a_list_as_an_array(make, shape):
    axes = make._rule[1]
    raw = np.random.default_rng(4).random(shape)
    # Off its sums within EPS_NORM, so the division changes bits.
    raw *= (1.0 + 3e-10) / raw.sum(axis=axes, keepdims=True)
    for writeable in (True, False):
        values = raw.copy()
        values.setflags(write=writeable)
        weights = make(values).weights
        assert values.tobytes() == raw.tobytes()
        assert not np.shares_memory(weights, values)
        assert weights.tobytes() != raw.tobytes()
    values = raw.tolist()
    expected = np.asarray(values, dtype=float) / np.asarray(values, dtype=float).sum(axis=axes, keepdims=True)
    assert make(values).weights.tobytes() == expected.tobytes()
    assert make(tuple(values)).weights.tobytes() == expected.tobytes()


_P = Distribution([0.5, 0.3, 0.2])
_R = JointDistribution([[0.2, 0.1], [0.3, 0.4]])

# Every public function that takes an entropic order, called at order q.
ORDER_TAKERS = {
    "renyi": lambda q: ep.renyi(_P, q),
    "tsallis": lambda q: ep.tsallis(_P, q),
    "aczel_daroczy": lambda q: ep.aczel_daroczy(_P, q),
    "hybrid": lambda q: ep.hybrid(_P, q),
    "aczel_daroczy_rows": lambda q: aczel_daroczy_rows(_P.weights, q),
    "hybrid_rows": lambda q: hybrid_rows(_P.weights, q),
    "escort": lambda q: ep.escort(_P, q),
    "joint_escort_naive": lambda q: ep.joint_escort_naive(_R, q),
    "joint_escort_correct": lambda q: ep.joint_escort_correct(_R, q),
    "escort_ratio": lambda q: ep.escort_ratio(_R, q),
    "is_escort_consistent": lambda q: ep.is_escort_consistent(_R, q),
    "chain_rule_report": lambda q: ep.chain_rule_report(_R, q),
    "chain_rule_grid": lambda q: ep.chain_rule_grid(JointStack([_R.weights]), [2.0, q]),
    "corrected_conditional": lambda q: ep.corrected_conditional(_R, q),
    "check_maximality": lambda q: axioms.check_maximality(q, 3),
    "check_expansibility": lambda q: axioms.check_expansibility(q, _P),
    "check_continuity": lambda q: axioms.check_continuity(q, 3, seed=0),
    "check_additivity_independent": lambda q: axioms.check_additivity_independent(q, 0, 2),
    "check_additivity_dependent": lambda q: axioms.check_additivity_dependent(q, 0, 2),
}


@pytest.mark.parametrize("q", [0, -2, float("nan"), float("inf")])
@pytest.mark.parametrize("name", list(ORDER_TAKERS))
def test_every_order_taker_rejects_a_nonpositive_or_nonfinite_order(name, q):
    message = re.escape(f"entropic order must be a positive real, got {float(q)!r}")
    with pytest.raises(ValueError, match=message):
        ORDER_TAKERS[name](q)


def test_marginals():
    r = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    assert np.allclose(marginal_a(r).weights, [0.5, 0.5])
    r2 = JointDistribution([[0.2, 0.1], [0.3, 0.4]])
    assert np.allclose(marginal_a(r2).weights, [0.5, 0.5])


def test_marginals_of_product_recover_inputs():
    p_a = Distribution([0.3, 0.7])
    q_b = Distribution([0.8, 0.2])
    r = product_joint(p_a, q_b)
    assert np.allclose(r.weights, [[0.24, 0.56], [0.06, 0.14]], atol=1e-15)
    assert np.allclose(marginal_a(r).weights, p_a.weights, atol=1e-15)


def test_conditional_columns_divide_each_column_by_its_marginal():
    r = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    cond = conditional_columns(r)
    assert np.allclose(cond[:, 0], [0.8, 0.2])
    assert np.allclose(cond[:, 1], [0.2, 0.8])


def test_condition_on_product_gives_constant_columns():
    r = product_joint(Distribution([0.3, 0.7]), Distribution([0.8, 0.2]))
    cond = conditional_columns(r)
    for l in range(r.n_a):
        assert np.allclose(cond[:, l], [0.8, 0.2], atol=1e-14)


def test_condition_zero_column_strict_raises_with_index():
    r = JointDistribution([[0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(ZeroMarginalColumnError) as info:
        conditional_columns(r)
    assert info.value.column == 1


def test_drop_zero_columns_keeps_the_support_and_names_its_columns():
    r = JointDistribution([[0.5, 0.0], [0.5, 0.0]])
    reduced, kept = drop_zero_columns(r)
    assert kept == (0,)
    assert np.allclose(reduced.weights, [[0.5], [0.5]])


def test_conditional_distribution_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(MalformedWeightsError, match="finite"):
            ConditionalDistribution([[bad], [1.0]])


def test_conditional_distribution_reports_the_deficit_of_its_first_bad_column():
    with pytest.raises(NotNormalizedError) as info:
        ConditionalDistribution([[0.5, 0.7, 0.2], [0.5, 0.5, 0.2]])
    assert info.value.deficit == pytest.approx(0.2, abs=1e-12)


def test_conditional_distribution_refuses_a_zero_column_with_deficit_minus_one():
    with pytest.raises(NotNormalizedError) as info:
        ConditionalDistribution([[0.5, 0.0], [0.5, 0.0]])
    assert info.value.deficit == -1.0


def test_conditional_distribution_divides_each_column_by_its_own_sum():
    w = np.random.default_rng(3).dirichlet(np.ones(5), size=4).T * (1.0 + 1e-10)
    cond = ConditionalDistribution(w)
    assert not cond.weights.flags.writeable
    assert cond.weights.tobytes() == (w / w.sum(axis=0)).tobytes()


# Nested past numpy's 64 array dimensions, and past the interpreter's
# recursion limit for any walk that recurses once per level.
_DEEP = [0.5, 0.5]
for _ in range(5000):
    _DEEP = [_DEEP]


@pytest.mark.parametrize(
    "make", [Distribution, JointDistribution, ConditionalDistribution, DistributionStack, JointStack],
)
@pytest.mark.parametrize(
    "values, message",
    [
        (["0.5", "0.5"], "not numbers"),
        ([True, False], "not numbers"),
        ([True, 0.0], "not numbers"),
        ([np.True_, 0.0], "not numbers"),
        ([[True, 0.0], [0.0, 0.0]], "not numbers"),
        ([(0.5, 0.5), (True, 0.0)], "not numbers"),
        ([np.array([True, False]), np.array([0.5, 0.5])], "not numbers"),
        ([np.array([[True, False], [False, False]]), np.full((2, 2), 0.25)], "not numbers"),
        ([np.array(True), 0.0], "not numbers"),
        ([10**400, 0.0], "too large to convert to float"),
        (_DEEP, "maximum number of dimension"),
    ],
    ids=[
        "strings",
        "booleans",
        "boolean-among-numbers",
        "numpy-boolean-among-numbers",
        "boolean-in-a-joint",
        "boolean-in-a-second-row",
        "boolean-array-among-arrays",
        "boolean-joint-among-joints",
        "zero-d-boolean-array-among-numbers",
        "integer-beyond-the-double-range",
        "nested-5000-deep",
    ],
)
def test_weights_that_are_not_numbers_are_refused(make, values, message):
    with pytest.raises(MalformedWeightsError, match=message):
        make(values)


def test_a_null_weight_is_refused_as_non_finite():
    with pytest.raises(MalformedWeightsError, match="finite"):
        Distribution([None, 1.0])


def test_reconstruction_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_b, n_a = rng.integers(2, 7), rng.integers(2, 7)
        r = JointDistribution(rng.dirichlet(np.ones(n_b * n_a)).reshape(n_b, n_a))
        cond = conditional_columns(r)
        rebuilt = cond * marginal_a(r).weights[None, :]
        assert np.abs(rebuilt - r.weights).max() < 1e-12


def test_mutual_information_examples():
    product = product_joint(Distribution([0.5, 0.5]), Distribution([0.5, 0.5]))
    assert abs(mutual_information(product)) < 1e-15
    correlated = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(correlated) == pytest.approx(np.log(2), abs=1e-12)
    mixed = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    assert 0.0 < mutual_information(mixed) < np.log(2)
    assert mutual_information(mixed) == pytest.approx(0.1927447570217573, abs=1e-12)


def test_mutual_information_nonnegative_and_zero_iff_product():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n_b, n_a = rng.integers(2, 7), rng.integers(2, 7)
        p = Distribution(rng.dirichlet(np.ones(n_a)))
        qd = Distribution(rng.dirichlet(np.ones(n_b)))
        assert abs(mutual_information(product_joint(p, qd))) < 1e-10
        r = random_joint(n_b, n_a, seed)
        assert mutual_information(r) > -1e-12


def test_finish_is_numpys_all_ones_dirichlet():
    # Pins numpy's algorithm: each coordinate is a standard gamma of shape 1,
    # a standard exponential, and the sum is taken in order. Each draw of the
    # chain also checks that the one before left both generators in one state.
    for seed in range(1000):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in range(1, 65):
            [draw] = _finish([ours.standard_exponential(k)])
            assert draw.tobytes() == numpys.dirichlet(np.ones(k)).tobytes()
        assert ours.random() == numpys.random()


def test_finish_is_numpys_dirichlet_for_each_draw_of_mixed_shapes():
    # Draws of one shape share a stacked pass, so each shape recurs among
    # the others, and every draw keeps the bits of its lone finish.
    shapes = [(k,) for k in range(1, 65)] + [(b, a) for b in range(1, 9) for a in range(1, 9)]
    for seed in range(40):
        picks = np.random.default_rng(seed).integers(len(shapes), size=300)
        ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        raws, expected = [], []
        for shape in (shapes[i] for i in picks.tolist()):
            cells = int(np.prod(shape))
            raws.append(ours.standard_exponential(cells).reshape(shape))
            expected.append(reference.dirichlet(np.ones(cells)).reshape(shape))
        finished = _finish(raws)
        assert [w.shape for w in finished] == [w.shape for w in expected]
        assert [w.tobytes() for w in finished] == [w.tobytes() for w in expected]
        assert ours.random() == reference.random()


def test_random_draws_are_the_seeded_dirichlet_draws():
    for seed in range(50):
        n_b, n_a = 1 + seed % 5, 1 + seed % 7
        flat = np.random.default_rng(seed).dirichlet(np.ones(n_b * n_a))
        expected = JointDistribution(flat.reshape(n_b, n_a)).weights
        assert random_joint(n_b, n_a, seed).weights.tobytes() == expected.tobytes()
        row = Distribution(np.random.default_rng(seed).dirichlet(np.ones(n_a)))
        assert random_joint(1, n_a, seed).weights[0].tobytes() == row.weights.tobytes()


@pytest.mark.parametrize(
    "call",
    [lambda: random_joint(2, 2, -1), lambda: random_joints(2, 2, [0, -3])],
    ids=["random_joint", "random_joints"],
)
def test_negative_seed_is_refused_by_name(call):
    with pytest.raises(ValueError, match="^seed must be non-negative, got -"):
        call()


@pytest.mark.parametrize(
    "call",
    [lambda: random_joint(2, 2, (1, 2)), lambda: random_joints(2, 2, [0, (1, 2), 3])],
    ids=["random_joint", "random_joints"],
)
def test_a_tuple_seed_is_refused_before_any_draw(monkeypatch, call):
    # A tuple seeds a generator in _rngs, as the sampler's streams do, but a
    # seed of random_joint is one integer.
    monkeypatch.setattr(ep.prob, "_rngs", lambda entropies: pytest.fail("a generator was built"))
    with pytest.raises(TypeError, match=r"^seed must be an integer, got \(1, 2\)$"):
        call()


# Each kind of draw the package makes from a generator.
DRAWS = [
    lambda rng: rng.standard_exponential(7),
    lambda rng: rng.integers(2, MAX_SIDE + 1),
    lambda rng: rng.normal(size=3),
    lambda rng: rng.uniform(-2.0, 2.0, size=(2, 2)),
]


def assert_streams_are_default_rngs(entropies):
    # One call builds every stream; after each kind of draw, both
    # generators give the same random().
    built = 0
    for entropy, rng in zip(entropies, _rngs(entropies)):
        reference = np.random.default_rng(entropy)
        for draw in DRAWS:
            assert np.asarray(draw(rng)).tobytes() == np.asarray(draw(reference)).tobytes(), entropy
            assert rng.random() == reference.random(), entropy
        built += 1
    assert built == len(entropies)
    # Generators held past their step, while another call runs, and drawn
    # from out of order, keep their own streams.
    held = list(_rngs(entropies))
    for rng in _rngs(entropies):
        rng.standard_exponential(3)
    for entropy, rng in reversed(list(zip(entropies, held))):
        reference = np.random.default_rng(entropy)
        for draw in DRAWS:
            assert np.asarray(draw(rng)).tobytes() == np.asarray(draw(reference)).tobytes(), entropy


SEEDING_TABLE = [
    0, 1, 2**32 - 1, 2**32, 2**64, 2**100, np.int64(7), np.uint64(2**64 - 1), True,
    (2**32, 2**32 + 1, 2**40), (5, 2**33, 2**64), (2**64, 3, 1), (1, 2, 3, 4, 5, 6, 7),
    (2**100, 2**70, 0), (0, 0, 0), (12345, 199, 9999),
]


def test_every_generator_is_default_rngs_bit_for_bit():
    # Entropies of one to seven uint32 words, in one call and each alone.
    assert_streams_are_default_rngs(SEEDING_TABLE)
    for entropy in SEEDING_TABLE:
        assert_streams_are_default_rngs([entropy])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(0, 2**130),
            st.lists(st.integers(0, 2**70), min_size=1, max_size=6).map(tuple),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_generators_are_default_rngs_for_any_entropies(entropies):
    assert_streams_are_default_rngs(entropies)


@pytest.mark.parametrize(
    "entropies, error, message",
    [
        ([3, -1], ValueError, "^seed must be non-negative, got -1$"),
        ([(-2, 0, 0)], ValueError, "^seed must be non-negative, got -2$"),
        ([(2, -1, 0)], ValueError, "^stream must be non-negative, got -1$"),
        ([(2**32, 0, -2**40)], ValueError, "^stream must be non-negative, got -1099511627776$"),
        ([np.int64(-3)], ValueError, "^seed must be non-negative, got -3$"),
        ([0, 1.5], TypeError, "^seed must be an integer, got 1.5$"),
        ([(1, 2.0, 3)], TypeError, "^seed must be an integer, got 2.0$"),
    ],
)
def test_an_entropy_that_numpy_refuses_is_refused_before_any_draw(entropies, error, message):
    # A negative word would otherwise wrap to a uint32 silently.
    with pytest.raises(error, match=message):
        next(_rngs(entropies))


def test_random_joint_shape_and_determinism():
    r = random_joint(3, 4, 9)
    assert r.weights.shape == (3, 4)
    assert np.array_equal(r.weights, random_joint(3, 4, 9).weights)


# A one-row joint is a seeded draw on the n_a-simplex: its row 0 is the
# distribution to use wherever a single random distribution is wanted.
def test_random_single_row_deterministic():
    a = random_joint(1, 6, 42).weights[0]
    assert np.array_equal(a, random_joint(1, 6, 42).weights[0])
    assert not np.array_equal(a, random_joint(1, 6, 43).weights[0])


def test_random_single_row_point_simplex():
    assert random_joint(1, 1, 0).weights.tolist() == [[1.0]]


def test_random_single_row_always_valid():
    for seed in range(10_000):
        w = random_joint(1, 5, seed).weights[0]
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) < 1e-12


def test_random_joints_are_the_random_joint_draws():
    stack = random_joints(4, 3, range(7, 12))
    assert stack.weights.shape == (5, 4, 3)
    for t, seed in enumerate(range(7, 12)):
        assert stack.weights[t].tobytes() == random_joint(4, 3, seed).weights.tobytes()
    # Any iterable of seeds is read once, a generator included.
    again = random_joints(4, 3, (seed for seed in range(7, 12)))
    assert again.weights.tobytes() == stack.weights.tobytes()


def test_random_joints_checks_its_sizes_then_its_seeds():
    # The sizes are refused as random_joint refuses them, and an empty seed
    # list by name, before anything is drawn or validated.
    for call in (lambda: random_joints(0, 3, []), lambda: random_joint(0, 3, 1)):
        with pytest.raises(ValueError, match="^sizes must be at least 1$"):
            call()
    with pytest.raises(ValueError, match="^seeds must hold at least one seed$") as refused:
        random_joints(2, 2, iter([]))
    assert type(refused.value) is ValueError


def test_joint_stack_normalizes_each_joint_as_a_lone_joint():
    rng = np.random.default_rng(1)
    raw = rng.dirichlet(np.ones(35), size=4).reshape(4, 7, 5) * (1.0 + 1e-10)
    stack = JointStack(raw)
    assert not stack.weights.flags.writeable
    for t in range(4):
        assert stack.weights[t].tobytes() == JointDistribution(raw[t]).weights.tobytes()


def test_lone_and_stacked_joints_get_the_same_bits_for_any_memory_layout():
    # Transposed joints and rows are not C-contiguous, and neither are the
    # columns that drop_zero_columns keeps. Each is validated in C order, alone
    # as in a stack.
    x = np.random.default_rng(8).dirichlet(np.ones(63), size=100).reshape(100, 7, 9)
    joints = np.swapaxes(x, 1, 2)
    stack = JointStack(joints)
    reports = ep.chain_rule_grid(stack, [2.0])
    for t, w in enumerate(joints):
        joint = JointDistribution(w)
        assert joint.weights.tobytes() == stack.weights[t].tobytes()
        report = ep.chain_rule_report(joint, 2.0)
        assert (report.s_gap, report.joint_entropy) == (reports.s_gap[0, t], reports.joint_entropy[0, t])
    reduced, _ = drop_zero_columns(JointDistribution(np.insert(x[0], 4, 0.0, axis=1)))
    assert reduced.weights.flags.c_contiguous
    rows = np.ascontiguousarray(x.reshape(100, 63).T).T
    assert not rows.flags.c_contiguous
    stack = DistributionStack(rows)
    for t, w in enumerate(rows):
        assert Distribution(w).weights.tobytes() == stack.weights[t].tobytes()


def test_distribution_stack_normalizes_each_row_as_a_lone_distribution():
    rng = np.random.default_rng(5)
    raw = rng.dirichlet(np.ones(9), size=4)
    raw[2, 3] = 0.0
    raw = raw / raw.sum(axis=1, keepdims=True) * (1.0 + 1e-10)
    stack = DistributionStack(raw)
    assert not stack.weights.flags.writeable
    for t in range(4):
        assert stack.weights[t].tobytes() == Distribution(raw[t]).weights.tobytes()


@pytest.mark.parametrize(
    "values, error",
    [
        (np.ones(4) / 4, MalformedWeightsError),
        (np.zeros((0, 2)), MalformedWeightsError),
        (np.array([[0.5, 0.5], [np.nan, 0.0]]), MalformedWeightsError),
        (np.array([[0.5, 0.5], [1.5, -0.5]]), NegativeWeightError),
        (np.array([[0.5, 0.5], [0.5, 0.6]]), NotNormalizedError),
    ],
    ids=["one-d", "empty", "nan", "negative", "unnormalized"],
)
def test_distribution_stack_rejects_what_a_distribution_rejects(values, error):
    with pytest.raises(error):
        DistributionStack(values)


@pytest.mark.parametrize(
    "values, error",
    [
        (np.ones((2, 2)) / 4, MalformedWeightsError),
        (np.zeros((0, 2, 2)), MalformedWeightsError),
        (np.array([[[0.5, 0.5]], [[np.inf, 0.0]]]), MalformedWeightsError),
        (np.array([[[0.5, 0.5]], [[1.5, -0.5]]]), NegativeWeightError),
        (np.array([[[0.5, 0.5]], [[0.5, 0.6]]]), NotNormalizedError),
    ],
    ids=["two-d", "empty", "infinite", "negative", "unnormalized"],
)
def test_joint_stack_rejects_what_a_joint_rejects(values, error):
    with pytest.raises(error):
        JointStack(values)


def test_mutual_information_of_a_stack_is_each_joints_value():
    rng = np.random.default_rng(2)
    w = rng.dirichlet(np.ones(12), size=6).reshape(6, 4, 3)
    w[1, 0, :] = 0.0  # a zero row: nine positive cells, past the 8-wide pairwise unroll
    w[2, 1, 2] = 0.0
    w /= w.sum(axis=(1, 2), keepdims=True)
    values = mutual_information(JointStack(w))
    assert values.shape == (6,)
    for t in range(6):
        lone = mutual_information(JointDistribution(w[t]))
        assert values[t].hex() == lone.hex()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=9).map(
        lambda xs: np.array(xs) / np.sum(xs)
    )
)
def test_any_normalized_vector_validates(w):
    d = Distribution(w)
    assert abs(d.weights.sum() - 1.0) < 1e-12
    assert oracles.nat_entropy(d.weights) >= 0.0
