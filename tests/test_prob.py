import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escortropy import (
    ConditionalDistribution,
    Distribution,
    JointDistribution,
    MalformedWeightsError,
    NegativeWeightError,
    NotNormalizedError,
    QOrder,
    ZeroMarginalColumnError,
    condition_on_a,
    drop_zero_columns,
    marginal_a,
    marginal_b,
    mutual_information,
    product_joint,
    random_distribution,
    random_joint,
)

import oracles


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


def test_qorder_requires_positive():
    with pytest.raises(ValueError):
        QOrder(0.0)
    with pytest.raises(ValueError):
        QOrder(-2.0)


def test_marginals():
    r = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    assert np.allclose(marginal_a(r).weights, [0.5, 0.5])
    assert np.allclose(marginal_b(r).weights, [0.5, 0.5])
    r2 = JointDistribution([[0.2, 0.1], [0.3, 0.4]])
    assert np.allclose(marginal_a(r2).weights, [0.5, 0.5])
    assert np.allclose(marginal_b(r2).weights, [0.3, 0.7])


def test_marginals_of_product_recover_inputs():
    p_a = Distribution([0.3, 0.7])
    q_b = Distribution([0.8, 0.2])
    r = product_joint(p_a, q_b)
    assert np.allclose(r.weights, [[0.24, 0.56], [0.06, 0.14]], atol=1e-15)
    assert np.allclose(marginal_a(r).weights, p_a.weights, atol=1e-15)
    assert np.allclose(marginal_b(r).weights, q_b.weights, atol=1e-15)


def test_condition_on_a_columns():
    r = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    cond = condition_on_a(r)
    assert np.allclose(cond.weights[:, 0], [0.8, 0.2])
    assert np.allclose(cond.weights[:, 1], [0.2, 0.8])


def test_condition_on_product_gives_constant_columns():
    r = product_joint(Distribution([0.3, 0.7]), Distribution([0.8, 0.2]))
    cond = condition_on_a(r)
    for l in range(r.n_a):
        assert np.allclose(cond.weights[:, l], [0.8, 0.2], atol=1e-14)


def test_condition_zero_column_strict_raises_with_index():
    r = JointDistribution([[0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(ZeroMarginalColumnError) as info:
        condition_on_a(r)
    assert info.value.column == 1


def test_condition_zero_column_lenient_records_reduction():
    r = JointDistribution([[0.5, 0.0], [0.5, 0.0]])
    reduced, kept = drop_zero_columns(r)
    assert kept == (0,)
    assert np.allclose(reduced.weights, [[0.5], [0.5]])


def test_conditional_distribution_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(MalformedWeightsError, match="finite"):
            ConditionalDistribution([[bad], [1.0]])


def test_reconstruction_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n_b, n_a = rng.integers(2, 7), rng.integers(2, 7)
        r = JointDistribution(rng.dirichlet(np.ones(n_b * n_a)).reshape(n_b, n_a))
        cond = condition_on_a(r)
        rebuilt = cond.weights * marginal_a(r).weights[None, :]
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


def test_random_distribution_deterministic():
    a = random_distribution(6, 42, 1.0)
    b = random_distribution(6, 42, 1.0)
    assert np.array_equal(a.weights, b.weights)
    c = random_distribution(6, 43, 1.0)
    assert not np.array_equal(a.weights, c.weights)


def test_random_distribution_point_simplex():
    assert random_distribution(1, 0).weights.tolist() == [1.0]


def test_random_distribution_always_valid():
    for seed in range(10_000):
        d = random_distribution(5, seed)
        assert np.all(d.weights >= 0)
        assert abs(d.weights.sum() - 1.0) < 1e-12


def test_random_joint_shape_and_determinism():
    r = random_joint(3, 4, 9)
    assert r.weights.shape == (3, 4)
    assert np.array_equal(r.weights, random_joint(3, 4, 9).weights)


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
