import numpy as np
import pytest

from escortropy import (
    Distribution,
    JointDistribution,
    aczel_daroczy,
    cross_shannon,
    escort,
    hybrid,
    hybrid_joint,
    is_escort_consistent,
    joint_escort_correct,
    joint_escort_naive,
    kn_map,
    product_joint,
    q_log,
    renyi,
    shannon,
    tsallis,
)

import oracles

FAIR = Distribution([0.5, 0.5])
SKEWED = Distribution([0.8, 0.2])
POINT = Distribution([1.0, 0.0])


def random_simplex(n, seed):
    return np.random.default_rng(seed).dirichlet(np.ones(n))


def test_shannon_examples():
    assert shannon(FAIR).value == pytest.approx(np.log(2), abs=1e-14)
    assert shannon(POINT).value == 0.0
    assert shannon(SKEWED).value == pytest.approx(0.5004024235381879, abs=1e-14)
    assert shannon(FAIR).functional == "shannon"


def test_renyi_examples():
    uniform4 = Distribution([0.25] * 4)
    for alpha in (1e-3, 0.5, 2.0, 3.0, 1e3):  # 0.25^1000 underflows
        assert renyi(uniform4, alpha).value == pytest.approx(np.log(4), abs=1e-12)
    assert renyi(SKEWED, 2.0).value == pytest.approx(0.38566248081198445, abs=1e-14)
    for alpha in (1.0 - 1e-9, 1.0 + 1e-9):
        assert renyi(SKEWED, alpha).value == pytest.approx(shannon(SKEWED).value, abs=1e-6)
    with pytest.raises(ValueError):
        renyi(SKEWED, 0.0)


def test_tsallis_examples():
    for q in (0.5, 2.0, 3.0):
        assert tsallis(POINT, q).value == 0.0
    assert tsallis(FAIR, 2.0).value == pytest.approx(0.5, abs=1e-14)
    assert tsallis(SKEWED, 1.0 + 1e-9).value == pytest.approx(0.5004024235381879, abs=1e-6)


def test_hybrid_examples():
    for q in (0.3, 0.5, 2.0, 5.0):
        assert hybrid(Distribution([1.0, 0.0, 0.0]), q).value == pytest.approx(0.0, abs=1e-14)
    assert hybrid(Distribution([0.25] * 4), 0.5).value == pytest.approx(2.0, abs=1e-13)
    assert hybrid(SKEWED, 2.0).value == pytest.approx(0.2626482872473076, abs=1e-13)


def test_aczel_daroczy_examples():
    for q, n in ((0.5, 3), (2.0, 5), (3.0, 8)):
        uniform = Distribution(np.full(n, 1.0 / n))
        assert aczel_daroczy(uniform, q).value == pytest.approx(np.log(n), abs=1e-12)
    assert aczel_daroczy(SKEWED, 2.0).value == pytest.approx(0.3046902784389091, abs=1e-14)
    for q in (0.5, 2.0):
        assert aczel_daroczy(POINT, q).value == 0.0


def test_hybrid_joint_examples():
    coins = product_joint(FAIR, FAIR)
    assert hybrid_joint(coins, 2.0).value == pytest.approx(0.75, abs=1e-14)
    r = JointDistribution([[0.2, 0.1], [0.3, 0.4]])
    assert hybrid_joint(r, 1.0).value == pytest.approx(oracles.nat_entropy(r.weights), abs=1e-14)
    w = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
    assert hybrid_joint(w, 2.0).value == pytest.approx(
        oracles.hybrid(w.weights.ravel(), 2.0), abs=1e-14
    )


def test_bridge_identity_sampled():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        p = Distribution(rng.dirichlet(np.ones(rng.integers(2, 10))))
        q = float(rng.uniform(0.25, 4.0))
        assert abs(kn_map(hybrid(p, q).value, q) - aczel_daroczy(p, q).value) < 1e-10


def test_decomposition_identity_sampled():
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        p = Distribution(rng.dirichlet(np.ones(rng.integers(2, 10))))
        q = float(rng.uniform(0.25, 4.0))
        esc = Distribution(escort(p, q))
        expected = shannon(esc).value / q - (1.0 - q) / q * renyi(esc, 1.0 / q).value
        assert abs(aczel_daroczy(p, q).value - expected) < 1e-10


def test_closed_form_on_uniforms():
    for n in range(2, 65):
        uniform = Distribution(np.full(n, 1.0 / n))
        for q in (0.5, 0.7, 1.0, 1.5, 2.0, 5.0):
            assert abs(hybrid(uniform, q).value - q_log(float(n), q)) < 1e-12


# q = 1 +/- 10^-k from k = 6 on: at k = 4 and 5 the functionals sit about
# |q - 1| times an O(1) derivative away from Shannon, which exceeds the bound
# by calculus, not by rounding.
NEAR_UNIT_ORDERS = [1.0 + sign * 10.0**-k for k in range(6, 15) for sign in (-1, 1)]


def test_collapse_to_shannon_near_unit_order():
    for seed in range(20):
        p = Distribution(random_simplex(6, seed))
        s = shannon(p).value
        for q in NEAR_UNIT_ORDERS:
            assert abs(hybrid(p, q).value - s) < 1e-5
            assert abs(tsallis(p, q).value - s) < 1e-5
            assert abs(aczel_daroczy(p, q).value - s) < 1e-5
            assert abs(renyi(p, 1.0 / q).value - s) < 1e-5


def _mp_tsallis_and_renyi(mpmath, weights, alpha):
    # The float weights are renormalized in 50-digit arithmetic: their float sum
    # differs from 1 by about 1e-16, which (sum p^alpha - 1)/(1 - alpha) would
    # amplify to about 1e-4 at |alpha - 1| = 1e-12.
    w = [mpmath.mpf(float(x)) for x in weights if x > 0]
    total = mpmath.fsum(w)
    w = [x / total for x in w]
    a = mpmath.mpf(alpha)
    if a == 1:
        shannon_value = -mpmath.fsum(x * mpmath.log(x) for x in w)
        return shannon_value, shannon_value
    power_sum = mpmath.fsum(x**a for x in w)
    return (power_sum - 1) / (1 - a), mpmath.log(power_sum) / (1 - a)


def test_renyi_and_tsallis_match_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    alphas = np.geomspace(1e-3, 1e3, 25).tolist()
    alphas += [1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-7, 1.0 + 1e-7]
    points = [random_simplex(n, seed) for n in (2, 5, 40) for seed in range(3)]
    points += [[1e-300, 1e-10, 0.3, 0.7 - 1e-10], [0.0, 0.25, 0.75], [5e-324, 0.4, 0.6]]
    with mpmath.workdps(50):
        for weights in points:
            p = Distribution(weights)
            for alpha in alphas:
                tsallis_ref, renyi_ref = _mp_tsallis_and_renyi(mpmath, p.weights, alpha)
                assert abs(tsallis(p, alpha).value - tsallis_ref) <= 1e-13 * abs(tsallis_ref)
                assert abs(renyi(p, alpha).value - renyi_ref) <= 1e-13 * abs(renyi_ref)


def test_shannon_and_renyi_additive_on_product_weights():
    p = Distribution(random_simplex(5, 3))
    qd = Distribution(random_simplex(4, 4))
    outer = Distribution(np.outer(qd.weights, p.weights).ravel())
    assert abs(shannon(outer).value - shannon(p).value - shannon(qd).value) < 1e-10
    for alpha in (0.5, 2.0, 3.0):
        assert abs(renyi(outer, alpha).value - renyi(p, alpha).value - renyi(qd, alpha).value) < 1e-10


def test_hybrid_nonnegative_for_order_at_least_half():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p = Distribution(rng.dirichlet(np.ones(rng.integers(2, 10))))
        for q in (0.5, 0.7, 1.0, 2.0, 5.0):
            assert hybrid(p, q).value >= -1e-14


def test_expansibility_of_functionals():
    p = Distribution([0.6, 0.4])
    padded = Distribution([0.6, 0.4, 0.0])
    for q in (0.5, 2.0):
        assert abs(hybrid(padded, q).value - hybrid(p, q).value) < 1e-12
        assert abs(aczel_daroczy(padded, q).value - aczel_daroczy(p, q).value) < 1e-12
    assert abs(shannon(padded).value - shannon(p).value) < 1e-15


def test_cross_shannon_product_equals_naive_entropy():
    joint = product_joint(Distribution(random_simplex(4, 8)), Distribution(random_simplex(3, 9)))
    for q in (0.5, 2.0):
        naive_entropy = oracles.nat_entropy(joint_escort_naive(joint, q))
        assert abs(cross_shannon(joint, q).value - naive_entropy) < 1e-10


def test_cross_shannon_order_one_is_joint_shannon():
    r = JointDistribution([[0.2, 0.1], [0.3, 0.4]])
    assert cross_shannon(r, 1.0).value == pytest.approx(oracles.nat_entropy(r.weights), abs=1e-14)


def test_cross_shannon_direct_summation_oracle():
    r = JointDistribution([[0.2, 0.1], [0.3, 0.4]])
    for q in (0.5, 2.0):
        assert cross_shannon(r, q).value == pytest.approx(
            oracles.cross_shannon(r.weights, q), abs=1e-13
        )


def test_cross_shannon_gibbs_against_correct_escort():
    # Gibbs bounds the cross entropy by the entropy of the distribution in the
    # outer slot (the correct escort), with equality iff the constructions match.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        nb, na = rng.integers(2, 7), rng.integers(2, 7)
        r = JointDistribution(rng.dirichlet(np.ones(nb * na)).reshape(nb, na))
        for q in (0.5, 2.0):
            value = cross_shannon(r, q).value
            floor = oracles.nat_entropy(joint_escort_correct(r, q))
            assert value >= floor - 1e-12
            if is_escort_consistent(r, q):
                assert abs(value - floor) < 1e-10


def test_cross_shannon_minus_naive_entropy_is_sign_indefinite():
    # Against the naive escort's own entropy the difference can go negative.
    r = JointDistribution([[0.1, 0.45], [0.0, 0.45]])
    value = cross_shannon(r, 2.0).value
    naive_entropy = oracles.nat_entropy(joint_escort_naive(r, 2.0))
    assert value - naive_entropy == pytest.approx(-0.03580084312044618, abs=1e-12)


def test_cross_shannon_zero_cells_contribute_nothing():
    r = JointDistribution([[0.1, 0.45], [0.0, 0.45]])
    naive = joint_escort_naive(r, 2.0)
    correct = joint_escort_correct(r, 2.0)
    assert naive[1, 0] == 0.0 and correct[1, 0] == 0.0
    assert np.isfinite(cross_shannon(r, 2.0).value)


def test_entropy_value_is_float_convertible():
    value = shannon(FAIR)
    assert float(value) == value.value
    assert "shannon" in repr(value)
