"""Escort transforms: round trips, the two joint constructions, and the
consistency characterization.

The 2x2 matrix [[0.4, 0.1], [0.1, 0.4]] recurs below as SYMMETRIC: it is
dependent (mutual information ~0.19) but its conditional columns are
permutations of each other, so the column power sums coincide at every order
and the naive and correct joint escorts agree exactly. The asymmetric
DEPENDENT example has no such symmetry and exhibits every defect.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escortropy import (
    Distribution,
    DistributionStack,
    JointDistribution,
    JointStack,
    escort,
    escort_ratio,
    is_escort_consistent,
    joint_escort_correct,
    joint_escort_naive,
    marginal_a,
    mutual_information,
    product_joint,
)
from escortropy.axioms import sample_dependent_joint

import oracles

SYMMETRIC = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
DEPENDENT = JointDistribution([[0.2, 0.1], [0.3, 0.4]])


def simplex(n, seed):
    return Distribution(np.random.default_rng(seed).dirichlet(np.ones(n)))


def test_escort_symmetric_is_fixed_point():
    for q in (0.3, 0.5, 2.0, 5.0):
        assert np.allclose(escort(Distribution([0.5, 0.5]), q), [0.5, 0.5])


def test_escort_example_values():
    p = Distribution([0.8, 0.2])
    esc = escort(p, 2.0)
    assert np.allclose(esc, [16 / 17, 1 / 17], atol=1e-15)
    assert p.weights.tolist() == [0.8, 0.2]


def test_escort_order_one_is_identity():
    p = Distribution([0.1, 0.2, 0.7])
    assert np.array_equal(escort(p, 1.0), p.weights)


def test_escort_zero_entries_stay_zero():
    p = Distribution([0.0, 0.3, 0.7])
    for q in (0.5, 2.0):
        assert escort(p, q)[0] == 0.0


def test_escort_reciprocal_order_round_trip_examples():
    for q in (0.5, 2.0):
        p = Distribution([0.8, 0.2])
        assert np.abs(escort(Distribution(escort(p, q)), 1 / q) - p.weights).max() < 1e-12
    p = Distribution([0.1, 0.2, 0.7])
    back = escort(Distribution(escort(p, 0.5)), 1 / 0.5)
    assert np.abs(back - p.weights).max() < 1e-10


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(1e-5, 1.0), min_size=2, max_size=8).map(
        lambda xs: np.array(xs) / np.sum(xs)
    ),
    st.sampled_from([0.3, 0.5, 2.0, 5.0]),
)
def test_escort_reciprocal_order_round_trip_property(w, q):
    p = Distribution(w)
    back = escort(Distribution(escort(p, q)), 1 / q)
    assert np.abs(back - p.weights).max() < 1e-10


def test_escort_matches_direct_formula():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = rng.dirichlet(np.ones(rng.integers(2, 9)))
        for q in (0.3, 0.5, 2.0, 5.0):
            ours = escort(Distribution(p), q)
            assert np.abs(ours - oracles.escort_weights(p, q)).max() < 1e-14


def test_joint_escort_naive_order_one_is_joint():
    assert np.array_equal(joint_escort_naive(SYMMETRIC, 1.0), SYMMETRIC.weights)


def test_joint_escort_naive_hand_example():
    got = joint_escort_naive(SYMMETRIC, 2.0)
    expected = np.array([[8 / 17, 1 / 34], [1 / 34, 8 / 17]])
    assert np.abs(got - expected).max() < 1e-15


def test_joint_escort_of_product_factorizes():
    p_a = simplex(5, 1)
    q_b = simplex(4, 2)
    joint = product_joint(p_a, q_b)
    for q in (0.5, 2.0):
        naive = joint_escort_naive(joint, q)
        outer = np.outer(escort(q_b, q), escort(p_a, q))
        assert np.abs(naive - outer).max() < 1e-12


def test_joint_escort_correct_equals_naive_on_products():
    joint = product_joint(simplex(3, 7), simplex(5, 8))
    for q in (0.5, 2.0, 3.0):
        assert np.abs(
            joint_escort_naive(joint, q) - joint_escort_correct(joint, q)
        ).max() < 1e-12


def test_joint_escort_correct_order_one_is_joint():
    assert np.array_equal(joint_escort_correct(DEPENDENT, 1.0), DEPENDENT.weights)


def test_joint_escort_constructions_differ_on_asymmetric_dependent():
    naive = joint_escort_naive(DEPENDENT, 2.0)
    correct = joint_escort_correct(DEPENDENT, 2.0)
    assert np.abs(naive - correct).max() > 1e-3
    assert np.abs(naive - oracles.joint_escort_naive(DEPENDENT.weights, 2.0)).max() < 1e-14
    assert np.abs(correct - oracles.joint_escort_correct(DEPENDENT.weights, 2.0)).max() < 1e-14


def test_symmetric_columns_make_constructions_agree_despite_dependence():
    # Permuted conditional columns have equal power sums, so the dependent
    # SYMMETRIC joint stays escort-consistent at every order.
    assert mutual_information(SYMMETRIC) > 0.1
    for q in (0.5, 2.0, 3.0):
        assert np.abs(
            joint_escort_naive(SYMMETRIC, q) - joint_escort_correct(SYMMETRIC, q)
        ).max() < 1e-15


def test_both_constructions_normalize():
    for q in (0.5, 2.0):
        for m in (joint_escort_naive(DEPENDENT, q), joint_escort_correct(DEPENDENT, q)):
            assert np.all(m >= 0)
            assert abs(m.sum() - 1.0) < 1e-12


def column_factor(r, q):
    """The conditional escort: each column of the correct joint escort
    divided by its sum, the escort of the A-marginal."""
    m = joint_escort_correct(r, q)
    return m / m.sum(axis=0)


def test_correct_escorts_column_factor_examples():
    assert np.allclose(column_factor(DEPENDENT, 1.0), oracles.conditional_on_a(DEPENDENT.weights))
    joint = product_joint(simplex(4, 11), simplex(3, 12))
    ce = column_factor(joint, 2.0)
    for l in range(1, joint.n_a):
        assert np.abs(ce[:, l] - ce[:, 0]).max() < 1e-13
    one_column = JointDistribution(np.array([[0.8], [0.2]]))
    assert np.allclose(
        joint_escort_correct(one_column, 2.0)[:, 0], [16 / 17, 1 / 17], atol=1e-15
    )


def test_escort_ratio_trivial_cases():
    joint = product_joint(simplex(3, 21), simplex(4, 22))
    assert np.abs(escort_ratio(joint, 2.0) - 1.0).max() < 1e-12
    assert np.abs(escort_ratio(DEPENDENT, 1.0) - 1.0).max() == 0.0


def test_escort_ratio_constant_down_columns_and_cross_checks():
    for q in (0.5, 2.0):
        ratio = escort_ratio(DEPENDENT, q)
        assert np.abs(ratio - ratio[0, :][None, :]).max() == 0.0
        naive = joint_escort_naive(DEPENDENT, q)
        correct = joint_escort_correct(DEPENDENT, q)
        assert np.abs(ratio * naive - correct).max() < 1e-12
    assert np.abs(escort_ratio(DEPENDENT, 2.0) - 1.0).max() > 1e-2


def test_escort_ratio_symmetric_joint_is_all_ones():
    for q in (0.5, 2.0, 3.0):
        assert np.abs(escort_ratio(SYMMETRIC, q) - 1.0).max() < 1e-15


def test_escort_ratio_finite_on_zero_cells():
    with_zero = JointDistribution([[0.1, 0.45], [0.0, 0.45]])
    ratio = escort_ratio(with_zero, 2.0)
    assert np.all(np.isfinite(ratio))
    naive = joint_escort_naive(with_zero, 2.0)
    correct = joint_escort_correct(with_zero, 2.0)
    mask = naive > 0
    assert np.abs(ratio[mask] * naive[mask] - correct[mask]).max() < 1e-12


def test_is_escort_consistent_cases():
    joint = product_joint(simplex(4, 31), simplex(4, 32))
    assert is_escort_consistent(joint, 2.0)
    assert not is_escort_consistent(DEPENDENT, 2.0)
    assert is_escort_consistent(DEPENDENT, 1.0)
    assert is_escort_consistent(SYMMETRIC, 2.0)


def test_naive_marginal_defect_on_asymmetric_dependent():
    naive = joint_escort_naive(DEPENDENT, 2.0)
    target = escort(marginal_a(DEPENDENT), 2.0)
    assert np.abs(naive.sum(axis=0) - target).max() > 1e-2
    # the symmetric dependent joint happens to have no defect
    naive_sym = joint_escort_naive(SYMMETRIC, 2.0)
    target_sym = escort(marginal_a(SYMMETRIC), 2.0)
    assert np.abs(naive_sym.sum(axis=0) - target_sym).max() < 1e-15


def test_correct_marginal_identity():
    for seed in range(50):
        joint = sample_dependent_joint(77, seed, mi_floor=0.01)
        for q in (0.5, 2.0):
            correct = joint_escort_correct(joint, q)
            target = escort(marginal_a(joint), q)
            assert np.abs(correct.sum(axis=0) - target).max() < 1e-12


def test_iff_characterization_over_ensembles():
    # The escort-consistent set passes through the dependent region (see the
    # pinned joint below), so the dependent side is a rate, as in the verify
    # check escort:dependent_joints_inconsistent; the product side is exact.
    inconsistent = sum(
        not is_escort_consistent(sample_dependent_joint(404, t, mi_floor=0.01), 2.0, tol=1e-6)
        for t in range(1000)
    )
    print(f"dependent joints inconsistent at q=2 (gap above 1e-6): {inconsistent}/1000")
    assert inconsistent / 1000 >= 0.99
    for t in range(1000):
        rng = np.random.default_rng(505 + t)
        joint = product_joint(
            Distribution(rng.dirichlet(np.ones(rng.integers(2, 9)))),
            Distribution(rng.dirichlet(np.ones(rng.integers(2, 9)))),
        )
        assert is_escort_consistent(joint, 2.0, tol=1e-9)


def test_a_sampled_dependent_joint_lies_within_1e_6_of_the_consistent_set():
    # A 7x2 joint of the verify suite's dependent ensemble at seed 8000019: its
    # mutual information is above both ensemble floors, yet at q = 2 its two
    # joint escorts differ by less than 1e-6. It is not on the consistent set
    # (the gap is 4.9e-7, far above rounding), only close to it, and at other
    # orders the gap is of order 1e-4 and more.
    joint = sample_dependent_joint(8000019, 74, mi_floor=0.01)
    assert joint.weights.shape == (7, 2)
    assert mutual_information(joint) == pytest.approx(0.13017808850683155, abs=1e-12)
    gap = np.abs(
        oracles.joint_escort_naive(joint.weights, 2.0)
        - oracles.joint_escort_correct(joint.weights, 2.0)
    ).max()
    assert gap == pytest.approx(4.865663516540053e-07, rel=1e-6)
    assert is_escort_consistent(joint, 2.0, tol=1e-6)
    assert not is_escort_consistent(joint, 2.0, tol=1e-7)
    for q in (0.5, 1.5, 3.0):
        assert not is_escort_consistent(joint, q, tol=1e-4)


JOINT_FUNCTIONS = (joint_escort_naive, joint_escort_correct, escort_ratio)


@pytest.mark.parametrize("q", [0.3, 1.0, 2.0, 5.0])
def test_escort_functions_on_a_stack_equal_the_lone_joints(q):
    construction_gap = importlib.import_module("escortropy.escort")._construction_gap
    rng = np.random.default_rng(8)
    for n_b in range(1, 9):
        for n_a in range(1, 9):
            raw = rng.dirichlet(np.ones(n_b * n_a), size=4).reshape(4, n_b, n_a)
            if n_b > 1:  # a zero cell, and a zero row, that leave every column positive
                raw[1, rng.integers(n_b), rng.integers(n_a)] = 0.0
                raw[2, rng.integers(n_b), :] = 0.0
                raw /= raw.sum(axis=(1, 2), keepdims=True)
            stack = JointStack(raw)
            joints = [JointDistribution(w) for w in raw]
            for function in JOINT_FUNCTIONS:
                values = function(stack, q)
                assert values.shape == raw.shape
                for t, joint in enumerate(joints):
                    assert values[t].tobytes() == function(joint, q).tobytes(), function
            gaps = construction_gap(stack, q)
            consistent = is_escort_consistent(stack, q)
            for t, joint in enumerate(joints):
                assert gaps[t].hex() == construction_gap(joint, q).hex()
                assert consistent[t] == is_escort_consistent(joint, q)


@pytest.mark.parametrize("q", [0.3, 1.0, 2.0, 5.0])
def test_escort_on_a_row_stack_equals_the_lone_rows(q):
    rng = np.random.default_rng(9)
    for n in range(1, 9):
        raw = rng.dirichlet(np.ones(n), size=5)
        if n > 1:
            raw[1, rng.integers(n)] = 0.0
            raw[1] /= raw[1].sum()
        rows = DistributionStack(raw)
        values = escort(rows, q)
        assert values.shape == raw.shape
        for t, w in enumerate(raw):
            assert values[t].tobytes() == escort(Distribution(w), q).tobytes()
