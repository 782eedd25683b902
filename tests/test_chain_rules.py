"""Chain-rule quantities: the two conditionals, the residual, the sandwich,
and the exact closure of the corrected conditional.

SYMMETRIC below is dependent but escort-consistent (permuted conditional
columns), so its residual vanishes; DEPENDENT is a generic dependent joint
with a genuine violation. Frozen values were computed with the direct-formula
oracles in oracles.py.
"""

import numpy as np
import pytest

from escortropy import (
    ConditionalDistribution,
    Distribution,
    JointDistribution,
    additivity_residual,
    chain_rule_report,
    conditional_axiomatic,
    conditional_chain,
    conditional_escort,
    corrected_conditional,
    cross_shannon,
    escort,
    escort_ratio,
    is_escort_consistent,
    joint_escort_correct,
    aczel_daroczy,
    hybrid,
    hybrid_joint,
    joint_escort_naive,
    kn_map_inv,
    marginal_a,
    minmax_bounds,
    product_joint,
    q_add,
    random_joint,
    renyi,
    s_gap,
    shannon,
)

import oracles

SYMMETRIC = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
DEPENDENT = JointDistribution([[0.2, 0.1], [0.3, 0.4]])
WITH_ZERO = JointDistribution([[0.1, 0.45], [0.0, 0.45]])
# A cell of 1e-200 beside order-one cells: at q = 400 the tilt exponent
# (1-q)/q * s_gap is about 102.
TINY_CELL = JointDistribution([[1e-200, 0.3], [0.5 - 1e-200, 0.2]])
NEAR_UNIT_ORDERS = [1.0 + sign * 10.0**-k for k in range(4, 15) for sign in (-1, 1)]


def random_joint_matrix(seed, max_size=7):
    rng = np.random.default_rng(seed)
    nb, na = rng.integers(2, max_size), rng.integers(2, max_size)
    return JointDistribution(rng.dirichlet(np.ones(nb * na)).reshape(nb, na))


def random_product(seed):
    rng = np.random.default_rng(seed)
    return product_joint(
        Distribution(rng.dirichlet(np.ones(rng.integers(2, 7)))),
        Distribution(rng.dirichlet(np.ones(rng.integers(2, 7)))),
    )


def shannon_conditional(r):
    return oracles.nat_entropy(r.weights) - oracles.nat_entropy(r.weights.sum(axis=0))


def test_conditional_chain_on_products_reduces_to_marginal():
    rng = np.random.default_rng(0)
    p_a = Distribution(rng.dirichlet(np.ones(4)))
    q_b = Distribution(rng.dirichlet(np.ones(3)))
    joint = product_joint(p_a, q_b)
    for q in (0.5, 2.0, 3.0):
        assert conditional_chain(joint, q) == pytest.approx(
            aczel_daroczy(q_b, q).value, abs=1e-12
        )


def test_conditional_chain_order_one_is_shannon_conditional():
    assert conditional_chain(DEPENDENT, 1.0) == pytest.approx(
        shannon_conditional(DEPENDENT), abs=1e-13
    )


def test_conditional_chain_subtraction_oracle():
    for q in (0.5, 2.0):
        assert conditional_chain(SYMMETRIC, q) == pytest.approx(
            oracles.conditional_chain(SYMMETRIC.weights, q), abs=1e-13
        )
    assert conditional_chain(SYMMETRIC, 2.0) == pytest.approx(0.30469027843890917, abs=1e-13)


def test_conditional_chain_escort_route_identity():
    # AD(A,B) - AD(A) rewritten through the escorts of the joint and marginal.
    for seed in range(100):
        r = random_joint_matrix(seed)
        for q in (0.5, 0.7, 1.5, 2.0, 3.0):
            naive = Distribution(joint_escort_naive(r, q).ravel())
            p_escort = Distribution(
                np.where(marginal_a(r).weights > 0, marginal_a(r).weights**q, 0.0)
                / (marginal_a(r).weights**q).sum()
            )
            expected = (shannon(naive).value - shannon(p_escort).value) / q - (
                1.0 - q
            ) / q * (renyi(naive, 1.0 / q).value - renyi(p_escort, 1.0 / q).value)
            assert abs(conditional_chain(r, q) - expected) < 1e-10


def test_conditional_axiomatic_equals_chain_on_products():
    for seed in range(50):
        joint = random_product(seed)
        for q in (0.5, 2.0):
            assert abs(conditional_axiomatic(joint, q) - conditional_chain(joint, q)) < 1e-12


def test_conditional_axiomatic_order_one_is_shannon_conditional():
    assert conditional_axiomatic(DEPENDENT, 1.0) == pytest.approx(
        shannon_conditional(DEPENDENT), abs=1e-13
    )


def test_conditional_axiomatic_direct_summation_oracle():
    for q in (0.5, 2.0):
        assert conditional_axiomatic(DEPENDENT, q) == pytest.approx(
            oracles.conditional_axiomatic(DEPENDENT.weights, q), abs=1e-13
        )
    assert abs(conditional_axiomatic(DEPENDENT, 2.0) - conditional_chain(DEPENDENT, 2.0)) > 1e-3


def test_conditional_axiomatic_escort_route_identity_with_cross_entropy():
    for seed in range(100):
        r = random_joint_matrix(seed + 500)
        for q in (0.5, 2.0):
            p_w = marginal_a(r).weights
            p_escort = Distribution(p_w**q / (p_w**q).sum())
            naive = Distribution(joint_escort_naive(r, q).ravel())
            expected = (cross_shannon(r, q).value - shannon(p_escort).value) / q - (
                1.0 - q
            ) / q * (renyi(naive, 1.0 / q).value - renyi(p_escort, 1.0 / q).value)
            assert abs(conditional_axiomatic(r, q) - expected) < 1e-10


def test_two_route_gap_identity():
    for seed in range(200):
        r = random_joint_matrix(seed + 900)
        for q in (0.5, 0.7, 1.5, 2.0, 3.0):
            gap = conditional_axiomatic(r, q) - conditional_chain(r, q)
            assert abs(gap - s_gap(r, q) / q) < 1e-10


def test_residual_zero_on_products():
    for seed in range(100):
        joint = random_product(seed + 50)
        for q in (0.5, 2.0):
            assert abs(additivity_residual(joint, q)) < 1e-10


def test_residual_zero_at_order_one():
    for seed in range(30):
        assert abs(additivity_residual(random_joint_matrix(seed), 1.0)) < 1e-10


def test_residual_on_dependent_example():
    value = additivity_residual(DEPENDENT, 2.0)
    assert value == pytest.approx(-0.006969288155138753, abs=1e-12)
    assert value == pytest.approx(oracles.additivity_residual(DEPENDENT.weights, 2.0), abs=1e-12)


def test_symmetric_joint_satisfies_additivity_despite_dependence():
    # Escort consistency, not independence, is what the composition rule needs.
    for q in (0.5, 2.0, 3.0):
        assert abs(additivity_residual(SYMMETRIC, q)) < 1e-14


def test_s_gap_examples():
    joint = random_product(7)
    assert abs(s_gap(joint, 2.0)) < 1e-12
    assert s_gap(DEPENDENT, 1.0) == 0.0
    assert s_gap(DEPENDENT, 2.0) == pytest.approx(0.04411917868, abs=1e-9)
    assert s_gap(DEPENDENT, 2.0) > 0.0
    assert s_gap(WITH_ZERO, 2.0) == pytest.approx(-0.03580084312044618, abs=1e-12)
    assert abs(s_gap(SYMMETRIC, 2.0)) < 1e-15


def test_minmax_bounds_product_joint_collapse():
    joint = random_product(11)
    lower, upper = minmax_bounds(joint, 2.0)
    assert abs(lower) < 1e-12 and abs(upper) < 1e-12


def test_minmax_bounds_order_one_straddle_zero():
    lower, upper = minmax_bounds(DEPENDENT, 1.0)
    assert lower <= 0.0 <= upper
    assert lower <= s_gap(DEPENDENT, 1.0) <= upper


def test_minmax_bounds_enclose_gap_everywhere():
    for seed in range(200):
        r = random_joint_matrix(seed + 2000)
        for q in (0.5, 0.7, 1.5, 2.0, 3.0):
            lower, upper = minmax_bounds(r, q)
            gap = s_gap(r, q)
            assert lower - 1e-12 <= gap <= upper + 1e-12
            assert lower <= 1e-12 and upper >= -1e-12


def test_minmax_bounds_enclose_negative_gap():
    lower, upper = minmax_bounds(WITH_ZERO, 2.0)
    assert lower < s_gap(WITH_ZERO, 2.0) < 0.0 < upper


def test_corrected_conditional_identity_cases():
    joint = random_product(13)
    for q in (0.5, 2.0):
        base = kn_map_inv(conditional_axiomatic(joint, q), q)
        assert abs(corrected_conditional(joint, q) - base) < 1e-9
    base = kn_map_inv(conditional_axiomatic(DEPENDENT, 1.0), 1.0)
    assert corrected_conditional(DEPENDENT, 1.0) == base


def test_corrected_conditional_restores_additivity():
    for seed in range(150):
        r = random_joint_matrix(seed + 4000)
        for q in (0.5, 0.7, 1.5, 2.0, 3.0):
            joint_value = hybrid_joint(r, q).value
            marg_value = hybrid(marginal_a(r), q).value
            corrected = corrected_conditional(r, q)
            assert abs(joint_value - q_add(marg_value, corrected, q)) < 1e-9


def test_corrected_conditional_on_dependent_example():
    corrected = corrected_conditional(DEPENDENT, 2.0)
    joint_value = hybrid_joint(DEPENDENT, 2.0).value
    marg_value = hybrid(marginal_a(DEPENDENT), 2.0).value
    assert abs(joint_value - q_add(marg_value, corrected, 2.0)) < 1e-12
    # the tilt lands exactly on the chain-route conditional
    assert corrected == pytest.approx(
        kn_map_inv(conditional_chain(DEPENDENT, 2.0), 2.0), abs=1e-12
    )


def test_order_one_collapse_of_all_conditionals():
    for seed in range(30):
        r = random_joint_matrix(seed + 6000)
        reference = shannon_conditional(r)
        assert abs(conditional_chain(r, 1.0) - reference) < 1e-8
        assert abs(conditional_axiomatic(r, 1.0) - reference) < 1e-8
        assert abs(corrected_conditional(r, 1.0) - reference) < 1e-8


def test_chain_rule_report_fields_are_consistent():
    for seed, q in ((1, 0.5), (2, 2.0), (3, 3.0)):
        r = random_joint_matrix(seed + 8000)
        report = chain_rule_report(r, q)
        assert report.q.value == q
        assert report.joint_entropy == pytest.approx(
            oracles.aczel_daroczy(r.weights.ravel(), q), abs=1e-12
        )
        assert report.marginal_entropy == pytest.approx(
            oracles.aczel_daroczy(r.weights.sum(axis=0), q), abs=1e-12
        )
        assert report.gap == pytest.approx(
            report.conditional_axiomatic - report.conditional_chain, abs=1e-14
        )
        assert report.gap == pytest.approx(report.s_gap / q, abs=1e-10)
        assert report.lower_bound - 1e-12 <= report.s_gap <= report.upper_bound + 1e-12
        assert report.lower_bound <= 1e-12 and report.upper_bound >= -1e-12
        assert report.residual == pytest.approx(additivity_residual(r, q), abs=1e-14)
        assert abs(report.corrected_residual) < 1e-9
        assert report.conditional_chain == pytest.approx(
            oracles.conditional_chain(r.weights, q), abs=1e-12
        )
        assert report.conditional_axiomatic == pytest.approx(
            oracles.conditional_axiomatic(r.weights, q), abs=1e-12
        )
        assert report.residual == pytest.approx(
            oracles.additivity_residual(r.weights, q), abs=1e-12
        )


# Each case computes from a validated joint r and its validated A-marginal p.
NO_OBJECT_CASES = {
    "chain_rule_report": lambda r, p, q: chain_rule_report(r, q),
    "escort": lambda r, p, q: escort(p, q),
    "conditional_escort": lambda r, p, q: conditional_escort(r, q),
    "joint_escort_correct": lambda r, p, q: joint_escort_correct(r, q),
    "escort_ratio": lambda r, p, q: escort_ratio(r, q),
    "is_escort_consistent": lambda r, p, q: is_escort_consistent(r, q),
    "cross_shannon": lambda r, p, q: cross_shannon(r, q),
}


@pytest.mark.parametrize(
    "case, q",
    [
        # The chain_rule_report cases keep their original ids: [0.5], [1.0], [2.0].
        pytest.param(case, q, id=str(q) if case == "chain_rule_report" else f"{case}-{q}")
        for case in NO_OBJECT_CASES
        for q in (0.5, 1.0, 2.0)
    ],
)
def test_chain_rule_report_builds_no_validated_objects(monkeypatch, case, q):
    # The inputs are validated once at their constructors; the report and the
    # escort functions work on their arrays and must not rebuild or
    # revalidate probability objects.
    joint = random_joint(4, 3, 0)
    marginal = marginal_a(joint)
    built = []
    for cls in (Distribution, JointDistribution, ConditionalDistribution):
        original = cls.__post_init__

        def counted(self, original=original):
            built.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    NO_OBJECT_CASES[case](joint, marginal, q)
    assert built == []


def test_report_on_zero_cell_joint():
    report = chain_rule_report(WITH_ZERO, 2.0)
    assert np.isfinite(report.residual)
    assert abs(report.corrected_residual) < 1e-12
    assert report.gap == pytest.approx(report.s_gap / 2.0, abs=1e-12)


@pytest.mark.parametrize("joint", [DEPENDENT, TINY_CELL], ids=["dependent", "tiny-cell"])
def test_identities_hold_at_and_near_unit_order(joint):
    # No order near 1 is snapped to the Shannon forms, so closure after the
    # tilt and gap = s_gap / q hold there as they do at every other order.
    for q in (1.0, *NEAR_UNIT_ORDERS):
        report = chain_rule_report(joint, q)
        assert abs(report.corrected_residual) <= 1e-12, q
        assert abs(q * report.gap - report.s_gap) <= 1e-12, q


def test_corrected_residual_closes_at_large_order():
    # D_q(A, B) is about 2.5e-3 here; the tilt is applied in the additive
    # scale, so no two exponentially large terms cancel.
    report = chain_rule_report(TINY_CELL, 400.0)
    assert abs(report.corrected_residual) <= 1e-12
