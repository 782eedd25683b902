"""Chain-rule quantities: the two conditionals, the residual, the sandwich,
and the exact closure of the corrected conditional.

SYMMETRIC below is dependent but escort-consistent (permuted conditional
columns), so its residual vanishes; DEPENDENT is a generic dependent joint
with a genuine violation. Frozen values were computed with the direct-formula
oracles in oracles.py.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escortropy import (
    ChainRuleReport,
    ConditionalDistribution,
    Distribution,
    EscortropyError,
    JointDistribution,
    ZeroMarginalColumnError,
    chain_rule_report,
    corrected_conditional,
    drop_zero_columns,
    escort,
    escort_ratio,
    is_escort_consistent,
    joint_escort_correct,
    aczel_daroczy,
    chain_rule_grid,
    hybrid,
    joint_escort_naive,
    JointStack,
    kn_map_inv,
    marginal_a,
    product_joint,
    q_add,
    random_joint,
    renyi,
    shannon,
)
from escortropy import chain_rules
from escortropy.prob import _masked_log

import oracles

SYMMETRIC = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
DEPENDENT_CELLS = [[0.2, 0.1], [0.3, 0.4]]
DEPENDENT = JointDistribution(DEPENDENT_CELLS)
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


def test_the_kernels_log_ratio_is_the_masked_log_with_plus_zero_at_a_minus_zero_cell():
    w = JointDistribution([[0.5, -0.0], [0.25, 0.25], [0.0, 0.0]]).weights
    _, _, cond, log_rel, top, *_ = chain_rules._order_free(w[None])
    assert np.signbit(cond[cond == 0.0]).any()
    assert log_rel.tobytes() == _masked_log(cond / top).tobytes()
    assert not np.signbit(log_rel[log_rel == 0.0]).any()


def test_conditional_chain_on_products_reduces_to_marginal():
    rng = np.random.default_rng(0)
    p_a = Distribution(rng.dirichlet(np.ones(4)))
    q_b = Distribution(rng.dirichlet(np.ones(3)))
    joint = product_joint(p_a, q_b)
    for q in (0.5, 2.0, 3.0):
        assert chain_rule_report(joint, q).conditional_chain == pytest.approx(
            aczel_daroczy(q_b, q), abs=1e-12
        )


def test_conditional_chain_order_one_is_shannon_conditional():
    assert chain_rule_report(DEPENDENT, 1.0).conditional_chain == pytest.approx(
        shannon_conditional(DEPENDENT), abs=1e-13
    )


def test_conditional_chain_subtraction_oracle():
    for q in (0.5, 2.0):
        assert chain_rule_report(SYMMETRIC, q).conditional_chain == pytest.approx(
            oracles.conditional_chain(SYMMETRIC.weights, q), abs=1e-13
        )
    assert chain_rule_report(SYMMETRIC, 2.0).conditional_chain == pytest.approx(
        0.30469027843890917, abs=1e-13
    )


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
            expected = (shannon(naive) - shannon(p_escort)) / q - (
                1.0 - q
            ) / q * (renyi(naive, 1.0 / q) - renyi(p_escort, 1.0 / q))
            assert abs(chain_rule_report(r, q).conditional_chain - expected) < 1e-10


def test_conditional_axiomatic_equals_chain_on_products():
    for seed in range(50):
        joint = random_product(seed)
        for q in (0.5, 2.0):
            report = chain_rule_report(joint, q)
            assert abs(report.conditional_axiomatic - report.conditional_chain) < 1e-12


def test_conditional_axiomatic_order_one_is_shannon_conditional():
    assert chain_rule_report(DEPENDENT, 1.0).conditional_axiomatic == pytest.approx(
        shannon_conditional(DEPENDENT), abs=1e-13
    )


def test_conditional_axiomatic_direct_summation_oracle():
    for q in (0.5, 2.0):
        assert chain_rule_report(DEPENDENT, q).conditional_axiomatic == pytest.approx(
            oracles.conditional_axiomatic(DEPENDENT.weights, q), abs=1e-13
        )
    report = chain_rule_report(DEPENDENT, 2.0)
    assert abs(report.conditional_axiomatic - report.conditional_chain) > 1e-3


def test_conditional_axiomatic_escort_route_identity_with_cross_entropy():
    for seed in range(100):
        r = random_joint_matrix(seed + 500)
        for q in (0.5, 2.0):
            p_w = marginal_a(r).weights
            p_escort = Distribution(p_w**q / (p_w**q).sum())
            naive = Distribution(joint_escort_naive(r, q).ravel())
            expected = (oracles.cross_shannon(r.weights, q) - shannon(p_escort)) / q - (
                1.0 - q
            ) / q * (renyi(naive, 1.0 / q) - renyi(p_escort, 1.0 / q))
            assert abs(chain_rule_report(r, q).conditional_axiomatic - expected) < 1e-10


def test_two_route_gap_identity():
    for seed in range(200):
        r = random_joint_matrix(seed + 900)
        for q in (0.5, 0.7, 1.5, 2.0, 3.0):
            report = chain_rule_report(r, q)
            gap = report.conditional_axiomatic - report.conditional_chain
            assert abs(gap - report.s_gap / q) < 1e-10


def test_residual_zero_on_products():
    for seed in range(100):
        joint = random_product(seed + 50)
        for q in (0.5, 2.0):
            assert abs(chain_rule_report(joint, q).residual) < 1e-10


def test_residual_zero_at_order_one():
    for seed in range(30):
        assert abs(chain_rule_report(random_joint_matrix(seed), 1.0).residual) < 1e-10


def test_residual_on_dependent_example():
    value = chain_rule_report(DEPENDENT, 2.0).residual
    assert value == pytest.approx(-0.006969288155138753, abs=1e-12)
    assert value == pytest.approx(oracles.additivity_residual(DEPENDENT.weights, 2.0), abs=1e-12)


def test_symmetric_joint_satisfies_additivity_despite_dependence():
    # Escort consistency, not independence, is what the composition rule needs.
    for q in (0.5, 2.0, 3.0):
        assert abs(chain_rule_report(SYMMETRIC, q).residual) < 1e-14


def test_s_gap_examples():
    joint = random_product(7)
    assert abs(chain_rule_report(joint, 2.0).s_gap) < 1e-12
    assert chain_rule_report(DEPENDENT, 1.0).s_gap == 0.0
    dependent = chain_rule_report(DEPENDENT, 2.0).s_gap
    assert dependent == pytest.approx(0.04411917868, abs=1e-9)
    assert dependent > 0.0
    assert chain_rule_report(WITH_ZERO, 2.0).s_gap == pytest.approx(
        -0.03580084312044618, abs=1e-12
    )
    assert abs(chain_rule_report(SYMMETRIC, 2.0).s_gap) < 1e-15


def test_minmax_bounds_product_joint_collapse():
    joint = random_product(11)
    report = chain_rule_report(joint, 2.0)
    assert abs(report.lower_bound) < 1e-12 and abs(report.upper_bound) < 1e-12


def test_minmax_bounds_order_one_straddle_zero():
    report = chain_rule_report(DEPENDENT, 1.0)
    assert report.lower_bound <= 0.0 <= report.upper_bound
    assert report.lower_bound <= report.s_gap <= report.upper_bound


def test_minmax_bounds_enclose_gap_everywhere():
    for seed in range(200):
        r = random_joint_matrix(seed + 2000)
        for q in (0.5, 0.7, 1.5, 2.0, 3.0):
            report = chain_rule_report(r, q)
            lower, upper = report.lower_bound, report.upper_bound
            gap = report.s_gap
            assert lower - 1e-12 <= gap <= upper + 1e-12
            assert lower <= 1e-12 and upper >= -1e-12


def test_minmax_bounds_enclose_negative_gap():
    report = chain_rule_report(WITH_ZERO, 2.0)
    assert report.lower_bound < report.s_gap < 0.0 < report.upper_bound


def test_corrected_conditional_identity_cases():
    joint = random_product(13)
    for q in (0.5, 2.0):
        base = kn_map_inv(chain_rule_report(joint, q).conditional_axiomatic, q)
        assert abs(corrected_conditional(joint, q) - base) < 1e-9
    base = kn_map_inv(chain_rule_report(DEPENDENT, 1.0).conditional_axiomatic, 1.0)
    assert corrected_conditional(DEPENDENT, 1.0) == base


def test_corrected_conditional_restores_additivity():
    for seed in range(150):
        r = random_joint_matrix(seed + 4000)
        for q in (0.5, 0.7, 1.5, 2.0, 3.0):
            joint_value = hybrid(Distribution(r.weights.ravel()), q)
            marg_value = hybrid(marginal_a(r), q)
            corrected = corrected_conditional(r, q)
            assert abs(joint_value - q_add(marg_value, corrected, q)) < 1e-9


def test_corrected_conditional_on_dependent_example():
    corrected = corrected_conditional(DEPENDENT, 2.0)
    joint_value = hybrid(Distribution(DEPENDENT.weights.ravel()), 2.0)
    marg_value = hybrid(marginal_a(DEPENDENT), 2.0)
    assert abs(joint_value - q_add(marg_value, corrected, 2.0)) < 1e-12
    # the tilt lands exactly on the chain-route conditional
    assert corrected == pytest.approx(
        kn_map_inv(chain_rule_report(DEPENDENT, 2.0).conditional_chain, 2.0), abs=1e-12
    )


def test_order_one_collapse_of_all_conditionals():
    for seed in range(30):
        r = random_joint_matrix(seed + 6000)
        reference = shannon_conditional(r)
        report = chain_rule_report(r, 1.0)
        assert abs(report.conditional_chain - reference) < 1e-8
        assert abs(report.conditional_axiomatic - reference) < 1e-8
        assert abs(corrected_conditional(r, 1.0) - reference) < 1e-8


def test_chain_rule_report_fields_are_consistent():
    for seed, q in ((1, 0.5), (2, 2.0), (3, 3.0)):
        r = random_joint_matrix(seed + 8000)
        report = chain_rule_report(r, q)
        assert report.q == q
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
        # The residual, computed on arrays, against the scalar composition of
        # the report's own additive-scale fields.
        composed = kn_map_inv(report.joint_entropy, q) - q_add(
            kn_map_inv(report.marginal_entropy, q), kn_map_inv(report.conditional_axiomatic, q), q
        )
        assert report.residual == pytest.approx(composed, abs=1e-14)
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
    "joint_escort_naive": lambda r, p, q: joint_escort_naive(r, q),
    "joint_escort_correct": lambda r, p, q: joint_escort_correct(r, q),
    "escort_ratio": lambda r, p, q: escort_ratio(r, q),
    "is_escort_consistent": lambda r, p, q: is_escort_consistent(r, q),
    "corrected_conditional": lambda r, p, q: corrected_conditional(r, q),
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


KERNEL_SHAPES = [(1, 3), (3, 1), (2, 2), (4, 3), (8, 5)]
KERNEL_ORDERS = [0.05, 0.5, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 2.0, 5.0]
VALUE_FIELDS = [field.name for field in fields(ChainRuleReport)][1:]


def joint_stack(shape, seed, count=5):
    """Seeded Dirichlet joints of one shape. With two or more B outcomes,
    joints 1 and 3 get a zero B row and joint 2 one zero cell: zero cells,
    never a zero column."""
    n_b, n_a = shape
    w = np.random.default_rng(seed).dirichlet(np.ones(n_b * n_a), size=count)
    w = w.reshape(count, n_b, n_a)
    if n_b > 1:
        w[1::2, 0, :] = 0.0
        w[2, -1, -1] = 0.0
    return w / w.sum(axis=(1, 2), keepdims=True)


@pytest.mark.parametrize("q", [2, np.float64(2.0), np.float32(0.5)])
def test_report_orders_are_builtin_floats(q):
    report = chain_rule_report(DEPENDENT, q)
    reports = chain_rule_grid(JointStack([DEPENDENT_CELLS]), [q])
    assert type(report.q) is type(reports.q.tolist()[0]) is type(reports[0, 0].q) is float
    assert reports.q.dtype == np.float64
    assert report.q == reports.q[0] == float(q)


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_stack_rows_equal_lone_reports_bit_for_bit(shape):
    # Each joint's row must depend neither on the other joints of its stack
    # nor on the other orders of its grid, which share the q-independent
    # passes.
    weights = joint_stack(shape, seed=10 * shape[0] + shape[1])
    grid = chain_rule_grid(JointStack(weights), KERNEL_ORDERS)
    assert grid.q.tolist() == KERNEL_ORDERS
    for g, q in enumerate(KERNEL_ORDERS):
        reports = chain_rule_grid(JointStack(weights), [q])
        assert reports.residual.shape[1] == grid.residual.shape[1] == len(weights)
        for t, w in enumerate(weights):
            lone = chain_rule_report(JointDistribution(w), q)
            row = reports[0, t]
            assert row.q == lone.q
            for name in VALUE_FIELDS:
                expected = getattr(lone, name).hex()
                assert getattr(row, name).hex() == expected, (q, t, name)
                assert float(getattr(reports, name)[0, t]).hex() == expected, (q, t, name)
                assert getattr(grid[g, t], name).hex() == expected, (q, t, name)


def record_passes(monkeypatch):
    """The number of orders of each kernel pass, as chain_rule_grid runs them."""
    sizes = []
    evaluate = chain_rules._evaluate

    def counted(passes, orders):
        sizes.append(len(orders))
        return evaluate(passes, orders)

    monkeypatch.setattr(chain_rules, "_evaluate", counted)
    return sizes


@pytest.mark.parametrize("per_pass, sizes", [(1, [1] * 7), (2, [2, 2, 2, 1]), (3, [3, 3, 1]), (7, [7])])
def test_a_grid_split_over_passes_gets_the_bits_of_one_order_a_call(monkeypatch, per_pass, sizes):
    weights = joint_stack((4, 3), seed=43)
    lone = [chain_rule_grid(JointStack(weights), [q]) for q in KERNEL_ORDERS]
    monkeypatch.setattr(chain_rules, "PASS_CELLS", per_pass * weights.size)
    passes = record_passes(monkeypatch)
    grid = chain_rule_grid(JointStack(weights), KERNEL_ORDERS)
    assert passes == sizes
    for g, (q, expected) in enumerate(zip(KERNEL_ORDERS, lone)):
        assert grid.q[g] == expected.q[0] == q
        for name in VALUE_FIELDS:
            for t in range(len(weights)):
                got, want = getattr(grid, name)[g, t], getattr(expected, name)[0, t]
                assert float(got).hex() == float(want).hex(), (q, t, name)


def test_a_joint_above_the_pass_budget_runs_one_order_a_pass(monkeypatch):
    n_b, n_a = 256, 257
    assert n_b * n_a > chain_rules.PASS_CELLS
    passes = record_passes(monkeypatch)
    orders = [0.5, 1.0, 2.0]
    grid = chain_rule_grid(random_joint(n_b, n_a, 7), orders)
    assert passes == [1, 1, 1]
    assert grid.q.tolist() == orders
    for name in VALUE_FIELDS:
        assert getattr(grid, name).shape == (len(orders), 1), name


@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("orders", [KERNEL_ORDERS[:1], KERNEL_ORDERS], ids=["one-order", "seven-orders"])
def test_every_field_of_a_grid_is_orders_by_joints(orders, count):
    grid = chain_rule_grid(JointStack(joint_stack((4, 3), seed=5)[:count]), orders)
    assert grid.q.tolist() == orders
    for name in VALUE_FIELDS:
        assert getattr(grid, name).shape == (len(orders), count), name


def test_an_empty_grid_of_orders_is_refused():
    with pytest.raises(ValueError, match="empty"):
        chain_rule_grid(DEPENDENT, [])


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_stack_fields_agree_with_oracles(shape):
    # Relative to the size of what each field is computed from: gap, s_gap,
    # the bounds and the residuals vanish on some joints and orders, so they
    # are measured against max(1, |value|), and the residuals against the
    # deformed joint entropy, too, which they are differences of.
    weights = joint_stack(shape, seed=100 + 10 * shape[0] + shape[1])
    for q in KERNEL_ORDERS:
        reports = chain_rule_grid(JointStack(weights), [q])
        for t, w in enumerate(weights):
            expected = oracles.chain_rule_fields(w, q)
            deformed_joint = abs(oracles.kn_map_inv(expected["joint_entropy"], q))
            for name, value in expected.items():
                scale = max(1.0, abs(value))
                if name.endswith("residual"):
                    scale = max(scale, deformed_joint)
                got = float(getattr(reports, name)[0, t])
                assert abs(got - value) <= 1e-12 * scale, (q, t, name, got, value)


ACCURACY_ORDERS = [1e-3, 0.05, 0.5, 2.0, 5.0, 20.0, 60.0]


@pytest.mark.parametrize("shape", [(4, 3), (6, 5)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_gap_and_s_gap_keep_nine_digits_against_50_digits(shape):
    # Both come from the column excess N - P, formed from the column power
    # sums less the lead column's. A difference of two entropies (axiomatic -
    # chain) or of two sums over the cells would lose every digit of q * gap
    # at q = 60.
    pytest.importorskip("mpmath")
    n_b, n_a = shape
    weights = np.random.default_rng(n_b * n_a).dirichlet(np.ones(n_b * n_a), size=5)
    weights = weights.reshape(5, n_b, n_a)
    grid = chain_rule_grid(JointStack(weights), ACCURACY_ORDERS)
    for g, q in enumerate(ACCURACY_ORDERS):
        for t, w in enumerate(weights):
            reference = float(oracles.mp_chain_rule_fields(w, q)["s_gap"])
            for name, value in (("s_gap", grid.s_gap[g, t]), ("q * gap", q * grid.gap[g, t])):
                assert abs(value - reference) <= 1e-9 * abs(reference), (q, t, name, value)


# Orders log-uniform in [1e-2, 1e2], and joints of up to 4x4 cells, zero
# cells included; a column drawn all zero is replaced by a uniform one.
LOG_ORDERS = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


def _joints(n_a):
    cells = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))

    def of_shape(shape):
        size = shape[0] * shape[1]
        return st.lists(cells, min_size=size, max_size=size).map(lambda xs: np.reshape(xs, shape))

    return (
        st.tuples(st.integers(1, 4), n_a)
        .flatmap(of_shape)
        .map(lambda w: np.where(w.sum(axis=0) > 0.0, w, 1.0))
        .map(lambda w: w / w.sum())
    )


def _gap_scale(N, P, mu):
    """sum_l (N_l + P_l) |mu_l|, the size of the terms of the gap identity."""
    return sum((n + p) * abs(m) for n, p, m in zip(N, P, mu))


@settings(max_examples=40, deadline=None)
@given(_joints(st.integers(1, 4)), LOG_ORDERS)
def test_gap_is_the_column_excess_weighted_by_the_escort_mean_of_ln_r(w, q):
    # gap = sum_l (N_l - P_l) mu_l at every n_a, in 50 digits. Consistency at
    # q is N = P, so the gap also vanishes where the mu_l make it cancel.
    mpmath = pytest.importorskip("mpmath")
    N, P, mu = oracles.mp_gap_terms(w, q)
    expected = oracles.mp_chain_rule_fields(w, q)["gap"]
    with mpmath.workdps(50):
        identity = mpmath.fsum((n - p) * m for n, p, m in zip(N, P, mu))
        assert abs(identity - expected) <= mpmath.mpf("1e-40") * (1 + _gap_scale(N, P, mu))


@settings(max_examples=40, deadline=None)
@given(_joints(st.just(2)), LOG_ORDERS)
def test_two_column_gap_has_the_sign_of_its_two_factors(w, q):
    # For n_a = 2, N_2 - P_2 = -(N_1 - P_1), so gap = (N_1 - P_1)(mu_1 - mu_2).
    # Over 800 seeded two-column joints, half of them with zero cells,
    # the kernel's gap was off by at most 3e-16 of the terms' size, so its
    # sign is checked wherever the 50-digit gap is above 1e-12 of that size.
    mpmath = pytest.importorskip("mpmath")
    N, P, mu = oracles.mp_gap_terms(w, q)
    exact = oracles.mp_chain_rule_fields(w, q)["gap"]
    if abs(exact) > 1e-12 * _gap_scale(N, P, mu):
        gap = chain_rule_report(JointDistribution(w), q).gap
        assert np.sign(gap) == mpmath.sign(N[0] - P[0]) * mpmath.sign(mu[0] - mu[1]), (gap, exact)


SMALL_COLUMN_JOINTS = {
    # p_2^q underflows at q = 60, so its marginal escort is exactly 0.
    "dependent": [[0.6, 5e-7], [0.399999, 5e-7]],
    # p_2^q is normal, but the column's naive escort cells underflow.
    "product": np.outer(np.full(8, 1 / 8), [1 - 1e-5, 1e-5]),
}


@pytest.mark.parametrize("name", SMALL_COLUMN_JOINTS)
def test_a_column_whose_naive_escort_underflows_keeps_every_field_finite(name):
    pytest.importorskip("mpmath")
    w = np.asarray(SMALL_COLUMN_JOINTS[name], dtype=float)
    for q in (20.0, 60.0, 200.0):
        report = chain_rule_report(JointDistribution(w), q)
        expected = oracles.mp_chain_rule_fields(w, q)
        for field in VALUE_FIELDS:
            got, value = getattr(report, field), float(expected[field])
            assert abs(got - value) <= 1e-12 * max(1.0, abs(value)), (q, field, got, value)


def test_a_lone_joint_is_read_as_a_stack_of_one():
    lone = chain_rule_grid(DEPENDENT, KERNEL_ORDERS)
    stacked = chain_rule_grid(JointStack([DEPENDENT_CELLS]), KERNEL_ORDERS)
    assert lone.residual.shape == (len(KERNEL_ORDERS), 1)
    for g in range(len(KERNEL_ORDERS)):
        for name in VALUE_FIELDS:
            assert getattr(lone, name)[g].tobytes() == getattr(stacked, name)[g].tobytes(), name


def _nan_cell(w):
    w[2, 0, 0] = np.nan
    return w


def _negative_cell(w):
    w[2, 1, 1] = -0.1
    return w


def _unnormalized_joint(w):
    w[2] *= 1.1
    return w


def _zero_column(w):
    w[2, :, 1] = 0.0
    w[2] /= w[2].sum()
    return w


@pytest.mark.parametrize(
    "spoil", [_nan_cell, _negative_cell, _unnormalized_joint, _zero_column],
    ids=["nan", "negative", "unnormalized", "zero-column"],
)
def test_stack_rejects_what_the_lone_path_rejects(spoil):
    weights = spoil(joint_stack((3, 2), seed=4))
    with pytest.raises(EscortropyError) as lone:
        chain_rule_report(JointDistribution(weights[2]), 2.0)
    with pytest.raises(EscortropyError) as stacked:
        chain_rule_grid(JointStack(weights), [2.0])
    with pytest.raises(EscortropyError) as gridded:
        chain_rule_grid(JointStack(weights), KERNEL_ORDERS)
    assert type(stacked.value) is type(gridded.value) is type(lone.value)


def test_oracles_keep_their_digits_next_to_order_one():
    # exp(x) - 1 keeps about seven digits when (1 - q) x is near 1e-9, and
    # then gives the dependent residual the wrong sign; expm1 keeps them.
    q = 1.0 + 1e-9
    assert oracles.hybrid(DEPENDENT.weights, q) == pytest.approx(
        hybrid(Distribution(DEPENDENT.weights.ravel()), q), abs=1e-12
    )
    residual = chain_rule_report(DEPENDENT, q).residual
    assert residual < 0.0
    assert oracles.additivity_residual(DEPENDENT.weights, q) < 0.0


PADDING_ORDERS = [0.05, 0.5, 1.0, 2.0, 5.0]


@pytest.mark.parametrize("shape", [(2, 2), (4, 3), (3, 5), (6, 6)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_a_zero_row_or_column_changes_no_field(shape):
    # Expansibility: an outcome of probability zero changes nothing. A zero
    # A column is refused by the kernel and reduced by drop_zero_columns; a
    # zero B row is evaluated as it is. Orders above 5 are left out: there
    # the min-max bounds come from a cancellation that loses digits as q
    # grows, so a reordered sum moves them by more each order. On these
    # joints the worst move of a bound was 2.6e-15 relative for q <= 5, but
    # 7.1e-13 at q = 100 (upper_bound 2.9e7 of a 3x5 joint), next to the
    # tolerance.
    n_b, n_a = shape
    names = [field.name for field in fields(ChainRuleReport)][1:]
    for seed in range(50):
        joint = random_joint(n_b, n_a, seed)
        expected = chain_rule_grid(joint, PADDING_ORDERS)
        padded = []
        for column in range(n_a + 1):
            wide = JointDistribution(np.insert(joint.weights, column, 0.0, axis=1))
            with pytest.raises(ZeroMarginalColumnError) as info:
                chain_rule_grid(wide, PADDING_ORDERS)
            assert info.value.column == column
            reduced, kept = drop_zero_columns(wide)
            assert column not in kept and len(kept) == n_a
            padded.append(reduced)
        padded += [JointDistribution(np.insert(joint.weights, row, 0.0, axis=0)) for row in range(n_b + 1)]
        for other in padded:
            got = chain_rule_grid(other, PADDING_ORDERS)
            for name in names:
                want = getattr(expected, name)
                assert np.all(np.abs(getattr(got, name) - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (seed, name)
