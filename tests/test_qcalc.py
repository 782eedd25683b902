import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from escortropy import (
    DomainCutoffError,
    NonpositiveArgumentError,
    kn_map,
    kn_map_inv,
    q_add,
    q_exp,
    q_log,
)

import oracles

Q_GRID = (0.3, 0.5, 1.0, 1.5, 2.0)


def test_q_exp_examples():
    assert q_exp(1.0, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert q_exp(1.0, 1.0) == pytest.approx(math.e, abs=1e-12)
    with pytest.raises(DomainCutoffError):
        q_exp(2.0, 2.0)


def test_q_log_examples():
    assert q_log(2.0, 2.0) == pytest.approx(0.5, abs=1e-15)
    for q in Q_GRID:
        assert q_log(1.0, q) == 0.0
    assert q_log(q_exp(0.3, 0.7), 0.7) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(NonpositiveArgumentError):
        q_log(0.0, 0.5)
    with pytest.raises(NonpositiveArgumentError):
        q_log(-1.0, 2.0)


def test_kn_map_examples():
    assert kn_map(0.37, 1.0) == 0.37
    assert kn_map(1.0, 0.5) == pytest.approx(2.0 * math.log(1.5), abs=1e-12)
    with pytest.raises(DomainCutoffError):
        kn_map(1.0, 2.0)  # 1 + (1-2)*1 = 0


def test_kn_map_inv_examples():
    for q in Q_GRID:
        assert kn_map_inv(0.0, q) == 0.0
    assert kn_map_inv(kn_map(0.4, 1.5), 1.5) == pytest.approx(0.4, abs=1e-12)
    assert kn_map_inv(0.81093, 0.5) == pytest.approx(1.0, abs=1e-5)


def test_an_array_of_orders_gets_the_bits_of_each_order_alone():
    # Row g of the result is the call at orders[g], x itself at q = 1.
    orders = [0.05, 0.5, 1.0, 1.0 - 1e-9, 2.0, 60.0]
    x = np.array([[-3.0, -1e-12, 0.0, 0.25, 1.7]])
    column = np.array(orders)[:, None]
    mapped = kn_map_inv(x, column)
    added = q_add(x, x[:, ::-1], column)
    assert mapped.shape == added.shape == (len(orders), x.shape[1])
    for g, q in enumerate(orders):
        assert mapped[g].tobytes() == kn_map_inv(x[0], q).tobytes(), q
        assert added[g].tobytes() == q_add(x[0], x[0, ::-1], q).tobytes(), q
    assert mapped[2].tobytes() == x[0].tobytes()


@pytest.mark.parametrize("q", [0.0, -2.0])
def test_deformed_algebra_takes_orders_below_the_entropy_range(q):
    # Only the entropy layer restricts q to q > 0.
    assert q_add(1.0, 1.0, q) == 3.0 - q
    assert kn_map(0.5, q) == math.log1p((1.0 - q) * 0.5) / (1.0 - q)
    assert kn_map_inv(kn_map(0.5, q), q) == pytest.approx(0.5, abs=1e-15)
    assert q_exp(0.5, q) == math.exp(kn_map(0.5, q))


def test_q_add_examples():
    assert q_add(2.0, 3.0, 1.0) == 5.0
    assert q_add(2.0, 3.0, 0.5) == pytest.approx(8.0, abs=1e-12)
    assert q_add(1.0, 1.0, 0.0) == pytest.approx(3.0, abs=1e-15)
    for q in Q_GRID:
        assert q_add(0.7, 0.0, q) == 0.7
        assert q_add(0.3, 0.9, q) == q_add(0.9, 0.3, q)


def _in_domain(x, q):
    return 1.0 + (1.0 - q) * x > 1e-9


def _homomorphism_tolerance(a, b, q):
    # kn_map has slope 1/(1 + (1-q)x), so the rounding of x = q_add(a, b), of
    # order eps * (|a| + |b| + |(1-q)ab|), is amplified by that factor near the
    # domain edge; a fixed bound cannot hold there in double precision. The
    # edge is taken from the inputs alone, 1 + (1-q) q_add(a, b) being exactly
    # (1 + (1-q)a)(1 + (1-q)b), so the bound does not move with the value under
    # test.
    edge = abs((1.0 + (1.0 - q) * a) * (1.0 + (1.0 - q) * b))
    spread = abs(a) + abs(b) + abs((1.0 - q) * a * b)
    return 1e-10 + 4.0 * sys.float_info.epsilon * spread / edge


@settings(max_examples=200, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.sampled_from(Q_GRID))
@example(a=0.9375, b=0.99999, q=2.0)  # 1 + (1-q) q_add(a, b) = 6.25e-7
def test_homomorphism_property(a, b, q):
    assume(_in_domain(a, q) and _in_domain(b, q))
    lhs = kn_map(q_add(a, b, q), q)
    rhs = kn_map(a, q) + kn_map(b, q)
    tolerance = _homomorphism_tolerance(a, b, q)
    assert abs(lhs - rhs) < tolerance
    assert abs(lhs - oracles.kn_map(oracles.q_addition(a, b, q), q)) < tolerance


@settings(max_examples=200, deadline=None)
@given(st.floats(-3, 3), st.sampled_from(Q_GRID))
def test_mutual_inverses(x, q):
    assert abs(kn_map(kn_map_inv(x, q), q) - x) < 1e-10
    if _in_domain(x, q):
        assert abs(q_log(q_exp(x, q), q) - x) < 1e-10


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 50.0), st.sampled_from(Q_GRID))
def test_q_exp_of_q_log(y, q):
    assert q_exp(q_log(y, q), q) == pytest.approx(y, rel=1e-10)


# q = 1 +/- 10^-k from k = 5 on: at k = 4 the deformed functions sit about
# |q - 1| x^2 / 2 (|q - 1| ln(x)^2 / 2 for q_log) away from their limits,
# which exceeds rel=1e-4 at x = 3 and, for q_log, at x = 0.1.
NEAR_UNIT_ORDERS = [1.0 + sign * 10.0**-k for k in range(5, 15) for sign in (-1, 1)]


@pytest.mark.parametrize("q", NEAR_UNIT_ORDERS)
@pytest.mark.parametrize("x", [-1.5, -0.2, 0.1, 1.0, 3.0])
def test_limit_branch_continuity(q, x):
    assert q_exp(x, q) == pytest.approx(math.exp(x), rel=1e-4)
    assert kn_map(x, q) == pytest.approx(x, rel=1e-4)
    assert kn_map_inv(x, q) == pytest.approx(x, rel=1e-4)
    if x > 0:
        assert q_log(x, q) == pytest.approx(math.log(x), rel=1e-4, abs=1e-10)
