"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they happen).

Ensembles are seeded and therefore reproducible; instances are shared across
criteria through module-scoped fixtures. Two criteria state what the
mathematics promises, and both verdicts are confirmed against the
direct-formula oracles in `oracles.py`:

* criterion 2 (fixed witnesses): the dependent joint [[0.2, 0.1], [0.3, 0.4]]
  breaks the composition rule at q = 2 (residual -6.969e-3). Dependence alone
  is not enough: [[0.4, 0.1], [0.1, 0.4]] is dependent (mutual information
  0.193), but its conditional columns are permutations of each other, so the
  column power sums coincide at every order, the two joint escort
  constructions agree, and the rule closes. Escort consistency at q, not
  independence, closes the rule at q. The converse fails at one order and at
  every order: the dependent 2x3 joint CLOSING_AT_TWO is escort-inconsistent
  at q = 2, yet its residual there is -1.1e-16, and the rule breaks at
  q = 0.5, 1.5 and 3; CLOSING_EVERYWHERE (mutual information 0.174) is
  escort-inconsistent at every order of the grid and closes at all of them.
  With three A outcomes the two-outcome "iff" fails on full support too:
  CLOSING_THREE_COLUMNS is escort-inconsistent and closes at every order.
* criterion 8 (maximality): the uniform point maximizes the hybrid entropy iff
  q >= q*(n). q*(2) = 1/2, and for n >= 3 the threshold lies above 1/2
  (q* ~ 0.505 at n = 3 up to ~ 0.534 at n = 8), so at q = 0.5 the one-heavy
  configuration (a, b, ..., b) beats the uniform point (2.01173 against 2.0
  at n = 4) and `check_maximality` must report it. Its two-value reduction
  is cross-checked against a seeded multi-start ascent in `oracles.py`.
"""

import numpy as np
import pytest

from escortropy import (
    Distribution,
    JointDistribution,
    JointStack,
    chain_rule_grid,
    chain_rule_report,
    check_expansibility,
    check_maximality,
    corrected_conditional,
    escort,
    hybrid,
    is_escort_consistent,
    kn_map,
    kn_map_inv,
    aczel_daroczy,
    mutual_information,
    product_joint,
    q_add,
    q_log,
    renyi,
    sample_dependent_joint,
    shannon,
    tsallis,
)
from escortropy.cli import main
from escortropy.escort import _construction_gap

import oracles

Q_GRID = (0.5, 0.7, 1.5, 2.0, 3.0)
TRIALS = 1000
VIOLATING_WITNESS = JointDistribution([[0.2, 0.1], [0.3, 0.4]])
PERMUTED_COLUMNS_JOINT = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
# Found by bisection between the extreme-s_gap joints of a 2x3 ensemble.
CLOSING_AT_TWO = JointDistribution(
    [
        [0.1392314851572052, 0.14300587288686156, 0.056495156146297916],
        [0.4489888909029194, 0.04105303704601121, 0.17122555786070484],
    ]
)
# Uniform on an irregular support: the naive escort is the joint itself at
# every order, and ln of it is constant on the support, so s_gap vanishes.
CLOSING_EVERYWHERE = JointDistribution([[1 / 3, 1 / 3], [1 / 3, 0.0]])
# Three A outcomes, no zero cell: column 1 holds one cell of each of the
# constant columns 2 and 3, so S_1 = (S_2 + S_3) / 2 at every order for the
# column power sums S_l = sum_k r_kl^q, and s_gap vanishes (README,
# criterion 2) though the two joint escort constructions differ.
CLOSING_THREE_COLUMNS = JointDistribution(np.array([[1, 1, 5], [5, 1, 5]]) / 18)


def emit(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def grid_instances(weights, q_grid):
    """(joint, q, report) for the joint of each weight array and each order of
    q_grid, in that order, from one chain_rule_grid call per joint shape. A
    joint and its stack row are validated from the same weights, so they
    have the same bits."""
    by_shape = {}
    for t, w in enumerate(weights):
        by_shape.setdefault(w.shape, []).append(t)
    rows = [None] * len(weights)
    for members in by_shape.values():
        grid = chain_rule_grid(JointStack([weights[t] for t in members]), q_grid)
        for i, t in enumerate(members):
            rows[t] = [grid[g, i] for g in range(len(q_grid))]
    return [
        (joint, q, report)
        for joint, reports in zip(map(JointDistribution, weights), rows)
        for q, report in zip(q_grid, reports)
    ]


@pytest.fixture(scope="module")
def product_instances():
    """(joint, q, report) for 1000 seeded product joints x the q grid."""
    weights = []
    for t in range(TRIALS):
        rng = np.random.default_rng(1_000_000 + t)
        n_b, n_a = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        weights.append(
            product_joint(
                Distribution(rng.dirichlet(np.ones(n_a))),
                Distribution(rng.dirichlet(np.ones(n_b))),
            ).weights
        )
    return grid_instances(weights, Q_GRID)


@pytest.fixture(scope="module")
def dependent_instances():
    """(joint, 2.0, report) for 1000 seeded joints with mutual information > 0.05."""
    joints = [sample_dependent_joint(20_250_809, t, mi_floor=0.05) for t in range(TRIALS)]
    return grid_instances([joint.weights for joint in joints], [2.0])


def test_criterion_01_independence_additivity(product_instances):
    worst = max(abs(report.residual) for _, _, report in product_instances)
    passed = worst < 1e-9
    emit(1, passed, f"max |residual| over {len(product_instances)} product instances = {worst:.3e}")
    assert passed


def test_criterion_02_dependence_violation_ensemble(dependent_instances):
    violations = sum(1 for _, _, report in dependent_instances if abs(report.residual) > 1e-6)
    rate = violations / len(dependent_instances)
    passed = rate >= 0.99
    emit("2 (ensemble)", passed, f"{violations}/{len(dependent_instances)} dependent joints violate at q=2")
    assert passed


def test_criterion_02_dependence_violation_fixed_witness():
    residual = chain_rule_report(VIOLATING_WITNESS, 2.0).residual
    oracle_residual = oracles.additivity_residual(VIOLATING_WITNESS.weights, 2.0)
    violates = (
        mutual_information(VIOLATING_WITNESS) > 0.0
        and not is_escort_consistent(VIOLATING_WITNESS, 2.0)
        and abs(residual) > 1e-6
        and abs(residual - oracle_residual) < 1e-12
    )
    # Counter-witness: dependent, yet escort-consistent, so the rule closes.
    closing = max(
        max(
            abs(chain_rule_report(PERMUTED_COLUMNS_JOINT, q).residual),
            abs(oracles.additivity_residual(PERMUTED_COLUMNS_JOINT.weights, q)),
        )
        for q in Q_GRID
    )
    closes = (
        mutual_information(PERMUTED_COLUMNS_JOINT) > 0.05
        and all(is_escort_consistent(PERMUTED_COLUMNS_JOINT, q) for q in Q_GRID)
        and closing <= 1e-12
    )
    # Third witness: dependent and escort-inconsistent, yet the rule closes at
    # q = 2; consistency is sufficient for closure at one order, not necessary.
    at_two = chain_rule_report(CLOSING_AT_TWO, 2.0).residual
    oracle_at_two = oracles.additivity_residual(CLOSING_AT_TWO.weights, 2.0)
    elsewhere = {q: chain_rule_report(CLOSING_AT_TWO, q).residual for q in (0.5, 1.5, 3.0)}
    closes_at_one_order = (
        mutual_information(CLOSING_AT_TWO) > 0.05
        and not is_escort_consistent(CLOSING_AT_TWO, 2.0)
        and max(abs(at_two), abs(oracle_at_two)) <= 1e-12
        and all(abs(residual) > 1e-5 for residual in elsewhere.values())
        and all(
            abs(residual - oracles.additivity_residual(CLOSING_AT_TWO.weights, q)) < 1e-12
            for q, residual in elsewhere.items()
        )
    )
    # Fourth witness: dependent and escort-inconsistent at every order, yet
    # the rule closes at every order.
    everywhere = max(abs(chain_rule_report(CLOSING_EVERYWHERE, q).residual) for q in Q_GRID)
    closes_everywhere = (
        mutual_information(CLOSING_EVERYWHERE) > 0.17
        and not any(is_escort_consistent(CLOSING_EVERYWHERE, q) for q in Q_GRID)
        and everywhere <= 1e-15
    )
    passed = violates and closes and closes_at_one_order and closes_everywhere
    emit(
        "2 (fixed witness)",
        passed,
        f"witness residual at q=2 = {residual:.3e} (oracle {oracle_residual:.3e}); "
        f"permuted-column joint max |residual| over q grid = {closing:.3e}; "
        f"inconsistent joint residual at q=2 = {at_two:.3e} (oracle {oracle_at_two:.3e}), "
        f"at q=0.5 = {elsewhere[0.5]:.3e}; "
        f"max |residual| of the everywhere-closing joint over q grid = {everywhere:.3e}",
    )
    assert violates, (residual, oracle_residual)
    assert closes, closing
    assert closes_at_one_order, (at_two, oracle_at_two, elsewhere)
    assert closes_everywhere, everywhere


def test_criterion_02_closing_witness_s_gap_in_50_digits():
    # The rule closes at q exactly where s_gap(q) = 0, so the third witness is
    # checked against s_gap in 50 digits. At q = 2 the true value is a few
    # times -1e-17, below double rounding, so there the kernel meets an absolute
    # bound of a few ulps of the naive escort's entropy (at most ln of the
    # cell count). Moving 1e-4 between two cells gives s_gap of either sign
    # at q = 2, well above that bound: the zero is a genuine sign change.
    pytest.importorskip("mpmath")
    w = CLOSING_AT_TWO.weights
    rounding = 8 * np.finfo(float).eps * np.log(w.size)
    away = {q: float(oracles.mp_chain_rule_fields(w, q)["s_gap"]) for q in (0.5, 1.5, 3.0)}
    for q, reference in away.items():
        assert chain_rule_report(CLOSING_AT_TWO, q).s_gap == pytest.approx(reference, rel=1e-12)
    reference_at_two = float(oracles.mp_chain_rule_fields(w, 2.0)["s_gap"])
    at_two = chain_rule_report(CLOSING_AT_TWO, 2.0).s_gap
    assert abs(reference_at_two) < 1e-16
    assert abs(at_two - reference_at_two) < rounding
    moved = []
    for source, target in (((0, 1), (0, 0)), ((0, 0), (0, 1))):
        shifted = w.copy()
        shifted[source] -= 1e-4
        shifted[target] += 1e-4
        reference = float(oracles.mp_chain_rule_fields(shifted, 2.0)["s_gap"])
        value = chain_rule_report(JointDistribution(shifted), 2.0).s_gap
        assert abs(value - reference) < rounding
        moved.append(value)
    assert moved[0] < -1e-5 and moved[1] > 1e-5
    # The fourth witness closes at every order of the grid in 50 digits too.
    everywhere = max(
        abs(oracles.mp_chain_rule_fields(CLOSING_EVERYWHERE.weights, q)["s_gap"]) for q in Q_GRID
    )
    assert everywhere < 1e-50
    emit(
        "2 (50 digits)",
        True,
        f"s_gap at q=2 = {at_two:.3e} (50 digits {reference_at_two:.3e}); "
        f"after moving 1e-4 between two cells: {moved[0]:.5e}, {moved[1]:.5e}; "
        f"everywhere-closing joint max |s_gap| over q grid = {float(everywhere):.1e}",
    )


def test_criterion_02_three_column_witness_closes_without_consistency():
    # For two A outcomes the rule closes iff the joint is escort-consistent;
    # this 2x3 joint is inconsistent at every order tried and closes at all
    # of them. Moving one unit of its integer cells breaks the closure.
    pytest.importorskip("mpmath")
    w = CLOSING_THREE_COLUMNS.weights
    orders = (0.1, 0.5, 2.0, 7.0, 50.0)
    gaps = [_construction_gap(CLOSING_THREE_COLUMNS, q) for q in orders]
    kernel = max(abs(chain_rule_report(CLOSING_THREE_COLUMNS, q).s_gap) for q in orders)
    exact = max(abs(oracles.mp_chain_rule_fields(w, q)["s_gap"]) for q in orders)
    mutated = min(
        abs(oracles.mp_chain_rule_fields(np.array(cells) / np.sum(cells), q)["s_gap"])
        for cells in ([[2, 1, 5], [5, 1, 5]], [[1, 2, 5], [5, 1, 5]], [[1, 1, 5], [5, 1, 6]])
        for q in (0.5, 2.0)
    )
    passed = (
        not any(is_escort_consistent(CLOSING_THREE_COLUMNS, q) for q in orders)
        and all(3e-3 < gap < 0.34 for gap in gaps)
        and kernel <= 1e-15
        and exact < 1e-45
        and mutated > 1e-5
    )
    emit(
        "2 (three columns)",
        passed,
        f"construction gap {min(gaps):.3e} to {max(gaps):.3e}; max |s_gap| {kernel:.1e} "
        f"(50 digits {float(exact):.1e}); least |s_gap| after moving one unit {float(mutated):.3e}",
    )
    assert passed, (gaps, kernel, exact, mutated)


def test_criterion_03_iff_characterization(product_instances, dependent_instances):
    product_ok = all(
        is_escort_consistent(joint, q, tol=1e-9) for joint, q, _ in product_instances
    )
    # The escort-consistent set passes through the dependent region, so a rare
    # dependent joint lies within 1e-6 of it; the dependent side is the rate
    # of the verify check escort:dependent_joints_inconsistent.
    inconsistent = sum(
        not is_escort_consistent(joint, q, tol=1e-6) for joint, q, _ in dependent_instances
    )
    rate = inconsistent / len(dependent_instances)
    passed = product_ok and rate >= 0.99
    emit(
        3,
        passed,
        f"products consistent: {product_ok}; dependent inconsistent: "
        f"{inconsistent}/{len(dependent_instances)} (rate {rate:.3f}, floor 0.99)",
    )
    assert passed


def test_criterion_04_two_route_gap_identity(product_instances, dependent_instances):
    worst = max(
        abs(report.gap - report.s_gap / q)
        for _, q, report in product_instances + dependent_instances
    )
    passed = worst < 1e-10
    emit(4, passed, f"max |gap - s_gap/q| = {worst:.3e}")
    assert passed


def test_criterion_04_gap_and_s_gap_against_50_digits(product_instances, dependent_instances):
    # gap and s_gap share the column excess N - P, so gap = s_gap / q holds by
    # algebra; each is also checked against its definition in 50 digits.
    pytest.importorskip("mpmath")
    worst = 0.0
    for joint, q, report in product_instances[:50] + dependent_instances[:50]:
        reference = oracles.mp_chain_rule_fields(joint.weights, q)
        for name in ("gap", "s_gap"):
            worst = max(worst, float(abs(getattr(report, name) - reference[name])))
    passed = worst < 1e-13
    emit("4 (50 digits)", passed, f"max |error| of gap and s_gap on 100 instances = {worst:.3e}")
    assert passed


def test_criterion_05_minmax_sandwich(product_instances, dependent_instances):
    slack = 1e-12  # double-precision slack on the exact inequalities
    ok = True
    for _, _, report in product_instances + dependent_instances:
        ok = ok and report.lower_bound - slack <= report.s_gap <= report.upper_bound + slack
        ok = ok and report.lower_bound <= slack and report.upper_bound >= -slack
    emit(5, ok, "lower <= s_gap <= upper and lower <= 0 <= upper on every instance")
    assert ok


def test_criterion_06_correction_closure(product_instances, dependent_instances):
    worst = max(
        abs(report.corrected_residual)
        for _, _, report in product_instances + dependent_instances
    )
    identity_worst = 0.0
    for joint, q, report in product_instances:
        base = kn_map_inv(report.conditional_axiomatic, q)
        identity_worst = max(identity_worst, abs(corrected_conditional(joint, q) - base))
    passed = worst < 1e-9 and identity_worst < 1e-9
    emit(6, passed, f"max corrected residual = {worst:.3e}; max tilt on products = {identity_worst:.3e}")
    assert passed


def test_criterion_07_bridge_and_decomposition():
    worst_bridge = 0.0
    worst_decomposition = 0.0
    for t in range(10_000):
        rng = np.random.default_rng(3_000_000 + t)
        p = Distribution(rng.dirichlet(np.ones(int(rng.integers(2, 17)))))
        q = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        ad_value = aczel_daroczy(p, q)
        worst_bridge = max(worst_bridge, abs(kn_map(hybrid(p, q), q) - ad_value))
        esc = Distribution(escort(p, q))
        decomposed = shannon(esc) / q - (1.0 - q) / q * renyi(esc, 1.0 / q)
        worst_decomposition = max(worst_decomposition, abs(ad_value - decomposed))
    passed = worst_bridge < 1e-10 and worst_decomposition < 1e-10
    emit(7, passed, f"bridge err = {worst_bridge:.3e}; decomposition err = {worst_decomposition:.3e} over 10^4 pairs")
    assert passed


def test_criterion_08_expansibility():
    worst = np.inf
    ok = True
    rng = np.random.default_rng(4_000_000)
    for _ in range(200):
        p = Distribution(rng.dirichlet(np.ones(int(rng.integers(2, 9)))))
        for q in (0.5, 1.0, 2.0, 5.0):
            verdict = check_expansibility(q, p)
            ok = ok and verdict.passed
            worst = min(worst, verdict.margin)
    emit("8 (expansibility)", ok, f"worst margin against 1e-12 tolerance = {worst:.3e}")
    assert ok


def test_criterion_08_maximality_search():
    cross_checked = 0
    wrong = []
    for q in (0.5, 1.0, 2.0):
        for n in range(2, 9):
            verdict = check_maximality(q, n=n)
            best = oracles.hybrid(verdict.witness.weights, q)
            if q == 0.5 and n >= 3:
                excess = best - oracles.hybrid(np.full(n, 1.0 / n), q)
                family_excess = oracles.one_heavy_max_excess(n, q)
                if verdict.passed or excess < family_excess - 1e-9:
                    wrong.append((q, n, "excess", excess, family_excess))
            elif not verdict.passed:
                wrong.append((q, n, "uniform beaten", -verdict.margin))
            for seed in range(5):
                _, searched = oracles.maximality_search(q, n, seed)
                if searched > best + 1e-12:
                    wrong.append((q, n, seed, "search beats reduction", searched - best))
                else:
                    cross_checked += 1
    thresholds = {n: oracles.maximality_threshold(n) for n in range(3, 9)}
    for n, q_star in thresholds.items():
        below = check_maximality(q_star - 2e-3, n=n)
        above = check_maximality(q_star + 2e-3, n=n)
        if not 0.5 < q_star < 0.535 or below.passed or not above.passed:
            wrong.append((q_star, n, "threshold", below.margin, above.margin))
    passed = not wrong
    emit(
        "8 (maximality)",
        passed,
        f"{cross_checked} seeded searches no better than the two-value reduction; "
        "oracle-confirmed counterexamples only at q = 0.5 with n >= 3; "
        "q*(n) for n = 3..8: " + ", ".join(f"{q_star:.4f}" for q_star in thresholds.values()),
    )
    assert passed, wrong


@pytest.mark.parametrize("n, measured", [(10, 0.5416), (12, 0.5480), (16, 0.5583)])
def test_criterion_08_maximality_threshold_beyond_the_search(n, measured):
    q_star = oracles.maximality_threshold(n)
    below = check_maximality(q_star - 2e-3, n=n)
    above = check_maximality(q_star + 2e-3, n=n)
    passed = abs(q_star - measured) < 5e-5 and not below.passed and above.passed
    emit(f"8 (maximality, n = {n})", passed, f"q* = {q_star:.4f}; fails below, passes above")
    assert passed, (q_star, below.margin, above.margin)


def test_criterion_08_homomorphism():
    worst = 0.0
    rng = np.random.default_rng(5_000_000)
    for q in (0.3, 0.5, 1.0, 1.5, 2.0):
        for _ in range(2000):
            if q < 1.0:
                low, high = -0.9 / (1.0 - q), 10.0
            elif q > 1.0:
                low, high = -10.0, 0.9 / (q - 1.0)
            else:
                low, high = -10.0, 10.0
            a, b = float(rng.uniform(low, high)), float(rng.uniform(low, high))
            worst = max(worst, abs(kn_map(q_add(a, b, q), q) - kn_map(a, q) - kn_map(b, q)))
    passed = worst < 1e-10
    emit("8 (homomorphism)", passed, f"max additivity error = {worst:.3e}")
    assert passed


def test_criterion_09_closed_forms_and_collapse():
    worst_uniform = 0.0
    for n in range(2, 65):
        uniform = Distribution(np.full(n, 1.0 / n))
        for q in (0.5, 0.7, 1.0, 1.5, 2.0, 5.0):
            worst_uniform = max(
                worst_uniform, abs(hybrid(uniform, q) - q_log(float(n), q))
            )
    worst_collapse = 0.0
    for seed in range(50):
        rng = np.random.default_rng(6_000_000 + seed)
        p = Distribution(rng.dirichlet(np.ones(int(rng.integers(2, 17)))))
        s = shannon(p)
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            for value in (
                hybrid(p, q),
                tsallis(p, q),
                aczel_daroczy(p, q),
                renyi(p, 1.0 / q),
            ):
                worst_collapse = max(worst_collapse, abs(value - s))
    passed = worst_uniform < 1e-12 and worst_collapse < 1e-5
    emit(9, passed, f"uniform closed-form err = {worst_uniform:.3e}; collapse err = {worst_collapse:.3e}")
    assert passed


def test_criterion_10_cli_determinism(tmp_path, capsys):
    args = ["sweep", "--nb", "4", "--na", "3", "--q", "0.5,2,3", "--trials", "20", "--seed", "42"]
    path_a, path_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--out", path_a]) == 0
    assert main(args + ["--out", path_b]) == 0
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        identical = fa.read() == fb.read()
    verify_code = main(["verify", "--suite", "all", "--seed", "0", "--trials", "200"])
    capsys.readouterr()
    passed = identical and verify_code == 0
    emit(10, passed, f"byte-identical sweeps: {identical}; verify-all exit code: {verify_code}")
    assert passed
