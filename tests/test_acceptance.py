"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they happen).

Ensembles are seeded and therefore reproducible; instances are shared across
criteria through module-scoped fixtures. Two criteria state what the
mathematics promises, and both verdicts are confirmed against the
direct-formula oracles in `oracles.py`:

* criterion 2 (fixed witness): the dependent joint [[0.2, 0.1], [0.3, 0.4]]
  breaks the composition rule at q = 2 (residual -6.969e-3). Dependence alone
  is not enough: [[0.4, 0.1], [0.1, 0.4]] is dependent (mutual information
  0.193), but its conditional columns are permutations of each other, so the
  column power sums coincide at every order, the two joint escort
  constructions agree, and the rule closes. Escort consistency, not
  independence, is what the rule needs.
* criterion 8 (maximality): the uniform point maximizes the hybrid entropy iff
  q >= q*(n). q*(2) = 1/2, and for n >= 3 the threshold lies above 1/2
  (q* ~ 0.505 at n = 3 up to ~ 0.534 at n = 8), so at q = 0.5 the one-heavy
  configuration (a, b, ..., b) beats the uniform point (2.01173 against 2.0
  at n = 4) and the search must report it.
"""

import numpy as np
import pytest

from escortropy import (
    Distribution,
    JointDistribution,
    additivity_residual,
    chain_rule_report,
    check_expansibility,
    check_maximality,
    conditional_axiomatic,
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

import oracles

Q_GRID = (0.5, 0.7, 1.5, 2.0, 3.0)
TRIALS = 1000
VIOLATING_WITNESS = JointDistribution([[0.2, 0.1], [0.3, 0.4]])
PERMUTED_COLUMNS_JOINT = JointDistribution([[0.4, 0.1], [0.1, 0.4]])


def emit(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def product_instances():
    """(joint, q, report) for 1000 seeded product joints x the q grid."""
    instances = []
    for t in range(TRIALS):
        rng = np.random.default_rng(1_000_000 + t)
        n_b, n_a = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        joint = product_joint(
            Distribution(rng.dirichlet(np.ones(n_a))),
            Distribution(rng.dirichlet(np.ones(n_b))),
        )
        for q in Q_GRID:
            instances.append((joint, q, chain_rule_report(joint, q)))
    return instances


@pytest.fixture(scope="module")
def dependent_instances():
    """(joint, 2.0, report) for 1000 seeded joints with mutual information > 0.05."""
    instances = []
    for t in range(TRIALS):
        joint = sample_dependent_joint(20_250_809, t, mi_floor=0.05)
        instances.append((joint, 2.0, chain_rule_report(joint, 2.0)))
    return instances


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
    residual = additivity_residual(VIOLATING_WITNESS, 2.0)
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
            abs(additivity_residual(PERMUTED_COLUMNS_JOINT, q)),
            abs(oracles.additivity_residual(PERMUTED_COLUMNS_JOINT.weights, q)),
        )
        for q in Q_GRID
    )
    closes = (
        mutual_information(PERMUTED_COLUMNS_JOINT) > 0.05
        and all(is_escort_consistent(PERMUTED_COLUMNS_JOINT, q) for q in Q_GRID)
        and closing <= 1e-12
    )
    passed = violates and closes
    emit(
        "2 (fixed witness)",
        passed,
        f"witness residual at q=2 = {residual:.3e} (oracle {oracle_residual:.3e}); "
        f"permuted-column joint max |residual| over q grid = {closing:.3e}",
    )
    assert violates, (residual, oracle_residual)
    assert closes, closing


def test_criterion_03_iff_characterization(product_instances, dependent_instances):
    product_ok = all(
        is_escort_consistent(joint, q, tol=1e-9) for joint, q, _ in product_instances
    )
    dependent_ok = all(
        not is_escort_consistent(joint, q, tol=1e-6) for joint, q, _ in dependent_instances
    )
    passed = product_ok and dependent_ok
    emit(3, passed, f"products consistent: {product_ok}; dependent inconsistent: {dependent_ok}")
    assert passed


def test_criterion_04_two_route_gap_identity(product_instances, dependent_instances):
    worst = max(
        abs(report.gap - report.s_gap / q)
        for _, q, report in product_instances + dependent_instances
    )
    passed = worst < 1e-10
    emit(4, passed, f"max |gap - s_gap/q| = {worst:.3e}")
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
    for joint, q, _ in product_instances[:: len(Q_GRID)]:
        for q_value in Q_GRID:
            base = kn_map_inv(conditional_axiomatic(joint, q_value), q_value)
            identity_worst = max(
                identity_worst, abs(corrected_conditional(joint, q_value) - base)
            )
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
        ad_value = aczel_daroczy(p, q).value
        worst_bridge = max(worst_bridge, abs(kn_map(hybrid(p, q).value, q) - ad_value))
        esc = Distribution(escort(p, q))
        decomposed = shannon(esc).value / q - (1.0 - q) / q * renyi(esc, 1.0 / q).value
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
    confirmed = 0
    wrong = []
    for q in (0.5, 1.0, 2.0):
        for n in range(2, 9):
            beaten = q == 0.5 and n >= 3
            if beaten:
                family_excess = oracles.one_heavy_max_excess(n, q)
                uniform_value = oracles.hybrid(np.full(n, 1.0 / n), q)
            for seed in range(5):
                verdict = check_maximality(q, n=n, seed=seed, restarts=20)
                if not beaten:
                    if not verdict.passed:
                        wrong.append((q, n, seed, "uniform beaten", -verdict.margin))
                    continue
                excess = oracles.hybrid(verdict.witness.weights, q) - uniform_value
                if verdict.passed or excess < family_excess - 1e-9:
                    wrong.append((q, n, seed, "excess", excess, family_excess))
                else:
                    confirmed += 1
    thresholds = {n: oracles.maximality_threshold(n) for n in range(3, 9)}
    for n, q_star in thresholds.items():
        # restarts=0 keeps only the near-vertex starts, a subset of the default
        # search's starts, so failing here implies the default search fails.
        below = check_maximality(q_star - 2e-3, n=n, seed=0, restarts=0)
        above = check_maximality(q_star + 2e-3, n=n, seed=0)
        if not 0.5 < q_star < 0.535 or below.passed or not above.passed:
            wrong.append((q_star, n, "threshold", below.margin, above.margin))
    passed = not wrong
    emit(
        "8 (maximality)",
        passed,
        f"{confirmed} oracle-confirmed counterexamples, all at q = 0.5 with n >= 3; "
        "q*(n) for n = 3..8: " + ", ".join(f"{q_star:.4f}" for q_star in thresholds.values()),
    )
    assert passed, wrong


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
                worst_uniform, abs(hybrid(uniform, q).value - q_log(float(n), q))
            )
    worst_collapse = 0.0
    for seed in range(50):
        rng = np.random.default_rng(6_000_000 + seed)
        p = Distribution(rng.dirichlet(np.ones(int(rng.integers(2, 17)))))
        s = shannon(p).value
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            for value in (
                hybrid(p, q).value,
                tsallis(p, q).value,
                aczel_daroczy(p, q).value,
                renyi(p, 1.0 / q).value,
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
