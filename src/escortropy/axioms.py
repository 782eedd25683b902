"""Executable verifiers for the entropy axioms over seeded ensembles, and the
verification suites that the ``verify`` command runs.

Each checker returns a deterministic AxiomVerdict for its (q, n, seed,
parameters) inputs. Margins are oriented so that margin >= 0 iff the verdict
passed. These are numerical probes, not proofs: continuity is an empirical
Lipschitz estimate and maximality a multi-start, projected finite-difference
ascent. ``run_suite`` collects the qcalc, escort and axiom checks as
CheckResult rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .prob import (
    Distribution,
    JointDistribution,
    QOrder,
    as_order,
    mutual_information,
    product_joint,
)
from .qcalc import kn_map, kn_map_inv, q_add, q_exp, q_log
from .escort import escort, escort_ratio, joint_escort_correct, joint_escort_naive
from .chain_rules import additivity_residual
from .errors import UnreachableFloorError
from .entropies import hybrid, hybrid_rows

log = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-9       # independence / corrected-closure tolerance
VIOLATION_FLOOR = 1e-6    # a dependent joint "violates" above this
MAXIMALITY_SLACK = 1e-9   # allowed excess over the uniform value
SAMPLER_ATTEMPTS = 10_000  # rejection-sampler draws per joint before giving up
MAX_SIDE = 8              # sampled joints have 2..MAX_SIDE outcomes per side
SAMPLER_CONCENTRATION = 1.0  # Dirichlet concentration of sampled joints (uniform law)
ASCENT_ITERATIONS = 500   # gradient steps per maximality start
CONTINUITY_PROBES = 64    # random perturbations per continuity check


@dataclass(frozen=True, eq=False)
class AxiomVerdict:
    """Outcome of one axiom check.

    ``margin`` is the worst-case slack observed (negative iff failed). The
    witness is the counterexample for failed verdicts, or the best point found
    for the maximality search; ``modulus`` carries the calibrated Lipschitz
    estimate of the continuity probe.
    """

    axiom: str
    q: QOrder
    n: int
    passed: bool
    margin: float
    witness: Distribution | JointDistribution | None = None
    modulus: float | None = None


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based).

    A 2-d input is a stack of rows, each projected on its own; a 1-d input is
    the one-row case and comes back 1-d.
    """
    v = np.asarray(v, dtype=float)
    rows = np.atleast_2d(v)
    u = np.sort(rows, axis=1)[:, ::-1]
    cumulative = np.cumsum(u, axis=1)
    idx = np.arange(1, rows.shape[1] + 1)
    feasible = u + (1.0 - cumulative) / idx > 0
    rho = rows.shape[1] - np.argmax(feasible[:, ::-1], axis=1)
    shift = (1.0 - cumulative[np.arange(rows.shape[0]), rho - 1]) / rho
    projected = np.maximum(rows + shift[:, None], 0.0)
    return projected if v.ndim == 2 else projected[0]


def _ascend(
    x: np.ndarray,
    order: QOrder,
    fd_step: float = 1e-6,
    iterations: int = ASCENT_ITERATIONS,
    improvement_tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Projected finite-difference ascent from each row of an (S, n) stack of
    starts; every point stays on the simplex.

    The rows move in lockstep but independently: each keeps its own step,
    backtracks on its own, and stops when no step above 1e-9 improves it.
    One iteration makes one ``hybrid_rows`` call for the probes of all moving
    rows and one per backtracking round for the rows still searching, so a
    row's trajectory is the one it would follow alone. Returns the final
    points and their values.
    """
    x = np.array(x, dtype=float)
    count, n = x.shape
    eye = np.eye(n)
    value = hybrid_rows(x, order)
    step = np.full(count, 0.1)
    active = np.arange(count)
    for _ in range(iterations):
        if active.size == 0:
            break
        probes = np.concatenate(
            [x[active, None, :] + fd_step * eye, x[active, None, :] - fd_step * eye], axis=1
        ).reshape(-1, n)
        probes = np.maximum(probes, 0.0)
        probes /= probes.sum(axis=1, keepdims=True)
        probe_values = hybrid_rows(probes, order).reshape(active.size, 2 * n)
        gradient = (probe_values[:, :n] - probe_values[:, n:]) / (2.0 * fd_step)
        moved = np.zeros(active.size, dtype=bool)
        searching = np.flatnonzero(step[active] > 1e-9)
        while searching.size:
            rows = active[searching]
            candidates = project_to_simplex(x[rows] + step[rows, None] * gradient[searching])
            candidate_values = hybrid_rows(candidates, order)
            better = candidate_values > value[rows] + improvement_tol
            won, lost = rows[better], rows[~better]
            x[won], value[won] = candidates[better], candidate_values[better]
            step[won] *= 1.5
            step[lost] *= 0.5
            moved[searching[better]] = True
            searching = searching[~better][step[lost] > 1e-9]
        active = active[moved]
    return x, value


def check_maximality(
    q: float | QOrder,
    n: int,
    seed: int,
    restarts: int = 20,
) -> AxiomVerdict:
    """Search the simplex for a point beating the uniform distribution.

    Runs projected finite-difference ascent from Dirichlet-sampled starts plus
    one near-vertex start per coordinate, all starts in one lockstep stack of
    ASCENT_ITERATIONS steps. Passes when no point found exceeds the uniform
    value by more than MAXIMALITY_SLACK; the best point found is always
    attached as the witness.
    """
    order = as_order(q)
    if n < 2:
        raise ValueError("maximality needs n >= 2")
    rng = np.random.default_rng(seed)
    uniform_value = float(hybrid_rows(np.full((1, n), 1.0 / n), order)[0])
    starts = [rng.dirichlet(np.ones(n)) for _ in range(restarts)]
    for i in range(n):
        vertex = np.full(n, 1e-3 / (n - 1))
        vertex[i] = 1.0 - 1e-3
        starts.append(vertex / vertex.sum())
    points, values = _ascend(np.array(starts), order)
    best = int(np.argmax(values))  # the first of equal values, as a strict > scan keeps
    margin = uniform_value + MAXIMALITY_SLACK - float(values[best])
    return AxiomVerdict(
        axiom="maximality",
        q=order,
        n=n,
        passed=margin >= 0.0,
        margin=margin,
        witness=Distribution(points[best]),
    )


def check_expansibility(q: float | QOrder, p: Distribution) -> AxiomVerdict:
    """Appending a zero-probability outcome must not change the entropy."""
    order = as_order(q)
    base = hybrid(p, order).value
    padded = hybrid(Distribution(np.append(p.weights, 0.0)), order).value
    margin = 1e-12 - abs(padded - base)
    passed = margin >= 0.0
    return AxiomVerdict(
        axiom="expansibility",
        q=order,
        n=p.size,
        passed=passed,
        margin=margin,
        witness=None if passed else p,
    )


def _calibrate_modulus(order: QOrder, n: int, delta: float) -> float:
    """Modulus estimate from a designed scan of the worst configurations at
    the probe scale: probability delta moved into or out of a coordinate
    sitting near the boundary, where the entropy gradient peaks (unboundedly
    so for q < 1, like v^(q-1))."""
    ratios = [1.0]
    for v in (0.0, delta / 8, delta / 2, 2 * delta, 10 * delta, 0.1):
        base = np.full(n, (1.0 - v) / (n - 1))
        base[0] = v
        base /= base.sum()
        base_value = float(hybrid_rows(base[None, :], order)[0])
        for step in (delta, delta / 2, delta / 4):
            for sign in (1.0, -1.0):
                moved = base.copy()
                moved[0] += sign * step
                moved[1:] -= sign * step / (n - 1)
                if np.any(moved < 0):
                    continue
                distance = float(np.abs(moved - base).sum())
                change = abs(float(hybrid_rows(moved[None, :], order)[0]) - base_value)
                ratios.append(change / distance)
    return 2.0 * max(ratios)


def check_continuity(
    q: float | QOrder,
    n: int,
    seed: int,
    delta: float = 1e-4,
) -> AxiomVerdict:
    """Empirical modulus-of-continuity probe of the hybrid entropy.

    A modulus L is calibrated from a designed boundary/interior scan at the
    probe scale and reported on the verdict; each of CONTINUITY_PROBES random
    probes, bases with a zero coordinate included, must then satisfy
    |change| <= L * delta.
    Advisory by construction: sampling cannot prove continuity.
    """
    if not 0.0 < delta <= 1e-3:
        raise ValueError("delta must lie in (0, 1e-3]")
    order = as_order(q)
    modulus = _calibrate_modulus(order, n, delta)
    rng = np.random.default_rng(seed)
    slacks = []
    bases = []
    drawn = 0
    while len(slacks) < CONTINUITY_PROBES:
        base = rng.dirichlet(np.ones(n))
        if drawn % 4 == 3 and n >= 3:
            base[(drawn // 4) % n] = 0.0
            base = base / base.sum()
        drawn += 1
        direction = rng.normal(size=n)
        direction -= direction.mean()
        norm = np.abs(direction).sum()
        if norm == 0.0:
            continue
        moved = project_to_simplex(base + direction * (delta / norm))
        if np.abs(moved - base).sum() == 0.0:
            continue
        change = abs(
            float(hybrid_rows(moved[None, :], order)[0])
            - float(hybrid_rows(base[None, :], order)[0])
        )
        slacks.append(modulus * delta - change)
        bases.append(base)
    margin = float(min(slacks))
    passed = margin >= 0.0
    witness = None if passed else Distribution(bases[int(np.argmin(slacks))])
    return AxiomVerdict(
        axiom="continuity",
        q=order,
        n=n,
        passed=passed,
        margin=margin,
        witness=witness,
        modulus=modulus,
    )


def _random_sizes(rng: np.random.Generator) -> tuple[int, int]:
    return int(rng.integers(2, MAX_SIDE + 1)), int(rng.integers(2, MAX_SIDE + 1))


def check_additivity_independent(q: float | QOrder, seed: int, trials: int) -> AxiomVerdict:
    """Sampled product joints must satisfy the composition rule to RESIDUAL_TOL."""
    order = as_order(q)
    worst = 0.0
    witness = None
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        n_b, n_a = _random_sizes(rng)
        joint = product_joint(
            Distribution(rng.dirichlet(np.ones(n_a))),
            Distribution(rng.dirichlet(np.ones(n_b))),
        )
        residual = abs(additivity_residual(joint, order))
        if residual > worst:
            worst = residual
            witness = joint
    margin = RESIDUAL_TOL - worst
    passed = margin >= 0.0
    return AxiomVerdict(
        axiom="additivity_independent",
        q=order,
        n=MAX_SIDE,
        passed=passed,
        margin=margin,
        witness=None if passed else witness,
    )


def sample_dependent_joint(seed: int, index: int, mi_floor: float) -> JointDistribution:
    """Deterministic rejection sampler for joints with mutual information above
    mi_floor. Each attempt reseeds from (seed, index, attempt), so the stream
    for a given (seed, index) never depends on how other indices were consumed.

    Raises UnreachableFloorError when mi_floor is NaN or at least
    ln(MAX_SIDE), which no joint of at most MAX_SIDE outcomes per side can
    exceed, and when SAMPLER_ATTEMPTS draws all fall at or below the floor.
    """
    if math.isnan(mi_floor) or mi_floor >= math.log(MAX_SIDE):
        raise UnreachableFloorError(
            mi_floor, f"is unreachable: no joint of at most {MAX_SIDE} outcomes a side "
            f"has mutual information above ln {MAX_SIDE}"
        )
    for attempt in range(SAMPLER_ATTEMPTS):
        rng = np.random.default_rng((seed, index, attempt))
        n_b, n_a = _random_sizes(rng)
        flat = rng.dirichlet(np.full(n_b * n_a, SAMPLER_CONCENTRATION))
        joint = JointDistribution(flat.reshape(n_b, n_a))
        if mutual_information(joint) > mi_floor:
            return joint
    raise UnreachableFloorError(
        mi_floor, f"was not exceeded in {SAMPLER_ATTEMPTS} draws (seed {seed}, index {index})"
    )


def check_additivity_dependent(
    q: float | QOrder,
    seed: int,
    trials: int,
    mi_floor: float = 0.05,
) -> AxiomVerdict:
    """Sampled dependent joints should violate the composition rule.

    Passes when at least 99% of the trials show |residual| > VIOLATION_FLOOR;
    exceptions are logged with their joints and the first one becomes the
    witness. At q = 1 the rule holds exactly, so the observed rate is zero and
    the verdict reports that honestly rather than being meaningful.
    """
    order = as_order(q)
    violations = 0
    witness = None
    for t in range(trials):
        joint = sample_dependent_joint(seed, t, mi_floor)
        residual = abs(additivity_residual(joint, order))
        if residual > VIOLATION_FLOOR:
            violations += 1
        else:
            if witness is None:
                witness = joint
            log.info(
                "dependent joint without violation (|residual|=%.3e, trial %d): %r",
                residual,
                t,
                joint,
            )
    rate = violations / trials
    margin = rate - 0.99
    return AxiomVerdict(
        axiom="additivity_dependent",
        q=order,
        n=MAX_SIDE,
        passed=margin >= 0.0,
        margin=margin,
        witness=witness,
    )


@dataclass(frozen=True)
class CheckResult:
    """One named check of a verification suite; margin >= 0 iff it passed."""

    suite: str
    check: str
    passed: bool
    margin: float


def _suite_qcalc(seed: int, trials: int, mi_floor: float = 0.05) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for q in (0.3, 0.5, 1.0, 1.5, 2.0):
        for _ in range(trials):
            bound = 1.0 / abs(1.0 - q) if q != 1.0 else 10.0
            a = float(rng.uniform(-0.9 * bound if q < 1 else -10.0, 10.0 if q < 1 else 0.9 * bound))
            b = float(rng.uniform(-0.9 * bound if q < 1 else -10.0, 10.0 if q < 1 else 0.9 * bound))
            err = abs(kn_map(q_add(a, b, q), q) - kn_map(a, q) - kn_map(b, q))
            worst = max(worst, err)
    results.append(CheckResult("qcalc", "kn_map_homomorphism", worst < 1e-10, 1e-10 - worst))

    worst = 0.0
    for q in (0.3, 0.5, 1.0, 1.5, 2.0):
        for _ in range(trials):
            x = float(rng.uniform(-2.0, 2.0))
            if 1.0 + (1.0 - q) * x > 1e-6:
                worst = max(worst, abs(q_log(q_exp(x, q), q) - x))
            worst = max(worst, abs(kn_map(kn_map_inv(x, q), q) - x))
    results.append(CheckResult("qcalc", "inverse_pairs", worst < 1e-10, 1e-10 - worst))

    worst = 0.0
    for q in (1.0 - 1e-6, 1.0 + 1e-6):
        for x in (-1.5, -0.3, 0.2, 1.0, 2.5):
            worst = max(worst, abs(q_exp(x, q) - np.exp(x)) / np.exp(x))
            worst = max(worst, abs(kn_map(x, q) - x) / max(abs(x), 1.0))
    results.append(CheckResult("qcalc", "classical_limit", worst < 1e-4, 1e-4 - worst))
    return results


def _construction_gap(joint: JointDistribution, q: float) -> float:
    """Largest cellwise difference between the two joint escort constructions."""
    return float(np.abs(joint_escort_naive(joint, q) - joint_escort_correct(joint, q)).max())


def _suite_escort(seed: int, trials: int, mi_floor: float = 0.05) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for q in (0.3, 0.5, 2.0, 5.0):
        for _ in range(trials):
            n = int(rng.integers(2, 9))
            p = Distribution(rng.dirichlet(np.ones(n)))
            back = escort(Distribution(escort(p, q)), 1.0 / q)
            worst = max(worst, float(np.abs(back - p.weights).max()))
    results.append(CheckResult("escort", "inverse_round_trip", worst < 1e-10, 1e-10 - worst))

    worst = 0.0
    for t in range(trials):
        sub = np.random.default_rng(seed + t)
        joint = product_joint(
            Distribution(sub.dirichlet(np.ones(int(sub.integers(2, 9))))),
            Distribution(sub.dirichlet(np.ones(int(sub.integers(2, 9))))),
        )
        worst = max(worst, _construction_gap(joint, 2.0))
    results.append(CheckResult("escort", "product_joints_consistent", worst < 1e-9, 1e-9 - worst))

    smallest = np.inf
    for t in range(trials):
        joint = sample_dependent_joint(seed, t, mi_floor=0.01)
        smallest = min(smallest, _construction_gap(joint, 2.0))
    results.append(
        CheckResult("escort", "dependent_joints_inconsistent", smallest > 1e-6, smallest - 1e-6)
    )

    worst = 0.0
    for t in range(trials):
        joint = sample_dependent_joint(seed + 10_000, t, mi_floor=0.01)
        for q in (0.5, 2.0):
            correct = joint_escort_correct(joint, q)
            target = escort(Distribution(joint.weights.sum(axis=0)), q)
            worst = max(worst, float(np.abs(correct.sum(axis=0) - target).max()))
    results.append(CheckResult("escort", "correct_marginal_identity", worst < 1e-12, 1e-12 - worst))

    worst = 0.0
    for t in range(trials):
        joint = sample_dependent_joint(seed + 20_000, t, mi_floor=0.01)
        for q in (0.5, 2.0):
            naive = joint_escort_naive(joint, q)
            correct = joint_escort_correct(joint, q)
            ratio = escort_ratio(joint, q)
            mask = naive > 0
            worst = max(worst, float(np.abs(ratio[mask] * naive[mask] - correct[mask]).max()))
    results.append(CheckResult("escort", "ratio_cross_check", worst < 1e-10, 1e-10 - worst))
    return results


def _suite_axioms(seed: int, trials: int, mi_floor: float = 0.05) -> list[CheckResult]:
    results = []
    for q in (0.6, 2.0):
        verdict = check_continuity(q, n=8, seed=seed, delta=1e-4)
        results.append(CheckResult("axioms", f"continuity_q{q}", verdict.passed, verdict.margin))
    for q in (1.0, 2.0):
        for n in (2, 3, 4, 5):
            verdict = check_maximality(q, n=n, seed=seed)
            results.append(
                CheckResult("axioms", f"maximality_q{q}_n{n}", verdict.passed, verdict.margin)
            )
    rng = np.random.default_rng(seed)
    for q in (0.5, 2.0):
        ok = True
        worst = np.inf
        for _ in range(trials):
            p = Distribution(rng.dirichlet(np.ones(int(rng.integers(2, 9)))))
            verdict = check_expansibility(q, p)
            ok = ok and verdict.passed
            worst = min(worst, verdict.margin)
        results.append(CheckResult("axioms", f"expansibility_q{q}", ok, worst))
    for q in (0.5, 2.0):
        verdict = check_additivity_independent(q, seed=seed, trials=trials)
        results.append(
            CheckResult("axioms", f"additivity_independent_q{q}", verdict.passed, verdict.margin)
        )
    verdict = check_additivity_dependent(2.0, seed=seed, trials=trials, mi_floor=mi_floor)
    results.append(CheckResult("axioms", "additivity_dependent_q2", verdict.passed, verdict.margin))
    return results


_SUITES = {
    "qcalc": _suite_qcalc,
    "escort": _suite_escort,
    "axioms": _suite_axioms,
}


def run_suite(name: str, seed: int, trials: int, mi_floor: float = 0.05) -> list[CheckResult]:
    """Run one verification suite (or all of them) and collect the results."""
    if name == "all":
        results = []
        for suite in ("qcalc", "escort", "axioms"):
            results.extend(_SUITES[suite](seed, trials, mi_floor))
        return results
    return _SUITES[name](seed, trials, mi_floor)
