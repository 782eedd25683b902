"""Executable verifiers for the entropy axioms over seeded ensembles.

Each checker returns a deterministic AxiomVerdict for its (q, n, seed,
parameters) inputs. Margins are oriented so that margin >= 0 iff the verdict
passed. These are numerical probes, not proofs: continuity is an empirical
Lipschitz estimate and maximality a derivative-free multi-start search.
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
from .chain_rules import additivity_residual
from .errors import UnreachableFloorError
from .entropies import hybrid, hybrid_rows

log = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-9       # independence / corrected-closure tolerance
VIOLATION_FLOOR = 1e-6    # a dependent joint "violates" above this
MAXIMALITY_SLACK = 1e-9   # allowed excess over the uniform value
SAMPLER_ATTEMPTS = 10_000  # rejection-sampler draws per joint before giving up


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
    iterations: int = 500,
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
    iterations: int = 500,
) -> AxiomVerdict:
    """Search the simplex for a point beating the uniform distribution.

    Runs projected finite-difference ascent from Dirichlet-sampled starts plus
    one near-vertex start per coordinate, all starts in one lockstep stack. Passes when no point found exceeds
    the uniform value by more than MAXIMALITY_SLACK; the best point found is
    always attached as the witness.
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
    points, values = _ascend(np.array(starts), order, iterations=iterations)
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
    probes: int = 64,
) -> AxiomVerdict:
    """Empirical modulus-of-continuity probe of the hybrid entropy.

    A modulus L is calibrated from a designed boundary/interior scan at the
    probe scale and reported on the verdict; every random probe, including
    bases with a zero coordinate, must then satisfy |change| <= L * delta.
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
    while len(slacks) < probes:
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


def _random_sizes(rng: np.random.Generator, max_size: int = 8) -> tuple[int, int]:
    return int(rng.integers(2, max_size + 1)), int(rng.integers(2, max_size + 1))


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
        n=8,
        passed=passed,
        margin=margin,
        witness=None if passed else witness,
    )


def sample_dependent_joint(
    seed: int,
    index: int,
    mi_floor: float,
    max_size: int = 8,
    concentration: float = 1.0,
) -> JointDistribution:
    """Deterministic rejection sampler for joints with mutual information above
    mi_floor. Each attempt reseeds from (seed, index, attempt), so the stream
    for a given (seed, index) never depends on how other indices were consumed.

    Raises UnreachableFloorError when mi_floor is NaN or at least
    ln(max_size), which no joint of at most max_size outcomes per side can
    exceed, and when SAMPLER_ATTEMPTS draws all fall at or below the floor.
    """
    if math.isnan(mi_floor) or mi_floor >= math.log(max_size):
        raise UnreachableFloorError(
            mi_floor, f"is unreachable: no joint of at most {max_size} outcomes a side "
            f"has mutual information above ln {max_size}"
        )
    for attempt in range(SAMPLER_ATTEMPTS):
        rng = np.random.default_rng((seed, index, attempt))
        n_b, n_a = _random_sizes(rng, max_size)
        flat = rng.dirichlet(np.full(n_b * n_a, float(concentration)))
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
        n=8,
        passed=margin >= 0.0,
        margin=margin,
        witness=witness,
    )
