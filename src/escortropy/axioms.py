"""Executable verifiers for the entropy axioms over seeded ensembles, and the
verification suites that the ``verify`` command runs.

Each checker returns a deterministic AxiomVerdict for its (q, n, seed,
parameters) inputs; it passes iff its margin is >= 0. The ensemble checks
and ``run_suite`` refuse fewer than one trial, where a rate has no
denominator and a pass no evidence. Continuity is an
empirical Lipschitz estimate, not a proof. Maximality reduces the simplex to
one-parameter families of two-valued points, where the maximum must lie, and
searches each family on a grid refined by golden section. ``run_suite``
collects the qcalc, escort and axiom checks as CheckResult rows.

Every seeded input is drawn raw, in the order a one-at-a-time loop would
draw it, and ``prob._finish`` normalizes it in one pass per shape; each
round of continuity probes is then marked, centred and projected as one
stack. ``_by_shape`` validates the items as one DistributionStack or
JointStack per shape and evaluates each stack in one call, shared by the
ensembles that run the same evaluation. ``run_suite`` draws each ensemble
of a request once, from the request seed, and shares it between the escort
and axioms suites: seed's rows, one product ensemble, and one dependent
ensemble per floor, every floor in one rejection-sampler pass. Each row of a
stack has the bits of its item alone, so every margin and witness is that of
the one-at-a-time loop.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import SUITES
from .prob import (
    Distribution,
    DistributionStack,
    JointDistribution,
    JointStack,
    _by_shape,
    _finish,
    _non_negative,
    _order,
    _rngs,
    mutual_information,
)
from .qcalc import kn_map, kn_map_inv, q_add, q_exp, q_log
from .escort import (
    _construction_gap,
    escort,
    escort_ratio,
    joint_escort_correct,
    joint_escort_naive,
)
from .chain_rules import chain_rule_grid
from .errors import UnreachableFloorError
from .entropies import hybrid_rows

log = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-9       # independence / corrected-closure tolerance
VIOLATION_FLOOR = 1e-6    # a dependent joint "violates" above this
MAXIMALITY_SLACK = 1e-9   # allowed excess over the uniform value
SAMPLER_ATTEMPTS = 10_000  # rejection-sampler draws per joint before giving up
MAX_SIDE = 8              # sampled joints have 2..MAX_SIDE outcomes per side
MAXIMALITY_GRID = 1000    # t-grid cells per two-value maximality family
GOLDEN_REFINEMENTS = 40   # golden-section steps inside each family's best cell
MAXIMALITY_BLOCK = 128    # two-value families per block of the maximality scan and scoring
CONTINUITY_PROBES = 64    # random perturbations per continuity check
MI_FLOOR = 0.05           # default mutual-information floor of the dependent ensemble
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class AxiomVerdict:
    """Outcome of one axiom check.

    ``margin`` is the worst-case slack observed, and ``passed`` is
    margin >= 0, so a NaN margin fails. The witness is the counterexample for
    failed verdicts, or, for maximality, the best point of the two-value
    families (the uniform point when it wins); ``modulus`` carries the
    calibrated Lipschitz estimate of the continuity probe.
    """

    axiom: str
    q: float
    n: int
    margin: float
    witness: Distribution | JointDistribution | None = None
    modulus: float | None = None

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


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


def _two_value_ad(k: np.ndarray, m: np.ndarray, t: np.ndarray, q: float) -> np.ndarray:
    """Aczel-Daroczy entropy of the point with m coordinates at t/m, k - m at
    (1 - t)/(k - m) and the rest at 0, broadcast over the arrays."""
    a, b = t / m, (1.0 - t) / (k - m)
    wa, wb = m * a**q, (k - m) * b**q
    return -(wa * np.log(a) + wb * np.log(b)) / (wa + wb)


def check_maximality(q: float, n: int) -> AxiomVerdict:
    """Decide whether the uniform distribution maximizes the hybrid entropy.

    With A = sum p^q ln p and S = sum p^q, the Aczel-Daroczy gradient is
    p_k^(q-1) (qA - S - qS ln p_k) / S^2. In u = ln p_k that is
    e^((q-1)u) (alpha - beta u) with beta = qS > 0, which has one critical
    point, so every KKT point on a face of the simplex has at most two
    distinct non-zero coordinates. D_q increases with the Aczel-Daroczy
    entropy, so the maximum lies on a family (k, m, t), 2 <= k <= n,
    1 <= m < k: m coordinates at t/m, k - m at (1 - t)/(k - m), the rest 0.
    Each family's closed form is scanned on MAXIMALITY_GRID points of t and
    its best cell refined by GOLDEN_REFINEMENTS golden-section steps; the
    refined points and the uniform point are then scored by ``hybrid_rows``.
    Scan and scoring take MAXIMALITY_BLOCK families at a time, so outside a
    block no array holds more than one t per family. Passes when no point
    exceeds the uniform value by more than MAXIMALITY_SLACK; the best point
    is always attached as the witness.
    """
    return _maximality(q, [n])[0]


def _maximality(q: float, ns) -> list[AxiomVerdict]:
    """``check_maximality`` at each size of ns. The families run with k
    outermost, so the n(n - 1)/2 families of size n are the first families of
    any larger size, and no family's scan depends on n: the families of the
    largest size are refined once, and each size scores its own.

    The scan and the scoring take MAXIMALITY_BLOCK families at a time; the
    refinement holds one t per family. Each block is scored behind the best
    point so far, the uniform one at first, and argmax keeps the first best,
    so the uniform point wins ties as in one stack. Each row's value is that
    of the row alone, so the blocks move no bit."""
    q = _order(q)
    ns = list(ns)
    if min(ns) < 2:
        raise ValueError("maximality needs n >= 2")
    top = max(ns)
    k, m = np.array(
        [(k, m) for k in range(2, top + 1) for m in range(1, k)], dtype=float
    ).T[:, :, None]
    grid = np.arange(1, MAXIMALITY_GRID) / MAXIMALITY_GRID
    blocks = [slice(b, b + MAXIMALITY_BLOCK) for b in range(0, len(k), MAXIMALITY_BLOCK)]
    cell = np.concatenate([np.argmax(_two_value_ad(k[s], m[s], grid, q), axis=1, keepdims=True) for s in blocks])
    lo, hi = cell / MAXIMALITY_GRID, (cell + 2) / MAXIMALITY_GRID
    for _ in range(GOLDEN_REFINEMENTS):
        left, right = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        keep_left = _two_value_ad(k, m, left, q) >= _two_value_ad(k, m, right, q)
        lo, hi = np.where(keep_left, lo, left), np.where(keep_left, right, hi)
    t = 0.5 * (lo + hi)
    verdicts = []
    for n in ns:
        families = n * (n - 1) // 2
        index = np.arange(n)
        best = np.full(n, 1.0 / n)
        for b in range(0, families, MAXIMALITY_BLOCK):
            block = slice(b, min(b + MAXIMALITY_BLOCK, families))
            kn, mn, tn = k[block], m[block], t[block]
            rows = np.where(index < mn, tn / mn, np.where(index < kn, (1.0 - tn) / (kn - mn), 0.0))
            points = np.vstack([best, rows])
            values = hybrid_rows(points, q)
            if b == 0:
                uniform = float(values[0])
            winner = int(np.argmax(values))  # the best point so far wins ties
            best, value = points[winner], float(values[winner])
        margin = uniform + MAXIMALITY_SLACK - value
        verdicts.append(AxiomVerdict(axiom="maximality", q=q, n=n, margin=margin, witness=Distribution(best)))
    return verdicts


def _expansibility_margins(q: float, w: np.ndarray) -> np.ndarray:
    """1e-12 minus the change in the hybrid entropy when a zero-probability
    outcome is appended, for each row of validated (T, n) weights."""
    padded = DistributionStack(np.concatenate([w, np.zeros((len(w), 1))], axis=1))
    return 1e-12 - np.abs(hybrid_rows(padded.weights, q) - hybrid_rows(w, q))


def check_expansibility(q: float, p: Distribution) -> AxiomVerdict:
    """Appending a zero-probability outcome must not change the entropy."""
    q = _order(q)
    margin = float(_expansibility_margins(q, p.weights[None, :])[0])
    witness = None if margin >= 0.0 else p
    return AxiomVerdict(axiom="expansibility", q=q, n=p.size, margin=margin, witness=witness)


def _calibrate_moduli(orders: list[float], n: int, delta: float) -> list[float]:
    """Modulus estimate at each order from a designed scan of the worst
    configurations at the probe scale: probability delta moved into or out of
    a coordinate sitting near the boundary, where the entropy gradient peaks
    (unboundedly so for q < 1, like v^(q-1)). The scanned points are built
    once, and each order scores all of them in one ``hybrid_rows`` call."""
    bases, moved_rows, owners = [], [], []
    for v in (0.0, delta / 8, delta / 2, 2 * delta, 10 * delta, 0.1):
        base = np.full(n, (1.0 - v) / (n - 1))
        base[0] = v
        base /= base.sum()
        bases.append(base)
        for step in (delta, delta / 2, delta / 4):
            for sign in (1.0, -1.0):
                moved = base.copy()
                moved[0] += sign * step
                moved[1:] -= sign * step / (n - 1)
                if np.any(moved < 0):
                    continue
                moved_rows.append(moved)
                owners.append(len(bases) - 1)
    points = np.vstack(bases + moved_rows)
    distances = np.abs(np.array(moved_rows) - np.array(bases)[owners]).sum(axis=1)
    moduli = []
    for order in orders:
        values = hybrid_rows(points, order)
        changes = np.abs(values[len(bases):] - values[owners])
        moduli.append(2.0 * max([1.0, *(changes / distances).tolist()]))
    return moduli


def check_continuity(
    q: float,
    n: int,
    seed: int,
    delta: float = 1e-4,
) -> AxiomVerdict:
    """Empirical modulus-of-continuity probe of the hybrid entropy.

    A modulus L is calibrated from a designed boundary/interior scan at the
    probe scale and reported on the verdict; each of CONTINUITY_PROBES random
    probes, bases with a zero coordinate included, must then satisfy
    |change| <= L * delta. The probes are drawn first and scored in one
    ``hybrid_rows`` call.

    delta must lie in [1e-12, 1e-3]. Below 1e-12 a move of delta is close
    to the rounding of the coordinates it moves: it can vanish, leaving the
    scan a 0/0, and the changes it causes are rounding noise.
    Advisory by construction: sampling cannot prove continuity.
    """
    return _continuity([q], n, seed, delta)[0]


def _continuity(qs, n: int, seed: int, delta: float) -> list[AxiomVerdict]:
    """``check_continuity`` at each order of qs. The probes depend only on
    (n, seed, delta), so they are drawn once, and each order scores them in
    one ``hybrid_rows`` call."""
    if not 1e-12 <= delta <= 1e-3:
        raise ValueError("delta must lie in [1e-12, 1e-3]")
    if n < 2:
        raise ValueError("continuity needs n >= 2")
    orders = [_order(q) for q in qs]
    moduli = _calibrate_moduli(orders, n, delta)
    bases, moved_rows = [], []
    drawn = 0
    for rng in _rngs([seed]):
        while len(bases) < CONTINUITY_PROBES:
            # Each round draws the missing candidates, base then direction, and
            # works on them as one stack. One with a flat direction, or whose
            # projection is its base, is dropped and a later round replaces it.
            missing = range(CONTINUITY_PROBES - len(bases))
            draws = [(rng.standard_exponential(n), rng.normal(size=n)) for _ in missing]
            base = np.array(_finish([raw for raw, _ in draws]))
            direction = np.array([normal for _, normal in draws])
            index = drawn + np.arange(len(draws))
            drawn += len(draws)
            if n >= 3:
                rows = np.flatnonzero(index % 4 == 3)
                base[rows, (index[rows] // 4) % n] = 0.0
                base[rows] /= base[rows].sum(axis=1, keepdims=True)
            direction -= direction.mean(axis=1, keepdims=True)
            norm = np.abs(direction).sum(axis=1)
            steep = norm != 0.0
            base = base[steep]
            moved = project_to_simplex(base + direction[steep] * (delta / norm[steep])[:, None])
            kept = np.abs(moved - base).sum(axis=1) != 0.0
            bases += list(base[kept])
            moved_rows += list(moved[kept])
    points = np.vstack(moved_rows + bases)
    verdicts = []
    for order, modulus in zip(orders, moduli):
        values = hybrid_rows(points, order)
        changes = np.abs(values[:CONTINUITY_PROBES] - values[CONTINUITY_PROBES:])
        slacks = (modulus * delta - changes).tolist()
        margin = float(min(slacks))
        witness = None if margin >= 0.0 else Distribution(bases[int(np.argmin(slacks))])
        verdicts.append(
            AxiomVerdict(
                axiom="continuity", q=order, n=n, margin=margin, witness=witness, modulus=modulus
            )
        )
    return verdicts


def _random_sizes(rng: np.random.Generator) -> tuple[int, int]:
    return int(rng.integers(2, MAX_SIDE + 1)), int(rng.integers(2, MAX_SIDE + 1))


def _random_rows(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """count raw rows for ``_finish`` from rng, each drawn after its size in 2..MAX_SIDE."""
    return [rng.standard_exponential(int(rng.integers(2, MAX_SIDE + 1))) for _ in range(count)]


def _product_joints(seed: int, trials: int) -> list[np.ndarray]:
    """Each trial's product joint q_b p_a, validated as ``product_joint``
    validates it: trial t draws its sizes (n_b, n_a), then p_a and q_b, from
    the stream of seed + t, which is ``default_rng(seed + t)`` bit for bit.
    One ``_rngs`` call builds the streams of all trials."""
    raws = []
    for rng in _rngs(range(seed, seed + trials)):
        n_b, n_a = _random_sizes(rng)
        raws += [rng.standard_exponential(n_a), rng.standard_exponential(n_b)]
    rows = _by_shape(DistributionStack, _finish(raws), lambda p: p.weights)
    return [np.outer(q_b, p_a) for p_a, q_b in zip(rows[::2], rows[1::2])]


def _residuals(joints: list[np.ndarray], orders: list[float]) -> np.ndarray:
    """The (T, G) residual of each joint at each order, from one
    ``chain_rule_grid`` call per joint shape."""
    return np.array(_by_shape(JointStack, joints, lambda stack: chain_rule_grid(stack, orders).residual.T))


def _independent_verdicts(orders: list[float], joints: list, residuals: np.ndarray) -> list[AxiomVerdict]:
    """``check_additivity_independent`` at each order, from the product
    ensemble and its (T, G) residuals."""
    verdicts = []
    for order, column in zip(orders, np.abs(np.transpose(residuals))):
        undefined = np.flatnonzero(~np.isfinite(column))
        worst = math.inf if undefined.size else float(column.max(initial=0.0))
        margin = RESIDUAL_TOL - worst
        witness = None
        if margin < 0.0:
            t = undefined[0] if undefined.size else np.argmax(column)
            witness = JointDistribution(joints[t])
        verdicts.append(
            AxiomVerdict(
                axiom="additivity_independent", q=order, n=MAX_SIDE, margin=margin, witness=witness
            )
        )
    return verdicts


def check_additivity_independent(q: float, seed: int, trials: int) -> AxiomVerdict:
    """Sampled product joints must satisfy the composition rule to RESIDUAL_TOL.

    The witness of a failed verdict is the first joint with the largest
    |residual|. A non-finite residual fails the verdict with margin -inf, and
    the first such joint is the witness. Raises ValueError for fewer than one
    trial or a negative seed.
    """
    q, trials = _order(q), _trials(trials)
    joints = _product_joints(seed, trials)
    return _independent_verdicts([q], joints, _residuals(joints, [q]))[0]


def _trials(trials: int) -> int:
    """trials, refused below 1 as ``verify --trials`` refuses it."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return trials


def _floor(mi_floor: float) -> float:
    """mi_floor, refused when negative: below 0 every first draw passes, so
    nothing is filtered for dependence.
    NaN and +inf pass here and are refused as unreachable by the sampler."""
    if mi_floor < 0.0:
        raise ValueError(f"mi_floor must be non-negative, got {mi_floor!r}")
    return mi_floor


def _sample_dependent(seed: int, floors, indices) -> list[list[np.ndarray]]:
    """For each mi_floor of floors, the (n_b, n_a) draw that
    ``sample_dependent_joint`` accepts at each index of seed, as drawn: the
    caller validates it. Each round draws attempt a of each index some floor
    still rejects, once for all of them, from the stream of (seed, index, a),
    which is ``default_rng((seed, index, a))`` bit for bit; one ``_rngs``
    call builds the round's streams. It judges the draws with
    ``mutual_information`` of one JointStack per shape, each joint's value
    alone bit for bit. The caller checks each mi_floor with ``_floor``."""
    for mi_floor in floors:
        if math.isnan(mi_floor) or mi_floor >= math.log(MAX_SIDE):
            raise UnreachableFloorError(
                mi_floor, f"is unreachable: no joint of at most {MAX_SIDE} outcomes a side "
                f"has mutual information above ln {MAX_SIDE}"
            )
    accepted = [{} for _ in floors]
    pending = [list(indices) for _ in floors]
    for attempt in range(SAMPLER_ATTEMPTS):
        streams = list(dict.fromkeys(i for waiting in pending for i in waiting))
        if not streams:
            break
        raws = []
        for rng in _rngs([(seed, index, attempt) for index in streams]):
            n_b, n_a = _random_sizes(rng)
            raws.append(rng.standard_exponential(n_b * n_a).reshape(n_b, n_a))
        draws = _finish(raws)
        judged = dict(zip(streams, zip(draws, _by_shape(JointStack, draws, mutual_information))))
        for mi_floor, done, waiting in zip(floors, accepted, pending):
            done.update((i, judged[i][0]) for i in waiting if judged[i][1] > mi_floor)
            waiting[:] = [i for i in waiting if i not in done]
    for mi_floor, waiting in zip(floors, pending):
        if waiting:
            raise UnreachableFloorError(
                mi_floor, f"was not exceeded in {SAMPLER_ATTEMPTS} draws (seed {seed}, index {waiting[0]})"
            )
    return [[done[index] for index in indices] for done in accepted]


def sample_dependent_joint(seed: int, index: int, mi_floor: float) -> JointDistribution:
    """Deterministic rejection sampler for joints with mutual information above
    mi_floor. Each attempt reseeds from (seed, index, attempt), so the stream
    for a given (seed, index) never depends on how other indices were consumed.
    This is the one-request case of the batched sampler the suites use, which
    judges every draw on a JointStack, so the accepted draw is the only
    JointDistribution it builds.

    Raises ValueError for a negative seed, index or mi_floor, and
    UnreachableFloorError when mi_floor is NaN or at least
    ln(MAX_SIDE), which no joint of at most MAX_SIDE outcomes per side can
    exceed, and when SAMPLER_ATTEMPTS draws all fall at or below the floor.
    """
    index = _non_negative(index, "index")
    return JointDistribution(_sample_dependent(seed, [_floor(mi_floor)], [index])[0][0])


def _rate_verdict(
    values: np.ndarray, floor: float, joints: list[np.ndarray], message: str
) -> tuple[float, JointDistribution | None]:
    """The margin rate - 0.99, where rate is the share of values above floor,
    and the first exception's joint as the witness. Every exception (a value
    at or below floor, or NaN) is logged with its joint."""
    exceptions = np.flatnonzero(~(values > floor))
    witnesses = [JointDistribution(joints[t]) for t in exceptions]
    for t, witness in zip(exceptions, witnesses):
        log.info(message, values[t], t, witness)
    margin = (len(values) - exceptions.size) / len(values) - 0.99
    return margin, witnesses[0] if witnesses else None


def check_additivity_dependent(
    q: float,
    seed: int,
    trials: int,
    mi_floor: float = MI_FLOOR,
) -> AxiomVerdict:
    """Sampled dependent joints should violate the composition rule.

    Passes when at least 99% of the trials show |residual| > VIOLATION_FLOOR;
    exceptions are logged with their joints and the first one becomes the
    witness. At q = 1 the rule holds exactly, so the observed rate is zero and
    the verdict reports that honestly rather than being meaningful. Raises
    ValueError for fewer than one trial, a negative seed or a negative
    mi_floor.
    """
    q, trials = _order(q), _trials(trials)
    draws = _sample_dependent(seed, [_floor(mi_floor)], range(trials))[0]
    return _dependent_verdict(q, draws, _residuals(draws, [q])[:, 0])


def _dependent_verdict(q: float, draws: list[np.ndarray], residuals: np.ndarray) -> AxiomVerdict:
    """``check_additivity_dependent`` at q, from the dependent ensemble as
    drawn and the residual of each of its joints at q."""
    margin, witness = _rate_verdict(
        np.abs(residuals), VIOLATION_FLOOR, draws,
        "dependent joint without violation (|residual|=%.3e, trial %d): %r",
    )
    return AxiomVerdict(
        axiom="additivity_dependent", q=q, n=MAX_SIDE, margin=margin, witness=witness
    )


@dataclass(frozen=True)
class CheckResult:
    """One named check of a verification suite; ``passed`` is margin >= 0,
    so a NaN margin fails."""

    suite: str
    check: str
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


def _suite_qcalc(seed: int, trials: int) -> list[CheckResult]:
    # Each order's draws come from one call, which gives the stream of one
    # draw at a time; all of them are drawn first, in the order the checks
    # use them. The checks stay scalar: this suite checks the scalar
    # functions, on Python floats.
    orders = (0.3, 0.5, 1.0, 1.5, 2.0)
    spans = []
    for q in orders:
        bound = 1.0 / abs(1.0 - q) if q != 1.0 else 10.0
        spans.append((-0.9 * bound, 10.0) if q < 1 else (-10.0, 0.9 * bound))
    for rng in _rngs([seed]):
        pairs = [rng.uniform(lo, hi, size=(trials, 2)).tolist() for lo, hi in spans]
        points = [rng.uniform(-2.0, 2.0, size=trials).tolist() for _ in orders]
    results = []

    worst = 0.0
    for q, drawn in zip(orders, pairs):
        for a, b in drawn:
            err = abs(kn_map(q_add(a, b, q), q) - kn_map(a, q) - kn_map(b, q))
            worst = max(worst, err)
    results.append(CheckResult("qcalc", "kn_map_homomorphism", 1e-10 - worst))

    worst = 0.0
    for q, drawn in zip(orders, points):
        for x in drawn:
            if 1.0 + (1.0 - q) * x > 1e-6:
                worst = max(worst, abs(q_log(q_exp(x, q), q) - x))
            worst = max(worst, abs(kn_map(kn_map_inv(x, q), q) - x))
    results.append(CheckResult("qcalc", "inverse_pairs", 1e-10 - worst))

    worst = 0.0
    for q in (1.0 - 1e-6, 1.0 + 1e-6):
        for x in (-1.5, -0.3, 0.2, 1.0, 2.5):
            e = float(np.exp(x))
            worst = max(worst, abs(q_exp(x, q) - e) / e)
            worst = max(worst, abs(kn_map(x, q) - x) / max(abs(x), 1.0))
    results.append(CheckResult("qcalc", "classical_limit", 1e-4 - worst))
    return results


def _suite_escort(trials: int, rows: list, products: list, dependent: list) -> list[CheckResult]:
    # rows: 4 * trials. products and dependent: the product ensemble and the
    # floor-0.01 ensemble of the request seed, which share one call per shape.
    results = []

    errors = []
    for start, q in zip(range(0, 4 * trials, trials), (0.3, 0.5, 2.0, 5.0)):
        errors += _by_shape(
            DistributionStack,
            rows[start:start + trials],
            lambda p: np.abs(escort(DistributionStack(escort(p, q)), 1.0 / q) - p.weights).max(-1),
        )
    results.append(CheckResult("escort", "inverse_round_trip", 1e-10 - float(np.max(errors))))

    gaps = np.array(_by_shape(JointStack, products + dependent, lambda stack: _construction_gap(stack, 2.0)))
    results.append(CheckResult("escort", "product_joints_consistent", 1e-9 - float(np.max(gaps[:trials]))))

    # The escort-consistent joints form a thin set that runs through the
    # dependent region, so a rare sampled joint lies within 1e-6 of it.
    margin, _ = _rate_verdict(
        gaps[trials:], 1e-6, dependent,
        "dependent joint with consistent escorts (gap=%.3e, trial %d): %r",
    )
    results.append(CheckResult("escort", "dependent_joints_inconsistent", margin))

    # Each joint's largest error over both orders of each identity: the
    # A-marginal of the correct construction, and the ratio times the naive one.
    def identity_errors(r: JointStack) -> np.ndarray:
        marginal = DistributionStack(r.weights.sum(axis=-2))
        errors = []
        for q in (0.5, 2.0):
            naive, correct = joint_escort_naive(r, q), joint_escort_correct(r, q)
            marginal_error = np.abs(correct.sum(axis=-2) - escort(marginal, q)).max(-1)
            ratio_error = np.where(naive > 0, np.abs(escort_ratio(r, q) * naive - correct), 0.0).max((-2, -1))
            errors.append(np.stack([marginal_error, ratio_error], axis=-1))
        return np.maximum(*errors)

    worst_marginal, worst_ratio = np.max(_by_shape(JointStack, dependent, identity_errors), axis=0).tolist()
    results.append(CheckResult("escort", "correct_marginal_identity", 1e-12 - worst_marginal))
    results.append(CheckResult("escort", "ratio_cross_check", 1e-10 - worst_ratio))
    return results


def _suite_axioms(seed: int, trials: int, rows: list, products: list, dependent: list) -> list[CheckResult]:
    # rows: at least 2 * trials. products and dependent: the product ensemble
    # and the MI_FLOOR ensemble of seed, evaluated together.
    results = []
    for verdict in _continuity([0.6, 2.0], n=8, seed=seed, delta=1e-4):
        results.append(CheckResult("axioms", f"continuity_q{verdict.q}", verdict.margin))
    for q in (1.0, 2.0):
        for verdict in _maximality(q, (2, 3, 4, 5)):
            results.append(CheckResult("axioms", f"maximality_q{q}_n{verdict.n}", verdict.margin))
    for q, part in zip((0.5, 2.0), (rows[:trials], rows[trials:2 * trials])):
        margins = _by_shape(DistributionStack, part, lambda p: _expansibility_margins(q, p.weights))
        results.append(CheckResult("axioms", f"expansibility_q{q}", float(np.min(margins))))
    residuals = _residuals(products + dependent, [0.5, 2.0])
    for verdict in _independent_verdicts([0.5, 2.0], products, residuals[:trials]):
        name = f"additivity_independent_q{verdict.q}"
        results.append(CheckResult("axioms", name, verdict.margin))
    verdict = _dependent_verdict(2.0, dependent, residuals[trials:, 1])
    results.append(CheckResult("axioms", "additivity_dependent_q2", verdict.margin))
    return results


def run_suite(name: str, seed: int, trials: int) -> list[CheckResult]:
    """Run one verification suite (or all of them) and collect the results.

    Every ensemble of the suites run is drawn once, from seed, and shared.
    The dependent ones come first, in one sampler pass: the escort suite's
    at floor 0.01 and the axioms suite's at MI_FLOOR
    (``check_additivity_dependent`` takes any other floor). Then the rows
    of seed's own stream: the escort suite takes 4 * trials and the axioms
    suite the first 2 * trials. Then the product ensemble of
    ``check_additivity_independent``, which both suites take. Raises
    ValueError for a name not in SUITES, fewer than one trial or a negative
    seed, as ``verify`` refuses them.
    """
    _trials(trials)
    _non_negative(seed, "seed")
    if name not in SUITES:
        raise ValueError(f"invalid suite {name!r} (choose from {', '.join(map(repr, SUITES))})")
    chosen = SUITES[:-1] if name == "all" else (name,)
    floors = [0.01] * ("escort" in chosen) + [MI_FLOOR] * ("axioms" in chosen)
    dependent = _sample_dependent(seed, floors, range(trials))
    rows_per_trial = 4 if "escort" in chosen else 2 if "axioms" in chosen else 0
    rows = _finish([row for rng in _rngs([seed]) for row in _random_rows(rng, rows_per_trial * trials)])
    products = _product_joints(seed, trials) if floors else []
    results = _suite_qcalc(seed, trials) if "qcalc" in chosen else []
    if "escort" in chosen:
        results += _suite_escort(trials, rows, products, dependent[0])
    if "axioms" in chosen:
        results += _suite_axioms(seed, trials, rows, products, dependent[-1])
    return results
