"""Independent reference implementations used as test oracles.

Everything here evaluates the definitional formulas directly (plain powers,
logs, and sums) without the branch structure, escort shortcuts, or stabilized
forms the package uses, so agreement is a genuine cross-check rather than a
tautology. The exceptions are `maximality_search`, a seeded multi-start ascent
that scores points with the package's `hybrid_rows`: it is an independent
method against the two-value reduction of `check_maximality`, so agreement
still cross-checks that reduction; and the per-draw suite loops at the end,
which call the package on one validated object per draw and are the
reference that its batched suites must match bit for bit.
"""

import math

import numpy as np

import escortropy as ep
from escortropy import axioms, project_to_simplex
from escortropy.entropies import hybrid_rows


def nat_entropy(w):
    w = np.asarray(w, dtype=float).ravel()
    w = w[w > 0]
    return float(-(w * np.log(w)).sum())


def escort_weights(p, q):
    p = np.asarray(p, dtype=float)
    w = np.where(p > 0, p**q, 0.0)
    return w / w.sum()


def aczel_daroczy(p, q):
    p = np.asarray(p, dtype=float).ravel()
    m = p > 0
    w = p[m] ** q
    return float(-(w * np.log(p[m])).sum() / w.sum())


def hybrid(p, q):
    if q == 1.0:
        return nat_entropy(p)
    return float(np.expm1((1.0 - q) * aczel_daroczy(p, q)) / (1.0 - q))


def renyi(p, alpha):
    p = np.asarray(p, dtype=float).ravel()
    if alpha == 1.0:
        return nat_entropy(p)
    m = p > 0
    return float(np.log((p[m] ** alpha).sum()) / (1.0 - alpha))


def marginal_a(r):
    return np.asarray(r, dtype=float).sum(axis=0)


def conditional_on_a(r):
    r = np.asarray(r, dtype=float)
    return r / marginal_a(r)[None, :]


def joint_escort_naive(r, q):
    r = np.asarray(r, dtype=float)
    w = np.where(r > 0, r**q, 0.0)
    return w / w.sum()


def joint_escort_correct(r, q):
    r = np.asarray(r, dtype=float)
    cond = conditional_on_a(r)
    w = np.where(cond > 0, cond**q, 0.0)
    return (w / w.sum(axis=0, keepdims=True)) * escort_weights(marginal_a(r), q)[None, :]


def cross_shannon(r, q):
    naive = joint_escort_naive(r, q)
    correct = joint_escort_correct(r, q)
    m = naive > 0
    return float(-(correct[m] * np.log(naive[m])).sum())


def conditional_chain(r, q):
    r = np.asarray(r, dtype=float)
    return aczel_daroczy(r.ravel(), q) - aczel_daroczy(marginal_a(r), q)


def conditional_axiomatic(r, q):
    r = np.asarray(r, dtype=float)
    weights = escort_weights(marginal_a(r), q)
    cond = conditional_on_a(r)
    return float(sum(weights[l] * aczel_daroczy(cond[:, l], q) for l in range(r.shape[1])))


def kn_map(x, q):
    if q == 1.0:
        return float(x)
    return float(np.log(1.0 + (1.0 - q) * x) / (1.0 - q))


def kn_map_inv(x, q):
    if q == 1.0:
        return float(x)
    return float(np.expm1((1.0 - q) * x) / (1.0 - q))


def q_addition(a, b, q):
    return a + b + (1.0 - q) * a * b


def additivity_residual(r, q):
    r = np.asarray(r, dtype=float)
    joint = hybrid(r.ravel(), q)
    marginal = hybrid(marginal_a(r), q)
    conditional = kn_map_inv(conditional_axiomatic(r, q), q)
    return joint - q_addition(marginal, conditional, q)


def chain_rule_fields(r, q):
    """Every ChainRuleReport value field of (r, q), from the definitions.

    The deformed-scale values use expm1, because exp(x) - 1 keeps only about
    seven digits when (1 - q) x is near 1e-9.
    """
    r = np.asarray(r, dtype=float)

    def deformed(x):
        return float(x) if q == 1.0 else float(np.expm1((1.0 - q) * x) / (1.0 - q))

    joint = aczel_daroczy(r.ravel(), q)
    marginal = aczel_daroczy(marginal_a(r), q)
    chain = joint - marginal
    axiomatic = conditional_axiomatic(r, q)
    naive = joint_escort_naive(r, q)
    s_gap = cross_shannon(r, q) - nat_entropy(naive)
    cond_q = conditional_on_a(r) ** q
    column_sums = cond_q.sum(axis=0)
    column_entropies = [nat_entropy(naive[:, l]) for l in range(r.shape[1])]

    def bound(row_sums):
        return float(
            sum((row_sums - s) / s * h for s, h in zip(column_sums, column_entropies))
        )

    return {
        "joint_entropy": joint,
        "marginal_entropy": marginal,
        "conditional_chain": chain,
        "conditional_axiomatic": axiomatic,
        "gap": axiomatic - chain,
        "s_gap": s_gap,
        "lower_bound": bound(cond_q.min(axis=1).sum()),
        "upper_bound": bound(cond_q.max(axis=1).sum()),
        "residual": deformed(joint) - q_addition(deformed(marginal), deformed(axiomatic), q),
        "corrected_residual": deformed(joint)
        - q_addition(deformed(marginal), deformed(axiomatic - s_gap / q), q),
    }


def mp_chain_rule_fields(r, q, dps=50):
    """Every ChainRuleReport value field of (r, q) in ``dps`` significant
    digits, as mpmath numbers, from the definitions.

    The float weights are renormalized in mpmath. Both joint escorts are built
    cell by cell, and s_gap is the cross entropy of the correct escort against
    the naive one minus the naive escort's Shannon entropy, sum (naive -
    correct) ln naive over the positive cells. The bounds replace each
    column's power sum by the sum of the row-wise minima (maxima) over the
    columns and weight the change by the column's entropy of the naive escort.
    """
    import mpmath

    with mpmath.workdps(dps):
        cells = [[mpmath.mpf(float(x)) for x in row] for row in np.asarray(r, dtype=float)]
        total = mpmath.fsum(x for row in cells for x in row)
        cells = [[x / total for x in row] for row in cells]
        q = mpmath.mpf(q)
        columns = list(zip(*cells))
        p = [mpmath.fsum(column) for column in columns]
        conditional = [[x / p_l for x in column] for column, p_l in zip(columns, p)]

        def power(x):
            return x**q if x > 0 else mpmath.mpf(0)

        def ad(weights):
            positive = [x for x in weights if x > 0]
            return -mpmath.fsum(x**q * mpmath.log(x) for x in positive) / mpmath.fsum(
                x**q for x in positive
            )

        def deformed(x):
            return x if q == 1 else mpmath.expm1((1 - q) * x) / (1 - q)

        def q_add(a, b):
            return a + b + (1 - q) * a * b

        naive_sum = mpmath.fsum(power(x) for row in cells for x in row)
        p_escort = [power(x) / mpmath.fsum(power(y) for y in p) for x in p]
        column_sums = [mpmath.fsum(power(x) for x in column) for column in conditional]
        naive = [[power(x) / naive_sum for x in column] for column in columns]
        s_gap = mpmath.fsum(
            (n - power(c) / s * weight) * mpmath.log(n)
            for column, cond, s, weight in zip(naive, conditional, column_sums, p_escort)
            for n, c in zip(column, cond)
            if n > 0
        )
        column_entropies = [-mpmath.fsum(n * mpmath.log(n) for n in col if n > 0) for col in naive]
        rows = list(zip(*conditional))

        def bound(pick):
            row_sum = mpmath.fsum(power(pick(row)) for row in rows)
            return mpmath.fsum(
                (row_sum - s) / s * h for s, h in zip(column_sums, column_entropies)
            )

        joint = ad([x for row in cells for x in row])
        marginal = ad(p)
        axiomatic = mpmath.fsum(weight * ad(c) for weight, c in zip(p_escort, conditional))
        tilted = axiomatic - s_gap / q
        return {
            "joint_entropy": joint,
            "marginal_entropy": marginal,
            "conditional_chain": joint - marginal,
            "conditional_axiomatic": axiomatic,
            "gap": axiomatic - joint + marginal,
            "s_gap": s_gap,
            "lower_bound": bound(min),
            "upper_bound": bound(max),
            "residual": deformed(joint) - q_add(deformed(marginal), deformed(axiomatic)),
            "corrected_residual": deformed(joint) - q_add(deformed(marginal), deformed(tilted)),
        }


def mp_gap_terms(r, q, dps=50):
    """(N, P, mu) of (r, q) in ``dps`` significant digits, one entry per
    column l, from the definitions: N_l is the A-marginal of the naive joint
    escort, P_l = escort(p)_l, and mu_l = sum_k e_{kl} ln r_{kl} is the escort
    mean of ln r over joint column l, with e_{kl} = r_{kl}^q / sum_k r_{kl}^q
    the escort of conditional column l. The float weights are renormalized in
    mpmath, and zero cells drop out of every sum."""
    import mpmath

    with mpmath.workdps(dps):
        cells = [[mpmath.mpf(float(x)) for x in row] for row in np.asarray(r, dtype=float)]
        total = mpmath.fsum(x for row in cells for x in row)
        columns = [[x / total for x in column if x > 0] for column in zip(*cells)]
        q = mpmath.mpf(q)
        power_sums = [mpmath.fsum(x**q for x in column) for column in columns]
        p_powers = [mpmath.fsum(column) ** q for column in columns]
        N = [s / mpmath.fsum(power_sums) for s in power_sums]
        P = [x / mpmath.fsum(p_powers) for x in p_powers]
        mu = [
            mpmath.fsum(x**q * mpmath.log(x) for x in column) / s
            for column, s in zip(columns, power_sums)
        ]
        return N, P, mu


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
ONE_HEAVY_GRID = 100
GOLDEN_REFINEMENTS = 40
THRESHOLD_BRACKET = (0.5, 0.6)
THRESHOLD_TOL = 1e-6
EXCESS_FLOOR = 1e-12


def one_heavy_max_excess(n, q):
    """Largest excess of `hybrid` over its uniform value on the one-heavy family.

    The family is (a, b, ..., b) with b = (1-a)/(n-1) and a in [1/n, 1]. A grid
    locates the best a, then golden-section search refines it inside the two
    grid cells around that point. The excess is 0 up to rounding when the
    uniform point wins the family.
    """
    uniform = hybrid(np.full(n, 1.0 / n), q)

    def excess(a):
        return hybrid(np.append(a, np.full(n - 1, (1.0 - a) / (n - 1))), q) - uniform

    points = np.linspace(1.0 / n, 1.0, ONE_HEAVY_GRID)
    values = [excess(a) for a in points]
    k = int(np.argmax(values))
    lo, hi = points[max(k - 1, 0)], points[min(k + 1, ONE_HEAVY_GRID - 1)]
    left, right = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    left_value, right_value = excess(left), excess(right)
    for _ in range(GOLDEN_REFINEMENTS):
        if left_value >= right_value:
            hi, right, right_value = right, left, left_value
            left = hi - GOLDEN * (hi - lo)
            left_value = excess(left)
        else:
            lo, left, left_value = left, right, right_value
            right = lo + GOLDEN * (hi - lo)
            right_value = excess(right)
    return max(left_value, right_value, values[k])


def maximality_threshold(n):
    """Order q*(n) below which a one-heavy point beats the uniform one.

    Bisection on whether the one-heavy excess exceeds EXCESS_FLOOR; the
    bracket must hold a beaten uniform point at its low end and a winning one
    at its high end.
    """
    lo, hi = THRESHOLD_BRACKET
    if not (one_heavy_max_excess(n, lo) > EXCESS_FLOOR >= one_heavy_max_excess(n, hi)):
        raise ValueError(f"[{lo}, {hi}] does not bracket the threshold for n={n}")
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if one_heavy_max_excess(n, mid) > EXCESS_FLOOR:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


SEARCH_RESTARTS = 20
FD_STEP = 1e-6
IMPROVEMENT_TOL = 1e-12


def ascend(x, q, iterations=500):
    """Projected finite-difference ascent from each row of an (S, n) stack of
    starts; every point stays on the simplex.

    The rows move in lockstep but independently: each keeps its own step,
    backtracks on its own, and stops when no step above 1e-9 improves it.
    One iteration makes one `hybrid_rows` call for the probes of all moving
    rows and one per backtracking round for the rows still searching, so a
    row's trajectory is the one it would follow alone. Returns the final
    points and their values.
    """
    x = np.array(x, dtype=float)
    count, n = x.shape
    eye = np.eye(n)
    value = hybrid_rows(x, q)
    step = np.full(count, 0.1)
    active = np.arange(count)
    for _ in range(iterations):
        if active.size == 0:
            break
        probes = np.concatenate(
            [x[active, None, :] + FD_STEP * eye, x[active, None, :] - FD_STEP * eye], axis=1
        ).reshape(-1, n)
        probes = np.maximum(probes, 0.0)
        probes /= probes.sum(axis=1, keepdims=True)
        probe_values = hybrid_rows(probes, q).reshape(active.size, 2 * n)
        gradient = (probe_values[:, :n] - probe_values[:, n:]) / (2.0 * FD_STEP)
        moved = np.zeros(active.size, dtype=bool)
        searching = np.flatnonzero(step[active] > 1e-9)
        while searching.size:
            rows = active[searching]
            candidates = project_to_simplex(x[rows] + step[rows, None] * gradient[searching])
            candidate_values = hybrid_rows(candidates, q)
            better = candidate_values > value[rows] + IMPROVEMENT_TOL
            won, lost = rows[better], rows[~better]
            x[won], value[won] = candidates[better], candidate_values[better]
            step[won] *= 1.5
            step[lost] *= 0.5
            moved[searching[better]] = True
            searching = searching[~better][step[lost] > 1e-9]
        active = active[moved]
    return x, value


def maximality_search(q, n, seed):
    """Best point and value of `ascend` from SEARCH_RESTARTS Dirichlet starts
    plus one near-vertex start per coordinate, all in one lockstep stack."""
    rng = np.random.default_rng(seed)
    starts = [rng.dirichlet(np.ones(n)) for _ in range(SEARCH_RESTARTS)]
    for i in range(n):
        vertex = np.full(n, 1e-3 / (n - 1))
        vertex[i] = 1.0 - 1e-3
        starts.append(vertex / vertex.sum())
    points, values = ascend(np.array(starts), q)
    best = int(np.argmax(values))  # the first of equal values, as a strict > scan keeps
    return points[best], float(values[best])


def sample_dependent_joint(seed, index, mi_floor):
    """The rejection sampler one attempt at a time, each draw validated and
    judged alone: the accepted joint and the attempt that accepted it."""
    for attempt in range(axioms.SAMPLER_ATTEMPTS):
        rng = np.random.default_rng((seed, index, attempt))
        n_b, n_a = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        joint = ep.JointDistribution(
            rng.dirichlet(np.ones(n_b * n_a)).reshape(n_b, n_a)
        )
        if ep.mutual_information(joint) > mi_floor:
            return joint, attempt
    raise ValueError("floor not reached")


def seeded_product_joint(seed):
    """The product joint that the stream of seed draws: its sizes n_b and
    n_a, then p_a, then q_b."""
    rng = np.random.default_rng(seed)
    n_b, n_a = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    return ep.product_joint(
        ep.Distribution(rng.dirichlet(np.ones(n_a))),
        ep.Distribution(rng.dirichlet(np.ones(n_b))),
    )


def construction_gap(joint, q):
    return float(np.abs(ep.joint_escort_naive(joint, q) - ep.joint_escort_correct(joint, q)).max())


def suite_escort(seed, trials):
    """The escort suite one draw at a time: {check: (passed, margin)} and the
    construction gap of each joint of the dependent ensemble. Its product
    joints are those of additivity_independent, and its three dependent
    checks read the one floor-0.01 ensemble of seed. Its
    dependent_joints_inconsistent entry is the minimum-gap form of that check,
    which required every gap to exceed 1e-6."""
    rng = np.random.default_rng(seed)
    results = {}

    worst = 0.0
    for q in (0.3, 0.5, 2.0, 5.0):
        for _ in range(trials):
            n = int(rng.integers(2, 9))
            p = ep.Distribution(rng.dirichlet(np.ones(n)))
            back = ep.escort(ep.Distribution(ep.escort(p, q)), 1.0 / q)
            worst = max(worst, float(np.abs(back - p.weights).max()))
    results["inverse_round_trip"] = (worst < 1e-10, 1e-10 - worst)

    worst = 0.0
    for t in range(trials):
        worst = max(worst, construction_gap(seeded_product_joint(seed + t), 2.0))
    results["product_joints_consistent"] = (worst < 1e-9, 1e-9 - worst)

    gaps = [
        construction_gap(sample_dependent_joint(seed, t, 0.01)[0], 2.0) for t in range(trials)
    ]
    results["dependent_joints_inconsistent"] = (min(gaps) > 1e-6, min(gaps) - 1e-6)

    worst = 0.0
    for t in range(trials):
        joint, _ = sample_dependent_joint(seed, t, 0.01)
        for q in (0.5, 2.0):
            correct = ep.joint_escort_correct(joint, q)
            target = ep.escort(ep.Distribution(joint.weights.sum(axis=0)), q)
            worst = max(worst, float(np.abs(correct.sum(axis=0) - target).max()))
    results["correct_marginal_identity"] = (worst < 1e-12, 1e-12 - worst)

    worst = 0.0
    for t in range(trials):
        joint, _ = sample_dependent_joint(seed, t, 0.01)
        for q in (0.5, 2.0):
            naive = ep.joint_escort_naive(joint, q)
            correct = ep.joint_escort_correct(joint, q)
            ratio = ep.escort_ratio(joint, q)
            mask = naive > 0
            worst = max(worst, float(np.abs(ratio[mask] * naive[mask] - correct[mask]).max()))
    results["ratio_cross_check"] = (worst < 1e-10, 1e-10 - worst)
    return results, gaps


def _hybrid_of(row, q):
    return float(hybrid_rows(row[None, :], q)[0])


def continuity(q, n, seed, delta=1e-4):
    """check_continuity with one `hybrid_rows` call per scored point:
    (passed, margin, modulus)."""
    ratios = [1.0]
    for v in (0.0, delta / 8, delta / 2, 2 * delta, 10 * delta, 0.1):
        base = np.full(n, (1.0 - v) / (n - 1))
        base[0] = v
        base /= base.sum()
        base_value = _hybrid_of(base, q)
        for step in (delta, delta / 2, delta / 4):
            for sign in (1.0, -1.0):
                moved = base.copy()
                moved[0] += sign * step
                moved[1:] -= sign * step / (n - 1)
                if np.any(moved < 0):
                    continue
                distance = float(np.abs(moved - base).sum())
                ratios.append(abs(_hybrid_of(moved, q) - base_value) / distance)
    modulus = 2.0 * max(ratios)
    slacks = []
    for base, shifted in continuity_candidates(n, seed, delta):
        moved = project_to_simplex(shifted)
        if np.abs(moved - base).sum() == 0.0:
            continue
        slacks.append(modulus * delta - abs(_hybrid_of(moved, q) - _hybrid_of(base, q)))
        if len(slacks) == axioms.CONTINUITY_PROBES:
            break
    margin = float(min(slacks))
    return margin >= 0.0, margin, modulus


def continuity_candidates(n, seed, delta):
    """The candidate probes of check_continuity, one at a time and without
    end: each base, and the base moved by delta before it is projected."""
    rng = np.random.default_rng(seed)
    drawn = 0
    while True:
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
        yield base, base + direction * (delta / norm)


def additivity_independent(q, seed, trials):
    """check_additivity_independent one chain_rule_report at a time:
    (margin, witness), the witness being the first worst joint."""
    worst, witness = 0.0, None
    for t in range(trials):
        joint = seeded_product_joint(seed + t)
        residual = abs(ep.chain_rule_report(joint, q).residual)
        if not math.isfinite(residual):
            return -math.inf, joint
        if residual > worst:
            worst, witness = residual, joint
    return axioms.RESIDUAL_TOL - worst, witness


def suite_axioms(seed, trials, mi_floor=0.05):
    """The axioms suite one draw at a time: {check: (passed, margin)}."""
    results = {}
    for q in (0.6, 2.0):
        passed, margin, _ = continuity(q, 8, seed)
        results[f"continuity_q{q}"] = (passed, margin)
    for q in (1.0, 2.0):
        for n in (2, 3, 4, 5):
            verdict = ep.check_maximality(q, n=n)
            results[f"maximality_q{q}_n{n}"] = (verdict.passed, verdict.margin)
    rng = np.random.default_rng(seed)
    for q in (0.5, 2.0):
        ok, worst = True, np.inf
        for _ in range(trials):
            p = ep.Distribution(rng.dirichlet(np.ones(int(rng.integers(2, 9)))))
            padded = ep.Distribution(np.append(p.weights, 0.0))
            margin = 1e-12 - abs(ep.hybrid(padded, q) - ep.hybrid(p, q))
            ok, worst = ok and margin >= 0.0, min(worst, margin)
        results[f"expansibility_q{q}"] = (ok, worst)
    for q in (0.5, 2.0):
        margin, _ = additivity_independent(q, seed, trials)
        results[f"additivity_independent_q{q}"] = (margin >= 0.0, margin)
    violations = 0
    for t in range(trials):
        joint, _ = sample_dependent_joint(seed, t, mi_floor)
        violations += abs(ep.chain_rule_report(joint, 2.0).residual) > axioms.VIOLATION_FLOOR
    margin = violations / trials - 0.99
    results["additivity_dependent_q2"] = (margin >= 0.0, margin)
    return results
