import importlib
import itertools
import tracemalloc

import numpy as np
import pytest

from escortropy import (
    AxiomVerdict,
    Distribution,
    JointDistribution,
    JointStack,
    UnreachableFloorError,
    chain_rule_report,
    check_additivity_dependent,
    check_additivity_independent,
    check_continuity,
    check_expansibility,
    check_maximality,
    hybrid,
    mutual_information,
    product_joint,
    project_to_simplex,
    sample_dependent_joint,
)
from escortropy import axioms
from escortropy.escort import _construction_gap
from escortropy.axioms import CheckResult, run_suite
from escortropy.entropies import hybrid_rows

import oracles


def test_project_to_simplex_basics():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.normal(size=rng.integers(2, 9)) * 3.0
        x = project_to_simplex(v)
        assert np.all(x >= 0)
        assert abs(x.sum() - 1.0) < 1e-12
    already = np.array([0.2, 0.3, 0.5])
    assert np.abs(project_to_simplex(already) - already).max() < 1e-12


def test_project_to_simplex_stack_is_rowwise():
    rng = np.random.default_rng(4)
    for n in (1, 2, 5, 8):
        stack = rng.normal(size=(7, n)) * 3.0
        stack[0] = 1.0 / n  # already on the simplex
        projected = project_to_simplex(stack)
        assert projected.shape == stack.shape
        for row, out in zip(stack, projected):
            assert np.array_equal(project_to_simplex(row), out)


def test_lockstep_ascent_matches_each_row_alone():
    rng = np.random.default_rng(6)
    for q, n in ((0.5, 4), (2.0, 3), (0.3, 6)):
        starts = rng.dirichlet(np.ones(n), size=9)
        starts[0] = 1.0 / n  # a start that stops at once
        points, values = oracles.ascend(starts, q, iterations=60)
        for start, point, value in zip(starts, points, values):
            alone_point, alone_value = oracles.ascend(start[None, :], q, iterations=60)
            assert np.array_equal(alone_point[0], point)
            assert alone_value[0] == value


@pytest.mark.parametrize(
    "q, n, seed, margin, witness",
    [
        (
            0.5, 4, 0, "-0.011730778300085731",
            [0.12184909628796044, 0.6344522428635357, 0.12184925582361782, 0.12184940502488606],
        ),
        (
            2.0, 5, 11, "1.0000082983907532e-09",
            [
                0.19999999027019474, 0.20000006605349105, 0.19999998063953076,
                0.19999997830298846, 0.199999984733795,
            ],
        ),
    ],
)
def test_maximality_margin_and_witness_are_pinned(q, n, seed, margin, witness):
    # Values of the one-start-at-a-time search, which the lockstep ascent reproduces exactly.
    point, value = oracles.maximality_search(q, n, seed)
    uniform = float(hybrid_rows(np.full((1, n), 1.0 / n), q)[0])
    assert repr(uniform + axioms.MAXIMALITY_SLACK - value) == margin
    assert Distribution(point).weights.tolist() == witness


def test_reduction_margin_is_no_worse_than_the_pinned_search():
    verdict = check_maximality(0.5, n=4)
    assert verdict.margin <= float("-0.011730778300085731") + 1e-15
    values, counts = np.unique(verdict.witness.weights, return_counts=True)
    assert values.size == 2 and counts[-1] == 1  # one heavy coordinate, the rest equal


@pytest.mark.parametrize(
    "check",
    [lambda n: check_maximality(2.0, n=n), lambda n: check_continuity(2.0, n=n, seed=0)],
    ids=["maximality", "continuity"],
)
@pytest.mark.parametrize("n", [0, 1])
def test_checkers_reject_fewer_than_two_outcomes(check, n):
    with pytest.raises(ValueError, match="n >= 2"):
        check(n)


def test_expansibility_examples():
    verdict = check_expansibility(2.0, Distribution([0.5, 0.5]))
    assert verdict.passed and verdict.axiom == "expansibility"
    assert check_expansibility(0.5, Distribution([0.3, 0.2, 0.5])).passed
    assert check_expansibility(3.0, Distribution([1.0])).passed


def test_expansibility_over_sampled_points():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p = Distribution(rng.dirichlet(np.ones(rng.integers(2, 9))))
        for q in (0.5, 0.7, 2.0, 5.0):
            verdict = check_expansibility(q, p)
            assert verdict.passed and verdict.margin >= 0.0


def test_maximality_passes_for_shannon_and_quadratic_orders():
    for q in (1.0, 2.0):
        for n in (2, 3, 4, 5, 6):
            verdict = check_maximality(q, n=n)
            assert verdict.passed, (q, n, verdict.margin)
            assert verdict.witness is not None
            assert np.abs(verdict.witness.weights - 1.0 / n).max() < 1e-3


def test_maximality_passes_at_half_order_for_two_outcomes():
    verdict = check_maximality(0.5, n=2)
    assert verdict.passed


def test_maximality_fails_at_low_order():
    # Well below the uniform-maximizer region the probe must find a better point.
    verdict = check_maximality(0.3, n=2)
    assert not verdict.passed
    assert verdict.margin < -0.1
    witness_value = hybrid(verdict.witness, 0.3)
    uniform_value = hybrid(Distribution([0.5, 0.5]), 0.3)
    assert witness_value > uniform_value


def test_maximality_fails_at_exactly_half_order_for_three_or_more():
    # The one-heavy configuration beats the uniform point at q = 1/2, n >= 3.
    verdict = check_maximality(0.5, n=4)
    assert not verdict.passed
    assert hybrid(verdict.witness, 0.5) > hybrid(Distribution([0.25] * 4), 0.5)


def test_maximality_witness_is_on_simplex():
    verdict = check_maximality(0.3, n=5)
    assert np.all(verdict.witness.weights >= 0)
    assert abs(verdict.witness.weights.sum() - 1.0) < 1e-12


def test_passed_is_a_non_negative_margin():
    # A margin of exactly 0 passes, as "margin >= 0 iff passed" states, and a
    # NaN margin fails.
    for margin, passed in ((0.0, True), (-1e-300, False), (float("nan"), False)):
        assert AxiomVerdict(axiom="continuity", q=2.0, n=3, margin=margin).passed is passed
        assert CheckResult("axioms", "continuity_q2.0", margin).passed is passed


def test_verdicts_are_deterministic():
    a = check_maximality(2.0, n=4)
    b = check_maximality(2.0, n=4)
    assert a.margin == b.margin
    assert np.array_equal(a.witness.weights, b.witness.weights)
    c = check_continuity(2.0, n=8, seed=5)
    d = check_continuity(2.0, n=8, seed=5)
    assert c.margin == d.margin and c.modulus == d.modulus
    e = check_additivity_independent(2.0, seed=7, trials=50)
    f = check_additivity_independent(2.0, seed=7, trials=50)
    assert e.margin == f.margin


def test_continuity_probe_smooth_interior():
    verdict = check_continuity(2.0, n=8, seed=0, delta=1e-4)
    assert verdict.passed
    assert verdict.modulus is not None and verdict.modulus >= 1.0


def test_continuity_probe_near_boundary_low_order():
    # q < 1 has steep boundary behavior; the calibrated modulus absorbs it.
    verdict = check_continuity(0.6, n=6, seed=0, delta=1e-4)
    assert verdict.passed
    assert verdict.modulus >= 1.0


def test_continuity_rejects_bad_delta():
    with pytest.raises(ValueError):
        check_continuity(2.0, n=4, seed=0, delta=0.1)


def test_continuity_rejects_a_delta_it_cannot_resolve():
    # At 1e-17 a move of the modulus scan rounds away, and the scan divides
    # 0 by 0; 1e-12 still resolves, with room to spare.
    with pytest.raises(ValueError, match=r"\[1e-12, 1e-3\]"):
        check_continuity(2.0, n=8, seed=0, delta=1e-17)
    for q in (0.6, 2.0):
        verdict = check_continuity(q, n=8, seed=0, delta=1e-12)
        assert verdict.passed and verdict.margin > 0.0


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize(
    "check",
    [
        lambda trials: check_additivity_independent(2.0, seed=0, trials=trials),
        lambda trials: check_additivity_dependent(2.0, seed=0, trials=trials),
        *(
            lambda trials, name=name: run_suite(name, seed=0, trials=trials)
            for name in ("qcalc", "escort", "axioms", "all")
        ),
    ],
    ids=["independent", "dependent", "suite-qcalc", "suite-escort", "suite-axioms", "suite-all"],
)
def test_ensemble_checks_reject_fewer_than_one_trial(check, trials):
    # With no trials a pass would rest on no evidence, and a rate would
    # divide by zero.
    with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
        check(trials)


@pytest.mark.parametrize("q", [2, np.float64(2.0)])
def test_verdict_orders_are_builtin_floats(q):
    verdicts = [
        check_maximality(q, 3),
        check_expansibility(q, Distribution([0.5, 0.5])),
        check_continuity(q, 3, seed=0),
        check_additivity_independent(q, seed=0, trials=3),
        check_additivity_dependent(q, seed=0, trials=3),
    ]
    assert [type(verdict.q) for verdict in verdicts] == [float] * 5


def test_additivity_independent_passes():
    for q in (0.5, 3.0):
        verdict = check_additivity_independent(q, seed=0, trials=300)
        assert verdict.passed
        assert verdict.margin > 0.0
        assert verdict.witness is None


def test_additivity_independent_fair_coins():
    verdict = check_additivity_independent(2.0, seed=123, trials=10)
    assert verdict.passed


def test_additivity_dependent_detects_violations():
    verdict = check_additivity_dependent(2.0, seed=0, trials=200, mi_floor=0.05)
    assert verdict.passed
    assert verdict.margin >= 0.0


def test_additivity_dependent_order_one_control():
    # At q = 1 the composition rule holds, so no violations are observed and
    # the verdict honestly reports a zero rate.
    verdict = check_additivity_dependent(1.0, seed=0, trials=100, mi_floor=0.05)
    assert not verdict.passed
    assert verdict.margin == pytest.approx(-0.99, abs=1e-12)


def test_dependent_sampler_respects_floor_and_determinism():
    for t in range(50):
        joint = sample_dependent_joint(9, t, mi_floor=0.05)
        assert mutual_information(joint) > 0.05
    a = sample_dependent_joint(9, 7, mi_floor=0.05)
    b = sample_dependent_joint(9, 7, mi_floor=0.05)
    assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize("floor", [float("nan"), np.log(8), 3.0, float("inf")])
def test_dependent_sampler_rejects_unreachable_floor(floor):
    with pytest.raises(UnreachableFloorError, match="floor"):
        sample_dependent_joint(0, 0, mi_floor=floor)


# Each entry point that takes a mutual-information floor refuses a negative
# one in the same words.
NEGATIVE_FLOOR_CALLS = {
    "check_additivity_dependent": lambda: check_additivity_dependent(2.0, 0, 3, mi_floor=-1.0),
    "sample_dependent_joint": lambda: sample_dependent_joint(0, 0, mi_floor=-1.0),
}


@pytest.mark.parametrize("call", NEGATIVE_FLOOR_CALLS.values(), ids=NEGATIVE_FLOOR_CALLS)
def test_negative_mi_floor_is_refused(call):
    # Below 0 every first draw is accepted, so nothing is filtered for
    # dependence and the verdict means nothing.
    with pytest.raises(ValueError, match=r"mi_floor must be non-negative, got -1\.0"):
        call()


def test_unknown_suite_is_refused_with_the_suite_names():
    with pytest.raises(ValueError) as info:
        run_suite("bogus", 0, 10)
    assert str(info.value) == "invalid suite 'bogus' (choose from 'qcalc', 'escort', 'axioms', 'all')"


NEGATIVE_SEED_CALLS = {
    "check_additivity_independent": (lambda: check_additivity_independent(2.0, -5, 10), "seed"),
    "check_additivity_dependent": (lambda: check_additivity_dependent(2.0, -5, 10), "seed"),
    "check_continuity": (lambda: check_continuity(2.0, 3, seed=-1), "seed"),
    "sample_dependent_joint-seed": (lambda: sample_dependent_joint(-1, 0, 0.05), "seed"),
    "sample_dependent_joint-index": (lambda: sample_dependent_joint(0, -1, 0.05), "index"),
    "run_suite": (lambda: run_suite("qcalc", -1, 10), "seed"),
}


@pytest.mark.parametrize("call, name", NEGATIVE_SEED_CALLS.values(), ids=NEGATIVE_SEED_CALLS)
def test_negative_seed_or_index_is_refused_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -"):
        call()


def test_dependent_sampler_stops_at_attempt_cap(monkeypatch):
    monkeypatch.setattr(axioms, "SAMPLER_ATTEMPTS", 5)
    with pytest.raises(UnreachableFloorError, match="1.5 was not exceeded in 5 draws"):
        sample_dependent_joint(0, 0, mi_floor=1.5)


def test_additivity_independent_matches_the_per_joint_loop():
    # One chain_rule_grid call per shape must keep the margin and the witness
    # (the first worst trial) of evaluating the joints one by one.
    for q in (0.5, 2.0, 5.0):
        worst, witness = 0.0, None
        for t in range(60):
            rng = np.random.default_rng(3 + t)
            n_b, n_a = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            joint = product_joint(
                Distribution(rng.dirichlet(np.ones(n_a))),
                Distribution(rng.dirichlet(np.ones(n_b))),
            )
            residual = abs(chain_rule_report(joint, q).residual)
            if residual > worst:
                worst, witness = residual, joint
        verdict = check_additivity_independent(q, seed=3, trials=60)
        assert verdict.margin == axioms.RESIDUAL_TOL - worst
        if verdict.passed:
            assert verdict.witness is None
        else:
            assert np.array_equal(verdict.witness.weights, witness.weights)


def test_additivity_independent_fails_on_non_finite_residuals():
    # At q = 900 the q-th powers of these joints underflow and their residuals
    # are NaN; an undefined residual must fail the verdict, not slip past the
    # running maximum, and the first such joint is the witness.
    with np.errstate(all="ignore"):
        verdict = check_additivity_independent(900.0, seed=0, trials=20)
        first = None
        for t in range(20):
            rng = np.random.default_rng(t)
            n_b, n_a = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            joint = product_joint(
                Distribution(rng.dirichlet(np.ones(n_a))),
                Distribution(rng.dirichlet(np.ones(n_b))),
            )
            if not np.isfinite(chain_rule_report(joint, 900.0).residual):
                first = joint
                break
    assert first is not None
    assert not verdict.passed
    assert verdict.margin < 0.0
    assert np.array_equal(verdict.witness.weights, first.weights)


@pytest.mark.parametrize("q", [1.0, 2.0, 20.0])
def test_additivity_dependent_matches_the_per_joint_loop(q, caplog):
    trials = 40
    expected_lines, witness, violations = [], None, 0
    for t in range(trials):
        joint = sample_dependent_joint(11, t, mi_floor=0.05)
        residual = abs(chain_rule_report(joint, q).residual)
        if residual > axioms.VIOLATION_FLOOR:
            violations += 1
        else:
            witness = joint if witness is None else witness
            expected_lines.append(
                "dependent joint without violation (|residual|=%.3e, trial %d): %r"
                % (residual, t, joint)
            )
    with caplog.at_level("INFO", logger="escortropy.axioms"):
        verdict = check_additivity_dependent(q, seed=11, trials=trials, mi_floor=0.05)
    assert verdict.margin == violations / trials - 0.99
    assert [record.getMessage() for record in caplog.records] == expected_lines
    if witness is None:
        assert verdict.witness is None
    else:
        assert np.array_equal(verdict.witness.weights, witness.weights)


def test_dependent_sampler_validates_only_the_accepted_draw(monkeypatch):
    # Replays the sampler's attempts with a validated joint for each draw, as
    # the acceptance rule is stated, then counts the joints it builds itself.
    seed, index, floor = 0, 2, 0.4  # accepted at attempt 7
    for attempt in range(axioms.SAMPLER_ATTEMPTS):
        rng = np.random.default_rng((seed, index, attempt))
        n_b, n_a = axioms._random_sizes(rng)
        flat = rng.dirichlet(np.ones(n_b * n_a))
        expected = JointDistribution(flat.reshape(n_b, n_a))
        if mutual_information(expected) > floor:
            break
    assert attempt > 0
    built = []
    original = JointDistribution.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(JointDistribution, "__post_init__", counted)
    joint = sample_dependent_joint(seed, index, mi_floor=floor)
    assert len(built) == 1
    assert joint.weights.tobytes() == expected.weights.tobytes()


@pytest.mark.parametrize("floor", [0.01, 0.05])
def test_batched_sampler_is_the_lone_index_sampler(floor):
    seed, count = 1, 60
    [draws] = axioms._sample_dependent([(seed, floor)], range(count))
    attempts = []
    for index, draw in enumerate(draws):
        expected, attempt = oracles.sample_dependent_joint(seed, index, floor)
        attempts.append(attempt)
        assert JointDistribution(draw).weights.tobytes() == expected.weights.tobytes()
        lone = sample_dependent_joint(seed, index, mi_floor=floor)
        assert lone.weights.tobytes() == expected.weights.tobytes()
    # Some index is accepted only after its attempt 0 was rejected.
    assert max(attempts) > 0
    # An index's draw does not depend on which other indices share its rounds.
    picked = [attempts.index(max(attempts)), 0, attempts.index(max(attempts))]
    [again] = axioms._sample_dependent([(seed, floor)], picked)
    for index, draw in zip(picked, again):
        assert draw.tobytes() == draws[index].tobytes()


def test_requests_sharing_a_sampler_pass_draw_their_lone_draws():
    # Two floors on one seed share each stream their rounds both reach; a
    # third request on another seed shares the rounds only.
    requests, count = [(1, 0.01), (1, 0.05), (2, 0.01)], 60
    shared = axioms._sample_dependent(requests, range(count))
    for request, draws in zip(requests, shared):
        [alone] = axioms._sample_dependent([request], range(count))
        assert [draw.tobytes() for draw in draws] == [draw.tobytes() for draw in alone]


def _recorded_entropies(monkeypatch) -> list:
    """The entropies that axioms passes to ``_rngs``, in order."""
    entropies = []
    rngs = axioms._rngs

    def recorded(batch):
        batch = list(batch)
        entropies.extend(batch)
        return rngs(batch)

    monkeypatch.setattr(axioms, "_rngs", recorded)
    return entropies


def test_a_suite_request_builds_each_sampler_stream_once(monkeypatch):
    # The escort suite's first ensemble and the axioms suite's ensemble both
    # draw from the request seed; each (seed, index, attempt) stream is built
    # once and judged against both floors.
    entropies = _recorded_entropies(monkeypatch)
    run_suite("all", 0, 50)
    streams = [entropy for entropy in entropies if type(entropy) is tuple]
    assert {seed for seed, _, _ in streams} == {0, 10_000, 20_000}
    assert len(set(streams)) == len(streams)


def test_a_suite_request_builds_the_seeds_own_generator_three_times(monkeypatch):
    # Both product ensembles build default_rng(seed + t) for each trial t.
    # Beside trial 0 of each, the request seed's own generator is built by
    # the qcalc suite, by continuity, and once for the row stream that the
    # escort suite takes whole and the axioms suite takes a prefix of.
    entropies = _recorded_entropies(monkeypatch)
    run_suite("all", 0, 50)
    seeds = [entropy for entropy in entropies if type(entropy) is not tuple]
    assert sorted(seeds) == sorted([0] * 3 + [*range(50)] * 2)


@pytest.mark.parametrize("trials", [1, 200])
@pytest.mark.parametrize("seed", [0, 8000019])
def test_all_suites_are_each_suite_alone(seed, trials):
    # Under "all" every dependent ensemble is drawn in one sampler pass, and
    # the axioms suite's rows are the first 2 * trials of the escort suite's
    # 4 * trials.
    def margins(results):
        return [(r.suite, r.check, r.margin.hex()) for r in results]

    alone = [r for name in ("qcalc", "escort", "axioms") for r in run_suite(name, seed, trials)]
    assert margins(run_suite("all", seed, trials)) == margins(alone)


@pytest.mark.parametrize("trials", [1, 40])
@pytest.mark.parametrize("seed", [0, 3])
def test_the_dependent_row_is_check_additivity_dependent_at_mi_floor(seed, trials):
    # The suite's floor is fixed; the library check takes any other.
    [row] = [r for r in run_suite("axioms", seed, trials) if r.check == "additivity_dependent_q2"]
    verdict = check_additivity_dependent(2.0, seed, trials, mi_floor=axioms.MI_FLOOR)
    assert row.margin.hex() == verdict.margin.hex()


@pytest.mark.parametrize("seed", [0, 5])
def test_every_suite_row_holds_a_built_in_float_and_bool(seed):
    for name in ("qcalc", "escort", "axioms", "all"):
        for result in run_suite(name, seed, 1):
            assert (type(result.margin), type(result.passed)) == (float, bool), result.check


def test_continuity_matches_the_per_probe_loop():
    for q, n, seed in ((0.6, 8, 0), (2.0, 8, 3), (0.3, 2, 1), (0.5, 3, 7)):
        verdict = check_continuity(q, n=n, seed=seed)
        passed, margin, modulus = oracles.continuity(q, n, seed)
        assert (verdict.passed, repr(verdict.margin), repr(verdict.modulus)) == (
            passed, repr(margin), repr(modulus)
        )


def _assert_continuity_is_the_oracle(orders, n, seed, delta):
    verdicts = axioms._continuity(orders, n, seed, delta)
    assert [verdict.q for verdict in verdicts] == list(orders)
    for q, verdict in zip(orders, verdicts):
        passed, margin, modulus = oracles.continuity(q, n, seed, delta)
        assert (verdict.passed, repr(verdict.margin), repr(verdict.modulus)) == (
            passed, repr(margin), repr(modulus)
        )


def test_continuity_over_orders_is_the_per_probe_loop_at_each_order():
    for n, seed, delta in ((8, 0, 1e-4), (3, 7, 1e-3), (2, 1, 1e-4)):
        _assert_continuity_is_the_oracle([0.6, 2.0], n, seed, delta)


def test_continuity_replaces_a_probe_that_projects_to_its_base(monkeypatch):
    # No sampled probe projects back onto its base, so the projection is
    # patched to return the base of every third candidate. Those candidates
    # are dropped and replaced by later draws, as the one-at-a-time loop does.
    n, seed, delta = 8, 4, 1e-4
    candidates = itertools.islice(oracles.continuity_candidates(n, seed, delta), 120)
    bases = {shifted.tobytes(): base for t, (base, shifted) in enumerate(candidates) if t % 3 == 1}
    dropped = []

    def projection(v):
        rows = np.atleast_2d(v)
        out = project_to_simplex(rows)
        for t, row in enumerate(rows):
            if row.tobytes() in bases:
                out[t] = bases[row.tobytes()]
                dropped.append(row.tobytes())
        return out if np.ndim(v) == 2 else out[0]

    monkeypatch.setattr(axioms, "project_to_simplex", projection)
    monkeypatch.setattr(oracles, "project_to_simplex", projection)
    axioms._continuity([0.6], n, seed, delta)
    assert len(dropped) > 20
    _assert_continuity_is_the_oracle([0.6, 2.0], n, seed, delta)


class _FlatEveryFifthNormal:
    """A generator whose every fifth ``normal`` draw is made and then replaced
    by a constant vector, which centres to a flat direction."""

    def __init__(self, rng, flat):
        self._rng, self._flat, self._normals = rng, flat, 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def normal(self, size):
        draw = self._rng.normal(size=size)
        self._normals += 1
        if self._normals % 5 == 0:
            self._flat.append(self._normals)
            return np.full(size, 0.375)
        return draw


@pytest.mark.parametrize("n", [3, 8])
def test_continuity_drops_a_probe_with_a_flat_direction(monkeypatch, n):
    # No sampled direction centres to zero, so every fifth one is made
    # constant, in the package's generator and in the oracle's default_rng.
    # Those candidates are dropped and replaced by later draws, as the
    # one-at-a-time loop does.
    seed, delta, flat, scored = 6, 1e-4, [], []
    rngs, default_rng = axioms._rngs, np.random.default_rng
    monkeypatch.setattr(axioms, "_rngs", lambda batch: (_FlatEveryFifthNormal(rng, flat) for rng in rngs(batch)))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _FlatEveryFifthNormal(default_rng(seed), flat))
    monkeypatch.setattr(axioms, "hybrid_rows", lambda points, q: scored.append(points) or hybrid_rows(points, q))
    axioms._continuity([0.6], n, seed, delta)
    assert len(flat) > 10
    # The probes scored are the oracle's, moved points first, in draw order.
    moved, bases = [], []
    for base, shifted in oracles.continuity_candidates(n, seed, delta):
        if len(bases) == axioms.CONTINUITY_PROBES:
            break
        projected = project_to_simplex(shifted)
        if np.abs(projected - base).sum() != 0.0:
            moved.append(projected)
            bases.append(base)
    assert scored[-1].tobytes() == np.vstack(moved + bases).tobytes()
    _assert_continuity_is_the_oracle([0.6, 2.0], n, seed, delta)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.52, 0.6, 1.0, 1.0 + 1e-9, 2.0, 5.0])
def test_maximality_over_sizes_is_each_size_alone(q):
    verdicts = axioms._maximality(q, range(2, 17))
    assert [verdict.n for verdict in verdicts] == list(range(2, 17))
    for verdict in verdicts:
        alone = check_maximality(q, verdict.n)
        assert (verdict.passed, repr(verdict.margin)) == (alone.passed, repr(alone.margin))
        assert verdict.witness.weights.tobytes() == alone.witness.weights.tobytes()


@pytest.mark.parametrize(
    "n, margin, heavy, light",
    [
        (40, "-0x1.57b47bc4b664cp+1", "0x1.bdab872c6b744p-1", "0x1.b3658f45732b6p-9"),
        (100, "-0x1.1877583492c6ep+3", "0x1.d6de921d1a6a7p-1", "0x1.a96e75c60b359p-11"),
    ],
)
def test_maximality_at_many_families_is_pinned(n, margin, heavy, light):
    # Sizes whose families span several scan blocks: one heavy coordinate,
    # n - 1 light ones, bit for bit as one stack of all families gives them.
    verdict = check_maximality(0.5, n)
    assert verdict.margin.hex() == margin
    assert [w.hex() for w in verdict.witness.weights.tolist()] == [heavy] + [light] * (n - 1)


def test_maximality_memory_is_bounded():
    # One stack of all 4,950 families of n = 100 traced a 238 MB peak.
    tracemalloc.start()
    try:
        check_maximality(0.5, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def _escort_dependent_gaps(seed, trials):
    """The escort suite's first dependent ensemble, as drawn, and the
    construction gap at q = 2 of each joint, one JointStack per shape."""
    [joints] = axioms._sample_dependent([(seed, 0.01)], range(trials))
    gaps = axioms._by_shape(JointStack, joints, lambda stack: _construction_gap(stack, 2.0))
    return joints, np.array(gaps)


@pytest.mark.parametrize("seed", [0, 12345, 8000019])
def test_run_suite_matches_the_per_draw_loops(seed):
    trials = 200
    escort_checks, gaps = oracles.suite_escort(seed, trials)
    reference = {("escort", name): value for name, value in escort_checks.items()}
    reference.update(
        {("axioms", name): value for name, value in oracles.suite_axioms(seed, trials).items()}
    )
    results = [r for r in run_suite("all", seed, trials) if r.suite != "qcalc"]
    assert [(r.suite, r.check) for r in results] == list(reference)
    for result in results:
        if result.check == "dependent_joints_inconsistent":
            # The check is a rate now; its per-joint gaps are the reference's.
            _, batched = _escort_dependent_gaps(seed, trials)
            assert [g.hex() for g in batched.tolist()] == [g.hex() for g in gaps]
            rate = sum(g > 1e-6 for g in gaps) / trials
            assert repr(result.margin) == repr(rate - 0.99)
        else:
            passed, margin = reference[(result.suite, result.check)]
            assert (result.passed, repr(result.margin)) == (passed, repr(margin)), result


def test_dependent_joints_inconsistent_is_a_rate(caplog):
    # One of the 200 sampled dependent joints at this seed has a construction
    # gap of 4.9e-7: the escort-consistent set runs through the dependent
    # region, so nothing promises every gap exceeds 1e-6, only nearly all.
    seed = 8000019
    with caplog.at_level("INFO", logger="escortropy.axioms"):
        results = {r.check: r for r in run_suite("escort", seed, 200)}
    check = results["dependent_joints_inconsistent"]
    assert check.passed
    assert check.margin == 199 / 200 - 0.99
    joints, gaps = _escort_dependent_gaps(seed, 200)
    assert np.flatnonzero(gaps <= 1e-6).tolist() == [74]
    assert 0.0 < gaps[74] < 1e-6
    assert [record.getMessage() for record in caplog.records] == [
        "dependent joint with consistent escorts (gap=%.3e, trial 74): %r"
        % (gaps[74], JointDistribution(joints[74]))
    ]


def test_dependent_joints_inconsistent_fails_when_the_constructions_coincide(monkeypatch):
    # With the correct construction replaced by the naive one every gap is 0.
    escort_module = importlib.import_module("escortropy.escort")
    monkeypatch.setattr(escort_module, "joint_escort_correct", escort_module.joint_escort_naive)
    check = {r.check: r for r in run_suite("escort", 0, 50)}["dependent_joints_inconsistent"]
    assert not check.passed
    assert check.margin == -0.99


def test_max_side_bounds_every_verify_ensemble(monkeypatch):
    shapes = []
    by_shape = axioms._by_shape

    def recorded(make_stack, items, evaluate):
        shapes.extend(item.shape for item in items)
        return by_shape(make_stack, items, evaluate)

    monkeypatch.setattr(axioms, "MAX_SIDE", 3)
    monkeypatch.setattr(axioms, "_by_shape", recorded)
    run_suite("all", 0, 20)
    assert shapes
    assert max(max(shape) for shape in shapes) <= 3
