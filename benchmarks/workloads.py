"""The three benchmark workloads: how each request is built and how its output
is checked.

Every request is one call of ``escortropy.cli.main(argv)``. Inputs derive
only from the workload seed. ``check`` returns ``(failed_rows,
well_formed)``. A row fails when any check on it fails. A request fails every
one of its rows when it exits non-zero, when its output has the wrong shape,
or when a value that covers the whole request is wrong. Only output of the
wrong shape, or a non-zero exit other than ``verify``'s own verdict of 1,
makes a request not well formed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Request seeds of one run start at workload_seed * SEED_SPACING, so runs with
# different workload seeds never share an input.
SEED_SPACING = 1_000_000

SWEEP_HEADER = (
    "seed,q,n_a,n_b,mutual_information,residual,s_gap,lower_bound,upper_bound,corrected_residual"
)
CHAIN_COLUMNS = (
    "q\tjoint_entropy\tmarginal_entropy\tconditional_chain\tconditional_axiomatic\tgap"
    "\ts_gap\tlower_bound\tupper_bound\tresidual\tcorrected_residual"
)
VERIFY_CHECKS = (
    ["qcalc:kn_map_homomorphism", "qcalc:inverse_pairs", "qcalc:classical_limit"]
    + [
        f"escort:{name}"
        for name in (
            "inverse_round_trip",
            "product_joints_consistent",
            "dependent_joints_inconsistent",
            "correct_marginal_identity",
            "ratio_cross_check",
        )
    ]
    + ["axioms:continuity_q0.6", "axioms:continuity_q2.0"]
    + [f"axioms:maximality_q{q}_n{n}" for q in ("1.0", "2.0") for n in (2, 3, 4, 5)]
    + ["axioms:expansibility_q0.5", "axioms:expansibility_q2.0"]
    + ["axioms:additivity_independent_q0.5", "axioms:additivity_independent_q2.0"]
    + ["axioms:additivity_dependent_q2"]
)
# Relative tolerance of every numeric identity checked on an output row.
REL_TOL = 1e-9


def nat_entropy(w: np.ndarray) -> float:
    w = w[w > 0]
    return float(-(w * np.log(w)).sum())


def mutual_information(r: np.ndarray) -> float:
    """S(A) + S(B) - S(A,B) of a joint normalized by its sum, in nats."""
    r = r / r.sum()
    return nat_entropy(r.sum(axis=0)) + nat_entropy(r.sum(axis=1)) - nat_entropy(r.ravel())


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * max(abs(expected), 1e-300)


def _kn_map_inv(x: float, q: float) -> float:
    return x if q == 1.0 else math.expm1((1.0 - q) * x) / (1.0 - q)


class Sweep:
    """ROADMAP's baseline ``sweep`` at 10 trials per request.

    Many 4x3 joints, so per-call overhead dominates; the q = 1 order takes
    the Shannon shortcut.
    """

    name = "sweep-4x3"
    n_b, n_a, trials = 4, 3, 10
    q_grid = (0.5, 1.0, 2.0)
    rows = trials * len(q_grid)

    def __init__(self, seed: int, workdir: Path):
        self.base = seed * SEED_SPACING
        self.out = workdir / "sweep.csv"

    def prepare(self) -> None:
        pass

    def _seed(self, i: int) -> int:
        # Request i covers trial seeds base + 10 i .. base + 10 i + 9.
        return self.base + i * self.trials

    def argv(self, i: int) -> list[str]:
        return [
            "sweep", "--nb", str(self.n_b), "--na", str(self.n_a),
            "--q", ",".join(format(q, "g") for q in self.q_grid),
            "--trials", str(self.trials), "--seed", str(self._seed(i)), "--out", str(self.out),
        ]

    def check(self, i: int, code: int, text: str) -> tuple[int, bool]:
        lines = text.splitlines()
        if code != 0 or not lines or lines[0] != SWEEP_HEADER or len(lines) != 1 + self.rows:
            return self.rows, False
        failed = 0
        body = iter(lines[1:])
        for trial in range(self.trials):
            trial_seed = self._seed(i) + trial
            flat = np.random.default_rng(trial_seed).dirichlet(np.ones(self.n_b * self.n_a))
            mi = mutual_information(flat.reshape(self.n_b, self.n_a))
            for q in self.q_grid:
                failed += not self._row_ok(next(body), trial_seed, q, mi)
        return failed, True

    def _row_ok(self, line: str, trial_seed: int, q: float, mi: float) -> bool:
        fields = line.split(",")
        if len(fields) != 10 or fields[0] != str(trial_seed) or fields[2:4] != [str(self.n_a), str(self.n_b)]:
            return False
        try:
            values = [float(f) for f in fields[1:2] + fields[4:]]
        except ValueError:
            return False
        row_q, row_mi, _residual, s_gap, lower, upper, _corrected = values
        return (
            all(math.isfinite(v) for v in values)
            and _close(row_q, q)
            and _close(row_mi, mi)
            and lower <= s_gap <= upper
        )


class Chain:
    """``chain`` reports on 300x300 joints over a q grid spanning 0.05 to 5.

    Few calls over 90k cells, so array passes and JSON I/O dominate. The grid
    includes q = 0.999999999, inside the q-near-1 snapping window.
    """

    name = "chain-300"
    size = 300
    files = 4
    q_grid = (0.05, 0.25, 0.5, 0.75, 0.999999999, 1.0, 1.000001, 1.5, 2.0, 3.0, 5.0)
    rows = len(q_grid)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "chain.txt"
        self.inputs: list[Path] = []
        self.mi: list[float] = []

    def prepare(self) -> None:
        """Write the joint files that requests cycle through."""
        for k in range(self.files):
            rng = np.random.default_rng((self.seed, k))
            r = rng.dirichlet(np.ones(self.size * self.size)).reshape(self.size, self.size)
            path = self.workdir / f"joint{k}.json"
            path.write_text(json.dumps({"r": r.tolist()}), encoding="utf-8")
            self.inputs.append(path)
            self.mi.append(mutual_information(r))

    def argv(self, i: int) -> list[str]:
        return [
            "chain", "--input", str(self.inputs[i % self.files]),
            "--q", ",".join(format(q, ".12g") for q in self.q_grid), "--out", str(self.out),
        ]

    def check(self, i: int, code: int, text: str) -> tuple[int, bool]:
        lines = text.splitlines()
        if (
            code != 0
            or len(lines) != 3 + self.rows
            or not lines[0].startswith("# input ")
            or not lines[1].startswith("# mutual_information ")
            or lines[2] != CHAIN_COLUMNS
        ):
            return self.rows, False
        try:
            mi = float(lines[1].split()[-1])
        except ValueError:
            return self.rows, False
        if not _close(mi, self.mi[i % self.files]):
            return self.rows, True
        return sum(not self._row_ok(line, q) for line, q in zip(lines[3:], self.q_grid)), True

    @staticmethod
    def _row_ok(line: str, q: float) -> bool:
        try:
            values = [float(f) for f in line.split("\t")]
        except ValueError:
            return False
        if len(values) != 11 or not all(math.isfinite(v) for v in values):
            return False
        row_q, joint, _marg, chain, axiomatic, gap, s_gap, lower, upper, _res, corrected = values
        # gap is the difference of two conditionals, so its rounding error
        # scales with their size, not with the gap's own.
        gap_scale = max(abs(s_gap), row_q * max(abs(chain), abs(axiomatic)))
        return (
            _close(row_q, q)
            and abs(gap * row_q - s_gap) <= REL_TOL * gap_scale
            and lower <= s_gap <= upper
            and abs(corrected) <= REL_TOL * max(1.0, abs(_kn_map_inv(joint, row_q)))
        )


class Verify:
    """``verify --suite all --trials 200``: the only workload that runs the
    axiom checkers (maximality ascent, rejection sampler)."""

    name = "verify-all"
    trials = 200
    rows = len(VERIFY_CHECKS)

    def __init__(self, seed: int, workdir: Path):
        self.base = seed * SEED_SPACING
        self.out = workdir / "verify.json"

    def prepare(self) -> None:
        pass

    def argv(self, i: int) -> list[str]:
        return [
            "verify", "--suite", "all", "--trials", str(self.trials),
            "--seed", str(self.base + i), "--json", "--out", str(self.out),
        ]

    def check(self, i: int, code: int, text: str) -> tuple[int, bool]:
        try:
            results = json.loads(text)
        except ValueError:
            return self.rows, False
        if not isinstance(results, list) or not all(isinstance(r, dict) for r in results):
            return self.rows, False
        names = [f"{r.get('suite')}:{r.get('check')}" for r in results]
        if code not in (0, 1) or names != VERIFY_CHECKS:
            return self.rows, False
        if code != 0:
            return self.rows, True
        return sum(not _passed(r) for r in results), True


def _passed(result: dict) -> bool:
    margin = result.get("margin")
    return result.get("passed") is True and isinstance(margin, float) and margin >= 0.0


WORKLOADS = {w.name: w for w in (Sweep, Chain, Verify)}
