"""Command-line front door: entropy tables, chain-rule reports, verification
suites, and deterministic CSV sweeps.

Input files are JSON: ``{"p": [..]}`` for a distribution, ``{"r": [[..], ..]}``
for a joint (rows are B outcomes, columns A outcomes). Reports echo the parsed
values bit-exactly. All numbers are printed with 12 significant digits and a
'.' decimal separator, so identical invocations produce byte-identical output.

The default seed comes from the ESCORTROPY_SEED environment variable when
--seed is not given, falling back to 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .errors import EscortropyError
from .prob import (
    Distribution,
    JointDistribution,
    QOrder,
    as_order,
    drop_zero_columns,
    mutual_information,
    product_joint,
    random_joint,
)
from .escort import escort, escort_inverse, escort_ratio, joint_escort_correct, joint_escort_naive
from .entropies import aczel_daroczy, hybrid, renyi, shannon, tsallis
from .chain_rules import ChainRuleReport, chain_rule_report
from .qcalc import kn_map, kn_map_inv, q_add, q_exp, q_log
from .axioms import (
    check_additivity_dependent,
    check_additivity_independent,
    check_continuity,
    check_expansibility,
    check_maximality,
    sample_dependent_joint,
)

# The chain table prints the order as given, then every other report field.
CHAIN_COLUMNS = [field.name for field in fields(ChainRuleReport)]
SWEEP_HEADER = "seed,q,n_a,n_b,mutual_information,residual,s_gap,lower_bound,upper_bound,corrected_residual"


def fmt(x: float) -> str:
    """12 significant digits, locale-independent."""
    return format(float(x), ".12g")


def _default_seed() -> int:
    raw = os.environ.get("ESCORTROPY_SEED", "")
    try:
        return int(raw)
    except ValueError:
        return 0


def _parse_q_list(text: str) -> list[float]:
    try:
        values = [QOrder(float(part)).value for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad q list {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("q list is empty")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _mi_floor(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _finite_row(row: dict) -> dict:
    bad = [key for key, value in row.items() if not math.isfinite(value)]
    if bad:
        raise EscortropyError(
            f"order q={row['q']!r} gives non-finite {', '.join(bad)}; "
            "the q-th powers of the weights underflow or overflow at this order"
        )
    return row


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def cmd_entropy(args: argparse.Namespace) -> int:
    data = _load_json(args.input)
    if not isinstance(data, dict) or "p" not in data:
        raise EscortropyError(f'{args.input}: expected a JSON object with a "p" array')
    p = Distribution(data["p"])
    rows = []
    for q in args.q:
        order = as_order(q)
        rows.append(
            _finite_row(
                {
                    "q": q,
                    "shannon": shannon(p).value,
                    "renyi_1_over_q": renyi(p, 1.0 / order.value).value,
                    "tsallis": tsallis(p, order).value,
                    "hybrid": hybrid(p, order).value,
                    "aczel_daroczy": aczel_daroczy(p, order).value,
                }
            )
        )
    if args.json:
        text = json.dumps({"input": {"p": data["p"]}, "rows": rows}, indent=2) + "\n"
    else:
        columns = ["q", "shannon", "renyi_1_over_q", "tsallis", "hybrid", "aczel_daroczy"]
        lines = ["# input " + json.dumps({"p": data["p"]}), "\t".join(columns)]
        lines += ["\t".join(fmt(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_chain(args: argparse.Namespace) -> int:
    data = _load_json(args.input)
    if not isinstance(data, dict) or "r" not in data:
        raise EscortropyError(f'{args.input}: expected a JSON object with an "r" matrix')
    joint = JointDistribution(data["r"])
    dropped: tuple[int, ...] = ()
    if args.lenient_zero_columns:
        reduced, kept = drop_zero_columns(joint)
        dropped = tuple(i for i in range(joint.n_a) if i not in kept)
        joint = reduced
    mi = mutual_information(joint)
    rows = []
    for q in args.q:
        report = chain_rule_report(joint, q)
        rows.append(_finite_row({"q": q} | {c: getattr(report, c) for c in CHAIN_COLUMNS[1:]}))
    if args.json:
        payload = {
            "input": {"r": data["r"]},
            "mutual_information": mi,
            "dropped_columns": list(dropped),
            "rows": rows,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["# input " + json.dumps({"r": data["r"]})]
        if dropped:
            lines.append("# dropped zero-marginal columns: " + ",".join(str(i) for i in dropped))
        lines.append("# mutual_information " + fmt(mi))
        lines.append("\t".join(CHAIN_COLUMNS))
        lines += ["\t".join(fmt(row[c]) for c in CHAIN_COLUMNS) for row in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


@dataclass(frozen=True)
class CheckResult:
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


def _suite_escort(seed: int, trials: int, mi_floor: float = 0.05) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for q in (0.3, 0.5, 2.0, 5.0):
        for _ in range(trials):
            n = int(rng.integers(2, 9))
            p = Distribution(rng.dirichlet(np.ones(n)))
            back = escort_inverse(escort(p, q))
            worst = max(worst, float(np.abs(back.weights - p.weights).max()))
    results.append(CheckResult("escort", "inverse_round_trip", worst < 1e-10, 1e-10 - worst))

    worst = 0.0
    for t in range(trials):
        sub = np.random.default_rng(seed + t)
        joint = product_joint(
            Distribution(sub.dirichlet(np.ones(int(sub.integers(2, 9))))),
            Distribution(sub.dirichlet(np.ones(int(sub.integers(2, 9))))),
        )
        pair_naive = joint_escort_naive(joint, 2.0)
        pair_correct = joint_escort_correct(joint, 2.0)
        worst = max(worst, float(np.abs(pair_naive - pair_correct).max()))
    results.append(CheckResult("escort", "product_joints_consistent", worst < 1e-9, 1e-9 - worst))

    smallest = np.inf
    for t in range(trials):
        joint = sample_dependent_joint(seed, t, mi_floor=0.01)
        pair_naive = joint_escort_naive(joint, 2.0)
        pair_correct = joint_escort_correct(joint, 2.0)
        smallest = min(smallest, float(np.abs(pair_naive - pair_correct).max()))
    results.append(
        CheckResult("escort", "dependent_joints_inconsistent", smallest > 1e-6, smallest - 1e-6)
    )

    worst = 0.0
    for t in range(trials):
        joint = sample_dependent_joint(seed + 10_000, t, mi_floor=0.01)
        for q in (0.5, 2.0):
            correct = joint_escort_correct(joint, q)
            target = escort(Distribution(joint.weights.sum(axis=0)), q).weights.weights
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


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, args.seed, args.trials, args.mi_floor)
    all_passed = all(r.passed for r in results)
    if args.json:
        payload = [
            {"suite": r.suite, "check": r.check, "passed": bool(r.passed), "margin": float(r.margin)}
            for r in results
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}:{r.check} margin={fmt(r.margin)}"
            for r in results
        ]
        lines.append(
            f"{sum(r.passed for r in results)}/{len(results)} checks passed"
        )
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if all_passed else 1


def sweep_rows(n_b: int, n_a: int, q_grid: list[float], trials: int, seed: int) -> list[str]:
    """CSV body lines for a seeded sweep, ordered by (trial, q)."""
    lines = []
    for trial in range(trials):
        trial_seed = seed + trial
        joint = random_joint(n_b, n_a, trial_seed)
        mi = mutual_information(joint)
        for q in q_grid:
            report = chain_rule_report(joint, q)
            lines.append(
                ",".join(
                    [
                        str(trial_seed),
                        fmt(q),
                        str(n_a),
                        str(n_b),
                        fmt(mi),
                        fmt(report.residual),
                        fmt(report.s_gap),
                        fmt(report.lower_bound),
                        fmt(report.upper_bound),
                        fmt(report.corrected_residual),
                    ]
                )
            )
    return lines


def cmd_sweep(args: argparse.Namespace) -> int:
    body = sweep_rows(args.nb, args.na, args.q, args.trials, args.seed)
    text = "\n".join([SWEEP_HEADER] + body) + "\n"
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="escortropy",
        description="Hybrid entropy, escort distributions, and chain-rule diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    entropy = sub.add_parser("entropy", help="entropy table for a distribution file")
    entropy.add_argument("--input", required=True, help="JSON file {\"p\": [..]}")
    entropy.add_argument("--q", type=_parse_q_list, required=True, help="comma-separated orders")
    entropy.add_argument("--out", default=None, help="output path (default stdout)")
    entropy.add_argument("--json", action="store_true", help="machine-readable output")
    entropy.set_defaults(func=cmd_entropy)

    chain = sub.add_parser("chain", help="chain-rule report for a joint file")
    chain.add_argument("--input", required=True, help="JSON file {\"r\": [[..], ..]}")
    chain.add_argument("--q", type=_parse_q_list, required=True, help="comma-separated orders")
    chain.add_argument("--out", default=None, help="output path (default stdout)")
    chain.add_argument("--json", action="store_true", help="machine-readable output")
    chain.add_argument(
        "--lenient-zero-columns",
        action="store_true",
        help="drop zero-marginal A columns instead of erroring",
    )
    chain.set_defaults(func=cmd_chain)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", default="all", choices=["qcalc", "escort", "axioms", "all"])
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--trials", type=_positive_int, default=200)
    verify.add_argument("--mi-floor", type=_mi_floor, default=0.05,
                        help="mutual-information floor for the dependent ensemble")
    verify.add_argument("--out", default=None)
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="emit a CSV ensemble sweep")
    sweep.add_argument("--nb", type=_positive_int, required=True, help="B outcomes per joint")
    sweep.add_argument("--na", type=_positive_int, required=True, help="A outcomes per joint")
    sweep.add_argument("--q", type=_parse_q_list, required=True, help="comma-separated q grid")
    sweep.add_argument("--trials", type=_positive_int, default=100)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "seed" in args:  # verify and sweep
        if args.seed is None:
            args.seed = _default_seed()
        if args.seed < 0:
            parser.error(f"seed must be non-negative, got {args.seed}")
    try:
        return args.func(args)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: cannot parse input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EscortropyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
