"""Command-line front door: entropy tables, chain-rule reports, verification
suites, and deterministic CSV sweeps. This module parses, calls and formats;
the suites themselves are ``axioms.run_suite``.

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
from dataclasses import fields

from .errors import EscortropyError
from .prob import (
    Distribution,
    JointDistribution,
    QOrder,
    as_order,
    drop_zero_columns,
    mutual_information,
    random_joint,
)
from .entropies import aczel_daroczy, hybrid, renyi, shannon, tsallis
from .chain_rules import ChainRuleReport, chain_rule_report
from .axioms import run_suite

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
