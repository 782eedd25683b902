"""Command-line front door: entropy tables, chain-rule reports, verification
suites, and deterministic CSV sweeps. This module parses, calls and formats;
the suites themselves are ``axioms.run_suite``, which ``cmd_verify`` imports
when it runs, so no other command loads ``axioms``. ``verify --suite`` takes
the package's ``SUITES``.

Input files are JSON: ``{"p": [..]}`` for a distribution, ``{"r": [[..], ..]}``
for a joint (rows are B outcomes, columns A outcomes). Text reports echo the
input: a file that holds only the weights gives their own spelling, without
JSON whitespace and with ", " after each comma; any other file gives
``json.dumps`` of the parsed weights. Either way each echoed number parses
to the double that was read, and ``--json`` reports hold the parsed values.
All numbers are printed with 12 significant digits and a '.' decimal
separator, so identical invocations produce byte-identical output.

The seed of ``verify`` and ``sweep`` is --seed, 0 when it is not given; no
environment variable is read. A negative seed is bad input (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import fields

import numpy as np

from . import SUITES
from .errors import EscortropyError, MalformedWeightsError
from .prob import (
    Distribution,
    JointDistribution,
    _order,
    drop_zero_columns,
    mutual_information,
    random_joints,
)
from .entropies import aczel_daroczy, hybrid, renyi, shannon, tsallis
from .chain_rules import PASS_CELLS, ChainRuleReport, chain_rule_grid

# Every number is printed in FMT: 12 significant digits, locale-independent.
FMT = "%.12g"
# The chain table prints the order as given, then every other report field.
CHAIN_COLUMNS = [field.name for field in fields(ChainRuleReport)]
SWEEP_HEADER = "seed,q,n_a,n_b,mutual_information,residual,s_gap,lower_bound,upper_bound,corrected_residual"
# The report fields a sweep prints, in column order, after the trial's
# mutual information.
SWEEP_FIELDS = SWEEP_HEADER.split(",")[5:]
# JSON's whitespace, which an echo of the input's own text drops.
_JSON_SPACE = str.maketrans("", "", " \t\n\r")


def fmt(x: float) -> str:
    """x as every command prints a number."""
    return FMT % x


def _lines(values: np.ndarray, sep: str) -> list[str]:
    """One line per row of the 2-d values: every number in FMT, joined by sep."""
    row = sep.join([FMT] * values.shape[1])
    return [row % tuple(numbers) for numbers in values.tolist()]


def _parse_q_list(text: str) -> list[float]:
    try:
        values = [_order(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad q list {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("q list is empty")
    return values


def _int_at_least(low: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


# The argparse types of counts and sizes, and of --seed.
_positive_int, _non_negative_int = functools.partial(_int_at_least, 1), functools.partial(_int_at_least, 0)


def _open(path: str, mode: str, **kwargs):
    """The UTF-8 file at path, opened in mode. A path that holds a NUL names
    no file, and is refused as bad input rather than as open's ValueError."""
    try:
        return open(path, mode, encoding="utf-8", **kwargs)
    except ValueError as exc:  # embedded null byte
        raise EscortropyError(f"cannot open {path!r}: {exc}") from exc


def _load_weights(args: argparse.Namespace, key: str, expected: str, validate) -> tuple:
    """(validate(weights), echo) for the JSON object of args.input, which must
    hold weights under key. echo is the input as the table shows it: the
    object {key: weights} under --json, else the parts of its echo line,
    which ``_emit`` writes one after another.

    That line spells the weights as the file does when they are all it
    holds, so no number is encoded again: key is the object's only key, so
    its spelling holds no "[", and the first "[" opens the weights and the
    last "]" closes them. No '"' may lie between the two, since any other
    pair, a duplicate key's included, puts its key's quotes there. The span
    is echoed without JSON whitespace and with ", " after each comma, as
    ``json.dumps`` separates items. Any other file echoes ``json.dumps`` of
    the decoded weights. Text mode holds at most two input-sized copies at
    once: the text and its decoded lists while they are read, then the span
    and one edited copy of it.

    A file that is not UTF-8 JSON, or holds an integer longer than the
    interpreter's digit limit, is refused here as EscortropyError. Only the
    read and the decode are guarded: ``validate``'s refusals are ValueErrors
    too."""
    with _open(args.input, "r") as handle:
        try:
            text = handle.read()
            data = json.loads(text)
        except RecursionError as exc:  # the decoder recurses once per nested array
            raise MalformedWeightsError(f"cannot parse input: {args.input}: arrays nested too deeply") from exc
        except ValueError as exc:  # bad UTF-8, bad JSON, or too many digits in one integer
            raise EscortropyError(f"cannot parse input: {exc}") from exc
    if not isinstance(data, dict) or key not in data:
        raise EscortropyError(f"{args.input}: expected a JSON object with {expected}")
    weights = validate(data[key])
    if args.json:
        return weights, {key: data[key]}
    first, end = text.find("["), text.rfind("]") + 1
    if len(data) > 1 or text.find('"', first, end) != -1:
        return weights, ["# input ", json.dumps({key: data[key]})]
    # The decoded lists go before the slice copies the span, and the text
    # right after it; each later pass holds the span and one copy of it.
    del data
    span = text[first:end]
    del text
    span = span.translate(_JSON_SPACE)
    return weights, [f'# input {{"{key}": ', span.replace(",", ", "), "}"]


def _finite(orders: list[float], names: list[str], values: np.ndarray) -> None:
    """Refuse the first order whose fields are not all finite, naming them.
    values is (G, F) or (G, F, T): field f of order g, of one joint or of T."""
    finite = np.isfinite(values).reshape(len(orders), len(names), -1).all(axis=2)
    for q, row in zip(orders, finite.tolist()):
        if not all(row):
            bad = ", ".join(name for name, ok in zip(names, row) if not ok)
            raise EscortropyError(
                f"order q={q!r} gives non-finite {bad}; "
                "the q-th powers of the weights underflow or overflow at this order"
            )


def _emit(parts: Iterable[str], out: str | None) -> None:
    """Write the parts one after another to the file at out, or to stdout
    when out is None. No part is joined to another, so an output is never
    held whole beside its parts."""
    if out is None:
        sys.stdout.writelines(parts)
    else:
        with _open(out, "w", newline="\n") as handle:
            handle.writelines(parts)


def _json_parts(payload) -> Iterator[str]:
    """The chunks of ``json.dumps(payload, indent=2) + "\n"``, as the encoder
    yields them."""
    return itertools.chain(json.JSONEncoder(indent=2).iterencode(payload), ["\n"])


def _table(
    args: argparse.Namespace,
    echo: dict | list[str],
    columns: list[str],
    values: np.ndarray,
    extra: dict,
    notes: list[str],
) -> None:
    """Write the table of ``entropy`` or ``chain``: row g is order args.q[g],
    then row g of the (G, F) values, one per column after "q". JSON holds
    the input, the extra keys and the rows; text holds the echo line, the
    notes, the header and the rows. echo is the input as ``_load_weights``
    gives it."""
    _finite(args.q, columns[1:], values)
    table = np.column_stack([args.q, values])
    if args.json:
        rows = [dict(zip(columns, row)) for row in table.tolist()]
        parts = _json_parts({"input": echo, **extra, "rows": rows})
    else:
        # The echo line's parts, then the rest from the newline that ends it.
        parts = [*echo, "\n".join(["", *notes, "\t".join(columns), *_lines(table, "\t"), ""])]
    _emit(parts, args.out)


# Where the q-th powers underflow or overflow, _finite refuses the order in
# one error line; numpy's warnings about the same values are silenced so
# that line is all of stderr.
@np.errstate(all="ignore")
def cmd_entropy(args: argparse.Namespace) -> int:
    p, echo = _load_weights(args, "p", 'a "p" array', Distribution)
    for q in args.q:
        if not math.isfinite(1 / q):
            raise EscortropyError(f"order q={q!r} has no finite reciprocal order for renyi_1_over_q")
    h = shannon(p)
    values = np.array([[h, renyi(p, 1 / q), tsallis(p, q), hybrid(p, q), aczel_daroczy(p, q)] for q in args.q])
    columns = ["q", "shannon", "renyi_1_over_q", "tsallis", "hybrid", "aczel_daroczy"]
    _table(args, echo, columns, values, {}, [])
    return 0


@np.errstate(all="ignore")
def cmd_chain(args: argparse.Namespace) -> int:
    joint, echo = _load_weights(args, "r", 'an "r" matrix', JointDistribution)
    dropped: tuple[int, ...] = ()
    if args.lenient_zero_columns:
        reduced, kept = drop_zero_columns(joint)
        dropped = tuple(i for i in range(joint.n_a) if i not in kept)
        joint = reduced
    mi = mutual_information(joint)
    grid = chain_rule_grid(joint, args.q)
    values = np.column_stack([getattr(grid, c)[:, 0] for c in CHAIN_COLUMNS[1:]])
    notes = ["# dropped zero-marginal columns: " + ",".join(map(str, dropped))] if dropped else []
    notes.append("# mutual_information " + fmt(mi))
    extra = {"mutual_information": mi, "dropped_columns": list(dropped)}
    _table(args, echo, CHAIN_COLUMNS, values, extra, notes)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .axioms import run_suite  # only verify loads the verifiers

    results = run_suite(args.suite, args.seed, args.trials)
    all_passed = all(r.passed for r in results)
    if args.json:
        payload = [
            {"suite": r.suite, "check": r.check, "passed": bool(r.passed), "margin": float(r.margin)}
            for r in results
        ]
        parts = _json_parts(payload)
    else:
        lines = [
            f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}:{r.check} margin={fmt(r.margin)}"
            for r in results
        ]
        lines.append(
            f"{sum(r.passed for r in results)}/{len(results)} checks passed"
        )
        parts = ["\n".join([*lines, ""])]
    _emit(parts, args.out)
    return 0 if all_passed else 1


def sweep_rows(n_b: int, n_a: int, q_grid: list[float], trials: int, seed: int) -> list[str]:
    """CSV body lines for a seeded sweep, ordered by (trial, q).

    Trial t draws ``random_joint(n_b, n_a, seed + t)``. Consecutive trials
    form stacks of at most PASS_CELLS cells, the kernel's pass budget, and
    each stack is evaluated over the whole q grid by one ``chain_rule_grid``
    call: a full stack runs one order a pass, a short one its whole grid.
    Each stack is refused or printed whole: every row's mutual information
    and report fields by one ``_lines`` conversion.
    """
    step = max(1, PASS_CELLS // (n_b * n_a))
    heads = [f"{fmt(q)},{n_a},{n_b}" for q in q_grid]
    names = SWEEP_HEADER.split(",")[4:]
    lines = []
    for first in range(seed, seed + trials, step):
        seeds = range(first, min(first + step, seed + trials))
        joints = random_joints(n_b, n_a, seeds)
        mi = mutual_information(joints)
        grid = chain_rule_grid(joints, q_grid)
        columns = [np.broadcast_to(mi, grid.residual.shape), *(getattr(grid, f) for f in SWEEP_FIELDS)]
        values = np.stack(columns, axis=1)  # (orders, fields, trials)
        _finite(q_grid, names, values)
        rows = _lines(values.transpose(2, 0, 1).reshape(-1, len(names)), ",")
        lines += [f"{s},{head},{row}" for (s, head), row in zip(itertools.product(seeds, heads), rows)]
    return lines


@np.errstate(all="ignore")
def cmd_sweep(args: argparse.Namespace) -> int:
    body = sweep_rows(args.nb, args.na, args.q, args.trials, args.seed)
    _emit(["\n".join([SWEEP_HEADER, *body, ""])], args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process-wide parser, built on first use. Parsing leaves it as it
    was, so every ``main`` call shares it; treat it as read-only. It holds
    the command name, not the cmd_* function, of each subcommand."""
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

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", default="all", choices=SUITES)
    verify.add_argument("--seed", type=_non_negative_int, default=0)
    verify.add_argument("--trials", type=_positive_int, default=200)
    verify.add_argument("--out", default=None)
    verify.add_argument("--json", action="store_true")

    sweep = sub.add_parser("sweep", help="emit a CSV ensemble sweep")
    sweep.add_argument("--nb", type=_positive_int, required=True, help="B outcomes per joint")
    sweep.add_argument("--na", type=_positive_int, required=True, help="A outcomes per joint")
    sweep.add_argument("--q", type=_parse_q_list, required=True, help="comma-separated q grid")
    sweep.add_argument("--trials", type=_positive_int, default=100)
    sweep.add_argument("--seed", type=_non_negative_int, default=0)
    sweep.add_argument("--out", default=None, help="CSV path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Looked up at every call rather than stored in the shared parser, so
    # rebinding a cmd_* function of this module (as a tracer does) takes
    # effect on the next call.
    commands = {"entropy": cmd_entropy, "chain": cmd_chain, "verify": cmd_verify, "sweep": cmd_sweep}
    try:
        return commands[args.command](args)
    except (OSError, EscortropyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
