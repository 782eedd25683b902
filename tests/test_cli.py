import contextlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import escortropy
from escortropy import cli
from escortropy.cli import SWEEP_HEADER, fmt, main

import oracles


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_fair_coin(capsys, tmp_path):
    path = write_json(tmp_path, "p.json", {"p": [0.5, 0.5]})
    code, out, _ = run(capsys, ["entropy", "--input", path, "--q", "2"])
    assert code == 0
    row = out.strip().splitlines()[-1].split("\t")
    assert row[0] == "2"
    assert float(row[4]) == pytest.approx(0.5, abs=1e-12)  # hybrid column


def test_entropy_degenerate_all_zero(capsys, tmp_path):
    path = write_json(tmp_path, "one.json", {"p": [1.0]})
    code, out, _ = run(capsys, ["entropy", "--input", path, "--q", "0.5,2,3"])
    assert code == 0
    for line in out.strip().splitlines()[2:]:
        assert all(float(cell) == 0.0 for cell in line.split("\t")[1:])


def test_entropy_skewed_values(capsys, tmp_path):
    path = write_json(tmp_path, "p.json", {"p": [0.8, 0.2]})
    code, out, _ = run(capsys, ["entropy", "--input", path, "--q", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["hybrid"] == pytest.approx(0.2626482872473076, abs=1e-12)
    assert row["aczel_daroczy"] == pytest.approx(0.3046902784389091, abs=1e-12)
    assert row["shannon"] == pytest.approx(0.5004024235381879, abs=1e-12)


def test_entropy_echo_is_bit_exact(capsys, tmp_path):
    values = [0.1, 0.2, 0.30000000000000004, 0.39999999999999996]
    path = write_json(tmp_path, "p.json", {"p": values})
    code, out, _ = run(capsys, ["entropy", "--input", path, "--q", "1"])
    assert code == 0
    echoed = json.loads(out.splitlines()[0].removeprefix("# input "))
    assert echoed["p"] == values


# Each table command, its input key, and the shape of a seeded 400-cell input.
TABLES = pytest.mark.parametrize(
    "command, key, shape", [("chain", "r", (20, 20)), ("entropy", "p", (400,))], ids=["chain", "entropy"]
)
# Weights spelled as json.dumps never spells them, under each key.
SPELLED = {"r": "[[0.50, 1E-1], [2.5e-1, 0.15]]", "p": "[0.50, 1E-1, 2.5e-1, 0.15]"}


def seeded_weights(shape):
    return np.random.default_rng(20).dirichlet(np.ones(400)).reshape(shape).tolist()


def table_output(capsys, path, command):
    code, out, _ = run(capsys, [command, "--input", str(path), "--q", "0.5,2"])
    assert code == 0
    return out


@TABLES
def test_echo_of_a_json_dumps_input_is_its_json_dumps(capsys, tmp_path, command, key, shape):
    payload = {key: seeded_weights(shape)}
    path = write_json(tmp_path, "in.json", payload)
    assert table_output(capsys, path, command).splitlines()[0] == "# input " + json.dumps(payload)


@TABLES
@pytest.mark.parametrize(
    "spell",
    [
        lambda payload: json.dumps(payload, indent=2),
        lambda payload: json.dumps(payload, indent="\t", separators=(" ,", " : ")),
        lambda payload: json.dumps(payload, indent=1).replace("\n", "\r\n"),
    ],
    ids=["indent", "tabs", "crlf"],
)
def test_json_whitespace_in_the_input_changes_no_output_byte(capsys, tmp_path, command, key, shape, spell):
    payload = {key: seeded_weights(shape)}
    compact = write_json(tmp_path, "compact.json", payload)
    spaced = tmp_path / "spaced.json"
    spaced.write_bytes(spell(payload).encode("utf-8"))
    assert table_output(capsys, spaced, command) == table_output(capsys, compact, command)


@TABLES
@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_cells_spelled_minus_zero_change_nothing_after_the_echo(capsys, tmp_path, command, key, shape, flag):
    weights = np.array(seeded_weights(shape))
    weights.flat[::7] = 0.0
    payload = {key: (weights / weights.sum()).tolist()}
    plus = write_json(tmp_path, "plus.json", payload)
    minus = tmp_path / "minus.json"
    minus.write_text(re.sub(r"(?<=[\[ ])0\.0(?=[,\]])", "-0.0", json.dumps(payload)), encoding="utf-8")
    assert minus.read_text(encoding="utf-8").count("-0.0") == np.count_nonzero(weights == 0.0)
    outputs = []
    for path in (plus, minus):
        code, out, _ = run(capsys, [command, "--input", str(path), "--q", "0.5,1,2,3,7", *flag])
        assert code == 0
        if flag:
            # json.dumps spells -0.0 with its sign, so the rest keeps every bit.
            report = json.loads(out)
            echoed = report.pop("input")
            outputs.append(json.dumps(report))
        else:
            echoed, rest = out.split("\n", 1)
            outputs.append(rest)
    assert "-0.0" in json.dumps(echoed)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_a_chain_request_holds_less_than_three_copies_of_its_input(tmp_path, flag):
    # Two input-sized copies at a time and one weights array: the text and its
    # decoded lists, or the echo and its encoding. A request that also joined
    # its report whole traced 3.7 times the file, and 6.9 times under --json.
    r = np.random.default_rng(30).dirichlet(np.ones(90_000)).reshape(300, 300)
    path = write_json(tmp_path, "r.json", {"r": r.tolist()})
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["chain", "--input", path, "--q", "0.5,1,2", *flag])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 3 * os.path.getsize(path)


@pytest.mark.parametrize(
    "command, key, escaped", [("chain", "r", "\\u0072"), ("entropy", "p", "\\u0070")], ids=["chain", "entropy"]
)
@pytest.mark.parametrize(
    "template, as_spelled",
    [
        ('{{"{key}": {weights}}}', True),
        ('{{"{escaped}": {weights}}}', True),
        ('{{"{key}": {weights}, "note": "x"}}', False),
        ('{{"{key}": [1], "{key}": {weights}}}', False),
    ],
    ids=["lone-key", "escaped-key", "extra-key", "duplicate-key"],
)
def test_echo_spells_the_weights_as_a_weights_only_file_does(
    capsys, tmp_path, command, key, escaped, template, as_spelled
):
    path = tmp_path / "in.json"
    path.write_text(template.format(key=key, escaped=escaped, weights=SPELLED[key]), encoding="utf-8")
    echo = table_output(capsys, path, command).splitlines()[0]
    values = {key: json.loads(SPELLED[key])}
    assert echo == (f'# input {{"{key}": {SPELLED[key]}}}' if as_spelled else "# input " + json.dumps(values))
    assert json.loads(echo.removeprefix("# input ")) == values


def test_chain_product_joint_residuals_vanish(capsys, tmp_path):
    outer = np.outer([0.8, 0.2], [0.3, 0.7])
    path = write_json(tmp_path, "r.json", {"r": outer.tolist()})
    code, out, _ = run(capsys, ["chain", "--input", path, "--q", "0.5,2", "--json"])
    assert code == 0
    payload = json.loads(out)
    for row in payload["rows"]:
        assert abs(row["residual"]) < 1e-10
        assert abs(row["s_gap"]) < 1e-10


def test_chain_order_one_conditionals_match(capsys, tmp_path):
    path = write_json(tmp_path, "r.json", {"r": [[0.2, 0.1], [0.3, 0.4]]})
    code, out, _ = run(capsys, ["chain", "--input", path, "--q", "1,2", "--json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["conditional_chain"] == pytest.approx(
        rows[0]["conditional_axiomatic"], abs=1e-12
    )
    assert abs(rows[1]["residual"]) > 1e-6
    assert abs(rows[1]["corrected_residual"]) < 1e-9
    assert rows[1]["residual"] == pytest.approx(
        oracles.additivity_residual(np.array([[0.2, 0.1], [0.3, 0.4]]), 2.0), abs=1e-12
    )


@pytest.mark.parametrize(
    "weights, dropped",
    [
        ([[0.5, 0.0], [0.5, 0.0]], [1]),
        ([[0.0, 0.3, 0.2, 0.0], [0.0, 0.1, 0.4, 0.0]], [0, 3]),
        (np.insert(escortropy.random_joint(4, 3, 7).weights, 2, 0.0, axis=1).tolist(), [2]),
    ],
    ids=["last", "first-and-last", "seeded-4x3"],
)
def test_chain_zero_column_is_surfaced_with_index(capsys, tmp_path, weights, dropped):
    # An A outcome of probability zero changes no entropy, so chain reports
    # the support and names the columns it dropped.
    path = write_json(tmp_path, "r.json", {"r": weights})
    code, out, err = run(capsys, ["chain", "--input", path, "--q", "2"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "# dropped zero-marginal columns: " + ",".join(map(str, dropped))
    code, out, _ = run(capsys, ["chain", "--input", path, "--q", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["dropped_columns"] == dropped
    support = np.delete(np.array(weights), dropped, axis=1)
    report = escortropy.chain_rule_report(escortropy.JointDistribution(support), 2.0)
    for name, value in payload["rows"][0].items():
        assert value == pytest.approx(getattr(report, name), rel=1e-12, abs=1e-12), name
    if dropped == [1]:  # the support is a product joint
        assert abs(payload["rows"][0]["residual"]) < 1e-12


def test_chain_keeps_the_bytes_of_a_joint_without_a_zero_column(capsys, tmp_path):
    # Dividing the validated weights by their sum again would move
    # corrected_residual at q = 2 from -1.11e-16 to 0 on this joint.
    weights = np.random.default_rng((5, 2)).dirichlet(np.ones(63)).reshape(7, 9)
    joint = escortropy.JointDistribution(weights)
    assert escortropy.drop_zero_columns(joint)[0] is joint
    path = write_json(tmp_path, "r.json", {"r": weights.tolist()})
    code, out, _ = run(capsys, ["chain", "--input", path, "--q", "2"])
    assert code == 0
    assert out.splitlines()[-1].split("\t")[-1] == "-1.11022302463e-16"


def test_chain_has_no_lenient_zero_columns_option(capsys, tmp_path):
    path = write_json(tmp_path, "r.json", {"r": [[0.5, 0.0], [0.5, 0.0]]})
    with pytest.raises(SystemExit) as info:
        main(["chain", "--input", path, "--q", "2", "--lenient-zero-columns"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith("error: unrecognized arguments: --lenient-zero-columns")


def test_parse_error_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"p": [0.5,, 0.5]}', encoding="utf-8")
    code, _, err = run(capsys, ["entropy", "--input", str(path), "--q", "1"])
    assert code == 2
    assert "line" in err and "column" in err


def test_missing_file_errors(capsys):
    code, _, err = run(capsys, ["entropy", "--input", "/nonexistent.json", "--q", "1"])
    assert code == 2
    assert "error" in err


def test_invalid_distribution_errors(capsys, tmp_path):
    path = write_json(tmp_path, "bad.json", {"p": [0.5, 0.6]})
    code, _, err = run(capsys, ["entropy", "--input", path, "--q", "1"])
    assert code == 2
    assert "deficit" in err


# The most digits the interpreter reads into one int: 0 where it sets no
# limit (Python 3.10 before 3.10.7, or the limit switched off).
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_MANY_DIGITS = b"1" * (INT_DIGIT_LIMIT + 1)
beyond_digit_limit = pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="no integer digit limit")


@pytest.mark.parametrize(
    "payload, argv",
    [
        ({"p": [0.5, float("nan")]}, ["entropy", "--q", "2"]),
        ({"r": [0.5, 0.5]}, ["chain", "--q", "2"]),
        ({"p": [0.5, 0.5]}, ["entropy", "--q", "0"]),
        ({"r": [[0.2, 0.1], [0.3, 0.4]]}, ["chain", "--q", "-1"]),
        (None, ["sweep", "--nb", "0", "--na", "2", "--q", "2"]),
        (None, ["verify", "--suite", "axioms", "--trials", "0"]),
        (None, ["sweep", "--nb", "2", "--na", "2", "--q", "2", "--seed", "-1"]),
        (b'\xff{"p": [1.0]}', ["entropy", "--q", "2"]),
        ({"p": [0.25, 0.25, 0.25, 0.25]}, ["entropy", "--q", "1000"]),
        ({"r": [[0.2, 0.1], [0.3, 0.4]]}, ["chain", "--q", "2,1100"]),
        (None, ["sweep", "--nb", "4", "--na", "3", "--q", "2,900", "--trials", "2"]),
        ({"p": ["0.5", "0.5"]}, ["entropy", "--q", "2"]),
        ({"p": [True, False]}, ["entropy", "--q", "2"]),
        ({"r": [[True], [False]]}, ["chain", "--q", "2"]),
        ({"p": [True, 0.0]}, ["entropy", "--q", "2"]),
        ({"r": [[0.25, False], [0.5, 0.25]]}, ["chain", "--q", "2"]),
        ({"p": [0.5, 0.5]}, ["entropy", "--q", "2,5e-324"]),
        ({"p": [0.5, 0.5]}, ["entropy", "--q", "1e-310"]),
        ({"p": [10**400, 0.5]}, ["entropy", "--q", "2"]),
        ({"r": [[10**400, 0.1], [0.3, 0.4]]}, ["chain", "--q", "2"]),
        (b'{"p": ' + b"[" * 900 + b"0.5" + b"]" * 900 + b"}", ["entropy", "--q", "2"]),
        (b'{"p": ' + b"[" * 5000 + b"0.5" + b"]" * 5000 + b"}", ["entropy", "--q", "2"]),
        pytest.param(b'{"p": [' + TOO_MANY_DIGITS + b", 0]}", ["entropy", "--q", "2"], marks=beyond_digit_limit),
        pytest.param(
            b'{"r": [[' + TOO_MANY_DIGITS + b", 0.1], [0.3, 0.4]]}", ["chain", "--q", "2"], marks=beyond_digit_limit
        ),
        (None, ["entropy", "--input", "a\x00b", "--q", "2"]),
        ({"p": [0.5, 0.5]}, ["entropy", "--q", "2", "--out", "o\x00t"]),
        (None, ["sweep", "--nb", "2", "--na", "2", "--q", "2", "--trials", "1", "--out", "x\x00y"]),
    ],
    ids=[
        "nan-weight",
        "wrong-shape",
        "q-zero",
        "q-negative",
        "sweep-nb-zero",
        "verify-trials-zero",
        "negative-seed",
        "not-utf8",
        "entropy-powers-underflow",
        "chain-powers-underflow",
        "sweep-powers-underflow",
        "string-weights",
        "boolean-weights",
        "boolean-joint",
        "boolean-among-numbers",
        "boolean-among-numbers-joint",
        "entropy-reciprocal-overflows-5e-324",
        "entropy-reciprocal-overflows-1e-310",
        "integer-beyond-the-double-range",
        "integer-beyond-the-double-range-joint",
        "nested-900-deep",
        "nested-5000-deep",
        "integer-beyond-the-digit-limit",
        "integer-beyond-the-digit-limit-joint",
        "nul-in-input-path",
        "nul-in-output-path",
        "nul-in-sweep-output-path",
    ],
)
def test_bad_input_exits_two_with_one_error_line(capsys, tmp_path, payload, argv):
    if payload is not None:
        path = tmp_path / "in.json"
        path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        argv = argv + ["--input", str(path)]
    # A warning would add lines to stderr beside the error line, so any
    # warning fails the test.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects bad options by exiting
            code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv", [["verify"], ["sweep", "--nb", "2", "--na", "2", "--q", "2"]], ids=["verify", "sweep"]
)
def test_a_negative_seed_is_refused_by_the_subcommand_parser(capsys, argv):
    # As --trials is: the subcommand's usage, then an error line naming the flag.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"escortropy {argv[0]}: error: argument --seed: must be at least 0, got -1"
    ]


@pytest.mark.parametrize("flag", [[], ["--json"]], ids=["text", "json"])
def test_a_point_mass_has_entropy_zero_not_minus_zero(capsys, tmp_path, flag):
    path = write_json(tmp_path, "point.json", {"p": [1.0]})
    code, out, _ = run(capsys, ["entropy", "--input", path, "--q", "0.5,1,2"] + flag)
    assert code == 0
    assert "-0" not in out
    if flag:
        for row in json.loads(out)["rows"]:
            assert all(np.copysign(1.0, value) == 1.0 for value in row.values())
    else:
        assert out.splitlines()[2:] == [f"{q}\t0\t0\t0\t0\t0" for q in ("0.5", "1", "2")]


def test_unknown_suite_is_rejected():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nope"])
    assert info.value.code == 2


def test_verify_each_suite_exits_zero(capsys):
    for suite in ("qcalc", "escort", "axioms", "all"):
        code, out, _ = run(capsys, ["verify", "--suite", suite, "--seed", "0", "--trials", "60"])
        assert code == 0, (suite, out)
        assert "FAIL" not in out


def test_verify_has_no_mi_floor_option(capsys):
    # The axioms suite's floor is MI_FLOOR; check_additivity_dependent takes
    # any other.
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "axioms", "--trials", "1", "--mi-floor", "0.05"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith("error: unrecognized arguments: --mi-floor 0.05")


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "qcalc", "--seed", "3", "--trials", "40", "--json"])
    assert code == 0
    records = json.loads(out)
    assert all(record["passed"] for record in records)
    assert {"suite", "check", "passed", "margin"} <= set(records[0])


def test_sweep_header_and_shape(capsys):
    code, out, _ = run(
        capsys, ["sweep", "--nb", "2", "--na", "3", "--q", "0.5,2", "--trials", "4", "--seed", "9"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 4 * 2
    first = lines[1].split(",")
    assert first[0] == "9" and first[1] == "0.5" and first[2] == "3" and first[3] == "2"
    # row order is (trial, q): seeds ascend slowly, q cycles fast
    seeds = [line.split(",")[0] for line in lines[1:]]
    assert seeds == ["9", "9", "10", "10", "11", "11", "12", "12"]


def test_sweep_rows_mirror_reports(capsys):
    # Ties the sweep's draws to random_joint and its columns to
    # chain_rule_report, to the printed byte. The 1x3 joints print every
    # field as 0, and q = 0.05 prints some in e-notation.
    from escortropy import chain_rule_report, mutual_information, random_joint

    cases = [(4, 3, "0.5,1,2", 10, 5), (4, 3, "0.05,0.5", 4, 40), (1, 3, "0.05,1,2", 3, 5)]
    printed = []
    for n_b, n_a, q_list, trials, seed in cases:
        argv = ["sweep", "--nb", str(n_b), "--na", str(n_a), "--q", q_list,
                "--trials", str(trials), "--seed", str(seed)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        expected = []
        for trial_seed in range(seed, seed + trials):
            joint = random_joint(n_b, n_a, trial_seed)
            for q in map(float, q_list.split(",")):
                report = chain_rule_report(joint, q)
                values = [mutual_information(joint)] + [
                    getattr(report, name) for name in SWEEP_HEADER.split(",")[5:]
                ]
                head = [str(trial_seed), fmt(q), str(n_a), str(n_b)]
                expected.append(",".join(head + [fmt(v) for v in values]))
        assert out.splitlines()[1:] == expected
        printed += [cell for line in expected for cell in line.split(",")[4:]]
    assert "0" in printed
    assert any("e-" in cell for cell in printed)


@pytest.mark.parametrize(
    "x, text",
    [
        (-0.0, "-0"),
        (0.0, "0"),
        (5e-324, "4.94065645841e-324"),
        (1e-5, "1e-05"),
        (1e16, "1e+16"),
        (123456789012.5, "123456789012"),
    ],
    ids=["-0.0", "0.0", "5e-324", "1e-05", "1e+16", "123456789012.5"],
)
def test_percent_conversion_is_fmt(x, text):
    # Every printed number goes through FMT, so these pin every command's format.
    assert fmt(x) == text


def test_sweep_body_does_not_depend_on_batching(capsys, monkeypatch):
    def body(trials, seed):
        argv = ["sweep", "--nb", "4", "--na", "3", "--q", "0.5,1,2", "--trials", trials, "--seed", seed]
        return run(capsys, argv)[1].splitlines()[1:]

    whole = body("20", "5")
    assert len(whole) == 60
    assert whole == body("10", "5") + body("10", "15")
    for stack_cells in (36, 5):  # three 4x3 trials a stack, then one
        monkeypatch.setattr(cli, "PASS_CELLS", stack_cells)
        assert body("20", "5") == whole, stack_cells


def test_sweep_refusal_writes_no_file(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code = main(["sweep", "--nb", "4", "--na", "3", "--q", "2,900", "--trials", "2",
                 "--out", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert not path.exists()
    assert "order q=900.0 gives non-finite residual" in err


def test_sweep_deterministic_files(tmp_path, capsys):
    args = ["sweep", "--nb", "3", "--na", "2", "--q", "0.7,2", "--trials", "6", "--seed", "21"]
    path_a, path_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--out", path_a]) == 0
    assert main(args + ["--out", path_b]) == 0
    capsys.readouterr()
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        assert fa.read() == fb.read()


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--nb", "2", "--na", "2", "--q", "2", "--trials", "3"],
        ["verify", "--suite", "qcalc", "--trials", "5", "--json"],
    ],
    ids=["sweep", "verify"],
)
def test_the_seed_is_zero_unless_given_and_the_environment_is_not_read(capsys, monkeypatch, args):
    monkeypatch.delenv("ESCORTROPY_SEED", raising=False)
    seeded = run(capsys, args + ["--seed", "0"])
    assert seeded[0] == 0
    monkeypatch.setenv("ESCORTROPY_SEED", "77")
    assert run(capsys, args) == seeded
    assert run(capsys, args + ["--seed", "0"]) == seeded
    # A value that is not a seed is not read either.
    monkeypatch.setenv("ESCORTROPY_SEED", "abc")
    assert run(capsys, args) == seeded


def test_out_files_end_with_newline(tmp_path, capsys):
    path = str(tmp_path / "t.csv")
    assert main(["sweep", "--nb", "2", "--na", "2", "--q", "1", "--trials", "1",
                 "--seed", "0", "--out", path]) == 0
    capsys.readouterr()
    with open(path, "rb") as handle:
        assert handle.read().endswith(b"\n")


@pytest.mark.parametrize(
    "argv, first",
    [
        (["chain", "--input", "{joint}", "--q", "2,1100,1200"], "1100.0"),
        (["sweep", "--nb", "4", "--na", "3", "--q", "2,900,1000", "--trials", "2"], "900.0"),
    ],
    ids=["chain", "sweep"],
)
def test_chain_grid_reports_the_first_non_finite_order(capsys, tmp_path, argv, first):
    path = write_json(tmp_path, "r.json", {"r": [[0.2, 0.1], [0.3, 0.4]]})
    with np.errstate(all="ignore"):
        code, out, err = run(capsys, [arg.format(joint=path) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: order q={first} gives non-finite ")
    assert len(err.splitlines()) == 1


def test_chain_at_order_900_is_finite_and_matches_50_digits(capsys, tmp_path):
    # No cell's q-th power is formed, only the conditional columns' and the
    # marginal's, and 0.5^900 is a normal float; 0.5^1100 is not.
    pytest.importorskip("mpmath")
    r = [[0.2, 0.1], [0.3, 0.4]]
    path = write_json(tmp_path, "r.json", {"r": r})
    code, out, err = run(capsys, ["chain", "--input", path, "--q", "900", "--json"])
    assert (code, err) == (0, "")
    s_gap = json.loads(out)["rows"][0]["s_gap"]
    reference = float(oracles.mp_chain_rule_fields(r, 900.0)["s_gap"])
    assert abs(s_gap - reference) <= 1e-12 * abs(reference)


def fresh_process_call(argv):
    """Exit code, stdout and stderr of ``main(argv)`` in a new interpreter."""
    src = str(Path(escortropy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = "import sys; from escortropy.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, check=False
    )
    return done.returncode, done.stdout, done.stderr


def same_process_call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_leaks_no_state_between_calls(capsys, tmp_path, monkeypatch):
    # The parser is built once per process; each call must still answer as
    # the first call of a new process does.
    monkeypatch.setenv("COLUMNS", "80")  # the width of --help
    assert cli.build_parser() is cli.build_parser()
    joint = write_json(tmp_path, "r.json", {"r": [[0.2, 0.1], [0.3, 0.4]]})
    dist = write_json(tmp_path, "p.json", {"p": [0.5, 0.3, 0.2]})
    bad = write_json(tmp_path, "bad.json", {"r": [0.5, 0.5]})
    sweep = ["sweep", "--nb", "4", "--na", "3", "--q", "0.5,1,2", "--trials", "5", "--seed", "3"]
    calls = [
        sweep,
        ["chain", "--input", joint, "--q", "0.5,1,2", "--json"],
        ["entropy", "--input", dist, "--q", "0.5,2"],
        ["verify", "--suite", "qcalc", "--trials", "20", "--seed", "4"],
        ["chain", "--input", bad, "--q", "2"],
        ["--help"],
        sweep,
    ]
    fresh = {}
    for argv in calls:
        key = tuple(argv)
        if key not in fresh:
            fresh[key] = fresh_process_call(argv)
        assert same_process_call(capsys, argv) == fresh[key], argv
    codes = [fresh[tuple(argv)][0] for argv in calls]
    assert codes == [0, 0, 0, 0, 2, 0, 0]

    # A call without a seed, after a --seed 3 call, gets seed 0.
    unseeded = sweep[:-2]
    assert same_process_call(capsys, sweep) == fresh[tuple(sweep)]
    assert same_process_call(capsys, unseeded) == same_process_call(capsys, unseeded + ["--seed", "0"])
    assert same_process_call(capsys, unseeded) != fresh[tuple(sweep)]


def test_rebinding_a_command_function_takes_effect_on_the_shared_parser(monkeypatch):
    argv = ["sweep", "--nb", "2", "--na", "2", "--q", "2", "--trials", "1", "--seed", "0",
            "--out", os.devnull]
    assert main(argv) == 0  # the parser now exists
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: 7)
    assert main(argv) == 7
