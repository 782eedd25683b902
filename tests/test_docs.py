"""The documented entry points stay runnable: README's python quickstart
executes as written, its command lines parse and name only options the
command line tool has, every name the package exports resolves, so does
every name the benchmark's tracer looks up, ``verify`` prints the rows
the benchmark checks, and only ``prob`` names numpy's generator
constructors."""

import argparse
import ast
import re
import shlex
from pathlib import Path

import escortropy
import escortropy.prob
from escortropy.axioms import run_suite
from escortropy.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TRACER = ROOT / "benchmarks" / "tracing.py"
WORKLOADS = ROOT / "benchmarks" / "workloads.py"


def benchmark_value(path, name):
    """The value the module at path assigns to name, read from its source,
    not imported. The expression may use comprehensions but no other name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [value] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
    ]
    return eval(compile(ast.Expression(value), str(path), "eval"), {})


def test_readme_python_blocks_execute():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_parse_and_name_only_real_options():
    # parse_args reads no file, so the example paths need not exist. Options
    # named in the blocks' comments must exist too.
    blocks = [
        block
        for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
        if re.search(r"^escortropy ", block, re.M)
    ]
    assert blocks, "README has no escortropy command line"
    parser = build_parser()
    [commands] = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    options = {
        option
        for command in commands.choices.values()
        for action in command._actions
        for option in action.option_strings
    }
    for block in blocks:
        for line in re.findall(r"^escortropy (.*)$", block, re.M):
            parser.parse_args(shlex.split(line, comments=True))
        assert set(re.findall(r"(?<![\w-])--[\w-]+", block)) - options == set()


def test_every_exported_name_resolves():
    missing = [name for name in escortropy.__all__ if not hasattr(escortropy, name)]
    assert missing == []
    assert len(set(escortropy.__all__)) == len(escortropy.__all__)


def test_every_object_the_benchmark_tracer_wraps_is_in_prob():
    # The tracer looks its PROB_OBJECTS up in escortropy.prob by name. They
    # are read from its source, not imported, so a removed name fails here
    # and not only in a traced benchmark run.
    names = benchmark_value(TRACER, "PROB_OBJECTS")
    assert names
    assert [name for name in names if not hasattr(escortropy.prob, name)] == []


def test_only_prob_builds_generators():
    # One build site: prob._rngs derives every generator's state, so no
    # other module names numpy's generator constructors.
    constructors = {"default_rng", "SeedSequence", "PCG64"}
    named = {}
    for path in sorted((ROOT / "src" / "escortropy").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, attr, None) for node in ast.walk(tree) for attr in ("id", "attr", "name")}
        named[path.name] = sorted(names & constructors)
    assert named.pop("prob.py") == ["PCG64"]
    assert {name: found for name, found in named.items() if found} == {}


def test_verify_prints_the_rows_the_benchmark_checks():
    # The verify-all workload marks every request malformed when a row is
    # renamed, added or dropped; this names the difference.
    expected = benchmark_value(WORKLOADS, "VERIFY_CHECKS")
    assert [f"{r.suite}:{r.check}" for r in run_suite("all", 0, 1)] == expected
