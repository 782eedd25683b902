"""The documented entry points stay runnable: README's python quickstart
executes as written, every name the package exports resolves, and so does
every name the benchmark's tracer looks up."""

import ast
import re
from pathlib import Path

import escortropy
import escortropy.prob

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TRACER = ROOT / "benchmarks" / "tracing.py"


def test_readme_python_blocks_execute():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in escortropy.__all__ if not hasattr(escortropy, name)]
    assert missing == []
    assert len(set(escortropy.__all__)) == len(escortropy.__all__)


def test_every_object_the_benchmark_tracer_wraps_is_in_prob():
    # The tracer looks its PROB_OBJECTS up in escortropy.prob by name. They
    # are read from its source, not imported, so a removed name fails here
    # and not only in a traced benchmark run.
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    [names] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PROB_OBJECTS" for t in node.targets)
    ]
    assert names
    assert [name for name in names if not hasattr(escortropy.prob, name)] == []
