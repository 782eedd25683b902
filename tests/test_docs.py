"""The documented entry points stay runnable: README's python quickstart
executes as written, and every name the package exports resolves."""

import re
from pathlib import Path

import escortropy

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_execute():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in escortropy.__all__ if not hasattr(escortropy, name)]
    assert missing == []
    assert len(set(escortropy.__all__)) == len(escortropy.__all__)
