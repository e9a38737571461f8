"""The README's library sketch runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    section = text.split("\n## Library sketch\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under '## Library sketch'"
    scope: dict = {}
    exec(compile(block.group(1), f"{README.name}:Library sketch", "exec"), scope)
    assert 0.0 <= scope["acc"] <= 1.0
