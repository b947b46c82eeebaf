"""The documented API still exists: the README's library example runs, and
every name ``qreality`` exports resolves."""

import re
from pathlib import Path

import qreality

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example_runs():
    exec(compile(_library_example(), str(README), "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in qreality.__all__ if not hasattr(qreality, name)]
    assert missing == []
