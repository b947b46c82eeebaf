"""The documented API still exists: the README's library example runs, its
CLI lines parse, and every name ``qreality`` exports resolves."""

import argparse
import re
import shlex
from pathlib import Path

import qreality
from qreality import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _only_block(section: str, language: str) -> str:
    text = README.read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"```{language}\n(.*?)```", body, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_example_runs():
    exec(compile(_only_block("Library", "python"), str(README), "exec"), {})


def test_readme_cli_lines_parse():
    # A renamed or removed command or flag makes argparse exit here.
    lines = [line for line in _only_block("CLI", "sh").splitlines()
             if line.startswith("qreality ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(cli._join_negative_values(shlex.split(line)[1:]))
        assert callable(args.func), line


def test_readme_cli_section_names_only_real_flags():
    # A removed flag still named in the prose, where no CLI line parses it,
    # fails here.
    body = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    known = {flag for sub in commands.choices.values() for flag in sub._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", body))
    assert "--output" in named
    assert sorted(named - known) == []


def test_every_exported_name_resolves():
    missing = [name for name in qreality.__all__ if not hasattr(qreality, name)]
    assert missing == []


def test_tests_import_this_checkout():
    # pytest puts src/ on the path, so a plain `python -m pytest` tests this
    # checkout's package rather than an installed copy.
    assert Path(qreality.__file__).resolve().is_relative_to(ROOT / "src")
