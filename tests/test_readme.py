"""The README's usage examples run against the real CLI and config code.

Every ``miniaffect …`` command line of the README's shell blocks must parse
with the CLI's own parser, and its JSON config example must resolve through
``make_config``, so a removed flag or config key cannot stay in the docs.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from miniaffect.cli import build_parser
from miniaffect.train import make_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def _command_lines() -> list[str]:
    """Each ``miniaffect`` command of the shell blocks, its ``\\`` continuations joined."""
    commands = []
    for block in _blocks("bash"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("miniaffect "):
                commands.append(line)
    return commands


COMMANDS = _command_lines()


def test_the_readme_shows_every_command():
    shown = {shlex.split(line)[1] for line in COMMANDS}
    assert shown == {"ingest", "augment", "train", "predict", "ensemble", "eval", "report", "seed-sweep"}


@pytest.mark.parametrize("line", COMMANDS, ids=[f"{i}-{shlex.split(line)[1]}" for i, line in enumerate(COMMANDS)])
def test_readme_command_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports the offending flag on stderr
        pytest.fail(f"README command does not parse (exit {exc.code}): {line}")
    assert args.command == argv[0]


def test_readme_config_example_resolves():
    (block,) = _blocks("json")
    config = make_config(**json.loads(block))
    assert (config.task, config.epochs, config.optimizer.lr, config.encoder.d_model) == ("emotion", 100, 0.001, 32)
