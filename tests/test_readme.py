"""The README's usage examples run against the real CLI and config code.

Every ``miniaffect …`` command line of the README's shell blocks must parse
with the CLI's own parser, every flag its prose quotes must be one the CLI
has, and its JSON config example must resolve through ``make_config``, so a
removed flag or config key cannot stay in the docs.
"""

import argparse
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


def _command_flags() -> dict[str, set[str]]:
    """Each command's flags, read from the CLI's own parser."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: set(p._option_string_actions) for name, p in sub.choices.items()}


def _prose_flag_fragments() -> list[tuple[str, str | None, str]]:
    """(fragment, command or None, flag) for each ``--flag`` inside a backticked span of the README's prose.

    A span that starts with a command name, such as `predict --clamp`, quotes
    the flag on that command; any other span quotes a flag of some command.
    """
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.MULTILINE | re.DOTALL)
    commands = _command_flags()
    found = []
    for span in re.findall(r"`([^`]+)`", prose):
        words = span.split()
        command = words[0] if words[0] in commands else None
        found += [(span, command, flag) for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", span)]
    return found


# Flags the README quotes although no command has them, and why.
_NOT_A_FLAG = {"--epoch": "quoted as an abbreviation of --epochs that the CLI refuses"}

FRAGMENTS = _prose_flag_fragments()


def test_the_readme_prose_quotes_flags():
    assert any(command for _, command, _ in FRAGMENTS) and any(command is None for _, command, _ in FRAGMENTS)


@pytest.mark.parametrize("span, command, flag", FRAGMENTS, ids=[f"{i}-{f}" for i, (_, _, f) in enumerate(FRAGMENTS)])
def test_readme_prose_flag_exists(span, command, flag):
    flags = _command_flags()
    if command is not None:
        assert flag in flags[command], f"README quotes `{span}`, but {command} has no {flag}"
    elif flag not in _NOT_A_FLAG:
        assert any(flag in own for own in flags.values()), f"README quotes `{span}`, but no command has {flag}"


def test_readme_config_example_resolves():
    (block,) = _blocks("json")
    config = make_config(**json.loads(block))
    assert (config.task, config.epochs, config.optimizer.lr, config.encoder.d_model) == ("emotion", 100, 0.001, 32)
