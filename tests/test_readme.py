import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from triprod import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(name: str) -> str:
    """README's `## name` section, up to the next one."""
    return README.read_text(encoding="utf-8").split(f"\n## {name}\n", 1)[1].split("\n## ", 1)[0]


def _library_example() -> str:
    """The Python block of README's Library section."""
    return _section("Library").split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_shows_what_it_computes():
    code = _library_example()
    ns = {}
    exec(code, ns)
    for expr, _, comment in (line.partition("#") for line in code.splitlines()):
        if expr.strip() and comment:  # an expression, and the repr it shows
            assert repr(eval(expr, ns)) == comment.strip(), expr
    parts, inner, norm_sq = ns["parts"], ns["inner"], ns["norm_sq"]
    assert repr(parts.associator) == "HNum([0, 0, 0, 0, 0, 0, 0, -1], backend='exact')"
    assert inner(parts.cross, parts.associator) == 0
    assert norm_sq(parts.anticommutator) + norm_sq(parts.cross) + norm_sq(parts.associator) == 1


def test_readme_cli_lines_parse():
    block = _section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    parser = cli.build_parser()
    for line in block.splitlines():
        program, *argv = shlex.split(line, comments=True)
        assert program == "triprod", line
        try:
            parser.parse_args(argv)  # parsed only, never run
        except SystemExit:
            pytest.fail(f"README shows a command the CLI refuses: {line}")


def _help_flags(command: str) -> set:
    """The long flags `triprod COMMAND -h` lists, --help aside."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "-h"])
    return set(re.findall(r"--[a-z][a-z-]*", out.getvalue())) - {"--help"}


def test_readme_lists_each_commands_flags():
    listed = {}
    for row in _section("CLI").splitlines():
        if row.startswith("| `"):  # | `command`, ... | `--flag` ... |
            commands, flags = row.strip("| ").split("|")
            for command in re.findall(r"`(\w+)`", commands):
                listed[command] = set(re.findall(r"`(--[a-z-]+)`", flags))
    assert sorted(listed) == ["check", "decompose", "suite", "table"]
    for command, flags in listed.items():
        assert flags == _help_flags(command), command
