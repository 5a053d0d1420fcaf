"""The README's problem file, CLI synopsis and CHSH example, checked against
the parser and the program so the documentation cannot drift."""

import json
import re
import shlex
from pathlib import Path

import pytest

from ncupper.cli import OPTIONS, WEINGARTEN_PAIRS, build_parser
from ncupper.problems import parse_problem_dict
from ncupper.symcomb import partitions

from conftest import run_cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _section(heading: str) -> str:
    start = README.index(heading)
    end = README.find("\n## ", start + len(heading))
    return README[start:end if end >= 0 else None]


def _fenced_blocks(text: str, lang: str = "") -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def _synopsis() -> dict[str, set[str]]:
    """Subcommand -> flags its README synopsis lines mention."""
    flags: dict[str, set[str]] = {}
    command = None
    for line in _fenced_blocks(_section("## CLI"))[0].splitlines():
        if line.startswith("ncupper "):
            command = line.split()[1]
            flags.setdefault(command, set())
        flags[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return flags


def _subparsers() -> dict[str, object]:
    top = build_parser()
    (action,) = [a for a in top._actions
                 if a.__class__.__name__ == "_SubParsersAction"]
    return action.choices


def test_problem_file_example_parses():
    (block,) = _fenced_blocks(_section("## Problem files"), "json")
    problem = parse_problem_dict(json.loads(block))
    assert [g.id for g in problem.algebra.generators] == ["b1", "c1"]
    assert len(problem.objective.terms) == 2


def test_cli_synopsis_matches_parsers():
    synopsis = _synopsis()
    parsers = _subparsers()
    assert set(synopsis) == set(parsers)
    for command, flags in synopsis.items():
        accepted = {s for s in parsers[command]._option_string_actions
                    if s.startswith("--") and s != "--help"}
        assert flags == accepted, command
    # the variables the README names are those the CLI reads
    variables = {f"NCUPPER_{name.upper()}"
                 for options in OPTIONS.values() for name, _, _ in options}
    assert set(re.findall(r"NCUPPER_[A-Z]+", _section("## CLI"))) == variables


def test_weingarten_cap_matches_the_quoted_largest_n():
    # the largest N with p(N)^2 within the cap, from the partitions alone
    n = 1
    while len(partitions(n + 1)) ** 2 <= WEINGARTEN_PAIRS:
        n += 1
    pairs = len(partitions(n)) ** 2
    assert (f"The largest N it admits is {n} (p({n})² = {pairs:,})"
            in " ".join(_section("## CLI").split()))


def test_chsh_example_prints_quoted_bounds():
    example = _section("### Example")
    (command,) = _fenced_blocks(example, "sh")
    argv = shlex.split(command.strip())
    assert argv[0] == "ncupper"
    quoted = {name: [float(x.replace("−", "-")) for x in values.split(",")]
              for name, values in re.findall(r"(λ|η) = \(([^)]*)\)", example)}
    assert set(quoted) == {"λ", "η"}
    r = run_cli(*argv[1:], cwd=ROOT)
    assert r.returncode == 0, r.stderr
    rows = [line.split() for line in r.stdout.splitlines()[1:]]
    assert [float(row[1]) for row in rows] == pytest.approx(quoted["λ"],
                                                            abs=1e-6)
    assert [float(row[2]) for row in rows] == pytest.approx(quoted["η"],
                                                            abs=1e-6)
