"""Command-line fuzz property: every argv ends in a documented exit code.

Argument lists are built from a small grammar of subcommands, flags,
fixture paths, programs, states and numbers, valid and malformed, and
run through `cli.main` in this process.  Whatever the input, the exit
code is a documented one, an exit 70 names a capability limit, and the
defensive catch-all ("internal error") is never reached.  Size, round
and fuel flags stay small, so every run ends in well under a second.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from impsynth.cli import main
from impsynth.synthesis import CLASSIFY_VARIANTS

from .conftest import FIXTURES

EXIT_CODES = {0, 1, 2, 3, 64, 66, 70}
MISSING = "no/such/file"

def _pick(good: list[str], bad: list[str]) -> st.SearchStrategy[str]:
    """A well-formed value three times in four, a malformed one else."""
    return st.tuples(st.integers(1, 4), st.sampled_from(good),
                     st.sampled_from(bad)).map(
        lambda drawn: drawn[2] if drawn[0] == 4 else drawn[1])


PROGRAMS = _pick(
    ["x := 1", "x := y", "x := x + 1", "y := x - 1", "x := 1; y := x",
     "if x < 1 then y := 1", "while x < 1 do x := x + 1",
     "while true do x := x", "x / 0", "x + 1 < y", "1 + x + 1",
     "not (x = 1) and true"],
    ["", "x :=", "(x + 1", "while do", "y := z", "x := 1 +"])
STATES = _pick(
    ["x=0", "x=1", "x=-1", "x=0,y=0", "x=1,y=1", "y=1,x=0", "x=0,y=-1"],
    ["empty", "", "x=", "x=1,x=2", "z=0", "x=a", "x=0,,y=1"])
FUEL = _pick(["0", "1", "7", "64", "256"], ["-1", "x", "0x10"])
SIZES = _pick(["1", "3", "5", "9", "12"], ["0", "-3", "q"])
ROUNDS = _pick(["1", "2", "3"], ["0", "r"])
NUMBERS = _pick(["0", "1", "2", "3", "6", "7", "14", "15", "255"],
                ["-1", "x", "0x1f"])
VARS = _pick(["x", "x,y", "y,x"], ["", "x,x", "1", "x,while"])


def _file(*names: str):
    return st.sampled_from([str(FIXTURES / n) for n in names] + [MISSING])


PROGRAM_FILES = _file("count_up.imp", "sum.imp", "sum_binform.imp",
                      "copy.prob")
PROBLEMS = _file("copy.prob", "copy_small.prob", "value_five.prob",
                 "assign_five.prob", "looping_partial.prob", "expr.rtg")
GRAMMARS = _file("copy.rtg", "expr.rtg", "looping.rtg", "value_five.prob")
CERTS = _file("sum_binform.cert", "expr.rtg")


def _flag(name: str, values, needed: bool = False) -> st.SearchStrategy[list[str]]:
    """The flag with one of the values, or nothing.  A flag the command
    needs is left out one time in five, any other one time in two."""
    if isinstance(values, list):
        values = st.sampled_from(values)
    odds = 5 if needed else 2
    return st.tuples(st.integers(1, odds), values).map(
        lambda drawn: [] if drawn[0] == odds else [name, drawn[1]])


def _switch(name: str) -> st.SearchStrategy[list[str]]:
    return st.sampled_from([[], [name]])


def _program():
    return st.one_of(_flag("--text", PROGRAMS, True),
                     _flag("--program", PROGRAM_FILES, True))


def _command(name: str, *parts) -> st.SearchStrategy[list[str]]:
    return st.tuples(*parts).map(
        lambda chunks: [name] + [arg for chunk in chunks for arg in chunk])


SUBCOMMANDS = st.one_of(
    _command("parse", _program(), _flag("--vars", VARS), _switch("--prefix")),
    _command("run", _program(), _flag("--state", STATES, True), _flag("--fuel", FUEL)),
    _command("encode", _flag("--as", ["term", "state", "seq", "tree"], True),
             _program(), _flag("--vars", VARS), _flag("--state", STATES, True),
             _flag("--values", ["3 1 4", "0", "", "1 -2", "a b"])),
    _command("decode", _flag("--as", ["term", "state", "seq"], True),
             st.lists(NUMBERS, max_size=4),
             _flag("--vars", VARS)),
    _command("binform", _flag("--grammar", GRAMMARS, True)),
    _command("certify", _program(), _flag("--state", STATES, True),
             _flag("--fuel", FUEL)),
    _command("check-cert", _program(), _flag("--state", STATES, True),
             _flag("--cert", CERTS, True)),
    _command("synth", _flag("--problem", PROBLEMS, True),
             _flag("--size-budget", SIZES, True), _flag("--fuel", FUEL)),
    _command("cegis", _flag("--problem", PROBLEMS, True), _flag("--rounds", ROUNDS, True),
             _flag("--size-budget", SIZES, True), _flag("--fuel", FUEL),
             _flag("--seed", STATES), _flag("--seed", STATES),
             _flag("--engine", ["auto", "dovetail", "fast"])),
    _command("classify",
             _flag("--variant", list(CLASSIFY_VARIANTS) + ["bogus"], True),
             _flag("--n", ["0", "1", "3", "-1", "n"])),
    st.sampled_from([[], ["frob"], ["--json"], ["run", "--text"]]),
)

GLOBAL = st.lists(st.sampled_from(["--json", "--quiet", "--hex"]),
                  max_size=2, unique=True)


@st.composite
def argvs(draw) -> list[str]:
    before, after = draw(GLOBAL), draw(GLOBAL)
    command = draw(SUBCOMMANDS)
    return before + command[:1] + after + command[1:]


def _problem_examples(test):
    """Run synth and cegis, under both engines, on the problems the draws
    never name: exits 3, 0, 64 and 66."""
    for problem in (str(FIXTURES / "copy.prob"), str(FIXTURES / "assign_five.prob"),
                    str(FIXTURES / "expr.rtg"), MISSING):
        for command in (["synth"], ["cegis", "--rounds", "3"],
                        ["cegis", "--rounds", "3", "--engine", "dovetail"]):
            test = example(command + ["--problem", problem, "--size-budget", "12",
                                      "--fuel", "64"])(test)
    return test


@settings(max_examples=100, deadline=2000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
@_problem_examples
# the drawn commands seldom name a problem, so a partial-mode one runs here
@example(["synth", "--problem", str(FIXTURES / "looping_partial.prob"),
          "--size-budget", "7", "--fuel", "64"])
@example(["cegis", "--problem", str(FIXTURES / "looping_partial.prob"),
          "--rounds", "3", "--size-budget", "7", "--fuel", "64"])
def test_cli_exit_codes_are_documented(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    message = err.getvalue()
    assert code in EXIT_CODES, (argv, code, message)
    if code == 70:
        assert "out of reach" in message or "nesting too deep" in message, (
            argv, message)
    assert "internal error" not in message, (argv, message)
