"""Interpreter: outcomes, fuel accounting, dummy and fault propagation."""

import random

import pytest
from hypothesis import given, strategies as st

from impsynth.semantics import (
    DUMMY,
    FUEL_EXHAUSTED,
    BoolValue,
    Fault,
    StateOut,
    Value,
    eval_term,
    format_outcome,
    loop_trace,
    terminate_within,
)
from impsynth.grammar import embed
from impsynth.terms import EMPTY, State, Term, VarUniverse, parse_term

from .conftest import UNIVERSE_XY, random_loop
from .test_terms import _exprs, any_term

X = VarUniverse.of("x")
XY = UNIVERSE_XY


def ev(text: str, fuel: int = 10_000, **values: int):
    sigma = State.of(XY, values)
    return eval_term(parse_term(text, XY), sigma, fuel)


# ---------------------------------------------------------------------------
# Frozen outcomes (hand-computed)


@pytest.mark.parametrize("text,values,expect", [
    ("1 + x + 1", {"x": 3}, Value(5)),
    ("x * x - y", {"x": 4, "y": 5}, Value(11)),
    ("0 - 1 - 1", {}, Value(-2)),
    # division truncates toward zero
    ("7 / 2", {}, Value(3)),
    ("(0 - 7) / 2", {}, Value(-3)),
    ("7 / (0 - 2)", {}, Value(-3)),
    ("(0 - 7) / (0 - 2)", {}, Value(3)),
    ("x < y", {"x": 1, "y": 2}, BoolValue(True)),
    ("x = y", {"x": 1, "y": 2}, BoolValue(False)),
    ("!(x < x)", {}, BoolValue(True)),
    ("true and false", {}, BoolValue(False)),
    ("x / y", {"x": 1, "y": 0}, Fault("div0")),
    # faults beat everything else, operands left to right
    ("x / 0 + x", {"x": 1}, Fault("div0")),
    ("false and 1 / 0 < 2", {}, Fault("div0")),  # `and` is not short-circuit
])
def test_eval_frozen(text, values, expect):
    assert ev(text, **values) == expect


def test_statement_outcomes():
    out = ev("x := x + 1; y := x * x", x=3)
    assert out == StateOut(State(XY, (4, 16)))
    out = ev("if x = 0 then x := 1", x=5)
    assert out == StateOut(State(XY, (5, 0)))  # false guard: unchanged
    out = ev("while x < 2 do x := x + 1", x=0)
    assert out == StateOut(State(XY, (2, 0)))


def test_dummy_semantics():
    # padding roots give the dummy value; real operators over real input
    # never see it because widened 0-ary operators ignore padding slots
    sigma = State(X, (3,))
    assert eval_term(Term("null"), sigma, 10) == DUMMY
    nop = Term("nop", (Term("null"), Term("null")))
    assert eval_term(nop, sigma, 10) == DUMMY
    padded_x = Term("x", (Term("null"), Term("null")))
    assert eval_term(padded_x, sigma, 10) == Value(3)
    # dummy input dominates everything
    assert eval_term(parse_term("x + 1", X), EMPTY, 10) == DUMMY
    assert eval_term(parse_term("x := 1", X), EMPTY, 10) == DUMMY


def test_padding_is_free_and_semantics_preserving():
    t = parse_term("1 + x + 1", X)
    sigma = State(X, (3,))
    # plain term: 5 node activations; one fuel unit each
    assert eval_term(t, sigma, 5) == Value(5)
    assert eval_term(t, sigma, 4) is FUEL_EXHAUSTED
    # the padded embedding costs exactly the same
    assert eval_term(embed(t), sigma, 5) == Value(5)
    assert eval_term(embed(t), sigma, 4) is FUEL_EXHAUSTED


def test_fuel_boundary_of_counting_loop():
    # while x < 2 do x := x + 1 from x=0:
    #   1 (loop node) + 3 guards * 5 nodes + 2 bodies * 5 nodes
    #   + 2 completed iterations = 28
    t = parse_term("while x < 2 do x := x + 1", X)
    sigma = State(X, (0,))
    assert eval_term(t, sigma, 27) is FUEL_EXHAUSTED
    assert eval_term(t, sigma, 28) == StateOut(State(X, (2,)))
    assert terminate_within(t, sigma, 28)
    assert not terminate_within(t, sigma, 27)


def test_divergence_exhausts_any_fuel():
    t = parse_term("while true do x := x", X)
    for fuel in (0, 1, 10, 1000):
        assert eval_term(t, State(X, (0,)), fuel) is FUEL_EXHAUSTED


# ---------------------------------------------------------------------------
# A loop that comes back to a guard state diverges at every fuel.  The
# interpreter stops it at the first repeat it sees, so these runs end at
# any fuel; without the repeat check they would run for 10**12 units.

HUGE = 10 ** 12


def _orbit(guard: Term, body: Term, sigma: State) -> tuple[int, int]:
    """(tail, cycle) of the guard states of `while guard do body` from
    sigma, stepped one body run at a time; the guard holds throughout."""
    seen: dict[State, int] = {}
    while sigma not in seen:
        assert eval_term(guard, sigma, 100) == BoolValue(True)
        seen[sigma] = len(seen)
        sigma = eval_term(body, sigma, 100).state
    return seen[sigma], len(seen) - seen[sigma]


def test_cycling_loop_exhausts_huge_fuel():
    t = parse_term("while true do x := 0", X)
    for x in (0, 7):
        assert eval_term(t, State(X, (x,)), HUGE) is FUEL_EXHAUSTED


@pytest.mark.parametrize("text,values,orbit", [
    # x runs -3, -2, -1, 0, then 1, 2, 3 for ever
    ("while true do (x := x + 1; if 3 < x then x := 1)", {"x": -3}, (4, 3)),
    ("while x < 5 do (x := x + 1; if 3 < x then x := 1)", {"x": -3}, (4, 3)),
    # y toggles while x climbs to 2 and stays
    ("while y < 2 do (y := 1 - y; if x < 2 then x := x + 1)", {"x": 0}, (2, 2)),
    # x climbs to 0 and then counts modulo 4, y counts modulo 7 from the
    # start: 28 states, reached after 5 steps
    ("while true do (x := x + 1; if 3 < x then x := 0; y := y + 1;"
     " if 6 < y then y := 0)", {"x": -5}, (5, 28)),
])
def test_tail_and_cycle_longer_than_one(text, values, orbit):
    t = parse_term(text, XY)
    sigma = State.of(XY, values)
    assert _orbit(*t.children, sigma) == orbit
    for fuel in (0, 10, 1000, HUGE):
        assert eval_term(t, sigma, fuel) is FUEL_EXHAUSTED


def test_inner_cycle_inside_outer_loop():
    # the inner loop's guard first holds on the third outer iteration,
    # and then y toggles between 0 and 1 for ever
    t = parse_term("while x < 3 do (x := x + 1; while 2 < x do y := 1 - y)", XY)
    sigma = State.of(XY, {})
    assert eval_term(t, sigma, HUGE) is FUEL_EXHAUSTED
    # from x=3 neither loop runs an iteration
    three = State.of(XY, {"x": 3})
    assert eval_term(t, three, HUGE) == StateOut(three)
    # the same loop as the body of a traced loop
    guard, body = parse_term("while x < 9 do (x := x + 1; while 2 < x do y := 1 - y)",
                             XY).children
    assert loop_trace(guard, body, sigma, HUGE) is FUEL_EXHAUSTED


def test_long_terminating_loop_settles_at_its_least_fuel():
    # 1 (loop node) + 5001 guards * 3 nodes + 5000 bodies * 5 nodes
    #   + 5000 completed iterations = 45004; no guard state repeats
    t = parse_term("while x < y do x := x + 1", XY)
    sigma = State.of(XY, {"y": 5000})
    done = StateOut(State.of(XY, {"x": 5000, "y": 5000}))
    assert eval_term(t, sigma, 45004) == done
    assert eval_term(t, sigma, HUGE) == done
    assert eval_term(t, sigma, 45003) is FUEL_EXHAUSTED


def test_fault_inside_loop():
    t = parse_term("while x < 1 do x := x / 0", X)
    assert eval_term(t, State(X, (0,)), 100) == Fault("div0")
    assert eval_term(t, State(X, (5,)), 100) == StateOut(State(X, (5,)))


@given(any_term, st.integers(min_value=0, max_value=60))
def test_fuel_monotone(t, fuel):
    # once a run settles, more fuel never changes the outcome
    sigma = State(XY, (1, 2))
    out = eval_term(t, sigma, fuel)
    if out is not FUEL_EXHAUSTED:
        assert eval_term(t, sigma, fuel + 1) == out
        assert eval_term(t, sigma, fuel + 97) == out


@given(_exprs)
def test_embed_preserves_expression_semantics(t):
    sigma = State(XY, (3, -1))
    assert eval_term(embed(t), sigma, 10_000) == eval_term(t, sigma, 10_000)


# ---------------------------------------------------------------------------
# Loop traces


def test_loop_trace_frozen():
    guard = parse_term("x < 2", X)
    body = parse_term("x := x + 1", X)
    trace = loop_trace(guard, body, State(X, (0,)), 100)
    assert trace == (State(X, (0,)), State(X, (1,)), State(X, (2,)))
    # already false: the trace is just the start state
    assert loop_trace(guard, body, State(X, (7,)), 100) == (State(X, (7,)),)


def test_loop_trace_fuel_matches_eval():
    guard = parse_term("x < 2", X)
    body = parse_term("x := x + 1", X)
    sigma = State(X, (0,))
    assert loop_trace(guard, body, sigma, 27) is FUEL_EXHAUSTED
    assert loop_trace(guard, body, sigma, 28) != FUEL_EXHAUSTED


def test_loop_trace_faults_and_divergence():
    assert loop_trace(parse_term("x < 1", X), parse_term("x := x / 0", X),
                      State(X, (0,)), 100) == Fault("div0")
    assert loop_trace(parse_term("true", X), parse_term("x := x", X),
                      State(X, (0,)), 1000) is FUEL_EXHAUSTED
    with pytest.raises(ValueError):
        loop_trace(parse_term("x + 1", X), parse_term("x := x", X),
                   State(X, (0,)), 10)


def test_loop_trace_agrees_with_eval_on_random_loops():
    rng = random.Random(20260816)
    for _ in range(50):
        guard, body, sigma = random_loop(rng)
        loop = Term("while", (guard, body))
        trace = loop_trace(guard, body, sigma, 100_000)
        assert isinstance(trace, tuple)
        assert eval_term(loop, sigma, 100_000) == StateOut(trace[-1])


# ---------------------------------------------------------------------------
# Rendering


@pytest.mark.parametrize("outcome,text", [
    (Value(5), "value: 5"),
    (Value(-7), "value: -7"),
    (BoolValue(True), "value: true"),
    (BoolValue(False), "value: false"),
    (StateOut(State(XY, (4, 0))), "state: x=4,y=0"),
    (DUMMY, "dummy"),
    (Fault("div0"), "fault: div0"),
    (FUEL_EXHAUSTED, "fuel-exhausted"),
])
def test_format_outcome(outcome, text):
    assert format_outcome(outcome) == text
