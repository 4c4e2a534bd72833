"""Pinned-hash oracles for the evaluator and its tracer hooks.

Each test hashes the outcomes of a fixed sweep with sha256 and compares
the digest with a pinned value, so any change to an outcome, to the fuel
an evaluation needs, or to the evidence the tracer records shows up as a
different digest.  The sweeps read `bench/loops.rtg` and the fixture
grammars; both are inputs only.
"""

from __future__ import annotations

import hashlib
import pathlib
import random

from impsynth.grammar import embed, enumerate_terms, parse_grammar, to_bin_form
from impsynth.semantics import FUEL_EXHAUSTED, eval_term, loop_trace
from impsynth.terms import State, Term, VarUniverse, parse_term, variables_of
from impsynth.value_tree import build_value_tree

from .conftest import FIXTURES, random_loop

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 20260816
MAX_FUEL = 64

# start values per variable universe; each grammar is swept on the states
# over its own variables
_STATES = {
    ("x",): [(0,), (1,), (3,)],
    ("x", "y"): [(0, 0), (2, 1), (1, 3)],
}

_GRAMMARS = ["bench/loops.rtg", "fixtures/copy.rtg", "fixtures/expr.rtg",
             "fixtures/looping.rtg"]


def _grammar(rel: str):
    return parse_grammar((ROOT / rel).read_text())


def _states(universe: VarUniverse) -> list[State]:
    return [State(universe, v) for v in _STATES[universe.names]]


def _fuel_profile(t: Term, sigma: State) -> tuple[int, object]:
    """(least fuel at which t settles, its outcome), or (-1, exhausted).

    The outcome of one (term, state) pair as a function of fuel is fuel
    exhaustion below some threshold and one fixed outcome from there on
    (`test_fuel_monotone`), so the threshold and that outcome fix every
    fuel in 0..MAX_FUEL.  The threshold is found by bisection and checked
    at both of its sides.
    """
    top = eval_term(t, sigma, MAX_FUEL)
    if top is FUEL_EXHAUSTED:
        return -1, top
    lo, hi = 0, MAX_FUEL  # eval at hi settles; find the least such fuel
    while lo < hi:
        mid = (lo + hi) // 2
        if eval_term(t, sigma, mid) is FUEL_EXHAUSTED:
            lo = mid + 1
        else:
            hi = mid
    assert eval_term(t, sigma, lo) == top
    assert lo == 0 or eval_term(t, sigma, lo - 1) is FUEL_EXHAUSTED
    return lo, top


def test_eval_term_sweep_hash():
    digest = hashlib.sha256()
    pairs = 0
    for rel in _GRAMMARS:
        g = _grammar(rel)
        for grammar in (g, to_bin_form(g)):
            states = _states(grammar.universe)
            for t in enumerate_terms(grammar, 9):
                for sigma in states:
                    need, outcome = _fuel_profile(t, sigma)
                    digest.update(f"{t!r} {sigma} {need} {outcome!r}\n".encode())
                    pairs += 1
    assert pairs == 9291
    assert digest.hexdigest() == (
        "874b42c907c160fa8b9df71a52bfdbe7"
        "ad57b98559b173948045cac170996845")


def _tracer_corpus():
    """Programs and inputs of the acceptance sweeps, plus loop grammar terms."""
    x = VarUniverse.of("x")
    expr_bin = to_bin_form(_grammar("fixtures/expr.rtg"))
    for t in enumerate_terms(expr_bin, 9):
        for v in (0, 1, 2):
            yield t, State(x, (v,)), 1000
    yield embed(parse_term("1 + x + 1")), State(x, (3,)), 1000
    yield parse_term("while x < 2 do x := x + 1"), State(x, (0,)), 1000
    rng = random.Random(SEED)
    for _ in range(200):
        guard, body, sigma = random_loop(rng)
        yield Term("while", (guard, body)), sigma, 100_000
    loops = _grammar("bench/loops.rtg")
    for grammar in (loops, to_bin_form(loops)):
        for t in enumerate_terms(grammar, 7):
            for sigma in _states(grammar.universe):
                yield t, sigma, 40
    copy = _grammar("fixtures/copy.rtg")
    for t in enumerate_terms(copy, 6):
        yield embed(t), State(copy.universe, (1, 2)), 1000
    for name in ("count_up.imp", "sum.imp", "sum_binform.imp"):
        program = parse_term((FIXTURES / name).read_text())
        universe = VarUniverse(tuple(sorted(variables_of(program))))
        for fuel in (5, 1000):
            yield program, State(universe, (1,) * len(universe)), fuel


def test_build_value_tree_sweep_hash():
    digest = hashlib.sha256()
    runs = 0
    for t, sigma, fuel in _tracer_corpus():
        built = build_value_tree(t, sigma, fuel)
        evidence = getattr(built, "root", built)
        digest.update(f"{t!r} {sigma} {fuel} {evidence!r}\n".encode())
        runs += 1
    assert runs == 1090
    assert digest.hexdigest() == (
        "cc829fc7face7a44957187257835021a"
        "5ff86f098b40f2935884bd2835340205")


def test_loop_trace_sweep_hash():
    digest = hashlib.sha256()
    rng = random.Random(SEED)
    for _ in range(1000):
        guard, body, sigma = random_loop(rng)
        for fuel in (0, 7, 30, 1_000_000):
            trace = loop_trace(guard, body, sigma, fuel)
            digest.update(f"{guard!r} {body!r} {sigma} {fuel} {trace!r}\n".encode())
    x = VarUniverse.of("x")
    for guard, body in [("x / 0 < 1", "x := x + 1"),
                        ("x < 3", "x := x + 1 / 0"),
                        ("1 < x", "x := x - 1")]:
        for v in (0, 2, 5):
            trace = loop_trace(parse_term(guard), parse_term(body),
                               State(x, (v,)), 100)
            digest.update(f"{guard} {body} {v} {trace!r}\n".encode())
    assert digest.hexdigest() == (
        "99fbf474e327857eca9564722069507a"
        "65292faa6e8fedc0acd9185dc4628c6c")
