"""Pinned-hash oracles for the search engines' answers.

Each test runs a fixed sweep of `synthesize`, `synthesize_loop_free`,
`synthesize_pbe`, `verify` and `cegis` calls, hashes every outcome with
sha256 and compares the digest with a pinned value.  An outcome is the
result's type, its term, reason or proof, and its `SearchStats`; for
`verify` it is the verdict and the counterexample; a call that raises
`SynthesisError` contributes the error text.  So any change to which
candidate wins, a verdict, a stop reason or a work counter shows up as
a different digest.

Every call stays well below the 20,000-candidate scan cap, so the
digests do not depend on where a capped search stops.
"""

from __future__ import annotations

import hashlib
import itertools
import pathlib
import random

from impsynth.grammar import enumerate_terms, parse_grammar
from impsynth.spec_lang import parse_predicate
from impsynth.synthesis import (
    BoundedBox,
    Finite,
    Mode,
    Realized,
    SynthesisError,
    SynthesisProblem,
    Verified,
    cegis,
    load_problem,
    synthesize,
    synthesize_loop_free,
    synthesize_pbe,
    verify,
)
from impsynth.terms import State

from .conftest import FIXTURES

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _describe(result) -> str:
    """A result's type, its term, reason, proof or counterexample, and
    its counters."""
    detail = next((getattr(result, a) for a in ("term", "reason", "proof",
                                                "state")
                   if hasattr(result, a)), None)
    return f"{type(result).__name__} {detail!r} {getattr(result, 'stats', '')}"


def _outcome(call) -> str:
    """One call's outcome as text: its result, or the error it raised."""
    try:
        result = call()
    except SynthesisError as err:
        return f"error {err}"
    if isinstance(result, tuple):  # cegis: (result, trace)
        result, trace = result
        history = [f"{t!r} {cex}" for t, cex in trace.history]
        return f"{_describe(result)} {history}"
    return _describe(result)


def _sweep(problem: SynthesisProblem, budget: int, fuel: int,
           digest, kinds: list) -> None:
    """Every engine on one problem at one size budget and fuel cap."""
    calls = [
        ("synthesize", lambda: synthesize(problem, budget, fuel)),
        ("loop_free", lambda: synthesize_loop_free(problem, budget)),
        ("pbe", lambda: synthesize_pbe(problem, budget, fuel)),
        ("cegis", lambda: cegis(problem, [], 3, budget, fuel)),
        ("cegis-dovetail", lambda: cegis(problem, [], 3, budget, fuel,
                                         engine="dovetail"))]
    for name, call in calls:
        text = _outcome(call)
        kinds.append(text.split(" ", 1)[0])
        digest.update(f"{name} {budget} {fuel}: {text}\n".encode())
    # verify every third term of the language within the budget
    for t in itertools.islice(enumerate_terms(problem.grammar, budget),
                              0, 60, 3):
        digest.update(
            f"verify {t!r} {fuel}: "
            f"{_outcome(lambda: verify(t, problem, fuel))}\n"
            .encode())


def test_fixture_problem_sweep_hash():
    digest = hashlib.sha256()
    kinds: list[str] = []
    for name in ("copy.prob", "copy_small.prob", "value_five.prob",
                 "assign_five.prob"):
        problem = load_problem(FIXTURES / name)
        for budget in (1, 3, 5, 7, 9, 11):
            _sweep(problem, budget, 256, digest, kinds)
    assert [kinds.count(k) for k in
            ("Realized", "Unrealizable", "BudgetExhausted", "error")] \
        == [32, 0, 70, 18]
    assert digest.hexdigest() == (
        "6666d90690a4d51a408f42c4667c233c"
        "9726310345194af36ba4ee58ca2fb62b")


# Finite languages, with and without a loop, where a search can prove a
# problem unrealizable by exhausting the language.
_FINITE_STRAIGHT = """
    (grammar (vars x y) (start S)
      (rule S (:= V E))
      (rule S (seq A A))
      (rule A (:= V E))
      (rule V x)
      (rule V y)
      (rule E 0)
      (rule E 1)
      (rule E (+ X O))
      (rule X x)
      (rule O 1))
"""
_FINITE_LOOPS = """
    (grammar (vars x y) (start S)
      (rule S (:= V E))
      (rule S (while B A))
      (rule A (:= V E))
      (rule B (< X Y))
      (rule V x)
      (rule V y)
      (rule X x)
      (rule Y y)
      (rule E 0)
      (rule E 1)
      (rule E (+ X O))
      (rule O 1))
"""


def _read(rel: str) -> str:
    return (ROOT / rel).read_text()


# (grammar name, grammar text, largest size budget, spec templates); `K` stands for a small
# constant and `V` for a variable of the grammar's universe
_GRAMMARS = [
    ("expr.rtg", _read("fixtures/expr.rtg"), 7,
     ["(= out K)", "(= out (+ V K))", "(< out K)", "(> out V)",
      "(or (= out K) (= out V))", "(and (< out K) (<= (term-size) K))"]),
    ("copy.rtg", _read("fixtures/copy.rtg"), 7,
     ["(= (out x) K)", "(= (out x) (+ V K))",
      "(and (= (out x) y) (= (out y) y))", "(< (out V) K)",
      "(>= (out V) (+ V K))"]),
    ("looping.rtg", _read("fixtures/looping.rtg"), 7,
     ["(= (out x) K)", "(= (out x) (+ x K))", "(< (out x) K)",
      "(> (out x) x)", "(or (= (out x) K) (= (out x) 0))"]),
    ("loops.rtg", _read("bench/loops.rtg"), 7,
     ["(= (out x) K)", "(= (out y) (+ V K))", "(> (out x) y)",
      "(and (= (out x) y) (< (out y) K))", "(>= (out V) (+ V K))"]),
    ("finite straight", _FINITE_STRAIGHT, 13,
     ["(= (out x) K)", "(= (out V) (+ V K))", "(= (out x) y)",
      "(and (= (out x) K) (= (out y) K))", "(<= (term-size) K)"]),
    ("finite loops", _FINITE_LOOPS, 13,
     ["(= (out x) K)", "(= (out V) (+ V K))", "(= (out x) y)",
      "(and (= (out x) K) (= (out y) K))", "(<= (term-size) K)"]),
]


def _random_problem(rng: random.Random, grammar, templates) -> SynthesisProblem:
    universe = grammar.universe
    names = list(universe)
    spec = rng.choice(templates)
    spec = spec.replace("K", str(rng.randint(0, 4)))
    spec = spec.replace("V", rng.choice(names))
    if rng.random() < 0.5:
        states = {State(universe, tuple(rng.randint(0, 4) for _ in names))
                  for _ in range(rng.randint(1, 3))}
        domain = Finite(tuple(sorted(states, key=lambda s: s.values)))
    else:
        bounds = []
        for name in names:
            lo = rng.randint(0, 3)
            bounds.append((name, lo, lo + rng.randint(0, 2)))
        domain = BoundedBox(universe, tuple(bounds))
    mode = rng.choice([Mode.TOTAL, Mode.PARTIAL])
    return SynthesisProblem(grammar, domain, parse_predicate(spec), mode)


def test_seeded_problem_sweep_hash():
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    kinds: list[str] = []
    for name, text, largest, templates in _GRAMMARS:
        grammar = parse_grammar(text)
        for _ in range(12):
            problem = _random_problem(rng, grammar, templates)
            budget = rng.randint(1, largest)
            digest.update(f"{name} {problem.domain} {problem.spec.text} "
                          f"{problem.mode}\n".encode())
            for fuel in (4, 64):
                _sweep(problem, budget, fuel, digest, kinds)
    assert [kinds.count(k) for k in
            ("Realized", "Unrealizable", "BudgetExhausted", "error")] \
        == [223, 24, 289, 184]
    assert digest.hexdigest() == (
        "b5a7aabb952e65219c8916dd4854e306"
        "6774a71726fe67bae5549b9babed4d6a")


def test_partial_realized_answers_pass_verify():
    """Under Mode.PARTIAL, every `Realized` from `synthesize` or
    `synthesize_pbe` passes `verify` at the same fuel cap."""
    rng = random.Random(20261019)
    realized = 0
    for name, text, largest, templates in _GRAMMARS:
        grammar = parse_grammar(text)
        for _ in range(40):
            problem = _random_problem(rng, grammar, templates)
            budget = rng.randint(1, largest)
            if problem.mode is not Mode.PARTIAL:
                continue
            for fuel in (4, 64):
                for engine in (synthesize, synthesize_pbe):
                    try:
                        result = engine(problem, budget, fuel)
                    except SynthesisError:
                        continue
                    if isinstance(result, Realized):
                        realized += 1
                        assert verify(result.term, problem, fuel) == Verified(), (
                            name, problem.domain, problem.spec.text, budget, fuel,
                            engine.__name__, result.term)
    assert realized == 155
