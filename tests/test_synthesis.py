"""Synthesis engines: verification, enumeration, refinement, classification."""

import itertools

import pytest

from impsynth import synthesis
from impsynth.grammar import Levels, Rtg, enumerate_terms, parse_grammar
from impsynth.semantics import BoolValue, eval_term
from impsynth.spec_lang import parse_predicate
from impsynth.synthesis import (
    BoundedBox,
    BudgetExhausted,
    CounterexampleFound,
    Finite,
    Mode,
    Realized,
    SearchStats,
    SynthesisError,
    SynthesisProblem,
    Unknown,
    Unrealizable,
    Verified,
    _decision_list_pbe,
    cegis,
    classify,
    example_assignment_problem,
    largest_constant,
    load_problem,
    parse_problem,
    synthesize,
    synthesize_loop_free,
    synthesize_pbe,
    verify,
)
from impsynth.terms import (
    Sort,
    State,
    Term,
    VarUniverse,
    parse_prefix,
    parse_term,
    print_term,
    term_size,
    to_prefix,
)

from .conftest import FIXTURES

X = VarUniverse.of("x")
EXPR = parse_grammar((FIXTURES / "expr.rtg").read_text())
LOOPING = parse_grammar((FIXTURES / "looping.rtg").read_text())


def expr_problem(spec, domain=None, mode=Mode.TOTAL):
    if domain is None:
        domain = Finite((State(X, (3,)),))
    return SynthesisProblem(EXPR, domain, parse_predicate(spec), mode)


# ---------------------------------------------------------------------------
# Domains


def test_finite_domain_validation():
    with pytest.raises(SynthesisError, match="at least one"):
        Finite(())
    with pytest.raises(SynthesisError, match="universes"):
        Finite((State(X, (1,)), State(VarUniverse.of("y"), (1,))))
    with pytest.raises(SynthesisError, match="duplicate"):
        Finite((State(X, (1,)), State(X, (1,))))


def test_box_domain_validation():
    xy = VarUniverse.of("x", "y")
    with pytest.raises(SynthesisError, match="in order"):
        BoundedBox(xy, (("y", 0, 1), ("x", 0, 1)))
    with pytest.raises(SynthesisError, match="empty interval"):
        BoundedBox(X, (("x", 2, 1),))


def test_box_enumeration_odometer_order():
    xy = VarUniverse.of("x", "y")
    box = BoundedBox(xy, (("x", 0, 1), ("y", 5, 6)))
    assert [s.values for s in box.states()] == [(0, 5), (0, 6), (1, 5), (1, 6)]
    assert box.size() == 4
    assert State(xy, (1, 6)) in box
    assert State(xy, (1, 7)) not in box
    assert State(X, (1,)) not in box


def test_problem_validation():
    with pytest.raises(SynthesisError, match="universe"):
        SynthesisProblem(
            EXPR,
            Finite((State(VarUniverse.of("x", "y"), (0, 0)),)),
            parse_predicate("(= out 5)"))
    with pytest.raises(SynthesisError, match="outside the universe"):
        expr_problem("(= out q)")


# ---------------------------------------------------------------------------
# Verification


def test_verify_frozen_trio():
    problem = expr_problem("(= out 5)")
    assert verify(parse_term("1 + x + 1"), problem, 100) == Verified()
    verdict = verify(parse_term("1 + x"), problem, 100)
    assert verdict == CounterexampleFound(State(X, (3,)))
    with pytest.raises(SynthesisError, match="not generated"):
        verify(parse_term("x - 1"), problem, 100)


def test_verify_reports_first_refuting_state():
    problem = expr_problem(
        "(< out 4)", domain=BoundedBox(X, (("x", 0, 9),)))
    verdict = verify(parse_term("x + 1"), problem, 100)
    assert verdict == CounterexampleFound(State(X, (3,)))


def test_verify_divergence_total_vs_partial():
    spin = parse_prefix("(while true (:= x 0))")
    total = SynthesisProblem(
        LOOPING, Finite((State(X, (3,)),)), parse_predicate("(= (out x) 5)"))
    assert verify(spin, total, 1000) == Unknown()
    partial = SynthesisProblem(
        LOOPING, Finite((State(X, (3,)),)),
        parse_predicate("(= (out x) 5)"), Mode.PARTIAL)
    assert verify(spin, partial, 1000) == Verified()


# ---------------------------------------------------------------------------
# Example-directed search


def test_pbe_finds_smallest_solution():
    problem = load_problem(FIXTURES / "value_five.prob")
    result = synthesize_pbe(problem, 7)
    assert isinstance(result, Realized)
    assert result.term == parse_prefix("(+ (+ 1 1) x)")
    assert term_size(result.term) == 5


def test_pbe_requires_finite_domain():
    problem = expr_problem("(= out 5)", domain=BoundedBox(X, (("x", 0, 3),)))
    with pytest.raises(SynthesisError, match="Finite"):
        synthesize_pbe(problem, 7)


def test_pbe_unrealizable_in_a_finite_language():
    one = parse_grammar("(grammar (vars x) (start S) (rule S 1))")
    problem = SynthesisProblem(
        one, Finite((State(X, (0,)),)), parse_predicate("(= out 2)"))
    result = synthesize_pbe(problem, 9)
    assert isinstance(result, Unrealizable)
    assert "none satisfies" in result.proof


def test_pbe_budget_exhaustion_in_an_infinite_language():
    result = synthesize_pbe(expr_problem("(= out 0)"), 7)
    assert isinstance(result, BudgetExhausted)


def test_pbe_dovetails_past_divergent_candidates():
    problem = load_problem(FIXTURES / "assign_five.prob")
    result = synthesize_pbe(problem, 7)
    assert isinstance(result, Realized)
    assert result.term == parse_prefix("(:= x (+ (+ 1 1) x))")


def test_pbe_capped_draw_is_never_a_proof(monkeypatch):
    # 110 terms within the budget and none a solution: the whole language
    # proves the problem unrealizable, its first 50 terms do not
    grammar = parse_grammar("""
        (grammar (vars x y) (start S)
          (rule S (:= V E)) (rule S (seq A A)) (rule A (:= V E))
          (rule V x) (rule V y)
          (rule E 0) (rule E 1) (rule E y) (rule E (+ V O)) (rule O 1))
    """)
    problem = SynthesisProblem(
        grammar, Finite((State(grammar.universe, (0, 0)),)),
        parse_predicate("(= (out x) 7)"))
    assert isinstance(synthesize_pbe(problem, 11), Unrealizable)
    monkeypatch.setattr(synthesis, "_SCAN_CAP", 50)
    result = synthesize_pbe(problem, 11)
    assert isinstance(result, BudgetExhausted)
    assert result.reason == (
        "none of the first 50 candidates satisfies the predicate")
    assert result.stats.candidates == 50
    # synth's loop-free scan stays exhaustive
    assert isinstance(synthesize(problem, 11), Unrealizable)


# ---------------------------------------------------------------------------
# Loop-free search


def test_loop_free_realizes():
    problem = expr_problem("(= out (+ x 2))", domain=BoundedBox(X, (("x", 0, 5),)))
    result = synthesize_loop_free(problem, 5)
    assert isinstance(result, Realized)
    assert result.term == parse_prefix("(+ (+ 1 1) x)")


def test_loop_free_budget_exhaustion():
    problem = expr_problem("(= out (+ x 2))", domain=BoundedBox(X, (("x", 0, 5),)))
    result = synthesize_loop_free(problem, 3)
    assert isinstance(result, BudgetExhausted)
    assert "larger terms remain unexplored" in result.reason


def test_loop_free_unrealizable_when_language_is_exhausted():
    one = parse_grammar("(grammar (vars x) (start S) (rule S 1))")
    problem = SynthesisProblem(
        one, Finite((State(X, (0,)),)), parse_predicate("(= out 2)"))
    assert isinstance(synthesize_loop_free(problem, 9), Unrealizable)


def test_loop_free_rejects_looping_grammars():
    problem = SynthesisProblem(
        LOOPING, Finite((State(X, (3,)),)), parse_predicate("(= (out x) 5)"))
    with pytest.raises(SynthesisError, match="while"):
        synthesize_loop_free(problem, 7)


# ---------------------------------------------------------------------------
# Refinement loop


def test_cegis_converges_on_a_realizable_problem():
    problem = expr_problem(
        "(= out (+ x 2))", domain=BoundedBox(X, (("x", 0, 5),)))
    result, trace = cegis(problem, [State(X, (0,))], 10, 9, 100)
    assert isinstance(result, Realized)
    assert result.term == parse_prefix("(+ (+ 1 1) x)")
    assert result.stats.rounds == 2
    assert [s.values for s in trace.examples] == [(0,), (1,)]
    assert trace.history[0] == (parse_prefix("(+ 1 1)"), State(X, (1,)))
    assert trace.history[-1] == (result.term, None)


def test_cegis_zero_round_budget():
    problem = expr_problem("(= out 5)")
    result, trace = cegis(problem, [State(X, (3,))], 0, 9, 100)
    assert isinstance(result, BudgetExhausted)
    assert trace.history == ()
    assert trace.candidate is None


@pytest.mark.parametrize("engine", ["auto", "dovetail"])
def test_cegis_without_seeds_on_an_empty_language(engine):
    # S ::= S + S derives no finite term, so the zero-example step scans
    # an empty language and proves the problem unrealizable
    grammar = parse_grammar("(grammar (vars x) (start S) (rule S (+ S S)))")
    problem = SynthesisProblem(grammar, BoundedBox(X, (("x", 0, 2),)),
                               parse_predicate("(= out x)"))
    result, trace = cegis(problem, [], 3, 9, 100, engine=engine)
    assert isinstance(result, Unrealizable)
    assert result.proof == (
        "the grammar generates only terms of size <= 0; "
        "the language has no term within the budget")
    assert trace.history == ()


def test_cegis_without_seeds_takes_the_first_term_unevaluated():
    # no example is run in the zero-example step, so it records no fuel;
    # the fuel limit is the verifier's 1, not the scan's term_size + 1
    problem = expr_problem("(= out 5)", BoundedBox(X, (("x", 3, 3),)))
    result, trace = cegis(problem, [], 1, 9, 1)
    assert isinstance(result, BudgetExhausted)
    assert trace.history == ((parse_term("1"), State(X, (3,))),)
    assert result.stats == SearchStats(candidates=1, evaluations=1,
                                       rounds=1, fuel_limit=1)


def test_cegis_round_at_the_scan_cap():
    # the capped scan checks exactly 20,000 candidates before the
    # guarded-block fallback assembles one more
    problem = example_assignment_problem(50)
    seed = State(problem.universe, (0, 10))
    result, _ = cegis(problem, [seed], 1, 256, 1024)
    assert isinstance(result, BudgetExhausted)
    assert result.stats == SearchStats(candidates=20001, evaluations=20063,
                                       rounds=1, fuel_limit=1024)


def test_cegis_round_after_the_scan_cap_scans_nothing():
    # round 1 reaches the cap; round 2 goes straight to the fallback,
    # which assembles one candidate
    problem = example_assignment_problem(50)
    seed = State(problem.universe, (0, 10))
    result, _ = cegis(problem, [seed], 2, 256, 1024)
    assert isinstance(result, BudgetExhausted)
    assert result.stats == SearchStats(candidates=20002, evaluations=20129,
                                       rounds=2, fuel_limit=1024)


def _stateless_cegis(problem, seeds, rounds, size_budget, fuel):
    """Reference refinement loop: every round scans the first
    ``_SCAN_CAP`` terms afresh, then tries the guarded-block fallback."""
    examples = list(seeds)
    history = []
    for _ in range(rounds):
        candidate = None
        for f in itertools.islice(enumerate_terms(problem.grammar, size_budget),
                                  synthesis._SCAN_CAP):
            if all(problem.spec.holds(s, f, eval_term(f, s, term_size(f) + 1))
                   for s in examples):
                candidate = f
                break
        if candidate is None:
            sub = SynthesisProblem(problem.grammar, Finite(tuple(examples)),
                                   problem.spec, problem.mode)
            found = _decision_list_pbe(sub, size_budget, SearchStats())
            if found is None:
                break
            candidate = found.term
        verdict = verify(candidate, problem, fuel)
        if not isinstance(verdict, CounterexampleFound):
            history.append((candidate, None))
            break
        history.append((candidate, verdict.state))
        examples.append(verdict.state)
    return tuple(history)


@pytest.mark.parametrize("bound", [3, 10])
def test_cegis_matches_a_stateless_reference_loop(monkeypatch, bound):
    # a small cap makes later rounds both resume after a hit and reach
    # the cap, so the shared stream is checked on both paths
    monkeypatch.setattr(synthesis, "_SCAN_CAP", 50)
    problem = example_assignment_problem(bound)
    for y in range(bound + 1):
        seeds = [State(problem.universe, (0, y))]
        _, trace = cegis(problem, seeds, 4, 256, 1024)
        assert trace.history == _stateless_cegis(problem, seeds, 4, 256, 1024)


def test_cegis_validates_seeds_and_engine():
    problem = expr_problem("(= out 5)")
    with pytest.raises(SynthesisError, match="outside the domain"):
        cegis(problem, [State(X, (4,))], 1, 9, 100)
    with pytest.raises(SynthesisError, match="engine"):
        cegis(problem, [State(X, (3,))], 1, 9, 100, engine="warp")


def test_cegis_counterexamples_track_the_largest_constant():
    problem = example_assignment_problem(3)
    seed = State(problem.universe, (0, 0))
    result, trace = cegis(problem, [seed], 2, 64, 256)
    assert isinstance(result, BudgetExhausted)
    assert len(trace.history) == 2
    for candidate, cex in trace.history:
        assert cex is not None
        assert cex.get("y") == (largest_constant(candidate) or 0) + 1


def test_cegis_realizes_a_partial_problem_with_loops():
    # round 1 takes the first term, `x := 0`, which x=3 refutes; in round 2
    # its run on x=3 at fuel 1 runs out, which decides nothing below the
    # fuel cap, so the example step does not accept it again
    problem = SynthesisProblem(
        LOOPING, Finite((State(X, (3,)), State(X, (4,)))),
        parse_predicate("(> (out x) x)"), Mode.PARTIAL)
    result, trace = cegis(problem, [], 3, 7, 64)
    assert isinstance(result, Realized)
    assert result.term == parse_term("x := 1 + x", X)
    assert result.stats.rounds == 2
    assert trace.examples == (State(X, (3,)),)
    assert trace.history == ((parse_term("x := 0", X), State(X, (3,))),
                             (result.term, None))

def test_example_assignment_problem_shape():
    problem = example_assignment_problem(50)
    assert list(problem.universe) == ["x", "y"]
    assert problem.domain.size() == 51
    assert str(problem.spec) == "(and (= (out x) y) (= (out y) y))"


def test_synthesize_picks_the_engine_from_the_grammar():
    loop_free = expr_problem("(= out (+ x 2))",
                             domain=BoundedBox(X, (("x", 0, 5),)))
    assert synthesize(loop_free, 5) == synthesize_loop_free(loop_free, 5)
    looping = SynthesisProblem(
        LOOPING, Finite((State(X, (3,)),)), parse_predicate("(= (out x) 5)"))
    assert (synthesize(looping, 7, fuel_cap=64)
            == synthesize_pbe(looping, 7, fuel_cap=64))
    boxed = SynthesisProblem(
        LOOPING, BoundedBox(X, (("x", 0, 3),)), parse_predicate("(= (out x) 5)"))
    with pytest.raises(SynthesisError, match=(
            "^grammars with loops need a finite domain for synth; "
            "use cegis for boxed domains$")):
        synthesize(boxed, 7)


# ---------------------------------------------------------------------------
# Guarded-block fallback

BLOCKS = """
(grammar (vars x y) (start S)
  (rule S (:= X E)) (rule S (if B S)) (rule S (seq S S))
  (rule B (= E E)) (rule X x) (rule X y)
  (rule E x) (rule E (+ E E)) {extra})
"""


@pytest.mark.parametrize("extra,spec,start,expected", [
    # the second assignment reads what the first wrote
    ("", "(and (= (out x) (+ x x)) (= (out y) (* 4 x)))", (1, 0),
     "if x = x then x := (x + x); y := (x + x)"),
    # x and y are told apart as targets although both hold 0
    ("(rule E 0) (rule E 1)", "(and (= (out x) 0) (= (out y) 1))", (0, 0),
     "if 0 = 0 then y := 1"),
], ids=["write-feeds-read", "targets-by-name"])
def test_guarded_block_fallback(extra, spec, start, expected):
    xy = VarUniverse.of("x", "y")
    problem = SynthesisProblem(parse_grammar(BLOCKS.format(extra=extra)),
                               Finite((State(xy, start),)),
                               parse_predicate(spec))
    result = _decision_list_pbe(problem, 64, SearchStats())
    assert isinstance(result, Realized)
    assert print_term(result.term) == expected


# E derives (+ 1 1) twice, by (+ E F) and by (+ F E)
AMBIGUOUS_E = "(rule E 1) (rule E (+ E F)) (rule E (+ F E)) (rule F 1)"


@pytest.mark.parametrize("spec,work_cap,expected,stats", [
    ("(and (= (out x) (+ x x)) (= (out y) (* 4 x)))", None,
     "if 1 = 1 then x := (1 + 1); y := (((1 + 1) + 1) + 1)",
     SearchStats(candidates=1, evaluations=25, fuel_limit=20)),
    # no body exists; each derivation is evaluated and counted as work,
    # so the cap trips after the 24th body (after the 31st if the two
    # derivations of a term counted once)
    ("(= (out y) (- 0 1))", 2000, None, SearchStats(evaluations=24)),
], ids=["realized", "work-capped"])
def test_guarded_block_fallback_on_an_ambiguous_grammar(
        monkeypatch, spec, work_cap, expected, stats):
    if work_cap is not None:
        monkeypatch.setattr(synthesis, "_FALLBACK_WORK_CAP", work_cap)
    xy = VarUniverse.of("x", "y")
    problem = SynthesisProblem(
        parse_grammar(BLOCKS.format(extra=AMBIGUOUS_E)),
        Finite((State(xy, (1, 0)),)), parse_predicate(spec))
    found = SearchStats()
    result = _decision_list_pbe(problem, 64, found)
    assert (result and print_term(result.term)) == expected
    assert found == stats


def _outcome_levels(g, examples):
    """Levels of g without `if`, keyed by outcomes on the examples, a
    variable leaf by its name."""
    def outcomes(t):
        if t.sort is Sort.VAR:
            return t.op
        return tuple(eval_term(t, sigma, t.size + 1) for sigma in examples)

    grown = Rtg(g.universe, g.start, tuple(
        (nt, tuple(p for p in prods if p.op != "if")) for nt, prods in g.rules))
    return Levels(grown, outcomes)


# every non-empty level up to size 7
KEPT_BLOCKS = {
    ("S", 3): ["(:= x x)", "(:= y x)"],
    ("S", 5): ["(:= x (+ x x))", "(:= y (+ x x))"],
    ("S", 7): ["(:= x (+ (+ x x) x))", "(:= y (+ (+ x x) x))"],
    ("B", 3): ["(= x x)"],
    ("B", 5): ["(= (+ x x) x)"],
    ("X", 1): ["x", "y"],
    ("E", 1): ["x"],
    ("E", 3): ["(+ x x)"],
    ("E", 5): ["(+ (+ x x) x)"],
    ("E", 7): ["(+ (+ (+ x x) x) x)"],
}
KEPT_ASSIGN = {
    ("S", 3): ["(:= x 0)", "(:= x 1)"],
    ("S", 5): ["(:= x (+ 1 1))"],
    ("S", 7): ["(:= x (+ (+ 1 1) 1))"],
    ("B", 3): ["(= 0 y)", "(= 1 y)"],
    ("B", 5): ["(= (+ 1 1) y)"],
    ("B", 7): ["(= (+ (+ 1 1) 1) y)"],
    ("X", 1): ["x"],
    ("Y", 1): ["y"],
    ("E", 1): ["0", "1"],
    ("E", 3): ["(+ 1 1)"],
    ("E", 5): ["(+ (+ 1 1) 1)"],
    ("E", 7): ["(+ (+ (+ 1 1) 1) 1)"],
}


T, F = BoolValue(True), BoolValue(False)


@pytest.mark.parametrize("grammar,examples,kept,guard_keys", [
    (parse_grammar(BLOCKS.format(extra="")), [(1, 0)], KEPT_BLOCKS, [(T,)]),
    (example_assignment_problem(50).grammar, [(0, 0), (0, 1), (0, 2)],
     KEPT_ASSIGN, [(T, F, F), (F, T, F)]),
], ids=["blocks", "assignment"])
def test_keyed_levels_keep_the_first_term_of_each_outcome(
        grammar, examples, kept, guard_keys):
    xy = VarUniverse.of("x", "y")
    levels = _outcome_levels(grammar, [State(xy, v) for v in examples])
    levels.at(grammar.start, 7)  # builds the smaller levels first
    for nt in grammar.nonterminals:
        for n in range(1, 8):
            assert [to_prefix(t) for t in levels.at(nt, n)] == \
                kept.get((nt, n), []), (nt, n)
    assert [levels.keys[t] for t in levels.at("B", 3)] == guard_keys


# ---------------------------------------------------------------------------
# Syntactic measures


def test_largest_constant():
    assert largest_constant(parse_term("1 + 1 + 1")) == 3
    assert largest_constant(parse_term("x := x + 1", X)) == 1
    assert largest_constant(parse_term("x + x")) is None
    assert largest_constant(parse_term("0")) == 0
    # the faulting quotient is skipped, but its literal operands count
    assert largest_constant(parse_term("1 / 0")) == 1
    assert largest_constant(parse_term("(1 + 1) * (1 + 1 + 1)")) == 6
    assert largest_constant(parse_term("1 - (0 - 1)")) == 2


def test_largest_constant_reads_each_subterm_once():
    # a 2000-deep numeral chain: no recursion, no re-walk of subterms
    assert largest_constant(parse_term("x := 2000", X)) == 2000
    # a widened literal keeps its value; its padding is not read
    assert largest_constant(Term("1", (Term("null"), Term("null")))) == 1
    # the faulting quotient is skipped, and the larger constant elsewhere wins
    xy = VarUniverse.of("x", "y")
    program = "x := (1 + 1) / 0; y := (1 + 1 + 1) * (0 + 1)"
    assert largest_constant(parse_term(program, xy)) == 3


# ---------------------------------------------------------------------------
# Hierarchy lookup


def test_classify_labels_frozen():
    assert classify("general").label == "Σ3-complete"
    assert classify("finite-examples").label == "Σ1-complete"
    assert classify("loop-free").label == "Σ2-complete"
    assert classify("partial-correctness").label == "in Σ2"
    assert classify("generalization").label == "Σ2-complete"
    assert classify("spec-sigma", n=2).label == "in Σ5"


def test_classify_errors():
    with pytest.raises(SynthesisError):
        classify("frobnication")
    with pytest.raises(SynthesisError):
        classify("spec-sigma")
    with pytest.raises(SynthesisError):
        classify("general", n=1)


# ---------------------------------------------------------------------------
# Problem files


def test_parse_problem_with_loader():
    text = (FIXTURES / "value_five.prob").read_text()
    problem = parse_problem(
        text, grammar_loader=lambda name: (FIXTURES / name).read_text())
    assert problem.grammar == EXPR
    assert str(problem.spec) == "(= out 5)"
    assert problem.mode is Mode.TOTAL


def test_load_problem_resolves_grammar_next_to_the_file():
    problem = load_problem(FIXTURES / "copy_small.prob")
    assert problem.domain.size() == 11


@pytest.mark.parametrize("text,message", [
    ("(= out 5)", "problem"),
    ("(problem (mode total) (domain (finite (state x 1))) (spec true))",
     "missing"),
    ("(problem (grammar-file g) (grammar-file g) (mode total)"
     " (domain (finite (state x 1))) (spec true))", "duplicate"),
    ("(problem (grammar-file g) (mode sideways)"
     " (domain (finite (state x 1))) (spec true))", "mode"),
    ("(problem (grammar-file g) (mode total)"
     " (domain (cloud)) (spec true))", "domain"),
    ("(problem (grammar-file g) (mode total)"
     " (domain (finite (state x 1))) (spec (frob)))", "spec"),
])
def test_parse_problem_errors(text, message):
    loader = lambda name: "(grammar (vars x) (start E) (rule E 1))"
    with pytest.raises(SynthesisError, match=message):
        parse_problem(text, grammar_loader=loader)
