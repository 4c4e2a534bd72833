"""Search engines that look for grammar terms meeting a predicate.

A synthesis problem pairs a tree grammar with an input domain and a
predicate over (input state, candidate term, evaluation outcome).  The
engines here are deliberately small and honest about what they can
decide.  All of them draw candidates from one kind of size-ordered
stream, judge a candidate on a list of states with one check, and,
within a search, go through one example step:

* :func:`synthesize_loop_free` exhaustively scans a loop-free grammar in
  size order.  Every evaluation terminates, so every verdict is
  definite.

* :func:`synthesize_pbe` handles grammars with loops by interleaving
  candidates with doubling fuel budgets (round ``r`` tries the first
  ``2**r`` candidates at fuel ``2**r``), so one diverging candidate
  never blocks a later solution.  Its draw stops at ``_SCAN_CAP``
  candidates.

* :func:`cegis` alternates example-based synthesis with whole-domain
  verification, growing the example set by one counterexample per
  round.  Its scans share one candidate stream for the whole run: each
  round resumes after the last candidate handed out, since the examples
  only grow, and the scan cap counts from the start of the run.

``Unrealizable`` is only ever reported with an exhaustion certificate
over a *finite* grammar language; searches over infinite languages end
in ``BudgetExhausted`` no matter how hopeless the predicate looks,
because no finite scan can rule out a larger solution.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, Sequence, Union

from .grammar import (
    Levels,
    Rtg,
    enumerate_terms,
    language_finite,
    max_term_size,
    member,
    parse_grammar,
)
from .semantics import (
    FUEL_EXHAUSTED,
    LITERALS,
    BoolValue,
    StateOut,
    apply_op,
    eval_term,
)
from .spec_lang import Predicate, SpecError, predicate_from_sexp
from .terms import (
    Sort,
    State,
    Term,
    VarUniverse,
    _read_sexps,
    term_size,
)

DEFAULT_FUEL_CAP = 2 ** 16
_SCAN_CAP = 20_000
_FALLBACK_SIZE_CAP = 64
_FALLBACK_WORK_CAP = 500_000


class SynthesisError(ValueError):
    """A synthesis problem or engine call is malformed."""


class Mode(Enum):
    """How divergence interacts with the predicate.

    ``TOTAL`` demands an actual outcome for every domain state.
    ``PARTIAL`` asks the predicate to hold only on runs that finish
    within the fuel cap; a run that exhausts the cap counts as vacuously
    fine, and one that exhausts a smaller fuel decides nothing.
    """

    TOTAL = "total"
    PARTIAL = "partial"


# ---------------------------------------------------------------------------
# Input domains


@dataclass(frozen=True)
class Finite:
    """An explicit, duplicate-free, non-empty list of input states."""

    examples: tuple[State, ...]

    def __post_init__(self) -> None:
        if not self.examples:
            raise SynthesisError("a finite domain needs at least one state")
        first = self.examples[0].universe
        for sigma in self.examples:
            if sigma.universe != first:
                raise SynthesisError("domain states use different universes")
        if len(set(self.examples)) != len(self.examples):
            raise SynthesisError("duplicate state in finite domain")

    @property
    def universe(self) -> VarUniverse:
        return self.examples[0].universe

    def states(self) -> Iterator[State]:
        yield from self.examples

    def __contains__(self, sigma: State) -> bool:
        return sigma in self.examples

    def size(self) -> int:
        return len(self.examples)


@dataclass(frozen=True)
class BoundedBox:
    """Every state whose variables lie in closed per-variable intervals.

    ``bounds`` holds one ``(name, lo, hi)`` triple per universe
    variable, in universe order; iteration enumerates the box in
    odometer order (last variable fastest).
    """

    universe: VarUniverse
    bounds: tuple[tuple[str, int, int], ...]

    def __post_init__(self) -> None:
        names = [b[0] for b in self.bounds]
        if names != list(self.universe):
            raise SynthesisError(
                "box bounds must list every universe variable once, in order; "
                f"expected {list(self.universe)}, got {names}")
        for name, lo, hi in self.bounds:
            if lo > hi:
                raise SynthesisError(f"empty interval for {name}: [{lo}, {hi}]")

    def states(self) -> Iterator[State]:
        ranges = [range(lo, hi + 1) for _, lo, hi in self.bounds]
        for values in itertools.product(*ranges):
            yield State(self.universe, tuple(values))

    def __contains__(self, sigma: State) -> bool:
        if sigma.universe != self.universe:
            return False
        return all(lo <= sigma.get(name) <= hi for name, lo, hi in self.bounds)

    def size(self) -> int:
        n = 1
        for _, lo, hi in self.bounds:
            n *= hi - lo + 1
        return n


Domain = Union[Finite, BoundedBox]


@dataclass(frozen=True)
class SynthesisProblem:
    """A grammar to search, a domain to satisfy, and the predicate to meet."""

    grammar: Rtg
    domain: Domain
    spec: Predicate
    mode: Mode = Mode.TOTAL

    def __post_init__(self) -> None:
        if self.domain.universe != self.grammar.universe:
            raise SynthesisError(
                "domain universe does not match the grammar universe")
        extra = self.spec.variables() - set(self.universe)
        if extra:
            raise SynthesisError(
                f"predicate mentions variables outside the universe: "
                f"{sorted(extra)}")

    @property
    def universe(self) -> VarUniverse:
        return self.grammar.universe


# ---------------------------------------------------------------------------
# Results


@dataclass
class SearchStats:
    """Work counters; ``fuel_limit`` is the largest fuel any run used."""

    candidates: int = 0
    evaluations: int = 0
    rounds: int = 0
    fuel_limit: int = 0


@dataclass(frozen=True)
class Realized:
    """A term satisfying the predicate on the whole (sub)domain."""

    term: Term
    stats: SearchStats


@dataclass(frozen=True)
class Unrealizable:
    """No term of the grammar works — backed by finite-language exhaustion."""

    proof: str
    stats: SearchStats


@dataclass(frozen=True)
class BudgetExhausted:
    """The search ran out of size, fuel, or rounds without a verdict."""

    reason: str
    stats: SearchStats


SynthesisResult = Union[Realized, Unrealizable, BudgetExhausted]


@dataclass(frozen=True)
class Verified:
    """The candidate met the predicate on every domain state."""


@dataclass(frozen=True)
class CounterexampleFound:
    """The earliest domain state (in iteration order) that refutes it."""

    state: State


@dataclass(frozen=True)
class Unknown:
    """No refutation, but some run hit the fuel limit (total mode only)."""


VerifyResult = Union[Verified, CounterexampleFound, Unknown]


@dataclass(frozen=True)
class CegisState:
    """Trace of a refinement run: examples seen, rounds played."""

    examples: tuple[State, ...]
    candidate: Term | None
    history: tuple[tuple[Term, State | None], ...]


# ---------------------------------------------------------------------------
# Candidates and checks


class _Stream:
    """One size-ordered enumeration read through a cursor.

    Every engine draws its candidates from one of these.  Iterating
    hands out the terms after the last one handed out, so a scan that
    stops at a hit, or a draw of ``k`` terms, leaves the next read to
    resume behind it.  The stream ends for good when the language
    (within the budget) runs out, or once ``cap`` terms, counted from
    its start, have been handed out; then ``capped`` is set and the
    generator, with its memo, is dropped.
    """

    def __init__(self, grammar: Rtg, size_budget: int,
                 cap: int | None = None):
        self._terms: Iterator[Term] | None = enumerate_terms(
            grammar, size_budget)
        self._left = cap
        self.capped = False

    def __iter__(self) -> Iterator[Term]:
        while self._terms is not None:
            f = next(self._terms, None)
            if f is None or self._left == 0:
                self.capped = f is not None
                self._terms = None
                return
            if self._left is not None:
                self._left -= 1
            yield f


def _check(f: Term, problem: SynthesisProblem, states: Iterable[State],
           fuel: int, stats: SearchStats) -> State | bool | None:
    """Run ``f`` on each state in turn and return the first state that
    refutes it.  If none does: None when some run ran out of fuel under
    ``Mode.TOTAL``, True otherwise.  Under ``Mode.PARTIAL`` a run that
    runs out of fuel satisfies the predicate vacuously, so only the fuel
    cap may be passed with a partial problem."""
    ok: bool | None = True
    for sigma in states:
        stats.evaluations += 1
        out = eval_term(f, sigma, fuel)
        if out is FUEL_EXHAUSTED:
            if problem.mode is Mode.TOTAL:
                ok = None
        elif not problem.spec.holds(sigma, f, out):
            return sigma
    return ok


def verify(f: Term, problem: SynthesisProblem, fuel: int) -> VerifyResult:
    """Check ``f`` against every state of the problem's domain.

    States are visited in the domain's canonical order and the first
    refuting state is reported.  A fuel-out under ``Mode.TOTAL`` makes
    the overall answer ``Unknown`` unless a later state gives a definite
    refutation; under ``Mode.PARTIAL`` fuel-outs satisfy the predicate
    vacuously at this fuel.
    """
    if not member(problem.grammar, f):
        raise SynthesisError("candidate is not generated by the grammar")
    verdict = _check(f, problem, problem.domain.states(), fuel, SearchStats())
    if verdict is True:
        return Verified()
    return Unknown() if verdict is None else CounterexampleFound(verdict)


# ---------------------------------------------------------------------------
# Exhaustive scan for loop-free grammars


def _grammar_has_op(g: Rtg, op: str) -> bool:
    return any(p.op == op
               for nt in g.nonterminals
               for p in g.productions(nt))


def _exhausted_verdict(problem: SynthesisProblem, size_budget: int,
                       stats: SearchStats, checked: str) -> SynthesisResult:
    """Verdict after every candidate within the budget failed."""
    if language_finite(problem.grammar):
        biggest = max_term_size(problem.grammar)
        if biggest <= size_budget:
            return Unrealizable(
                f"the grammar generates only terms of size <= {biggest}; "
                f"{checked}", stats)
    return BudgetExhausted(
        f"no term of size <= {size_budget} satisfies the predicate; larger "
        "terms remain unexplored", stats)


def synthesize_loop_free(problem: SynthesisProblem,
                         size_budget: int) -> SynthesisResult:
    """Size-ordered exhaustive search over a grammar without loops.

    Loop-free terms finish within ``term_size + 1`` fuel, so every
    candidate gets a definite verdict and the first hit is a smallest
    solution.  Works for any domain; a box domain is fully enumerated.
    """
    if _grammar_has_op(problem.grammar, "while"):
        raise SynthesisError(
            "grammar contains `while`; use synthesize_pbe, which interleaves "
            "fuel budgets")
    return synthesize(problem, size_budget)


def synthesize(problem: SynthesisProblem, size_budget: int,
               fuel_cap: int = DEFAULT_FUEL_CAP) -> SynthesisResult:
    """Search with the engine the grammar allows.

    A grammar without ``while`` gets :func:`synthesize_loop_free` on any
    domain; a grammar with loops gets :func:`synthesize_pbe`, which needs
    a finite domain.  Either way it runs a CEGIS round's example step on
    every domain state, with an uncapped stream for the loop-free scan.
    """
    if (not isinstance(problem.domain, Finite)
            and _grammar_has_op(problem.grammar, "while")):
        raise SynthesisError(
            "grammars with loops need a finite domain for synth; "
            "use cegis for boxed domains")
    return _example_step(problem, tuple(problem.domain.states()),
                         _Stream(problem.grammar, size_budget), size_budget,
                         fuel_cap, "auto")


def _scan(problem: SynthesisProblem, states: tuple[State, ...],
          stream: _Stream, size_budget: int,
          stats: SearchStats) -> SynthesisResult | None:
    """Scan ``stream`` for the first term that meets the predicate on
    every state; with no states its next term wins.

    Every term must finish within ``term_size + 1`` fuel, which holds in
    a loop-free grammar and trivially with no states.  Returns None when
    the stream reached its cap before the language (restricted to the
    budget) was exhausted: no verdict either way.
    """
    for f in stream:
        stats.candidates += 1
        fuel = term_size(f) + 1
        if states:  # only fuel some run was given counts
            stats.fuel_limit = max(stats.fuel_limit, fuel)
        verdict = _check(f, problem, states, fuel, stats)
        assert verdict is not None, "loop-free evaluation ran out of fuel"
        if verdict is True:
            return Realized(f, stats)
    if stream.capped:
        return None
    return _exhausted_verdict(
        problem, size_budget, stats,
        "all were checked and none satisfies the predicate" if states
        else "the language has no term within the budget")


# ---------------------------------------------------------------------------
# Dovetailed search for grammars with loops


def synthesize_pbe(problem: SynthesisProblem, size_budget: int,
                   fuel_cap: int = DEFAULT_FUEL_CAP) -> SynthesisResult:
    """Example-based search that survives diverging candidates.

    Round ``r`` runs the first ``2**r`` candidates (size order, then
    print order) with fuel ``2**r``; a candidate whose runs all finish
    and all satisfy the predicate is returned immediately, so a
    diverging early candidate cannot block a later solution.  Candidates
    refuted at some fuel stay refuted (more fuel never changes a
    definite outcome) and are dropped; the live ones are checked again
    in later rounds, before the newly drawn ones.  A run out of fuel
    below ``fuel_cap`` keeps its candidate live under either mode.

    The draw stops at the first ``_SCAN_CAP`` candidates.  Once every
    one of them is refuted the answer is ``BudgetExhausted``, never
    ``Unrealizable``: the capped draw has not exhausted the language.
    """
    if not isinstance(problem.domain, Finite):
        raise SynthesisError("example-based search needs a Finite domain")
    stats = SearchStats()
    examples = problem.domain.examples
    stream = _Stream(problem.grammar, size_budget, cap=_SCAN_CAP)
    below_cap = replace(problem, mode=Mode.TOTAL)
    live: list[Term] = []
    for r in itertools.count():
        fuel = 2 ** r
        stats.rounds = r + 1
        stats.fuel_limit = max(stats.fuel_limit, min(fuel, fuel_cap))
        drawn = list(itertools.islice(stream, fuel - stats.candidates))
        stats.candidates += len(drawn)
        done = stats.candidates < fuel  # the stream ran out
        kept = []
        for f in live + drawn:
            ok = _check(f, problem if fuel >= fuel_cap else below_cap,
                        examples, min(fuel, fuel_cap), stats)
            if ok is True:
                return Realized(f, stats)
            if ok is None:
                kept.append(f)
        live = kept
        if done and not live:
            if stream.capped:
                return BudgetExhausted(
                    f"none of the first {_SCAN_CAP} candidates satisfies "
                    "the predicate", stats)
            return _exhausted_verdict(
                problem, size_budget, stats,
                "all were checked and none satisfies the predicate")
        if done and fuel >= fuel_cap:
            return BudgetExhausted(
                f"candidates remain inconclusive at the fuel cap {fuel_cap}",
                stats)


# ---------------------------------------------------------------------------
# Observational-equivalence search (used by the cegis fallback)
#
# On a fixed example set, a term's relevant behavior is its outcome on
# each example.  The fallback reads `grammar.Levels` keyed by those
# outcomes, computed with the real interpreter: size by size, each
# nonterminal keeps the first term (smallest, then print order) of each
# outcome class, and larger terms are built from kept terms only.
# Classes do not carry over to every composite: in `seq(a, b)`, `b`
# runs on the state `a` left, where two statements that agree on the
# examples may differ, so keeping one of them can miss an answer.  The
# assembled candidate is re-verified for the same reason: its blocks
# run in sequence and a later guard can read an earlier block's write.

# `if` is assembled by the fallback itself; loops and padding are never
# grown.
_FALLBACK_SKIP_OPS = frozenset({"if", "while", "nop", "null"})


def _decision_list_pbe(problem: SynthesisProblem, size_budget: int,
                       stats: SearchStats) -> Realized | None:
    """One guarded block per example, chained by sequencing.

    Needs the start symbol to offer ``seq(S, S)`` and ``if G then B``
    productions.  For each example that the untouched state does not
    already satisfy, find a small statement correct on that example
    alone plus a guard true on that example and false on the others,
    then chain ``if guard then statement`` blocks.  Statements and
    guards are judged by their interpreted outcomes on the examples; the
    assembled candidate is re-verified on all of them, and the whole
    attempt returns None if anything is out of reach.
    """
    g = problem.grammar
    examples = tuple(problem.domain.states())
    start_prods = g.productions(g.start)
    seq_ok = any(p.op == "seq" and p.operands == (g.start, g.start)
                 for p in start_prods)
    if_prods = [p for p in start_prods if p.op == "if"]
    if not seq_ok or not if_prods:
        return None
    guard_nt, body_nt = if_prods[0].operands

    placeholder = Term("1")

    # the examples that leaving the state untouched does not satisfy
    needed = [i for i, sigma in enumerate(examples)
              if not problem.spec.holds(sigma, placeholder, StateOut(sigma))]
    if not needed:
        return None

    work = 0  # most fuel the key evaluations could have spent

    def outcomes(t: Term) -> object:
        """The outcomes of ``t`` on the examples.  A variable leaf keys by
        its name, because an assignment target is a name, not a value."""
        nonlocal work
        if t.sort is Sort.VAR:
            return t.op
        work += t.size * len(examples)
        return tuple(eval_term(t, sigma, t.size + 1) for sigma in examples)

    grown = Rtg(g.universe, g.start, tuple(
        (nt, tuple(p for p in prods if p.op not in _FALLBACK_SKIP_OPS))
        for nt, prods in g.rules))
    levels = Levels(grown, outcomes)
    bodies: dict[int, Term] = {}
    guards: dict[int, Term] = {}
    for target in range(1, min(size_budget, _FALLBACK_SIZE_CAP) + 1):
        if work > _FALLBACK_WORK_CAP:
            return None
        # build every nonterminal's level, not only the two read below,
        # so that the next check counts all the work of this size
        for nt in grown.nonterminals:
            levels.at(nt, target)
        for t in levels.at(body_nt, target):
            outs = levels.keys[t]
            for i in needed:
                if i in bodies:
                    continue
                stats.evaluations += 1
                if problem.spec.holds(examples[i], t, outs[i]):
                    bodies[i] = t
        for t in levels.at(guard_nt, target):
            outs = levels.keys[t]
            for i in needed:
                if i not in guards and all(
                        out == BoolValue(j == i) for j, out in enumerate(outs)):
                    guards[i] = t
        if all(i in bodies and i in guards for i in needed):
            break
    else:
        return None

    blocks = [Term("if", (guards[i], bodies[i])) for i in needed]
    candidate = blocks[-1]
    for block in reversed(blocks[:-1]):
        candidate = Term("seq", (block, candidate))
    stats.candidates += 1
    if term_size(candidate) > size_budget:
        return None
    if not member(g, candidate):
        return None
    fuel = term_size(candidate) + 1
    if _check(candidate, problem, examples, fuel, stats) is not True:
        return None
    stats.fuel_limit = max(stats.fuel_limit, fuel)
    return Realized(candidate, stats)


# ---------------------------------------------------------------------------
# CEGIS


def _example_step(problem: SynthesisProblem, examples: tuple[State, ...],
                  stream: _Stream, size_budget: int, fuel: int,
                  engine: str) -> SynthesisResult:
    """Synthesize against ``examples``, drawing candidates from ``stream``.

    :func:`synthesize` passes every domain state and a stream of its
    own.  Each CEGIS round passes the examples so far and the run's
    shared stream: every term it handed out earlier is refuted by the
    examples, which only grow.  With no examples the scan takes the
    stream's next term, and the dovetail engine is not used.
    """
    if examples and (engine == "dovetail"
                     or _grammar_has_op(problem.grammar, "while")):
        return synthesize_pbe(replace(problem, domain=Finite(examples)),
                              size_budget, fuel_cap=fuel)
    stats = SearchStats()
    result = _scan(problem, examples, stream, size_budget, stats)
    if result is None:  # the stream reached its cap
        result = _decision_list_pbe(
            replace(problem, domain=Finite(examples)), size_budget, stats
        ) or BudgetExhausted(
            f"scanned the first {_SCAN_CAP} candidates and the guarded-block "
            "fallback found nothing within the size budget", stats)
    return result


def cegis(problem: SynthesisProblem, seed_examples: Sequence[State],
          round_budget: int, size_budget: int, fuel: int,
          engine: str = "auto") -> tuple[SynthesisResult, CegisState]:
    """Counterexample-guided refinement.

    Each round synthesizes a candidate correct on the current examples,
    then verifies it on the full domain; the earliest counterexample is
    added to the examples and the loop repeats.  Stops with ``Realized``
    on full verification, propagates ``Unrealizable`` from the example
    step (a term correct on the domain would also be correct on the
    examples, which are all domain states), and otherwise reports
    ``BudgetExhausted``.  The returned state records one
    ``(candidate, counterexample)`` pair per completed round, with
    ``None`` in place of a counterexample only when verification was
    inconclusive.

    ``engine`` picks the example-step strategy: ``"dovetail"`` always
    interleaves fuel budgets; ``"auto"`` uses a capped exhaustive scan
    plus a guarded-block fallback when the grammar is loop-free.

    The scans of all rounds read one shared enumeration.  A round
    resumes after the candidate the previous round returned: the new
    counterexample refutes that candidate and the examples held refute
    every one before it.  The cap counts the first ``_SCAN_CAP``
    candidates from the start of the run, not per round; once a scan
    reaches it, every later round goes straight to the fallback.
    """
    if engine not in ("auto", "dovetail"):
        raise SynthesisError(f"unknown engine {engine!r}")
    examples: list[State] = []
    for sigma in seed_examples:
        if sigma not in problem.domain:
            raise SynthesisError(
                f"seed example {sigma} lies outside the domain")
        if sigma not in examples:
            examples.append(sigma)
    history: list[tuple[Term, State | None]] = []
    stats = SearchStats()
    candidate: Term | None = None
    stream = _Stream(problem.grammar, size_budget, cap=_SCAN_CAP)

    def state() -> CegisState:
        return CegisState(tuple(examples), candidate, tuple(history))

    for round_no in range(round_budget):
        stats.rounds = round_no + 1
        step = _example_step(problem, tuple(examples), stream, size_budget,
                             fuel, engine)
        stats.candidates += step.stats.candidates
        stats.evaluations += step.stats.evaluations
        stats.fuel_limit = max(stats.fuel_limit, step.stats.fuel_limit)
        if isinstance(step, Unrealizable):
            return Unrealizable(step.proof, stats), state()
        if isinstance(step, BudgetExhausted):
            return BudgetExhausted(
                f"round {round_no + 1} example step: {step.reason}",
                stats), state()
        candidate = step.term
        verdict = verify(candidate, problem, fuel)
        stats.evaluations += problem.domain.size()
        stats.fuel_limit = max(stats.fuel_limit, fuel)
        if isinstance(verdict, Verified):
            history.append((candidate, None))
            return Realized(candidate, stats), state()
        if isinstance(verdict, Unknown):
            history.append((candidate, None))
            return BudgetExhausted(
                f"round {round_no + 1}: verification inconclusive at fuel "
                f"{fuel}", stats), state()
        cex = verdict.state
        history.append((candidate, cex))
        examples.append(cex)
    return BudgetExhausted(
        f"no convergence within {round_budget} rounds", stats), state()


# ---------------------------------------------------------------------------
# Worked problems and analysis helpers


def example_assignment_problem(bound: int) -> SynthesisProblem:
    """Copy-the-hidden-input problem that defeats example-driven search.

    The grammar can assign sums of constants to ``x``, guard on
    ``e == y``, and sequence blocks — but it cannot read ``y`` into an
    expression.  The predicate asks for ``out.x = y`` (with ``y``
    untouched) over the box ``x = 0, y in [0, bound]``.  Any candidate
    built from finitely many constants is refuted by setting ``y`` one
    past its largest constant, so refinement loops add guarded blocks
    forever without converging.
    """
    if bound < 1:
        raise SynthesisError("bound must be at least 1")
    universe = VarUniverse.of("x", "y")
    grammar = parse_grammar("""
        (grammar (vars x y) (start S)
          (rule S (:= X E))
          (rule S (if B S))
          (rule S (seq S S))
          (rule B (= E Y))
          (rule X x)
          (rule Y y)
          (rule E 0)
          (rule E 1)
          (rule E (+ E E)))
    """)
    domain = BoundedBox(universe, (("x", 0, 0), ("y", 0, bound)))
    spec = predicate_from_sexp(
        ["and", ["=", ["out", "x"], "y"], ["=", ["out", "y"], "y"]])
    return SynthesisProblem(grammar, domain, spec, Mode.TOTAL)


def largest_constant(t: Term) -> int | None:
    """Largest value among constant (variable-free) integer subterms.

    Returns None when no subterm is a constant integer expression
    (faulting constants such as division by zero are skipped).  Each
    subterm's value comes from its children's, in reversed preorder; a
    widened literal such as ``1(null, null)`` keeps its literal value.
    """
    values: dict[int, int | None] = {}
    for sub in reversed(list(t.walk())):
        value = None
        if sub.sort is Sort.EXPR and sub.op in LITERALS:
            value = LITERALS[sub.op]
        elif sub.sort is Sort.EXPR:
            args = [values[id(c)] for c in sub.children]
            value = None if None in args else apply_op(sub.op, *args)
        values[id(sub)] = value
    return max((v for v in values.values() if v is not None), default=None)


# ---------------------------------------------------------------------------
# Difficulty classification


@dataclass(frozen=True)
class HierarchyClass:
    """Where a problem family sits in the arithmetical hierarchy."""

    variant: str
    label: str
    note: str


_CLASSIFY_TABLE = {
    "general": (
        "Σ3-complete",
        "full language, loops included: a solution must exist, work on "
        "every input, and witness termination on each"),
    "finite-examples": (
        "Σ1-complete",
        "finitely many inputs: a correct candidate can be confirmed by "
        "running it on each example"),
    "loop-free": (
        "Σ2-complete",
        "no loops, so every run terminates and checking one input is "
        "decidable; only the candidate and input quantifiers remain"),
    "partial-correctness": (
        "in Σ2",
        "the predicate need hold only on terminating runs, which removes "
        "the termination witness from the requirement"),
    "generalization": (
        "Σ2-complete",
        "whether a candidate correct on the examples stays correct on the "
        "whole domain"),
}

CLASSIFY_VARIANTS = (*_CLASSIFY_TABLE, "spec-sigma")


def classify(variant: str, n: int | None = None) -> HierarchyClass:
    """Difficulty label for a synthesis-problem family.

    ``variant`` is one of :data:`CLASSIFY_VARIANTS`; ``spec-sigma``
    additionally needs ``n``, the quantifier depth of the specification
    language, and classifies synthesis against such specifications.
    """
    if variant in _CLASSIFY_TABLE:
        if n is not None:
            raise SynthesisError(f"variant {variant!r} does not take n")
        label, note = _CLASSIFY_TABLE[variant]
        return HierarchyClass(variant, label, note)
    if variant == "spec-sigma":
        if n is None or n < 0:
            raise SynthesisError(
                "variant 'spec-sigma' needs a quantifier depth n >= 0")
        return HierarchyClass(
            variant, f"in Σ{n + 3}",
            f"specifications with {n} quantifier alternations push the "
            "difficulty up by the same amount")
    raise SynthesisError(
        f"unknown variant {variant!r}; choose from "
        f"{', '.join(CLASSIFY_VARIANTS)}")


# ---------------------------------------------------------------------------
# Problem files


def parse_problem(text: str, grammar_loader=None) -> SynthesisProblem:
    """Parse a problem description.

    Format::

        (problem
          (grammar-file g.rtg)
          (mode total)
          (domain (finite (state x 3)))
          (spec (= out 5)))

    ``domain`` is either ``(finite (state NAME VALUE ...) ...)`` or
    ``(box (NAME LO HI) ...)``.  ``grammar_loader`` maps the grammar
    file name to its text; it defaults to reading the file relative to
    the current directory.
    """
    sexps = _read_sexps(text)
    if len(sexps) != 1 or not isinstance(sexps[0], list) \
            or not sexps[0] or sexps[0][0] != "problem":
        raise SynthesisError("expected a single (problem ...) form")
    sections: dict[str, list] = {}
    for part in sexps[0][1:]:
        if not isinstance(part, list) or not part \
                or not isinstance(part[0], str):
            raise SynthesisError(f"bad problem section: {part!r}")
        if part[0] in sections:
            raise SynthesisError(f"duplicate section ({part[0]} ...)")
        sections[part[0]] = part[1:]
    missing = {"grammar-file", "mode", "domain", "spec"} - set(sections)
    if missing:
        raise SynthesisError(f"missing problem sections: {sorted(missing)}")

    grammar_section = sections["grammar-file"]
    if len(grammar_section) != 1 or not isinstance(grammar_section[0], str):
        raise SynthesisError("(grammar-file ...) takes one file name")
    if grammar_loader is None:
        def grammar_loader(name: str) -> str:
            with open(name, encoding="utf-8") as handle:
                return handle.read()
    grammar = parse_grammar(grammar_loader(grammar_section[0]))

    mode_section = sections["mode"]
    if len(mode_section) != 1 or mode_section[0] not in ("total", "partial"):
        raise SynthesisError("(mode ...) takes 'total' or 'partial'")
    mode = Mode(mode_section[0])

    domain = _parse_domain(sections["domain"], grammar.universe)
    try:
        spec = predicate_from_sexp(_single(sections["spec"], "spec"))
    except SpecError as err:
        raise SynthesisError(f"bad spec: {err}") from err
    return SynthesisProblem(grammar, domain, spec, mode)


def _single(section: list, name: str) -> object:
    if len(section) != 1:
        raise SynthesisError(f"({name} ...) takes exactly one form")
    return section[0]


def _parse_domain(section: list, universe: VarUniverse) -> Domain:
    form = _single(section, "domain")
    if not isinstance(form, list) or not form:
        raise SynthesisError("domain must be (finite ...) or (box ...)")
    head, rest = form[0], form[1:]
    if head == "finite":
        states = []
        for entry in rest:
            if not isinstance(entry, list) or not entry \
                    or entry[0] != "state" or len(entry) % 2 == 0:
                raise SynthesisError(
                    f"expected (state NAME VALUE ...), got {entry!r}")
            assignment: dict[str, int] = {}
            pairs = entry[1:]
            for name, raw in zip(pairs[::2], pairs[1::2]):
                assignment[name] = _parse_int(raw)
            states.append(State.of(universe, assignment))
        return Finite(tuple(states))
    if head == "box":
        by_name: dict[str, tuple[int, int]] = {}
        for entry in rest:
            if not isinstance(entry, list) or len(entry) != 3 \
                    or not isinstance(entry[0], str):
                raise SynthesisError(f"expected (NAME LO HI), got {entry!r}")
            name = entry[0]
            if name in by_name:
                raise SynthesisError(f"duplicate box interval for {name}")
            by_name[name] = (_parse_int(entry[1]), _parse_int(entry[2]))
        missing = set(universe) - set(by_name)
        if missing:
            raise SynthesisError(
                f"box is missing intervals for: {sorted(missing)}")
        extra = set(by_name) - set(universe)
        if extra:
            raise SynthesisError(
                f"box lists unknown variables: {sorted(extra)}")
        bounds = tuple((name,) + by_name[name] for name in universe)
        return BoundedBox(universe, bounds)
    raise SynthesisError(f"unknown domain kind {head!r}")


def _parse_int(raw: object) -> int:
    if isinstance(raw, str):
        try:
            return int(raw, 10)
        except ValueError:
            pass
    raise SynthesisError(f"expected an integer, got {raw!r}")


def load_problem(path: str) -> SynthesisProblem:
    """Read a problem file; the grammar file is resolved next to it."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    base = os.path.dirname(os.path.abspath(path))

    def loader(name: str) -> str:
        with open(os.path.join(base, name), encoding="utf-8") as handle:
            return handle.read()

    return parse_problem(text, loader)
