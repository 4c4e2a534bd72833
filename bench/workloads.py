"""The benchmark's workloads: seeded inputs, units of work and their checks.

Each workload builds all of its inputs from the seed in its constructor
(counted in ``setup_s``) and names the reference loop its times are
divided by (see ``reference.py``).  ``run_unit(k)`` makes the library
calls of the k-th unit of work and times them; ``check(record)`` then
judges the outputs with the benchmark's own interpreter (``oracle``),
outside the timed interval.  Every unit of a workload attempts the same
operations, so runs differ only in how many units fit.
"""

from __future__ import annotations

import os
import random
import sys
import time
from dataclasses import dataclass, field

from impsynth.grammar import embed, parse_grammar
from impsynth.spec_lang import parse_predicate
from impsynth.synthesis import (
    BudgetExhausted,
    Finite,
    Mode,
    Realized,
    SynthesisProblem,
    cegis,
    example_assignment_problem,
    synthesize_pbe,
)
from impsynth.terms import State, Term, VarUniverse, parse_term
from impsynth.value_tree import (
    build_value_tree,
    decode_value_tree,
    encode_value_tree,
    validate_report,
)

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
POOL = 256  # pre-drawn inputs per run; units cycle through them


@dataclass
class Record:
    """What one unit did: its timed seconds by phase, plus its outputs."""

    seconds: dict[str, float]
    failed: int = 0
    outputs: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    bits: int = 0


# --------------------------------------------------------------------------
# cegis_refute


class CegisRefute:
    """cegis on example_assignment_problem(50) from one seeded example.

    The seed example is (x=0, y=Y) with Y drawn from [Y_LO, Y_HI].  On that
    range every round scans the first 20,000 candidates, hits the scan cap
    and falls back to the guarded-block search, so every call has the same
    shape: ROUNDS rounds, each with a candidate and a counterexample, then
    BudgetExhausted.  Below about y=8 the scan finds a candidate early and
    above y=31 the fallback cannot reach the constant and the call ends in
    round 1.  The fallback's cost grows with Y, so the range is kept narrow
    to keep units alike.
    """

    name = "cegis_refute"
    reference = "python"
    ops_per_unit = 1
    BOUND = 50
    ROUNDS = 2
    SIZE = 256
    FUEL = 1024
    Y_LO, Y_HI = 12, 19

    def __init__(self, seed: int) -> None:
        self.problem = example_assignment_problem(self.BOUND)
        rng = random.Random(seed)
        self.draws = [rng.randint(self.Y_LO, self.Y_HI) for _ in range(POOL)]

    def run_unit(self, k: int) -> Record:
        y0 = self.draws[k % POOL]
        seeds = [State(self.problem.universe, (0, y0))]
        start = time.perf_counter()
        result, trace = cegis(self.problem, seeds, self.ROUNDS, self.SIZE,
                              self.FUEL)
        seconds = time.perf_counter() - start
        return Record({"work": seconds}, outputs=[(seeds, result, trace)],
                      stats=[result.stats])

    def check(self, record: Record) -> list[str]:
        seeds, result, trace = record.outputs[0]
        history = [(cand, None if cex is None else oracle.state_dict(cex))
                   for cand, cex in trace.history]
        return oracle.check_cegis(
            [oracle.state_dict(s) for s in seeds], history, self.BOUND,
            isinstance(result, BudgetExhausted), self.ROUNDS)


# --------------------------------------------------------------------------
# pbe_loops


def raise_spec(a: str, b: str) -> str:
    """Spec text of "raise a to b+1": out.a = max(a, b+1), b unchanged."""
    top = f"(+ {b} 1)"
    return (f"(and (= (out {b}) {b}) (or (and (< {a} {top}) (= (out {a}) {top}))"
            f" (and (>= {a} {top}) (= (out {a}) {a}))))")


def draw_raise_examples(rng: random.Random, a: str) -> list[dict]:
    """Four distinct states for "raise a to b+1".

    Two with a below b, one with a = b+1 and one with a above b+1, so a
    loop-free term cannot meet them all and the first solution is always
    ``while a < b do a := 1 + b`` (size 9).  Values lie in 0..9.
    """
    b = "y" if a == "x" else "x"
    while True:
        pairs = []
        for _ in range(2):
            hi = rng.randint(1, 8)
            pairs.append((rng.randint(0, hi - 1), hi))
        hi = rng.randint(0, 8)
        pairs.append((hi + 1, hi))
        hi = rng.randint(0, 6)
        pairs.append((rng.randint(hi + 2, 9), hi))
        if len(set(pairs)) == 4:
            return [{a: av, b: bv} for av, bv in pairs]


class PbeLoops:
    """synthesize_pbe over a loop grammar on seeded 4-example problems.

    The family has two members, "raise x to y+1" and "raise y to x+1";
    one unit is one round, a call on each with freshly drawn examples.
    Diverging candidates such as ``while x < y do y := 1 + y`` burn the
    fuel cap in every doubling round, so the evaluator's cost per fuel
    unit dominates.  A single call costs from 0.6x to 1.4x of the median
    depending on its draw, and the y member about 20% more than the x
    member, so the median of single calls fell between two modes and
    moved by 6% from seed to seed; the median of rounds moves less.
    """

    name = "pbe_loops"
    reference = "python"
    ops_per_unit = 2
    SIZE = 11
    FUEL_CAP = 256

    def __init__(self, seed: int) -> None:
        with open(os.path.join(HERE, "loops.rtg"), encoding="utf-8") as fh:
            grammar = parse_grammar(fh.read())
        universe = grammar.universe
        rng = random.Random(seed)
        kinds = [(a, parse_predicate(raise_spec(a, b)),
                  oracle.raise_to_successor(a, b))
                 for a, b in (("x", "y"), ("y", "x"))]
        self.rounds = []
        for _ in range(POOL):
            calls = []
            for a, spec, holds in kinds:
                examples = draw_raise_examples(rng, a)
                states = tuple(State.of(universe, ex) for ex in examples)
                problem = SynthesisProblem(grammar, Finite(states), spec,
                                           Mode.TOTAL)
                calls.append((problem, examples, holds))
            self.rounds.append(calls)

    def run_unit(self, k: int) -> Record:
        seconds = 0.0
        outputs, stats = [], []
        for problem, examples, holds in self.rounds[k % POOL]:
            start = time.perf_counter()
            result = synthesize_pbe(problem, self.SIZE, fuel_cap=self.FUEL_CAP)
            seconds += time.perf_counter() - start
            outputs.append((result, examples, holds))
            stats.append(result.stats)
        return Record({"work": seconds}, outputs=outputs, stats=stats)

    def check(self, record: Record) -> list[str]:
        errors = []
        for result, examples, predicate in record.outputs:
            term = result.term if isinstance(result, Realized) else None
            errors += oracle.check_pbe(term, examples, predicate, self.SIZE)
        return errors


# --------------------------------------------------------------------------
# certify_check

# Programs over x run at x in 0..2.  Programs over x and y run at (0,0) or
# (1,0): one more unit on either variable makes the heaviest of them cost
# tens of seconds (the factorial base grows with the largest cell).
X_PROGRAMS = [
    "x + 1", "x * x", "x < 2", "not (x = 0)", "x / (1 + 1)",
    "(x + 1) * (x - 1)", "x := x + 1", "x := x * 2",
    "if x < 2 then x := x + 1", "x := x - 1; x := x * x",
]
XY_PROGRAMS = [
    "x + y", "x < y", "x * y + 1", "if x = y then y := y + 1",
    "x := y; y := x",
]
# Runs only at (0,0); its two forms take about 90% of a pass.
XY_HEAVY = "x := x + 1; y := x * 2"
FUEL = 10_000
_COMMUTATIVE = ("+", "*", "=", "and")


def shuffle_operands(t: Term, rng: random.Random) -> Term:
    """Swap the operands of commutative operators at random.

    The program computes the same values, and its cells are the same
    numbers in other heap slots, so the certificate's cost barely moves.
    """
    kids = tuple(shuffle_operands(c, rng) for c in t.children)
    if t.op in _COMMUTATIVE and rng.random() < 0.5:
        kids = kids[::-1]
    return Term(t.op, kids)


def rename_xy(text: str) -> str:
    return text.replace("x", "#").replace("y", "x").replace("#", "y")


class CertifyCheck:
    """Certificate round trips over a seeded batch; one unit is one pass.

    Each item is built (build_value_tree), encoded (encode_value_tree),
    decoded (decode_value_tree) and validated (validate_report), once in
    plain form and once in ``embed`` form.  The seed draws the input
    states, whether the heavy program is written over x first or y first,
    and the operand order of commutative operators.
    """

    name = "certify_check"
    reference = "bigint"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        x_only = VarUniverse.of("x")
        xy = VarUniverse.of("x", "y")
        cases = [(p, x_only, {"x": rng.randint(0, 2)}) for p in X_PROGRAMS]
        cases += [(p, xy, rng.choice([{"x": 0, "y": 0}, {"x": 1, "y": 0}]))
                  for p in XY_PROGRAMS]
        heavy = XY_HEAVY if rng.random() < 0.5 else rename_xy(XY_HEAVY)
        cases.append((heavy, xy, {"x": 0, "y": 0}))
        self.items = []
        for text, universe, values in cases:
            plain = shuffle_operands(parse_term(text, universe), rng)
            state = State.of(universe, values)
            # the perturbed input differs in one variable the program reads;
            # a statement's root run records its input, so any variable does
            var = sorted(oracle.reads(plain))[0]
            other = State.of(universe, {**values, var: values[var] + 1})
            for program in (plain, embed(plain)):
                self.items.append((plain, program, state, other, values))
        self.ops_per_unit = len(self.items)

    def run_unit(self, k: int) -> Record:
        certify = check = 0.0
        failed = bits = 0
        outputs = []
        clock = time.perf_counter
        for plain, program, state, other, values in self.items:
            universe = state.universe
            try:
                t0 = clock()
                built = build_value_tree(program, state, FUEL)
                encoded = encode_value_tree(built)
                t1 = clock()
                decoded = decode_value_tree(encoded, program, state, universe)
                verdict = validate_report(program, state, decoded)
                t2 = clock()
            except Exception as exc:  # a failed operation; the pass goes on
                print(f"certify {program!r}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                failed += 1
                continue
            certify += t1 - t0
            check += t2 - t1
            bits += encoded.seq.a.bit_length() + encoded.seq.b.bit_length()
            outputs.append((plain, program, values, other, built, decoded, verdict))
        return Record({"work": certify + check, "certify": certify, "check": check},
                      failed=failed, outputs=outputs, bits=bits)

    def check(self, record: Record) -> list[str]:
        errors = []
        for plain, program, values, other, built, decoded, verdict in record.outputs:
            elsewhere = validate_report(program, other, decoded)
            errors += oracle.check_certificate(plain, values, built, decoded,
                                               verdict, elsewhere)
        return errors


WORKLOADS = {w.name: w for w in (CegisRefute, PbeLoops, CertifyCheck)}
