"""Pinned-hash oracles for enumeration and the searches that read it.

Each test hashes the outcomes of a fixed sweep with sha256 and compares
the digest with a pinned value, so any change to the enumeration order,
a term's size or prefix form, the guarded-block fallback's answer or a
CEGIS round trace and its counters shows up as a different digest.  The
sweeps read `bench/loops.rtg` and the fixture grammars and problems;
all are inputs only.  A sweep of seeded random grammars pins whether
each language is finite and the size of its largest member.
"""

from __future__ import annotations

import hashlib
import pathlib
import random

from impsynth.grammar import (
    GrammarError,
    Production,
    Rtg,
    enumerate_terms,
    language_finite,
    max_term_size,
    parse_grammar,
    to_bin_form,
)
from impsynth.synthesis import (
    Finite,
    SearchStats,
    SynthesisProblem,
    _decision_list_pbe,
    cegis,
    example_assignment_problem,
    load_problem,
)
from impsynth.terms import (
    Sort,
    State,
    VarUniverse,
    op_info,
    sort_fits,
    term_size,
    to_prefix,
)

from .conftest import FIXTURES

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (grammar file, largest size of the plain sweep); each bin form is
# swept to size 15
_GRAMMARS = [
    ("fixtures/copy.rtg", 11),
    ("fixtures/expr.rtg", 11),
    ("fixtures/looping.rtg", 11),
    ("bench/loops.rtg", 10),
]


def _outcome(result, trace) -> str:
    """The result's type, reason or term, counters and round trace."""
    detail = getattr(result, "reason", None) or getattr(result, "term", None)
    history = [f"{t!r} {cex}" for t, cex in trace.history]
    return f"{type(result).__name__} {detail!r} {result.stats} {history}"


def test_enumeration_sweep_hash():
    digest = hashlib.sha256()
    counts = []
    for rel, max_size in _GRAMMARS:
        g = parse_grammar((ROOT / rel).read_text())
        for grammar, bound in ((g, max_size), (to_bin_form(g), 15)):
            digest.update(f"{rel} {bound}\n".encode())
            n = 0
            for t in enumerate_terms(grammar, bound):
                digest.update(f"{term_size(t)} {to_prefix(t)}\n".encode())
                n += 1
            counts.append(n)
    assert counts == [798, 624, 3238, 2802, 4425, 1170, 1734, 2202]
    assert digest.hexdigest() == (
        "18ef5b66cd2cf6f85cdd544e6cd72af2"
        "c8ef409184fc0ddc136b09425e0af9c0")


def test_guarded_block_fallback_hash():
    problem = example_assignment_problem(50)
    universe = problem.grammar.universe
    digest = hashlib.sha256()
    found = []
    for ys in [(3, 7), (12, 19), (0, 31), (5, 9, 14), (0, 20, 33),
               (2, 11, 25)]:
        examples = tuple(State(universe, (0, y)) for y in ys)
        sub = SynthesisProblem(problem.grammar, Finite(examples),
                               problem.spec, problem.mode)
        stats = SearchStats()
        result = _decision_list_pbe(sub, 256, stats)
        found.append(result is not None)
        term = None if result is None else repr(result.term)
        digest.update(f"{ys} {term} {stats}\n".encode())
    assert found == [True, True, True, True, False, True]
    assert digest.hexdigest() == (
        "2b5b8f8f2737c5061b540b091c2d50d9"
        "713158a53c35c597bbf1797f279c5a76")


def test_cegis_refute_trace_hash():
    problem = example_assignment_problem(50)
    universe = problem.grammar.universe
    digest = hashlib.sha256()
    for y in (12, 15, 19):
        result, trace = cegis(problem, [State(universe, (0, y))], 2, 256, 1024)
        assert type(result).__name__ == "BudgetExhausted"
        digest.update(f"{y} {_outcome(result, trace)}\n".encode())
    assert digest.hexdigest() == (
        "9e3eb4a0c34f1e5e31ef3910ed74dfe4"
        "6c42e8cdd575ada21077bd9a310d5be6")


def test_cegis_fixture_trace_hash():
    digest = hashlib.sha256()
    kinds = []
    for name in ("copy.prob", "copy_small.prob", "value_five.prob",
                 "assign_five.prob"):
        problem = load_problem(FIXTURES / name)
        for engine in ("auto", "dovetail"):
            result, trace = cegis(problem, [], 6, 12, 256, engine=engine)
            kinds.append(type(result).__name__)
            digest.update(
                f"{name} {engine} {_outcome(result, trace)}\n".encode())
    assert kinds == ["BudgetExhausted"] * 4 + ["Realized"] * 4
    assert digest.hexdigest() == (
        "581d722b3b0a724d442b897efa87a752"
        "883c6dbd1cb4bb675d8d0b817c494854")


# operators by result sort, for the random grammars below; a VAR
# nonterminal derives variables only and may stand for an expression
_OPS_BY_SORT = {
    Sort.EXPR: ["0", "1", "x", "y", "+", "-", "*", "/"],
    Sort.BOOL: ["true", "false", "not", "and", "<", "="],
    Sort.STMT: [":=", "seq", "if", "while"],
    Sort.VAR: ["x", "y"],
}


def _random_grammar(rng: random.Random) -> Rtg:
    """A well-sorted grammar over 1-6 nonterminals with 0-4 productions
    each.  Operands lean towards later nonterminals, so many grammars
    are finite with large members; self-loops, cycles, unproductive and
    unreachable nonterminals all arise."""
    names = [f"N{i}" for i in range(rng.randint(1, 6))]
    sorts = {nt: rng.choice(list(_OPS_BY_SORT)) for nt in names}
    rules = []
    for i, nt in enumerate(names):
        prods = []
        for _ in range(rng.randint(1 if i == 0 else 0, 4)):
            op = rng.choice(_OPS_BY_SORT[sorts[nt]])
            operands = []
            for want in op_info(op).operands:
                pool = names[i + 1:] if rng.random() < 0.6 else names
                fits = [m for m in pool if sort_fits(sorts[m], want)]
                if not fits:
                    break
                operands.append(rng.choice(fits))
            else:
                p = Production(op, tuple(operands))
                if p not in prods:
                    prods.append(p)
        rules.append((nt, tuple(prods)))
    return Rtg(VarUniverse.of("x", "y"), "N0", tuple(rules))


def test_finiteness_sweep_hash():
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    finite = 0
    for _ in range(2000):
        g = _random_grammar(rng)
        is_finite = language_finite(g)
        try:
            biggest = max_term_size(g)
        except GrammarError as err:
            biggest = str(err)
        finite += is_finite
        digest.update(f"{g.rules} {is_finite} {biggest}\n".encode())
    assert finite == 1795
    assert digest.hexdigest() == (
        "a2fa935774d6202c6e4d50e7909f3e6d"
        "e16f231d3510d3a129429fe5d9eab5c8")
