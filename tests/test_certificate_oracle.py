"""Pinned-hash oracles for certificates and the example-directed search.

Each test hashes the outcomes of a fixed sweep with sha256 and compares
the digest with a pinned value, so any change to a certificate number,
a decoded tree, a validation verdict or the node it names, a codec or
validation error text, or a search result and its counters shows up as
a different digest.  Certificate integers are hashed by their bytes:
some of them have more digits than ``str`` converts by default.  The
sweeps read `bench/loops.rtg` and the fixture grammars; both are inputs
only.
"""

from __future__ import annotations

import hashlib
import pathlib

from impsynth.codec import CodecError, encode_term
from impsynth.grammar import embed, enumerate_terms, parse_grammar, to_bin_form
from impsynth.spec_lang import parse_predicate
from impsynth.synthesis import (
    Finite,
    Mode,
    Realized,
    SynthesisProblem,
    load_problem,
    synthesize_pbe,
)
from impsynth.terms import EMPTY, State, VarUniverse, parse_term
from impsynth.value_tree import (
    StatePair,
    Val,
    ValueTree,
    ValueTreeError,
    build_value_tree,
    decode_value_tree,
    encode_value_tree,
    validate_report,
)

from .conftest import FIXTURES

ROOT = pathlib.Path(__file__).resolve().parent.parent
FUEL = 10_000
X = VarUniverse.of("x")
XY = VarUniverse.of("x", "y")

# the certify_check batch of the benchmark, without its operand shuffles
_X_PROGRAMS = [
    "x + 1", "x * x", "x < 2", "not (x = 0)", "x / (1 + 1)",
    "(x + 1) * (x - 1)", "x := x + 1", "x := x * 2",
    "if x < 2 then x := x + 1", "x := x - 1; x := x * x",
    "while x < 1 do x := x + 1", "while x < 2 do x := x + 1",
]
_XY_PROGRAMS = [
    "x + y", "x < y", "x * y + 1", "if x = y then y := y + 1",
    "x := y; y := x",
]
# its cells are the largest here; embedded, it alone would take seconds
_XY_HEAVY = "x := x + 1; y := x * 2"

_MUTATIONS = [Val(7), Val(EMPTY), StatePair(EMPTY, EMPTY)]


def _nat_bytes(n: int) -> bytes:
    return n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big") + b"|"


def _grammar(rel: str):
    return parse_grammar((ROOT / rel).read_text())


def _certificate_corpus():
    """(program, input state) pairs: the batch above and the expression
    grammar's terms, each plain and embedded, then the heavy program and
    the grammar's bin form."""
    cases = [(parse_term(text, X), State(X, (x,)))
             for text in _X_PROGRAMS for x in (0, 1, 2)]
    cases += [(parse_term(text, XY), State(XY, values))
              for text in _XY_PROGRAMS for values in ((0, 0), (1, 0))]
    expr = _grammar("fixtures/expr.rtg")
    cases += [(t, State(X, (x,))) for t in enumerate_terms(expr, 6)
              for x in (0, 2)]
    for t, sigma in cases:
        yield t, sigma
        yield embed(t), sigma
    yield parse_term(_XY_HEAVY, XY), State(XY, (0, 0))
    for t in enumerate_terms(to_bin_form(expr), 6):
        yield t, State(X, (1,))


def _heap_indices(t, i=0):
    yield i
    for j, c in enumerate(t.children):
        yield from _heap_indices(c, 2 * i + j + 1)


def test_value_tree_certificate_sweep_hash():
    digest = hashlib.sha256()
    certified = refused = 0
    for t, sigma in _certificate_corpus():
        digest.update(f"{t!r} {sigma}\n".encode())
        built = build_value_tree(t, sigma, FUEL)
        try:
            enc = encode_value_tree(built)
        except CodecError as err:
            digest.update(f"refused {err}\n".encode())
            refused += 1
            continue
        for n in (enc.seq.a, enc.seq.b, enc.seq.length, enc.height):
            digest.update(_nat_bytes(n))
        decoded = decode_value_tree(enc, t, sigma, sigma.universe)
        assert decoded == built
        certified += 1
    assert (certified, refused) == (179, 8)
    assert digest.hexdigest() == (
        "133304399b572bd8d45c977dd5d400e3"
        "7d73718587b8f5456d082c2077fc9f92")


def test_encode_term_sweep_hash():
    digest = hashlib.sha256()
    encoded = 0
    for t, sigma in _certificate_corpus():
        digest.update(f"{t!r}\n".encode())
        try:
            enc = encode_term(t, sigma.universe)
        except CodecError as err:
            digest.update(f"refused {err}\n".encode())
            continue
        for n in (enc.seq.a, enc.seq.b, enc.seq.length, enc.height):
            digest.update(_nat_bytes(n))
        encoded += 1
    assert encoded == 119
    assert digest.hexdigest() == (
        "35688275b99bd059bfb27de94bb6c5ad"
        "ffbae02249613b7d2ab84a14623465f5")


def test_validate_report_mutation_sweep_hash():
    digest = hashlib.sha256()
    mutations = 0
    for t, sigma in _certificate_corpus():
        tree = build_value_tree(t, sigma, FUEL)
        if not isinstance(tree, ValueTree):
            continue
        assert validate_report(t, sigma, tree) == (True, None)
        digest.update(f"{t!r} {sigma}\n".encode())
        for i in _heap_indices(t):
            for payload in _MUTATIONS:
                try:
                    verdict = validate_report(t, sigma, tree.with_payload(i, payload))
                except ValueTreeError as err:
                    verdict = f"error {err}"
                digest.update(f"{i} {verdict}\n".encode())
                mutations += 1
    assert mutations == 5862
    assert digest.hexdigest() == (
        "01d3b8854b109cc6c71d027f45e0d68b"
        "8d4a2358bfd7b17a53caba112f181a3c")


def _raise_problem(grammar, a: str, pairs):
    """The problem "raise a to b+1" over the loop grammar, on the given
    (a, b) examples."""
    b = "y" if a == "x" else "x"
    top = f"(+ {b} 1)"
    spec = parse_predicate(
        f"(and (= (out {b}) {b}) (or (and (< {a} {top}) (= (out {a}) {top}))"
        f" (and (>= {a} {top}) (= (out {a}) {a}))))")
    states = tuple(State.of(grammar.universe, {a: av, b: bv}) for av, bv in pairs)
    return SynthesisProblem(grammar, Finite(states), spec, Mode.TOTAL)


def _pbe_calls():
    loops = _grammar("bench/loops.rtg")
    examples = [(0, 3), (4, 3), (8, 2), (1, 2)]
    for a, fuel_caps in (("x", (256, 37)), ("y", (256,))):
        problem = _raise_problem(loops, a, examples)
        for fuel_cap in fuel_caps:
            yield problem, 11, fuel_cap
        yield problem, 7, 16
    yield load_problem(FIXTURES / "value_five.prob"), 7, 256
    yield load_problem(FIXTURES / "assign_five.prob"), 7, 256
    expr = _grammar("fixtures/expr.rtg")
    zero = SynthesisProblem(expr, Finite((State(X, (3,)),)),
                            parse_predicate("(= out 0)"))
    yield zero, 7, 256
    one = parse_grammar("(grammar (vars x) (start S) (rule S 1))")
    yield (SynthesisProblem(one, Finite((State(X, (0,)),)),
                            parse_predicate("(= out 2)")), 9, 256)


def test_synthesize_pbe_hash():
    digest = hashlib.sha256()
    kinds = []
    for problem, size_budget, fuel_cap in _pbe_calls():
        result = synthesize_pbe(problem, size_budget, fuel_cap=fuel_cap)
        if isinstance(result, Realized):
            detail = repr(result.term)
        else:
            detail = getattr(result, "proof", None) or result.reason
        kinds.append(type(result).__name__)
        digest.update(f"{type(result).__name__} {detail} {result.stats}\n".encode())
    assert kinds == ["Realized", "Realized", "BudgetExhausted",
                     "Realized", "BudgetExhausted", "Realized", "Realized",
                     "BudgetExhausted", "Unrealizable"]
    assert digest.hexdigest() == (
        "1af83c3547cc0fc2a173aa08dd05f4e7"
        "547218ca0b1166fcadab3eb3a7ca37c1")
