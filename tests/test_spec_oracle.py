"""Pinned-hash oracles for the specification language and dummy inputs.

Each test hashes the outcomes of a fixed sweep with sha256 and compares
the digest with a pinned value, so any change to a predicate's verdict,
its variable set or rendering, the text of a `SpecError`, or what the
evaluator's entry points give on the dummy input shows up as a
different digest.
"""

from __future__ import annotations

import hashlib

from impsynth.grammar import embed
from impsynth.semantics import (
    DUMMY,
    BoolValue,
    Fault,
    StateOut,
    Value,
    eval_term,
    loop_trace,
)
from impsynth.spec_lang import SpecError, parse_predicate, predicate_from_sexp
from impsynth.terms import EMPTY, State, Term, VarUniverse, _read_sexps, parse_term
from impsynth.value_tree import build_value_tree

X = VarUniverse.of("x")
XY = VarUniverse.of("x", "y")

# every formula head and every value atom, n-ary arithmetic, signed
# numerals, variables outside a state's universe and undefined operands
FORMULAS = [
    "true",
    "false",
    "(= out 5)",
    "(= out -2)",
    "(< out 5)",
    "(<= out 0)",
    "(> out x)",
    "(>= out y)",
    "(= out true)",
    "(= out false)",
    "(= true out)",
    "(< out true)",
    "(>= false false)",
    "(= true true)",
    "(= true 1)",
    "(= (out x) 7)",
    "(= (out y) y)",
    "(< (out x) (out y))",
    "(>= (out y) 10)",
    "(= (out q) 3)",
    "(= q 0)",
    "(< y 99)",
    "(= x +3)",
    "(= (- x 3) 0)",
    "(= (+ x y 1) 14)",
    "(= (+ out 1) 6)",
    "(= (+ out 1 x) 9)",
    "(= (* 2 x y) 60)",
    "(= (* out out out) -8)",
    "(= (- out x) 2)",
    "(= (- (out x) x) 4)",
    "(= (- y out) 5)",
    "(= (+ true 1) 2)",
    "(= (- 1 false) 1)",
    "(= (term-size) 5)",
    "(< (term-size) (+ x 1))",
    "(= (* (term-size) (- (out x) x)) 4)",
    "(not (= out 5))",
    "(not (< (out x) 0))",
    "(and (= x 3) (= y 10) true)",
    "(and (= x 3) false)",
    "(and (> out 0))",
    "(or false (= x 3))",
    "(or (= out 5) (= (out x) 7) (= q q))",
    "(or (not (= q q)))",
    "(and (or (= out 5) (= out true)) (not (and (< x 0) (> x 0))))",
    "(= (+ (* 1_000 0) (- 0007 7)) 0)",
]

STATES = [
    State(XY, (3, 10)),
    State(XY, (0, 0)),
    State(XY, (-2, 5)),
    State(X, (3,)),
    State(X, (-1,)),
]

OUTCOMES = [
    Value(5),
    Value(-2),
    Value(0),
    BoolValue(True),
    BoolValue(False),
    StateOut(State(XY, (7, 10))),
    StateOut(State(XY, (-1, 3))),
    StateOut(State(X, (7,))),
    DUMMY,
    Fault("div0"),
]

TERMS = [Term("x"), parse_term("1 + x + 1")]

# test_spec_lang.py::test_parse_errors, then further malformed inputs
BAD_TEXTS = [
    "",
    "(= out 5) (= out 6)",
    "x",
    "(frob 1 2)",
    "(= 1)",
    "(not)",
    "(and)",
    "(out 1)",
    "(= (out 1 2) 3)",
    "(= (term-size 3) 3)",
    "(= (- 1) 0)",
    "(= (% 1 2) 0)",
    "(= out 5",
    "(= (+ 1) 2)",
    "(and x)",
    "((= 1 1))",
    "(= a-b 1)",
    "(= 1 2 3)",
    "(not (= 1) (frob))",
    "(and (frob 1) (= 1))",
    "(or (= 1 1) (< (out) 2))",
    "(= (+ (frob)) 1)",
    "(= (- (frob) 1 2) 1)",
    "(= (frob) (- 1))",
    "(= (1 2) 3)",
    "(= () 1)",
    "()",
    "(true)",
    "(term-size)",
    "(= 0x10 1)",
    "(= 1.5 1)",
    "(< (out (x)) 1)",
    "(= out 5))",
    "(= (+ (frob) 1) 2)",
    "(= (* 1 2) (- x))",
]

BAD_SEXPS = [
    "x",
    [],
    ["and"],
    [["=", "1", "1"]],
    ["=", ["+", "1"], "2"],
    ["not", ["=", "1", "1"], "true"],
]


def test_holds_sweep_hash():
    digest = hashlib.sha256()
    verdicts = 0
    for text in FORMULAS:
        pred = parse_predicate(text)
        for sigma in STATES:
            for outcome in OUTCOMES:
                for term in TERMS:
                    v = pred.holds(sigma, term, outcome)
                    assert isinstance(v, bool)
                    verdicts += v
                    digest.update(f"{text} {sigma} {outcome} "
                                  f"{term!r} {v}\n".encode())
    assert verdicts == 1158
    assert digest.hexdigest() == (
        "8647513174be8cd78a2dfd20106008b6"
        "71bd52e11932a5126314449545f66fb5")


def test_variables_and_rendering_hash():
    digest = hashlib.sha256()
    for text in FORMULAS:
        pred = parse_predicate(f"  {text}\n")
        (sexp,) = _read_sexps(text)
        same = predicate_from_sexp(sexp)
        assert same == pred
        for p in (pred, same):
            digest.update(f"{p} {sorted(p.variables())}\n".encode())
    assert digest.hexdigest() == (
        "a1088e34e453335250eab18d9d3b9f21"
        "342e3d03be0228e2130e4dcb57eb73e6")


def test_spec_error_text_hash():
    digest = hashlib.sha256()
    for text in BAD_TEXTS:
        try:
            parse_predicate(text)
        except SpecError as err:
            digest.update(f"{text!r} {err}\n".encode())
        else:
            raise AssertionError(f"{text!r} parsed")
    for sexp in BAD_SEXPS:
        try:
            predicate_from_sexp(sexp)
        except SpecError as err:
            digest.update(f"{sexp!r} {err}\n".encode())
        else:
            raise AssertionError(f"{sexp!r} parsed")
    assert digest.hexdigest() == (
        "0955731dbc22e0d16cb07008f8783176"
        "7edfd768cb509525b4a8788328b3b277")


def test_dummy_input_entry_points_hash():
    digest = hashlib.sha256()
    programs = ["x + 1", "x := x + 1; y := x", "while x < 2 do x := x + 1"]
    for text in programs:
        plain = parse_term(text, XY)
        for t in (plain, embed(plain)):
            for fuel in (0, 1, 5, 100):
                digest.update(f"{t!r} {fuel} {eval_term(t, EMPTY, fuel)}\n"
                              .encode())
                tree = build_value_tree(t, EMPTY, fuel)
                digest.update(f"{tree.input} {_heap_payloads(tree.root)}\n"
                              .encode())
    guard, body = parse_term("x < 2", XY), parse_term("x := x + 1", XY)
    for g, b in ((guard, body), (embed(guard), embed(body))):
        for fuel in (0, 5):
            digest.update(f"{fuel} {loop_trace(g, b, EMPTY, fuel)}\n".encode())
    assert digest.hexdigest() == (
        "d1ec8d57ea5cc8d0ed81de83c62ff778"
        "c3f1d9d9a2585f6748f719d60b225a33")


def _heap_payloads(root) -> list:
    """The payloads of a value tree in heap order (children of i at
    2i+1 and 2i+2)."""
    found, stack = [], [(root, 0)]
    while stack:
        node, i = stack.pop()
        found.append((i, node.payload))
        stack.extend((c, 2 * i + j + 1) for j, c in enumerate(node.children))
    return [payload for _, payload in sorted(found, key=lambda p: p[0])]
