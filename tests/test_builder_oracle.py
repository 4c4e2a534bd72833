"""Pinned-hash oracle for the certificate builder on statement programs.

`build_value_tree` is hashed node by node (every payload, in heap order,
or the fault or fuel-out it returns instead) over statement programs
that nest `while`, `if` and `seq`: a loop whose body skips a `seq` in
one iteration and runs it in a later one, loops under untaken branches,
zero-iteration loops, division faults and fuel-outs.  Any change to the
evidence of any node shows up as a different digest, and every tree
built on a real input must validate.
"""

from __future__ import annotations

import hashlib
import random

from impsynth.grammar import embed, enumerate_terms, parse_grammar
from impsynth.terms import EMPTY, State, Term, VarUniverse, parse_term
from impsynth.value_tree import ValueTree, build_value_tree, validate

SEED = 20261020
XY = VarUniverse.of("x", "y")
STATES = [EMPTY] + [State(XY, v) for v in ((0, 0), (1, 2), (2, 0), (3, 1))]
FUELS = (3, 40, 300)

# operands of expressions and guards are atoms, so that statements nest
# within a small size budget
_STATEMENTS = parse_grammar("""
(grammar
  (vars x y)
  (start S)
  (rule S (while B S))
  (rule S (if B S))
  (rule S (seq S S))
  (rule S (:= V E))
  (rule B (< A A))
  (rule B (= A A))
  (rule B (not C))
  (rule B (and C C))
  (rule C (< A A))
  (rule V x)
  (rule V y)
  (rule E 1)
  (rule E x)
  (rule E (+ A A))
  (rule E (- A A))
  (rule E (/ A A))
  (rule A 0)
  (rule A 1)
  (rule A x))
""")

_EXPLICIT = [
    "while x < 3 do ((if x = 1 then (x := x + 1; y := y + 1)); x := x + 1)",
    "if x = 5 then while x < 3 do x := x + 1",
    "while x < 0 do x := x + 1",
    "while x < 3 do (while y < x do y := y + 1; x := x + 1)",
    "while x < 4 do (if y < 1 then (while y < 2 do y := y + 1); x := x + 1)",
    "x := x + 1; y := x / y; x := y",
    "while y < 3 do (y := y + 1; x := x / (y - 2))",
]


def _random_statement(rng: random.Random, depth: int) -> Term:
    def expr(d: int) -> Term:
        if d == 0 or rng.random() < 0.4:
            return Term(rng.choice(("0", "1", "x", "y")))
        return Term(rng.choice(("+", "-", "/")), (expr(d - 1), expr(d - 1)))

    def guard(d: int) -> Term:
        roll = rng.random()
        if d > 0 and roll < 0.15:
            return Term("not", (guard(d - 1),))
        if d > 0 and roll < 0.3:
            return Term("and", (guard(d - 1), guard(d - 1)))
        return Term(rng.choice(("<", "=")), (expr(1), expr(1)))

    if depth == 0 or rng.random() < 0.3:
        return Term(":=", (Term(rng.choice(("x", "y"))), expr(2)))
    kind = rng.choice(("while", "if", "seq", "seq"))
    if kind == "seq":
        return Term("seq", (_random_statement(rng, depth - 1),
                            _random_statement(rng, depth - 1)))
    return Term(kind, (guard(1), _random_statement(rng, depth - 1)))


def _programs():
    """Every 100th term of the grammar up to size 12, seeded random
    statements and the explicit programs, each plain and embedded (the
    random ones embedded only in part: padding makes them four to eight
    times larger)."""
    for t in list(enumerate_terms(_STATEMENTS, 12))[::100]:
        yield t
        yield embed(t)
    rng = random.Random(SEED)
    for k in range(80):
        t = _random_statement(rng, 4)
        yield t
        if k < 20:
            yield embed(t)
    for text in _EXPLICIT:
        t = parse_term(text, XY)
        yield t
        yield embed(t)


def _payloads(node, i=0):
    yield i, node.payload
    for j, child in enumerate(node.children):
        yield from _payloads(child, 2 * i + j + 1)


def test_build_value_tree_statement_hash():
    digest = hashlib.sha256()
    outcomes = {"tree": 0, "Fault": 0, "FuelExhausted": 0}
    for t in _programs():
        for sigma in STATES:
            for fuel in FUELS:
                built = build_value_tree(t, sigma, fuel)
                digest.update(f"{t!r} {sigma} {fuel}\n".encode())
                if not isinstance(built, ValueTree):
                    outcomes[type(built).__name__] += 1
                    digest.update(f"{built!r}\n".encode())
                    continue
                outcomes["tree"] += 1
                for i, payload in _payloads(built.root):
                    digest.update(f"{i} {payload!r}\n".encode())
                if sigma is not EMPTY:
                    assert validate(t, sigma, built)
    assert outcomes == {"tree": 4556, "Fault": 515, "FuelExhausted": 2729}
    assert digest.hexdigest() == (
        "1376a7958766c3ace4a83a85e858d99a"
        "4289f946a0591ced29ed775628c422a2")
