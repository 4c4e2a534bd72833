"""Tree grammars: membership, enumeration order, padding, finiteness."""

import itertools
import random

import pytest
from hypothesis import given

from impsynth import grammar as grammar_module
from impsynth.grammar import (
    GrammarError,
    Levels,
    Rtg,
    complete_binary_witness,
    embed,
    enumerate_terms,
    is_perfect,
    language_finite,
    language_size,
    max_term_size,
    member,
    parse_grammar,
    serialize_grammar,
    strip,
    to_bin_form,
)
from impsynth.semantics import eval_term
from impsynth.terms import (
    State, Term, VarUniverse, op_info, parse_prefix, parse_term, term_size, to_prefix,
)

from .conftest import FIXTURES
from .test_terms import _exprs, _stmts

EXPR_GRAMMAR = parse_grammar((FIXTURES / "expr.rtg").read_text())
EXPR_BIN = to_bin_form(EXPR_GRAMMAR)
COPY_GRAMMAR = parse_grammar((FIXTURES / "copy.rtg").read_text())
# two productions of E derive (+ 1 1): (+ E F) and (+ F E)
AMBIGUOUS = parse_grammar(
    "(grammar (vars x) (start E) (rule E 1) (rule E x)"
    " (rule E (+ E F)) (rule E (+ F E)) (rule F 1))")


# ---------------------------------------------------------------------------
# Parsing and validation


def test_parse_grammar_frozen():
    assert EXPR_GRAMMAR.start == "E"
    assert list(EXPR_GRAMMAR.universe) == ["x"]
    prods = EXPR_GRAMMAR.productions("E")
    assert [str(p) for p in prods] == ["1", "x", "(+ E E)"]


@pytest.mark.parametrize("text,message", [
    ("(grammar (vars x) (rule E 1))", "start"),
    ("(grammar (vars x) (start E))", "no rules"),
    ("(grammar (vars x) (start E) (rule E (+ E F)))", "undeclared"),
    ("(grammar (vars x) (start E) (rule E (+ E)))", "arity"),
    ("(grammar (vars x) (start E) (rule E y))", "not in universe"),
    ("(grammar (vars x) (start S) (rule S (while B S)) (rule B 1))",
     "sort"),
    ("(grammar (vars x) (start E) (rule E 1) (frob))", "unknown"),
    ("(rules)", "expected a single"),
])
def test_parse_grammar_errors(text, message):
    with pytest.raises(GrammarError, match=message):
        parse_grammar(text)


def test_serialize_round_trip():
    for g in (EXPR_GRAMMAR, EXPR_BIN, COPY_GRAMMAR):
        assert parse_grammar(serialize_grammar(g)) == g


# ---------------------------------------------------------------------------
# Membership


def test_member_frozen():
    assert member(EXPR_GRAMMAR, parse_term("1 + x + 1"))
    assert member(EXPR_GRAMMAR, Term("x"))
    assert not member(EXPR_GRAMMAR, Term("0"))
    assert not member(EXPR_GRAMMAR, parse_term("x := 1"))
    assert not member(EXPR_GRAMMAR, parse_term("x - 1"))


def test_member_of_padded_form():
    padded_leaf = parse_prefix("(1 null null)")
    assert member(EXPR_BIN, padded_leaf)
    assert not member(EXPR_BIN, Term("1"))  # plain leaf no longer derivable
    assert member(EXPR_BIN, embed(parse_term("1 + x + 1")))
    # uneven padding is still in the language
    assert member(EXPR_BIN, parse_prefix("(+ (1 null null) (x null (nop null null)))"))
    assert not member(EXPR_BIN, parse_prefix("(nop null null)"))  # start is E


def test_member_statement_grammar():
    assert member(COPY_GRAMMAR, parse_term("x := 0"))
    assert member(COPY_GRAMMAR, parse_term("if 1 = y then x := 1"))
    assert not member(COPY_GRAMMAR, parse_term("y := 0"))  # only x is writable
    assert not member(COPY_GRAMMAR, parse_term("x := y"))  # y is guard-only


# ---------------------------------------------------------------------------
# Enumeration


def test_enumeration_order_frozen():
    first = list(itertools.islice(enumerate_terms(EXPR_GRAMMAR), 6))
    assert [to_prefix(t) for t in first] == [
        "1", "x", "(+ 1 1)", "(+ 1 x)", "(+ x 1)", "(+ x x)"]


def test_enumeration_contract():
    terms = list(enumerate_terms(EXPR_GRAMMAR, 9))
    sizes = [term_size(t) for t in terms]
    assert sizes == sorted(sizes)
    for _, group in itertools.groupby(zip(sizes, terms), key=lambda p: p[0]):
        keys = [to_prefix(t) for _, t in group]
        assert keys == sorted(keys)
    assert len(set(terms)) == len(terms)
    assert all(member(EXPR_GRAMMAR, t) for t in terms)
    assert len(terms) == language_size(EXPR_GRAMMAR, 9) == 550


def test_enumeration_of_an_ambiguous_grammar_yields_each_term_once():
    terms = list(enumerate_terms(AMBIGUOUS, 9))
    assert [to_prefix(t) for t in terms[:8]] == [
        "1", "x", "(+ 1 1)", "(+ 1 x)", "(+ x 1)",
        "(+ (+ 1 1) 1)", "(+ (+ 1 x) 1)", "(+ (+ x 1) 1)"]
    order = [(term_size(t), to_prefix(t)) for t in terms]
    assert order == sorted(order)
    assert len(set(terms)) == len(terms) == 47
    assert language_size(AMBIGUOUS, 9) == 62  # derivations, not terms


def test_enumeration_finite_language_stops():
    g = parse_grammar("(grammar (vars x) (start S) (rule S 1))")
    assert [to_prefix(t) for t in enumerate_terms(g)] == ["1"]


def test_enumeration_zero_budget():
    assert list(enumerate_terms(EXPR_GRAMMAR, 0)) == []


# Order oracle: seeded random grammars against a naive generator that
# shares no code with `Levels`.  The variables x, x1 and xx test that a
# name sorts before its extensions; `not` is the one unary operator.

_ORACLE_VARS = ("x", "x1", "xx")
_ORACLE_NTS = {"E": "expr", "F": "expr", "V": "var", "B": "bool", "S": "stmt"}
_ORACLE_OPS = {
    "expr": ["0", "1", "x", "x1", "xx", "+", "-", "*", "/"],
    "var": list(_ORACLE_VARS),
    "bool": ["true", "false", "not", "and", "<", "="],
    "stmt": [":=", "seq", "if", "while"],
}
_ORACLE_SLOTS = {"expr": "EFV", "var": "V", "bool": "B", "stmt": "S"}
_ORACLE_FALLBACK = {"expr": "1", "var": "x", "bool": "true", "stmt": ":= V V"}


def _random_grammar(rng, finite: bool) -> Rtg:
    """Rules for E, F, V, B and S, some production at times twice; in a
    finite grammar an operand comes after its nonterminal in S B E F V."""
    order = "SBEFV"
    rules = []
    for nt, sort in _ORACLE_NTS.items():
        ops = _ORACLE_OPS[sort]
        prods = []
        for op in rng.sample(ops, rng.randint(1, min(4, len(ops)))):
            slots = [[o for o in _ORACLE_SLOTS[s.value]
                      if not finite or order.index(o) > order.index(nt)]
                     for s in op_info(op).operands]
            if all(slots):
                prods.append(" ".join([op] + [rng.choice(s) for s in slots]))
        if prods and rng.random() < 0.3:
            prods.append(rng.choice(prods))
        rules += [f"(rule {nt} ({p}))" for p in prods or [_ORACLE_FALLBACK[sort]]]
    return parse_grammar(f"(grammar (vars {' '.join(_ORACLE_VARS)})"
                         f" (start {rng.choice('SBE')}) {' '.join(rules)})")


def _naive_terms(g: Rtg, max_size: int | None) -> list[Term]:
    """L(g) up to max_size (all of it when None), by a fixed point over
    sets of terms, sorted by (size, prefix form)."""
    found: dict[str, set[Term]] = {nt: set() for nt in g.nonterminals}
    changed = True
    while changed:
        changed = False
        for nt in g.nonterminals:
            for p in g.productions(nt):
                for kids in itertools.product(*(list(found[o]) for o in p.operands)):
                    if max_size is not None and 1 + sum(term_size(k) for k in kids) > max_size:
                        continue
                    t = Term(p.op, kids)
                    if t not in found[nt]:
                        found[nt].add(t)
                        changed = True
    return sorted(found[g.start], key=lambda t: (term_size(t), to_prefix(t)))


def test_enumeration_matches_a_naive_generator_on_random_grammars():
    rng = random.Random(20261020)
    seen = dict.fromkeys(["ambiguous", "unary", "finite", "binform", "x and x1"], 0)
    for i in range(48):
        g = _random_grammar(rng, finite=i % 4 == 3)
        # a finite language is read whole; its padded form is infinite
        for grammar, size in ((g, None if i % 4 == 3 else 6), (to_bin_form(g), 9)):
            assert size is not None or language_finite(grammar)
            want = _naive_terms(grammar, size)
            got = list(enumerate_terms(grammar, size))
            assert [to_prefix(t) for t in got] == [to_prefix(t) for t in want], \
                serialize_grammar(grammar)
            for k in {1, len(want) // 3, len(want) // 2, max(len(want) - 1, 0)}:
                assert list(itertools.islice(enumerate_terms(grammar, size), k)) == got[:k]
            ops = {n.op for t in want for n in t.walk()}
            largest = max(map(term_size, want), default=0)
            seen["ambiguous"] += language_size(grammar, largest) > len(want)
            seen["unary"] += "not" in ops
            seen["finite"] += size is None and bool(want)
            seen["binform"] += grammar.binform and bool(want)
            seen["x and x1"] += {"x", "x1"} <= ops
    assert min(seen.values()) >= 5, seen


# ---------------------------------------------------------------------------
# Lazy levels

LOOPS = parse_grammar((FIXTURES.parent / "bench" / "loops.rtg").read_text())


def test_enumeration_streams_the_start_level(monkeypatch):
    made = []

    class Recording(Levels):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(grammar_module, "Levels", Recording)
    first = list(itertools.islice(enumerate_terms(LOOPS, 11), 2_048))
    assert term_size(first[-1]) == 11
    (levels,) = made
    # S@11 is read, not stored; B@9 and S@9 only pair with the empty S@1
    assert not {("S", 11), ("S", 9), ("B", 9)} & set(levels._levels)
    assert ("E", 9) in levels._levels


def test_a_split_with_an_empty_side_builds_neither_side():
    levels = Levels(LOOPS)
    assert len(levels.at("S", 7)) == language_size(LOOPS, 7) - language_size(LOOPS, 6)
    # S derives nothing of size 1 or 2, so (seq S@1 S@5), (seq S@5 S@1),
    # (while B@5 S@1) and the like build no level
    built = set(levels._levels)
    assert {("S", 1), ("S", 2), ("S", 5), ("B", 5)}.isdisjoint(built)
    assert {("S", 3), ("B", 3), ("E", 1), ("V", 1)} <= built


# ---------------------------------------------------------------------------
# Finiteness analysis


def test_language_finiteness():
    assert not language_finite(EXPR_GRAMMAR)
    finite = parse_grammar(
        "(grammar (vars x) (start S) (rule S (+ A A)) (rule A 1) (rule A x))")
    assert language_finite(finite)
    assert max_term_size(finite) == 3
    with pytest.raises(GrammarError):
        max_term_size(EXPR_GRAMMAR)


def test_unproductive_cycle_is_finite():
    # the only recursion never bottoms out, so the language is empty
    g = parse_grammar(
        "(grammar (vars x) (start E) (rule E (+ E E)))")
    assert language_finite(g)
    assert max_term_size(g) == 0
    assert list(enumerate_terms(g)) == []


def test_language_size_frozen():
    assert language_size(EXPR_GRAMMAR, 7) == 102
    assert language_size(EXPR_GRAMMAR, 15) == 129_958
    assert language_size(EXPR_BIN, 9) == 64
    assert language_size(EXPR_BIN, 15) == 2_802


# ---------------------------------------------------------------------------
# Padded binary form


def test_to_bin_form_frozen():
    assert serialize_grammar(EXPR_BIN) == (
        "(grammar\n"
        "  (vars x)\n"
        "  (start E)\n"
        "  (rule E (1 NullNT NullNT))\n"
        "  (rule E (x NullNT NullNT))\n"
        "  (rule E (+ E E))\n"
        "  (rule NullNT null)\n"
        "  (rule NullNT (nop NullNT NullNT)))")
    assert EXPR_BIN.binform is True


def test_to_bin_form_rejections():
    with pytest.raises(GrammarError):
        to_bin_form(EXPR_BIN)  # already padded
    with pytest.raises(GrammarError):
        to_bin_form(parse_grammar(
            "(grammar (vars x) (start N) (rule N null))"))
    with pytest.raises(GrammarError, match="NullNT"):
        to_bin_form(parse_grammar(
            "(grammar (vars x) (start NullNT) (rule NullNT 1))"))


def test_embed_frozen():
    t = parse_term("1 + x + 1")
    assert embed(t) == parse_prefix(
        "(+ (+ (1 null null) (x null null))"
        " (1 (nop null null) (nop null null)))")


def test_embed_strip_shape():
    t = parse_term("while x < 1 do x := x + 1", VarUniverse.of("x"))
    e = embed(t)
    assert is_perfect(e)
    assert strip(e) == t
    with pytest.raises(GrammarError):
        embed(e)  # already padded
    with pytest.raises(GrammarError):
        strip(Term("null"))
    with pytest.raises(GrammarError):
        strip(parse_prefix("(nop null null)"))
    # strip is identity on terms that carry no padding
    assert strip(t) == t


@given(_exprs)
def test_strip_inverts_embed(t):
    assert strip(embed(t)) == t


@given(_stmts)
def test_strip_inverts_embed_statements(t):
    e = embed(t)
    assert is_perfect(e)
    assert strip(e) == t


def _perfect_by_levels(t: Term) -> bool:
    # a perfect binary tree holds 2**d nodes at each depth d
    level, depth = [t], 0
    while level:
        if len(level) != 2 ** depth:
            return False
        level, depth = [c for node in level for c in node.children], depth + 1
    return True


def test_is_perfect_matches_level_counts():
    terms = [*enumerate_terms(EXPR_GRAMMAR, 9), *enumerate_terms(EXPR_BIN, 9)]
    terms += [embed(strip(t)) for t in terms]
    terms += [
        parse_prefix("(not true)"),  # a unary node
        parse_prefix("(+ (1 null null) x)"),  # leaves at two depths
        parse_prefix("(+ (+ 1 x) (+ (+ 1 x) 1))"),
    ]
    verdicts = [is_perfect(t) for t in terms]
    assert verdicts == [_perfect_by_levels(t) for t in terms]
    assert True in verdicts and False in verdicts
    assert not any(verdicts[-3:])


def test_complete_binary_witness():
    uneven = parse_prefix("(+ (1 null null) (x null (nop null null)))")
    witness = complete_binary_witness(EXPR_BIN, uneven)
    assert is_perfect(witness)
    assert member(EXPR_BIN, witness)
    sigma = State(VarUniverse.of("x"), (3,))
    assert eval_term(witness, sigma, 100) == eval_term(uneven, sigma, 100)
    with pytest.raises(GrammarError):
        complete_binary_witness(EXPR_GRAMMAR, uneven)
    with pytest.raises(GrammarError):
        complete_binary_witness(EXPR_BIN, parse_term("x - 1"))


def test_every_padded_member_strips_into_the_plain_language():
    for t in enumerate_terms(EXPR_BIN, 9):
        plain = strip(t)
        assert member(EXPR_GRAMMAR, plain)
        # stripping never changes the meaning
        sigma = State(VarUniverse.of("x"), (2,))
        assert eval_term(t, sigma, 1000) == eval_term(plain, sigma, 1000)
