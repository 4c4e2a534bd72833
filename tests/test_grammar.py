"""Tree grammars: membership, enumeration order, padding, finiteness."""

import itertools

import pytest
from hypothesis import given

from impsynth.grammar import (
    GrammarError,
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
from impsynth.terms import State, Term, VarUniverse, parse_prefix, parse_term, term_size, to_prefix

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
