"""Syntax layer: sorts, padding shapes, both concrete syntaxes, states."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from impsynth.grammar import enumerate_terms, parse_grammar, to_bin_form
from impsynth.terms import (
    EMPTY,
    OP_TABLE,
    ParseError,
    Sort,
    SortError,
    State,
    Term,
    TermError,
    VarUniverse,
    format_state,
    is_binform,
    is_variable_name,
    parse_prefix,
    parse_state,
    parse_term,
    print_term,
    term_height,
    term_size,
    to_prefix,
    variables_of,
)

from .conftest import FIXTURES

X = VarUniverse.of("x")
XY = VarUniverse.of("x", "y")


# ---------------------------------------------------------------------------
# Construction and sorts


def test_operator_table_shape():
    assert OP_TABLE["+"].operands == (Sort.EXPR, Sort.EXPR)
    assert OP_TABLE[":="].operands == (Sort.VAR, Sort.EXPR)
    assert OP_TABLE["while"].operands == (Sort.BOOL, Sort.STMT)
    assert OP_TABLE["null"].arity == 0
    assert OP_TABLE["nop"].operands == (Sort.NULL, Sort.NULL)


def test_plain_construction_and_sorts():
    t = Term("+", (Term("1"), Term("x")))
    assert t.sort is Sort.EXPR
    assert Term("x").sort is Sort.VAR
    assert Term("<", (Term("x"), Term("0"))).sort is Sort.BOOL
    assert Term(":=", (Term("x"), Term("1"))).sort is Sort.STMT


def test_variables_fit_expression_slots():
    # VAR narrows into EXPR operand slots but not the other way round
    Term("+", (Term("x"), Term("y")))
    with pytest.raises(SortError):
        Term(":=", (Term("1"), Term("x")))  # first slot needs a variable


def test_sort_errors():
    with pytest.raises(SortError):
        Term("+", (Term("true"), Term("1")))
    with pytest.raises(SortError):
        Term("if", (Term("1"), Term(":=", (Term("x"), Term("1")))))
    with pytest.raises(SortError):
        Term("+", (Term("1"),))
    with pytest.raises(SortError):
        Term("seq")


def test_unknown_operator_rejected():
    # any identifier is a variable; non-identifiers are not operators
    assert Term("frob").sort is Sort.VAR
    with pytest.raises(SortError):
        Term("2%2", ())
    with pytest.raises(SortError):
        Term("while", ())  # operator applied at the wrong arity
    assert not is_variable_name("while")
    assert is_variable_name("x_2")


def test_padded_construction():
    one = Term("1", (Term("null"), Term("null")))
    assert one.sort is Sort.EXPR
    assert one.is_padded
    assert not Term("1").is_padded
    # null itself never takes children
    with pytest.raises(SortError):
        Term("null", (Term("null"), Term("null")))
    # padding slots must be Null-sorted
    with pytest.raises(SortError):
        Term("1", (Term("0"), Term("null")))


def test_padding_slots_sit_on_the_right():
    padded_not = Term("not", (Term("true"), Term("null")))
    assert padded_not.sort is Sort.BOOL
    with pytest.raises(SortError):
        Term("not", (Term("null"), Term("true")))


def test_size_height_walk():
    t = parse_term("x := x + 1")
    assert term_size(t) == 5
    assert term_height(t) == 2
    assert [n.op for n in t.walk()] == [":=", "x", "+", "x", "1"]
    assert variables_of(t) == {"x"}


def _node_count(t: Term) -> int:
    return 1 + sum(_node_count(c) for c in t.children)


def _invariant_sweep() -> list[Term]:
    """Every term of two fixture grammars and their bin forms up to a
    size, then the parser's numerals."""
    terms = []
    for name in ("expr.rtg", "looping.rtg"):
        g = parse_grammar((FIXTURES / name).read_text())
        terms += enumerate_terms(g, 9)
        terms += enumerate_terms(to_bin_form(g), 13)
    terms += [parse_term(f"x := {n}") for n in range(60)]
    return terms


def test_terms_carry_size_hash_and_prefix_equality():
    terms = _invariant_sweep()
    for t in terms:
        assert t.size == term_size(t) == _node_count(t)
        u = parse_prefix(to_prefix(t))
        assert u is not t
        assert u == t and hash(u) == hash(t)
        assert t.__eq__(to_prefix(t)) is NotImplemented
    for a, b in zip(terms, terms[1:]):
        assert to_prefix(a) != to_prefix(b)
        assert a != b and not a == b
    # the sweep repeats some terms (`x := 1` is in a grammar and a numeral)
    assert len(set(terms)) == len({to_prefix(t) for t in terms}) < len(terms)


def test_terms_are_frozen_without_dict():
    t = parse_term("x := x + 1")
    for name, value in (("op", "y"), ("children", ()), ("size", 1),
                        ("sort", Sort.VAR), ("_prefix", "x")):
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, value)
    assert not hasattr(t, "__dict__")
    assert to_prefix(t) == "(:= x (+ x 1))"


@pytest.mark.parametrize("op,children,message", [
    ("+", (Term("true"), Term("1")), "operand of '+' has sort bool, expected expr"),
    (":=", (Term("1"), Term("x")), "operand of ':=' has sort expr, expected var"),
    ("not", (Term("1"), Term("null")), "operand of 'not' has sort expr, expected bool"),
    ("+", (Term("1"),), "operator '+' takes 2 operands, got 1"),
    ("null", (Term("null"), Term("null")), "operator 'null' takes 0 operands, got 2"),
    ("2%2", (), "unknown operator '2%2'"),
])
def test_sort_error_texts(op, children, message):
    # twice: the second build reads the memoised signature
    for _ in range(2):
        with pytest.raises(SortError) as err:
            Term(op, children)
        assert str(err.value) == message


def test_deep_terms_walk_without_recursion():
    t = parse_term("x := 5000")  # numerals are built by a loop
    assert term_size(t) == 2 * 5000 + 1
    assert term_height(t) == 5000
    assert sum(1 for _ in t.walk()) == term_size(t)
    assert variables_of(t) == {"x"}


def test_is_binform():
    assert is_binform(Term("1", (Term("null"), Term("null"))))
    assert is_binform(Term("nop", (Term("null"), Term("null"))))
    assert not is_binform(Term("1"))
    assert not is_binform(
        Term("+", (Term("1"), Term("1", (Term("null"), Term("null"))))))


# ---------------------------------------------------------------------------
# Infix surface syntax


@pytest.mark.parametrize("text,prefix", [
    ("1 + x + 1", "(+ (+ 1 x) 1)"),          # + is left associative
    ("x + y * x", "(+ x (* y x))"),          # * binds tighter
    ("(x + y) * x", "(* (+ x y) x)"),
    ("x := x + 1", "(:= x (+ x 1))"),
    ("x := 1; y := x", "(seq (:= x 1) (:= y x))"),
    ("x := 1; y := 1; y := x",                # ; is right associative
     "(seq (:= x 1) (seq (:= y 1) (:= y x)))"),
    ("while x < 2 do x := x + 1", "(while (< x (+ 1 1)) (:= x (+ x 1)))"),
    ("if x = y then x := 0", "(if (= x y) (:= x 0))"),
    ("!(x < y)", "(not (< x y))"),
    ("x / y - 1", "(- (/ x y) 1)"),
    ("true and false", "(and true false)"),
])
def test_parse_term_frozen(text, prefix):
    assert to_prefix(parse_term(text)) == prefix


def test_numerals_are_sugar():
    # 3 is surface shorthand for 1+1+1; only 0 and 1 are real literals
    assert to_prefix(parse_term("3")) == "(+ (+ 1 1) 1)"
    assert to_prefix(parse_term("0")) == "0"
    assert print_term(parse_term("x < 2")) == "x < (1 + 1)"


def test_parse_padded_application_style():
    t = parse_term("1(null, null) + x(null, null)")
    assert t.op == "+"
    assert t.children[0].is_padded
    assert to_prefix(t) == "(+ (1 null null) (x null null))"


def test_parse_rejects_unknowns_and_garbage():
    with pytest.raises(ParseError):
        parse_term("x +")
    with pytest.raises(ParseError):
        parse_term("x := ; y := 1")
    with pytest.raises(ParseError):
        parse_term("x # y")
    with pytest.raises(ParseError):
        parse_term("while x < 1 x := 1")  # missing `do`
    with pytest.raises(ParseError):
        parse_term("x < y < x")  # comparisons do not chain


def test_parse_universe_check():
    parse_term("x + y")
    with pytest.raises(ParseError):
        parse_term("x + y", X)
    assert to_prefix(parse_term("x + 1", X)) == "(+ x 1)"


@pytest.mark.parametrize("text", [
    "1 + x + 1",
    "x := 1; y := x + x; x := y",
    "while x < 2 do (x := x + 1; y := y + x)",
    "if !(x = y) then x := x / y",
    "1(null, null) + 1(nop(null, null), nop(null, null))",
])
def test_print_parse_round_trip_frozen(text):
    t = parse_term(text)
    assert parse_term(print_term(t)) == t


# ---------------------------------------------------------------------------
# Prefix form


def test_prefix_round_trip_frozen():
    t = parse_prefix("(seq (:= x 1) (while (< x (+ 1 1)) (:= x (+ x 1))))")
    assert parse_prefix(to_prefix(t)) == t
    assert parse_term(print_term(t)) == t


def test_prefix_errors():
    with pytest.raises(TermError):
        parse_prefix("(+ 1 1) (+ 1 1)")
    with pytest.raises(ParseError):
        parse_prefix("(+ 1 (1)")
    with pytest.raises(TermError):
        parse_prefix("(+ 1 q)", X)


# Random well-sorted terms, built directly over the constructors.

_exprs = st.recursive(
    st.sampled_from([Term("0"), Term("1"), Term("x"), Term("y")]),
    lambda sub: st.tuples(st.sampled_from(["+", "-", "*", "/"]), sub, sub)
    .map(lambda t: Term(t[0], (t[1], t[2]))),
    max_leaves=8,
)

_bools = st.recursive(
    st.one_of(
        st.sampled_from([Term("true"), Term("false")]),
        st.tuples(st.sampled_from(["<", "="]), _exprs, _exprs)
        .map(lambda t: Term(t[0], (t[1], t[2])))),
    lambda sub: st.one_of(
        sub.map(lambda b: Term("not", (b,))),
        st.tuples(sub, sub).map(lambda t: Term("and", t))),
    max_leaves=6,
)

_stmts = st.recursive(
    st.tuples(st.sampled_from(["x", "y"]), _exprs)
    .map(lambda t: Term(":=", (Term(t[0]), t[1]))),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda t: Term("seq", t)),
        st.tuples(_bools, sub).map(lambda t: Term("if", t)),
        st.tuples(_bools, sub).map(lambda t: Term("while", t))),
    max_leaves=6,
)

any_term = st.one_of(_exprs, _bools, _stmts)


@given(any_term)
def test_print_parse_round_trip(t):
    assert parse_term(print_term(t), XY) == t


@given(any_term)
def test_prefix_round_trip(t):
    assert parse_prefix(to_prefix(t), XY) == t


# ---------------------------------------------------------------------------
# Universes and states


def test_universe_validation():
    with pytest.raises(TermError):
        VarUniverse(())
    with pytest.raises(TermError):
        VarUniverse(("x", "x"))
    with pytest.raises(TermError):
        VarUniverse(("while",))
    assert list(XY) == ["x", "y"]
    assert XY.index("y") == 1
    with pytest.raises(TermError):
        XY.index("z")


def test_state_basics():
    sigma = State.of(XY, {"x": 3})
    assert sigma.values == (3, 0)  # unmentioned variables default to 0
    assert sigma.get("y") == 0
    tau = sigma.set("y", -2)
    assert (tau.get("x"), tau.get("y")) == (3, -2)
    assert sigma.get("y") == 0  # states are immutable
    with pytest.raises(TermError):
        State.of(XY, {"z": 1})
    with pytest.raises(TermError):
        State(XY, (1,))


def test_parse_state_round_trip():
    sigma = parse_state("x=3,y=-2", XY)
    assert sigma == State(XY, (3, -2))
    assert format_state(sigma) == "x=3,y=-2"
    assert parse_state("empty", XY) is EMPTY
    assert format_state(EMPTY) == "empty"


def test_parse_state_errors():
    with pytest.raises(TermError):
        parse_state("x=1", XY)  # y missing
    with pytest.raises(TermError):
        parse_state("x=1,x=2,y=0", XY)
    with pytest.raises(TermError):
        parse_state("x=1,z=2", XY)
    with pytest.raises(TermError):
        parse_state("x=one,y=0", XY)


@pytest.mark.parametrize("text, message", [
    ("x", "expected NAME=VALUE, got 'x'"),
    ("empty", "expected NAME=VALUE, got 'empty'"),
    ("while=1", "bad variable name 'while'"),
    ("x=1,x=2", "variable 'x' listed twice"),
    ("x=one", "bad integer 'one' for 'x'"),
    (" , ", "state must bind at least one variable"),
])
def test_parse_state_without_a_universe(text, message):
    # the universe is the listed names, in order
    sigma = parse_state(" y = 2 ,, x=-1 ")
    assert sigma == State(VarUniverse.of("y", "x"), (2, -1))
    with pytest.raises(TermError) as err:
        parse_state(text)
    assert str(err.value) == message
