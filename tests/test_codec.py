"""Number codecs: beta sequences, pairing, states, heap-order trees."""

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from impsynth.codec import (
    OP_CODES,
    VAR_CODE_BASE,
    BetaPair,
    CodecError,
    EncodedTree,
    beta,
    code_op,
    decode_seq,
    decode_state,
    decode_term,
    encode_heap,
    encode_seq,
    encode_state,
    encode_term,
    heap_height,
    int_to_nat,
    list_to_nat,
    nat_to_int,
    nat_to_list,
    nat_to_seq,
    op_code,
    pair,
    seq_to_nat,
    unpair,
)
from impsynth.grammar import embed
from impsynth.terms import EMPTY, State, Term, VarUniverse, parse_term

from .conftest import numeral
from .test_terms import _exprs

X = VarUniverse.of("x")
XY = VarUniverse.of("x", "y")


# ---------------------------------------------------------------------------
# Beta sequences


def test_encode_seq_frozen():
    # [2]: base s = 3, b = 3! = 6, modulus 7, least solution a = 2
    assert encode_seq([2]) == BetaPair(2, 6, 1)
    # [0, 1]: moduli 7 and 13; a = 14 is the least CRT solution
    assert encode_seq([0, 1]) == BetaPair(14, 6, 2)
    assert beta(14, 6, 0) == 0
    assert beta(14, 6, 1) == 1


def test_decode_seq_frozen():
    assert decode_seq(BetaPair(2, 6, 1)) == [2]
    assert decode_seq(BetaPair(14, 6, 2)) == [0, 1]


@pytest.mark.parametrize("bad", [[], [-1], [3, -2]])
def test_encode_seq_rejects(bad):
    with pytest.raises(CodecError):
        encode_seq(bad)


def test_decode_seq_rejects_empty():
    with pytest.raises(CodecError):
        decode_seq(BetaPair(0, 6, 0))


@pytest.mark.parametrize("length", [10**6, 10**9])
def test_decode_seq_refuses_lengths_no_encoding_has(length):
    # encode_seq refuses every length from 10**6 on, so decoding one is
    # refused before any entry is built, also inside a whole-sequence code
    start = time.perf_counter()
    with pytest.raises(CodecError, match="has no encoding"):
        decode_seq(BetaPair(5, 3, length))
    with pytest.raises(CodecError, match="has no encoding"):
        nat_to_seq(1 + pair(pair(5, 3), length - 1))
    assert time.perf_counter() - start < 1


def test_factorial_cap():
    with pytest.raises(CodecError, match="astronomically"):
        encode_seq([10**6])


@given(st.lists(st.integers(0, 100), min_size=1, max_size=8))
def test_seq_round_trip(cs):
    assert decode_seq(encode_seq(cs)) == cs


# ---------------------------------------------------------------------------
# Pairing and signed integers


def test_pair_frozen():
    assert pair(0, 0) == 0
    assert pair(2, 1) == 7
    assert unpair(7) == (2, 1)


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_unpair_inverts_pair(x, y):
    assert unpair(pair(x, y)) == (x, y)


@given(st.integers(0, 10**9))
def test_pair_inverts_unpair(z):
    x, y = unpair(z)
    assert pair(x, y) == z


def test_int_to_nat_frozen():
    assert [int_to_nat(k) for k in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]


@given(st.integers(-10**9, 10**9))
def test_int_nat_round_trip(k):
    assert nat_to_int(int_to_nat(k)) == k


@given(st.integers(0, 10**9))
def test_nat_int_round_trip(n):
    assert int_to_nat(nat_to_int(n)) == n


# ---------------------------------------------------------------------------
# Whole-sequence and list codes


def test_seq_to_nat_frozen():
    assert seq_to_nat([]) == 0
    assert nat_to_seq(0) == []


@given(st.lists(st.integers(0, 30), max_size=5))
def test_seq_to_nat_round_trip(cs):
    assert nat_to_seq(seq_to_nat(cs)) == cs


def test_list_to_nat_frozen():
    assert list_to_nat([]) == 0
    assert list_to_nat([0]) == 1
    assert list_to_nat([1]) == 2
    assert list_to_nat([0, 0]) == 3
    with pytest.raises(CodecError):
        list_to_nat([-1])


@given(st.lists(st.integers(0, 100), max_size=6))
def test_list_to_nat_round_trip(cs):
    assert nat_to_list(list_to_nat(cs)) == cs


# ---------------------------------------------------------------------------
# States


def test_encode_state_frozen():
    assert encode_state(EMPTY) == 0
    assert encode_state(State(X, (3,))) == 7
    assert encode_state(State(XY, (1, -1))) == 8


def test_decode_state_frozen():
    assert decode_state(0, X) is EMPTY
    assert decode_state(7, X) == State(X, (3,))
    assert decode_state(8, XY) == State(XY, (1, -1))
    with pytest.raises(CodecError):
        decode_state(-1, X)


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=3))
def test_state_round_trip(values):
    universe = VarUniverse.of(*("abc"[: len(values)]))
    sigma = State(universe, tuple(values))
    assert decode_state(encode_state(sigma), universe) == sigma


# ---------------------------------------------------------------------------
# Operator numbering


def test_op_codes_frozen():
    assert OP_CODES == {
        "null": 0, "nop": 1, "0": 2, "1": 3, "true": 4, "false": 5,
        "+": 6, "-": 7, "*": 8, "/": 9, "<": 10, "=": 11, "and": 12,
        "not": 13, ":=": 14, "seq": 15, "if": 16, "while": 17,
    }
    assert VAR_CODE_BASE == 18


def test_variable_codes():
    assert op_code("x", XY) == 18
    assert op_code("y", XY) == 19
    assert code_op(18, XY) == "x"
    assert code_op(19, XY) == "y"
    with pytest.raises(CodecError):
        code_op(19, X)


# ---------------------------------------------------------------------------
# Terms


def test_encode_term_frozen():
    e = encode_term(embed(parse_term("1 + x + 1")), X)
    assert e.height == 3
    assert decode_seq(e.seq) == [6, 6, 3, 3, 18, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_encode_term_requires_perfect_shape():
    with pytest.raises(CodecError, match="perfect"):
        encode_term(parse_term("1 + x + 1"), X)


def test_decode_term_frozen():
    t = embed(parse_term("1 + x + 1"))
    assert decode_term(encode_term(t, X), X) == t


def test_decode_term_rejects_ill_sorted_cells():
    # cells spell (+ null null), which no well-sorted term can be
    bad = EncodedTree(encode_seq([OP_CODES["+"], 0, 0]), 1)
    with pytest.raises(CodecError, match="well-sorted"):
        decode_term(bad, X)


def test_encoded_tree_length_check():
    with pytest.raises(CodecError):
        EncodedTree(encode_seq([3, 3]), 1)  # height 1 needs 3 cells


def test_heap_height_reads_complete_tree_sizes():
    assert [heap_height(2 ** (h + 1) - 1) for h in range(6)] == list(range(6))
    for length in (0, 2, 6, 8, 30):
        with pytest.raises(CodecError, match="complete-tree size"):
            heap_height(length)


def test_encode_heap_refuses_before_computing_cells():
    asked = []
    with pytest.raises(CodecError, match="factorial base"):
        encode_heap(numeral(40), lambda node: asked.append(node) or 0)
    assert asked == []


def test_single_leaf_term():
    e = encode_term(Term("x"), X)
    assert e.height == 0
    assert decode_seq(e.seq) == [18]
    assert decode_term(e, X) == Term("x")


@given(_exprs)
def test_term_round_trip(t):
    padded = embed(t)
    assert decode_term(encode_term(padded, XY), XY) == padded
