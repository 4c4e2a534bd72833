"""Evaluation evidence trees: building, local checks, certificates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from impsynth import value_tree
from impsynth.codec import CodecError
from impsynth.grammar import embed
from impsynth.semantics import FUEL_EXHAUSTED, Fault, eval_term
from impsynth.terms import EMPTY, Sort, State, Term, VarUniverse, parse_term
from impsynth.value_tree import (
    NestedSeq,
    StatePair,
    StatePayload,
    Val,
    ValSeq,
    ValueTree,
    ValueTreeError,
    VNode,
    build_value_tree,
    check_leaf,
    check_node,
    decode_payload_cell,
    decode_value_tree,
    encode_value_tree,
    payload_cell,
    validate,
    validate_report,
)

X = VarUniverse.of("x")
XY = VarUniverse.of("x", "y")
X3 = State(X, (3,))

SUM = parse_term("1 + x + 1")
SUM_PADDED = embed(SUM)
COUNT_UP = parse_term("while x < 2 do x := x + 1")


def built(term, sigma, fuel=1000):
    v = build_value_tree(term, sigma, fuel)
    assert isinstance(v, ValueTree)
    return v


# ---------------------------------------------------------------------------
# Building


def test_build_expression_frozen():
    v = built(SUM, X3)
    assert v.root_output() == 5
    assert [v.node_at(i).payload for i in range(5)] == [
        Val(5), Val(4), Val(1), Val(1), Val(3)]


def test_build_padded_expression_frozen():
    v = built(SUM_PADDED, X3)
    assert v.root_output() == 5
    # real nodes carry the same values as in the plain tree
    assert v.node_at(1).payload == Val(4)
    assert v.node_at(3).payload == Val(1)
    assert v.node_at(4).payload == Val(3)
    # padding is never executed: one dummy entry per activation
    assert v.node_at(5).payload == Val(EMPTY)  # nop under the right 1
    assert v.node_at(7).payload == Val(EMPTY)  # null under the left 1
    assert validate(SUM_PADDED, X3, v)


def test_build_loop_frozen():
    sigmas = [State(X, (i,)) for i in range(3)]
    v = built(COUNT_UP, State(X, (0,)), fuel=28)
    assert v.root.payload == NestedSeq([sigmas])
    assert v.node_at(1).payload == ValSeq([True, True, False])
    assert v.node_at(2).payload == NestedSeq(
        [(sigmas[0], sigmas[1]), (sigmas[1], sigmas[2])])
    # the assignment target records its pre-write values
    assert v.node_at(5).payload == ValSeq([0, 1])
    assert v.node_at(6).payload == ValSeq([1, 2])
    assert v.root_output() == sigmas[2]
    assert validate(COUNT_UP, State(X, (0,)), v)


def test_build_zero_iteration_loop():
    start = State(X, (5,))
    v = built(COUNT_UP, start)
    assert v.root.payload == NestedSeq([(start,)])
    assert v.node_at(1).payload == ValSeq([False])
    assert v.node_at(2).payload == StatePayload(())  # body never ran
    assert validate(COUNT_UP, start, v)


def test_build_skipped_branch_records_dummies():
    t = parse_term("if x < 0 then y := 1", XY)
    sigma = State(XY, (3, 0))
    v = built(t, sigma)
    assert v.node_at(1).payload == Val(False)
    assert v.node_at(2).payload == StatePair(EMPTY, EMPTY)
    assert v.node_at(5).payload == Val(EMPTY)
    assert v.node_at(6).payload == Val(EMPTY)
    assert v.root_output() == sigma
    assert validate(t, sigma, v)


def test_build_passes_through_faults_and_fuel():
    assert build_value_tree(parse_term("x / 0 + x"), X3, 100) == Fault("div0")
    assert build_value_tree(COUNT_UP, State(X, (0,)), 27) is FUEL_EXHAUSTED


def test_build_matches_eval_outcome():
    sigma = State(X, (0,))
    for fuel in range(35):
        tree = build_value_tree(COUNT_UP, sigma, fuel)
        outcome = eval_term(COUNT_UP, sigma, fuel)
        if tree is FUEL_EXHAUSTED:
            assert outcome is FUEL_EXHAUSTED
        else:
            assert tree.root_output() == outcome.state


def test_build_statement_chain_costs_linear_work(monkeypatch):
    # every node evaluation the builder starts charges a value_tree.Budget
    charges = 0

    class CountingBudget(value_tree.Budget):
        def charge(self):
            nonlocal charges
            charges += 1
            super().charge()

    monkeypatch.setattr(value_tree, "Budget", CountingBudget)

    def cost(n):
        nonlocal charges
        charges = 0
        chain = parse_term("; ".join(["x := x + 1"] * n), X)
        built(chain, State(X, (0,)), fuel=10 * n)
        return charges

    costs = [cost(n) for n in (100, 200, 300)]
    # each further statement adds the same work, whatever follows it
    assert costs[2] - costs[1] == costs[1] - costs[0] > 0


def test_build_and_validate_a_long_statement_chain():
    # one frame per nested `seq` in the builder and the checks, so a chain
    # this long stays inside the default recursion limit
    chain = parse_term("; ".join(["x := x + 1"] * 900), X)
    v = build_value_tree(chain, State(X, (0,)), 9000)
    assert isinstance(v, ValueTree)
    assert v.root_output() == State(X, (900,))
    assert validate_report(chain, State(X, (0,)), v) == (True, None)


# ---------------------------------------------------------------------------
# Tree surgery helpers


def test_node_at_matches_manual_walk():
    v = built(SUM_PADDED, X3)
    assert v.node_at(0) is v.root
    assert v.node_at(4) is v.root.children[0].children[1]
    assert v.node_at(14) is v.root.children[1].children[1].children[1]


def test_with_payload_replaces_one_node():
    v = built(SUM, X3)
    w = v.with_payload(1, Val(5))
    assert w.node_at(1).payload == Val(5)
    assert w.node_at(0).payload == Val(5)
    assert v.node_at(1).payload == Val(4)  # original untouched


# ---------------------------------------------------------------------------
# Local checks


def test_check_leaf():
    assert check_leaf("1", Val(1), X3)
    assert not check_leaf("1", Val(2), X3)
    assert check_leaf("x", Val(3), X3)
    assert not check_leaf("x", Val(4), X3)
    assert check_leaf("null", Val(EMPTY), X3)
    assert not check_leaf("null", Val(0), X3)
    assert check_leaf("x", Val(EMPTY), EMPTY)  # dummy input forces dummy
    assert not check_leaf("x", Val(3), EMPTY)
    assert not check_leaf("x", ValSeq([3, 3]), X3)  # activation count


def test_check_node_arithmetic():
    assert check_node("+", Val(5), Val(4), Val(1))
    assert not check_node("+", Val(6), Val(4), Val(1))
    assert check_node("-", Val(-7), Val(-3), Val(4))
    assert check_node("/", Val(-3), Val(-7), Val(2))
    assert not check_node("/", Val(0), Val(1), Val(0))  # fault certifies nothing
    assert check_node("<", Val(True), Val(1), Val(2))
    assert check_node("and", Val(False), Val(False), Val(True))
    assert check_node("not", Val(False), Val(True), None)


def test_check_node_dummy_propagation():
    assert check_node("+", Val(EMPTY), Val(EMPTY), Val(1))
    assert not check_node("+", Val(1), Val(EMPTY), Val(1))
    assert check_node("and", Val(EMPTY), Val(False), Val(EMPTY))


def test_check_node_widened_leaf():
    assert check_node("1", Val(1), Val(EMPTY), Val(EMPTY), inputs=[X3])
    assert not check_node("1", Val(1), Val(0), Val(EMPTY), inputs=[X3])
    assert check_node("x", Val(3), Val(EMPTY), Val(EMPTY), inputs=[X3])
    with pytest.raises(ValueTreeError, match="input states"):
        check_node("1", Val(1), Val(EMPTY), Val(EMPTY))


def test_check_node_padding():
    assert check_node("nop", Val(EMPTY), Val(EMPTY), Val(EMPTY))
    assert not check_node("nop", Val(0), Val(EMPTY), Val(EMPTY))
    # a non-dummy entry under padding is the child's own failure, not
    # the parent's: the parent only enforces activation alignment
    assert check_node("nop", Val(EMPTY), Val(EMPTY), Val(1))
    assert not check_node("nop", Val(EMPTY), Val(EMPTY), ValSeq([EMPTY, EMPTY]))
    assert not check_leaf("null", Val(1), X3)


def test_padding_mutation_is_caught_at_the_child():
    v = built(SUM_PADDED, X3)
    bad = v.with_payload(11, Val(0))  # null under the left nop
    ok, node = validate_report(SUM_PADDED, X3, bad)
    assert not ok and node == 11


def test_check_node_assignment():
    a, b = State(X, (0,)), State(X, (4,))
    assert check_node(":=", StatePair(a, b), Val(0), Val(4), target="x")
    assert not check_node(":=", StatePair(a, b), Val(0), Val(3), target="x")
    assert not check_node(":=", StatePair(a, b), Val(1), Val(4), target="x")
    # Booleans are not storable values
    assert not check_node(":=", StatePair(a, b), Val(0), Val(True), target="x")
    with pytest.raises(ValueTreeError, match="target"):
        check_node(":=", StatePair(a, b), Val(0), Val(4))


def test_check_node_seq_chains_states():
    a, b, c = (State(X, (i,)) for i in range(3))
    good = check_node("seq", StatePair(a, c), StatePair(a, b), StatePair(b, c))
    assert good
    assert not check_node("seq", StatePair(a, c), StatePair(a, b), StatePair(a, c))


def test_check_node_branch_guard_must_be_boolean():
    # a built guard is always Boolean (its own check sees to that); the
    # branch check refuses any other guard entry on its own as well
    assert check_node("if", StatePair(X3, X3), Val(False), StatePair(EMPTY, EMPTY))
    assert not check_node("if", StatePair(X3, X3), Val(0), StatePair(EMPTY, EMPTY))


def test_check_node_untaken_branch_records_dummies():
    a = State(X, (0,))
    assert not check_node("if", StatePair(a, a), Val(False), StatePair(a, a))
    assert check_node("if", StatePair(a, a), Val(False), StatePair(EMPTY, EMPTY))


def test_check_node_while_alignment():
    a, b, c = (State(X, (i,)) for i in range(3))
    trace = NestedSeq([(a, b, c)])
    guard = ValSeq([True, True, False])
    body = NestedSeq([(a, b), (b, c)])
    assert check_node("while", trace, guard, body)
    # one surplus guard entry breaks the exact partition
    assert not check_node("while", trace, ValSeq([True, True, False, False]), body)
    assert not check_node("while", trace, ValSeq([True, False]), body)
    # body runs must chain through consecutive trace states
    assert not check_node("while", trace, guard, NestedSeq([(a, b), (a, c)]))
    # zero iterations: one false guard entry and no body run
    none = StatePayload(())
    assert check_node("while", NestedSeq([(a,)]), Val(False), none)
    assert not check_node("while", NestedSeq([(a,)]), Val(True), none)
    # a skipped loop checks its guard once, on the dummy state
    assert check_node("while", NestedSeq([(EMPTY,)]), Val(EMPTY), none)
    assert not check_node("while", NestedSeq([(EMPTY,)]), Val(False), none)


def test_payload_shape_violations():
    with pytest.raises(ValueTreeError):
        StatePayload(((),))
    with pytest.raises(ValueTreeError, match="values"):
        check_node("+", StatePair(X3, X3), Val(1), Val(1))
    with pytest.raises(ValueTreeError, match="state runs"):
        check_node("seq", Val(1), Val(1), Val(1))


# ---------------------------------------------------------------------------
# Whole-tree validation


def test_validate_report_mutation_frozen():
    v = built(SUM_PADDED, X3)
    bad = v.with_payload(1, Val(5))
    assert validate_report(SUM_PADDED, X3, bad) == (False, 1)


def test_validate_report_prefers_deepest_leftmost():
    v = built(SUM_PADDED, X3)
    bad = v.with_payload(1, Val(5)).with_payload(4, Val(7))
    assert validate_report(SUM_PADDED, X3, bad) == (False, 4)


def test_validate_checks_the_given_input():
    v = built(SUM, X3)
    assert validate(SUM, X3, v)
    assert not validate(SUM, State(X, (4,)), v)


def test_validate_rejects_shape_mismatch():
    v = built(SUM, X3)
    with pytest.raises(ValueTreeError):
        validate(SUM_PADDED, X3, v)
    with pytest.raises(ValueTreeError):
        validate(COUNT_UP, State(X, (0,)), v)


def test_validate_root_must_be_single_activation():
    v = built(SUM, X3)
    doubled = v.with_payload(0, ValSeq([5, 5]))
    ok, node = validate_report(SUM, X3, doubled)
    assert not ok and node == 0


def test_validate_rejects_every_single_node_mutation():
    v = built(COUNT_UP, State(X, (0,)), fuel=28)
    mutants = {
        0: NestedSeq([(State(X, (0,)), State(X, (1,)))]),
        1: ValSeq([True, False]),
        2: NestedSeq([(State(X, (0,)), State(X, (1,)))]),
        5: ValSeq([0, 2]),
        6: ValSeq([1, 1]),
    }
    for index, payload in mutants.items():
        assert not validate(COUNT_UP, State(X, (0,)), v.with_payload(index, payload))


# ---------------------------------------------------------------------------
# Certificate cells


def test_payload_cell_frozen():
    assert payload_cell(Val(EMPTY)) == 0
    assert payload_cell(Val(6)) == 93
    assert payload_cell(Val(False)) == 3
    assert payload_cell(Val(True)) == 5
    assert payload_cell(StatePayload(())) == 1


def test_payload_cell_kinds_do_not_collide():
    assert payload_cell(StatePair(State(X, (0,)), State(X, (1,)))) % 2 == 0
    assert payload_cell(NestedSeq([(State(X, (0,)),)])) % 2 == 1


@pytest.mark.parametrize("payload,sort", [
    (Val(EMPTY), Sort.EXPR),
    (Val(-5), Sort.EXPR),
    (ValSeq([0, 1, -2, EMPTY]), Sort.EXPR),
    (Val(True), Sort.BOOL),
    (ValSeq([True, False, EMPTY]), Sort.BOOL),
    (Val(EMPTY), Sort.NULL),
    (ValSeq([EMPTY, EMPTY]), Sort.NULL),
    (StatePayload(()), Sort.STMT),
    (StatePair(State(X, (0,)), State(X, (4,))), Sort.STMT),
    (StatePair(EMPTY, EMPTY), Sort.STMT),
    (NestedSeq([(State(X, (0,)), State(X, (1,)), State(X, (2,)))]), Sort.STMT),
    (NestedSeq([(State(X, (0,)),), (EMPTY,)]), Sort.STMT),
], ids=repr)
def test_payload_cell_round_trip(payload, sort):
    assert decode_payload_cell(payload_cell(payload), sort, X) == payload


def test_decode_payload_cell_rejections():
    with pytest.raises(CodecError):
        decode_payload_cell(-1, Sort.EXPR, X)
    with pytest.raises(CodecError, match="canonical"):
        decode_payload_cell(2, Sort.EXPR, X)  # list [0] spells the dummy
    with pytest.raises(CodecError):
        decode_payload_cell(payload_cell(Val(5)), Sort.BOOL, X)
    with pytest.raises(CodecError):
        decode_payload_cell(payload_cell(Val(0)), Sort.NULL, X)
    with pytest.raises(CodecError, match="start at 1"):
        decode_payload_cell(0, Sort.STMT, X)
    # a multi-run cell whose lengths do not partition the states
    from impsynth.codec import pair, seq_to_nat
    bad = 3 + 2 * pair(seq_to_nat([1, 3, 5]), seq_to_nat([2]))
    with pytest.raises(CodecError, match="partition"):
        decode_payload_cell(bad, Sort.STMT, X)
    # the single-transition form must use the dedicated even encoding
    canonical_pair_as_nested = 3 + 2 * pair(seq_to_nat([1, 3]), seq_to_nat([2]))
    with pytest.raises(CodecError, match="canonical"):
        decode_payload_cell(canonical_pair_as_nested, Sort.STMT, X)


# ---------------------------------------------------------------------------
# Whole-certificate codec


def test_certificate_round_trip_frozen():
    v = built(SUM_PADDED, X3)
    e = encode_value_tree(v)
    assert e.height == 3
    assert decode_value_tree(e, SUM_PADDED, X3, X) == v


def test_certificate_round_trip_statement():
    t = parse_term("x := 1", X)
    sigma = State(X, (0,))
    v = built(t, sigma)
    assert decode_value_tree(encode_value_tree(v), t, sigma, X) == v


def test_certificate_height_mismatch():
    v = built(SUM_PADDED, X3)
    with pytest.raises(CodecError, match="height"):
        decode_value_tree(encode_value_tree(v), SUM, X3, X)


def test_loop_certificates_exceed_the_codec():
    v = built(COUNT_UP, State(X, (0,)), fuel=28)
    with pytest.raises(CodecError):
        encode_value_tree(v)


def test_tall_trees_are_refused_before_their_cells_exist():
    # height 51: 2**52 - 1 heap cells, refused by the length rule
    v = built(parse_term("x := 50", X), State(X, (0,)))
    with pytest.raises(CodecError, match="astronomically"):
        encode_value_tree(v)


# ---------------------------------------------------------------------------
# Properties

_small_exprs = st.recursive(
    st.sampled_from([Term("1"), Term("x")]),
    lambda kids: st.tuples(st.sampled_from(["+", "-"]), kids, kids).map(
        lambda p: Term(p[0], (p[1], p[2]))),
    max_leaves=8,
)


@given(_small_exprs)
def test_built_trees_validate(t):
    v = built(t, X3)
    assert validate(t, X3, v)
    assert v.root_output() == eval_term(t, X3, 1000).value


@given(_small_exprs)
def test_built_padded_trees_round_trip(t):
    padded = embed(t)
    v = built(padded, X3)
    assert validate(padded, X3, v)
    assert decode_value_tree(encode_value_tree(v), padded, X3, X) == v
