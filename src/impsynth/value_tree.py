"""Per-node evaluation evidence trees and their local validation.

A value tree mirrors the shape of a syntax tree and stores, at every
node, the evidence of what that node did during evaluation: one entry
per activation.  Expression, Boolean, variable, and padding nodes carry
plain values (the dummy value for activations that never really ran).
Statement nodes carry state runs: a non-loop statement's run is the
pair (input state, output state); a loop's run is its whole iteration
trace.  Because a node under a loop is activated once per iteration,
payloads are sequences of such entries, outer order chronological.

The point of the representation is locality: a node's evidence can be
checked against its operator and its direct children's evidence alone,
plus the input state at the leaves.  `validate` runs exactly these
local checks and accepts if and only if the tree is the one
`build_value_tree` produces, so the tree doubles as a checkable
certificate that running the program on the recorded input yields the
recorded output.  The builder evaluates the program once, then walks it
top-down.  It evaluates each value node on the input state of each of its
activations and traces each loop from each of its own; every other run
follows from the children's evidence.

Alignment conventions.  `_flow` states them once, as the order in which
a statement hands its activations' states to its children; the builder
and `check_node` both drive it:

* A statement's run always has length 2 except at loops, where the run
  is the trace t0..tk (k iterations, possibly k = 0).
* The operands of a value node or an assignment, and the guard of an
  `if`, are activated once per activation of their parent, on its
  input.  The second statement of a sequence starts where the first
  ends.
* Children of a loop: for each loop activation with trace length k+1,
  the guard contributes k+1 consecutive entries (true at t0..t(k-1),
  false at tk) and the body contributes k consecutive runs, the i-th
  going from t(i-1) to t(i).  A zero-iteration activation therefore
  contributes nothing to the body, which may end up with an empty
  payload.
* A skipped subtree (padding slot, or the body of an `if` whose guard
  came out false) records dummy evidence: value nodes one dummy entry,
  non-loop statements the run (dummy, dummy), loops the run (dummy,),
  whose guard records one dummy entry and whose body none.
* The target variable of an assignment records its value in the input
  state of each activation, i.e. the value it held before the write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .codec import (
    CodecError,
    EncodedTree,
    decode_seq,
    encode_heap,
    encode_state,
    decode_state,
    int_to_nat,
    nat_to_int,
    list_to_nat,
    nat_to_list,
    nat_to_seq,
    pair,
    seq_to_nat,
    unpair,
)
from .semantics import (
    LITERALS,
    Budget,
    Fault,
    FuelExhausted,
    _run,
    apply_op,
    eval_term,
    loop_trace,
)
from .terms import (
    EMPTY,
    EmptyState,
    Sort,
    State,
    Term,
    VarUniverse,
    op_info,
    term_height,
)

ValueEntry = Union[int, bool, EmptyState]
StateEntry = Union[State, EmptyState]


class ValueTreeError(ValueError):
    pass


@dataclass(frozen=True)
class ValuePayload:
    """Evidence at a value-sorted node: one value per activation."""

    entries: tuple[ValueEntry, ...]

    @property
    def kind(self) -> str:
        return "Val" if len(self.entries) == 1 else "ValSeq"


@dataclass(frozen=True)
class StatePayload:
    """Evidence at a statement node: one state run per activation."""

    runs: tuple[tuple[StateEntry, ...], ...]

    def __post_init__(self) -> None:
        if any(len(r) == 0 for r in self.runs):
            raise ValueTreeError("state runs must be non-empty")

    @property
    def kind(self) -> str:
        if len(self.runs) == 1 and len(self.runs[0]) == 2:
            return "StatePair"
        return "NestedSeq"


NodePayload = Union[ValuePayload, StatePayload]


def Val(v: ValueEntry) -> ValuePayload:
    return ValuePayload((v,))


def ValSeq(vs: Iterable[ValueEntry]) -> ValuePayload:
    return ValuePayload(tuple(vs))


def StatePair(a: StateEntry, b: StateEntry) -> StatePayload:
    return StatePayload(((a, b),))


def NestedSeq(runs: Iterable[Iterable[StateEntry]]) -> StatePayload:
    return StatePayload(tuple(tuple(r) for r in runs))


@dataclass(frozen=True)
class VNode:
    payload: NodePayload
    children: tuple["VNode", ...] = ()


@dataclass(frozen=True)
class ValueTree:
    """Evidence for one evaluation: the input state plus per-node payloads."""

    input: State
    root: VNode

    def node_at(self, index: int) -> VNode:
        """Node by heap index (children of i at 2i+1, 2i+2)."""
        path = []
        while index:
            path.append((index - 1) % 2)
            index = (index - 1) // 2
        node = self.root
        for step in reversed(path):
            node = node.children[step]
        return node

    def with_payload(self, index: int, payload: NodePayload) -> "ValueTree":
        """Copy of the tree with one node's payload replaced."""
        return ValueTree(self.input, _vnodes(
            self.root, lambda node, i: payload if i == index else node.payload))

    def root_output(self) -> Union[ValueEntry, StateEntry]:
        p = self.root.payload
        if isinstance(p, ValuePayload):
            return p.entries[0]
        return p.runs[0][-1]


def _vnodes(shape, payload, i: int = 0) -> VNode:
    """A VNode tree shaped like ``shape`` (a Term or a VNode), holding
    ``payload(node, i)`` for the shape node at heap index i (children of i
    at 2i+1, 2i+2).  Payloads are asked for in preorder."""
    own = payload(shape, i)
    return VNode(own, tuple(_vnodes(c, payload, 2 * i + j + 1)
                            for j, c in enumerate(shape.children)))


# --------------------------------------------------------------------------
# Building: value nodes and loop traces evaluated, statement runs by the flow


def build_value_tree(
    f: Term, sigma: Union[State, EmptyState], fuel: int
) -> Union[ValueTree, Fault, FuelExhausted]:
    """The unique validating evidence tree of f run on sigma.

    f is evaluated once first, so this returns FuelExhausted or a Fault
    exactly when `eval_term` does.  Otherwise every activation of every
    node ran within the fuel, so each value node can be evaluated again
    on each of its own inputs and each loop traced.  On the dummy input
    state every node holds the dummy evidence.
    """
    outcome = eval_term(f, sigma, fuel)
    if isinstance(outcome, (Fault, FuelExhausted)):
        return outcome
    root, _ = _evidence(f, [sigma], fuel)
    return ValueTree(sigma, root)


def _evidence(t: Term, inputs: list, fuel: int) -> tuple[VNode, list]:
    """The evidence subtree of t and t's output on each activation, given
    the input state of each activation of t in chronological order (EMPTY
    for a skipped activation)."""
    kids = t.children
    if t.sort is not Sort.STMT:
        # every child sees the node's inputs; padding children hold the
        # dummy value whatever they see
        outs = [EMPTY if s is EMPTY else _run(t, s, Budget(fuel)) for s in inputs]
        nodes = tuple(_evidence(c, inputs, fuel)[0] for c in kids)
        return VNode(ValuePayload(tuple(outs)), nodes), outs
    runs = [(EMPTY,) if s is EMPTY else loop_trace(kids[0], kids[1], s, fuel)
            for s in inputs] if t.op == "while" else None
    # the flow is driven here rather than through a callback, so a chain
    # of sequences costs one frame per level
    flow = _flow(t.op, kids[0].op, inputs, runs)
    nodes, outs = [], None
    while True:
        try:
            j, child_inputs = flow.send(outs)
        except StopIteration as stop:
            runs = stop.value
            break
        node, outs = _evidence(kids[j], child_inputs, fuel)
        nodes.append(node)
    return VNode(StatePayload(runs), tuple(nodes)), [r[-1] for r in runs]


def _flow(op: str, target: str, inputs: list, runs: Sequence | None):
    """How a statement's activations fix its children's and its own runs.

    Yields (j, input states of child j's activations) for each child in
    order and is sent child j's outputs on them: values, or the last
    state of each run.  Returns the statement's runs, or None if those
    outputs cannot come from this statement.  A loop's runs are given
    (its traces); every other statement's run is (input, output), and
    `target` names the variable an assignment writes.
    """
    if op == "while":
        # the guard is checked at every state of a trace, the body run
        # from every state but the last; a skipped loop checks its guard
        # once and never runs its body
        if any(len(r) > 1 if r[0] is EMPTY else EMPTY in r for r in runs):
            return None
        guards = yield 0, [s for r in runs for s in r]
        ends = yield 1, [s for r in runs for s in r[:-1]]
        want = [g for r in runs for g in
                ((EMPTY,) if r[0] is EMPTY else (True,) * (len(r) - 1) + (False,))]
        ok = all(g is w for g, w in zip(guards, want))
        return tuple(runs) if ok and ends == [s for r in runs for s in r[1:]] else None
    first = yield 0, inputs
    if op == "seq":
        # the second statement starts where the first ends
        outs = yield 1, first
    elif op == "if":
        if any(g is not EMPTY and not isinstance(g, bool) for g in first):
            return None
        # the body of an untaken branch is skipped
        ends = yield 1, [s if g is True else EMPTY for s, g in zip(inputs, first)]
        outs = [e if g is True else s for s, g, e in zip(inputs, first, ends)]
    else:  # ":="
        # the target records the value it held before the write; only
        # integers are stored
        values = yield 1, inputs
        if any(s is not EMPTY and (isinstance(v, bool)
                                   or not _value_equal(read, s.get(target)))
               for s, read, v in zip(inputs, first, values)):
            return None
        outs = [s if s is EMPTY else s.set(target, v) for s, v in zip(inputs, values)]
    return tuple(zip(inputs, outs))


# --------------------------------------------------------------------------
# Local checks


def _value_equal(a, b) -> bool:
    if a is EMPTY or b is EMPTY:
        return a is b
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def _expect_value(p: NodePayload, what: str) -> ValuePayload:
    if not isinstance(p, ValuePayload):
        raise ValueTreeError(f"{what} payload must hold values, got {p.kind}")
    return p


def _expect_state(p: NodePayload, what: str) -> StatePayload:
    if not isinstance(p, StatePayload):
        raise ValueTreeError(f"{what} payload must hold state runs, got {p.kind}")
    return p


def check_leaf(
    op: str,
    payload: NodePayload,
    inputs: Union[State, EmptyState, Sequence[Union[State, EmptyState]]],
) -> bool:
    """Entry-by-entry check of a nullary node against its input states."""
    p = _expect_value(payload, f"leaf {op!r}")
    if isinstance(inputs, (State, EmptyState)):
        inputs = [inputs]
    if len(p.entries) != len(inputs):
        return False
    for entry, sigma in zip(p.entries, inputs):
        if op == "null" or sigma is EMPTY:
            if entry is not EMPTY:
                return False
        elif op in LITERALS:
            if not _value_equal(entry, LITERALS[op]):
                return False
        else:  # variable
            if not _value_equal(entry, sigma.get(op)):
                return False
    return True


def check_node(
    op: str,
    parent: NodePayload,
    left: NodePayload | None,
    right: NodePayload | None,
    *,
    inputs: Sequence[Union[State, EmptyState]] | None = None,
    target: str | None = None,
) -> bool:
    """Local consistency of a parent payload with its children's payloads.

    `inputs` is needed for widened nullary operators (their own value is
    read off the input, not off the padding children); `target` names
    the variable written by an assignment.
    """
    arity = op_info(op).arity

    if op in ("nop", "null") or op_info(op).sort in (Sort.EXPR, Sort.VAR, Sort.BOOL):
        p = _expect_value(parent, f"node {op!r}")
        n = len(p.entries)
        pads: list[ValuePayload] = []
        reals: list[ValuePayload] = []
        for i, child in enumerate((left, right)):
            if child is None:
                continue
            c = _expect_value(child, f"child of {op!r}")
            (reals if i < arity else pads).append(c)
        # padding slots: one dummy entry per parent activation
        for c in pads:
            if len(c.entries) != n or any(e is not EMPTY for e in c.entries):
                return False
        if any(len(c.entries) != n for c in reals):
            return False
        if op == "nop" or op == "null":
            return all(e is EMPTY for e in p.entries)
        if arity == 0:
            # widened literal or variable: value comes from the input state
            if inputs is None:
                raise ValueTreeError(f"check of widened {op!r} needs input states")
            return check_leaf(op, parent, list(inputs))
        for pe, *args in zip(p.entries, *(c.entries for c in reals)):
            if any(a is EMPTY for a in args):
                want = EMPTY
            else:
                want = apply_op(op, *args)
                if want is None:  # fault: no value certifies this activation
                    return False
            if not _value_equal(pe, want):
                return False
        return True

    # statements: the flow is sent each child's recorded outputs once its
    # recorded inputs match, and must give back the recorded runs
    p = _expect_state(parent, f"node {op!r}")
    if op == ":=" and target is None:
        raise ValueTreeError("assignment check needs the target variable")
    kids = [_expect_state(c, f"child {j} of {op!r}") if sort is Sort.STMT
            else _expect_value(c, f"child {j} of {op!r}")
            for j, (c, sort) in enumerate(zip((left, right), op_info(op).operands))]
    flow = _flow(op, target, [r[0] for r in p.runs], p.runs)
    outs = None
    while True:
        try:
            j, want = flow.send(outs)
        except StopIteration as stop:
            return stop.value == p.runs
        outs = _recorded(kids[j], want)
        if outs is None:
            return False


def _recorded(child: NodePayload, inputs: list) -> list | None:
    """A child's recorded outputs, if it records one activation per input
    state, each a run from that state when it holds runs, and dummy
    evidence exactly on the dummy inputs; otherwise None."""
    if isinstance(child, StatePayload):
        if any(r[0] != s or s is EMPTY and r != (EMPTY,) * len(r)
               for r, s in zip(child.runs, inputs)):
            return None
        outs = [r[-1] for r in child.runs]
    else:
        outs = list(child.entries)
        if any((s is EMPTY) != (e is EMPTY) for e, s in zip(outs, inputs)):
            return None
    return outs if len(outs) == len(inputs) else None


# --------------------------------------------------------------------------
# Whole-tree validation


def _check_shape(f: Term, v: VNode) -> None:
    if len(f.children) != len(v.children):
        raise ValueTreeError("evidence tree does not match the term's shape")
    want_state = f.sort is Sort.STMT
    if want_state != isinstance(v.payload, StatePayload):
        raise ValueTreeError(
            f"payload kind mismatch at {f.op!r}: "
            f"{'state runs' if want_state else 'values'} expected"
        )
    for fc, vc in zip(f.children, v.children):
        _check_shape(fc, vc)


def validate_report(f: Term, sigma: State, v: ValueTree) -> tuple[bool, int | None]:
    """Run all local checks; on failure also report the first bad node.

    Failure order is post-order (children before parents, left before
    right), so the report names the deepest, leftmost inconsistency.
    Once the shape matches, no local check raises, so the walk stops at
    the first failure.
    """
    _check_shape(f, v.root)

    def first_bad(node: Term, vn: VNode, path: int, inputs) -> int | None:
        """Heap index of the first failing node of this subtree, or None;
        `inputs` lists the per-activation input states of value nodes and is
        None for statements, whose runs carry their own states."""
        payload = vn.payload
        starts = inputs  # the input states of the children's activations
        if node.sort is Sort.STMT:
            runs = payload.runs  # type: ignore[union-attr]
            ok = path != 0 or len(runs) == 1 and runs[0][0] == sigma
            if node.op == "while":
                # the guard is checked at every state of every trace
                starts = [s for run in runs for s in run]
            else:
                starts = [r[0] for r in runs]
        else:
            ok = path != 0 or len(payload.entries) == 1  # type: ignore[union-attr]
        for j, (fc, vc) in enumerate(zip(node.children, vn.children)):
            bad = first_bad(fc, vc, 2 * path + j + 1,
                            None if fc.sort is Sort.STMT else starts)
            if bad is not None:
                return bad
        kids = vn.children
        if not kids:
            ok = ok and check_leaf(node.op, payload, inputs)
        else:
            ok = ok and check_node(
                node.op, payload, kids[0].payload,
                kids[1].payload if len(kids) > 1 else None,
                inputs=inputs,
                target=node.children[0].op if node.op == ":=" else None,
            )
        return None if ok else path

    bad = first_bad(f, v.root, 0, None if f.sort is Sort.STMT else [sigma])
    return bad is None, bad


def validate(f: Term, sigma: State, v: ValueTree) -> bool:
    ok, _ = validate_report(f, sigma, v)
    return ok


# --------------------------------------------------------------------------
# Certificate codec: one natural number cell per node, heap order.
#
# Value cells use the pure-pairing list codec so ordinary evaluation
# evidence stays small.  Statement cells pack each activation's state
# run; the multi-run form compresses the flattened states and the run
# lengths as two beta-coded sequences paired together.  Cell 0 is
# reserved for the lone dummy value.

def _value_code(entry: ValueEntry) -> int:
    if entry is EMPTY:
        return 0
    if isinstance(entry, bool):
        return 1 + int(entry)
    return 1 + int_to_nat(entry)


def _decode_entry(code: int, sort: Sort) -> ValueEntry:
    if code == 0:
        return EMPTY
    if sort is Sort.NULL:
        raise CodecError("padding cells may only hold the dummy code")
    if sort is Sort.BOOL:
        if code in (1, 2):
            return code == 2
        raise CodecError(f"Boolean cell code {code} out of range")
    return nat_to_int(code - 1)


def payload_cell(p: NodePayload) -> int:
    """Serialize one payload to a natural number."""
    if isinstance(p, ValuePayload):
        if p.entries == (EMPTY,):
            return 0
        return 1 + list_to_nat([_value_code(e) for e in p.entries])
    if not p.runs:
        return 1
    if len(p.runs) == 1 and len(p.runs[0]) == 2:
        src, dst = p.runs[0]
        return 2 + 2 * pair(encode_state(src), encode_state(dst))
    flat = [encode_state(s) for run in p.runs for s in run]
    lens = [len(run) for run in p.runs]
    return 3 + 2 * pair(seq_to_nat(flat), seq_to_nat(lens))


def decode_payload_cell(
    cell: int, sort: Sort, universe: VarUniverse
) -> NodePayload:
    """Invert payload_cell for a node of the given sort."""
    if cell < 0:
        raise CodecError("payload cells are naturals")
    if sort is not Sort.STMT:
        if cell == 0:
            return ValuePayload((EMPTY,))
        codes = nat_to_list(cell - 1)
        if codes == [0]:
            raise CodecError("non-canonical dummy cell")
        return ValuePayload(tuple(_decode_entry(c, sort) for c in codes))
    if cell == 0:
        raise CodecError("statement cells start at 1")
    if cell == 1:
        return StatePayload(())
    m = cell - 2
    if m % 2 == 0:
        src_code, dst_code = unpair(m // 2)
        run = (decode_state(src_code, universe), decode_state(dst_code, universe))
        return StatePayload((run,))
    flat_nat, lens_nat = unpair(m // 2)
    if flat_nat == 0 or lens_nat == 0:
        raise CodecError("empty component in a multi-run cell")
    flat = nat_to_seq(flat_nat)
    lens = nat_to_seq(lens_nat)
    if any(l < 1 for l in lens) or sum(lens) != len(flat):
        raise CodecError("run lengths do not partition the state sequence")
    if len(lens) == 1 and lens[0] == 2:
        raise CodecError("non-canonical single-transition cell")
    runs, pos = [], 0
    for l in lens:
        runs.append(tuple(decode_state(c, universe) for c in flat[pos : pos + l]))
        pos += l
    return StatePayload(tuple(runs))


def encode_value_tree(v: ValueTree) -> EncodedTree:
    """Heap-order payload cells compressed into one integer triple.

    Slots without a node (the tree need not be perfectly shaped) hold
    0; the decoder never reads them because it walks the term's shape.
    Evidence for loops over non-trivial states produces cells too large
    for the factorial compression of the final sequence — the codec is
    exact, not compact — and then this raises a CodecError; so does a
    tree too tall to lay out, before its cells are allocated.
    """
    return encode_heap(v.root, lambda node: payload_cell(node.payload))


def decode_value_tree(
    e: EncodedTree, f: Term, sigma: State, universe: VarUniverse
) -> ValueTree:
    """Rebuild the evidence tree for f from its encoded cells."""
    if term_height(f) != e.height:
        raise CodecError(
            f"certificate encodes height {e.height}, term has {term_height(f)}"
        )
    cells = decode_seq(e.seq)
    return ValueTree(sigma, _vnodes(
        f, lambda node, i: decode_payload_cell(cells[i], node.sort, universe)))
