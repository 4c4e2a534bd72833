"""Number-theoretic codecs: sequences, pairs, states, and syntax trees.

The sequence codec follows the classic beta-function construction:
beta(a, b, i) = a mod (1 + b*(i+1)).  Encoding picks s = max(length,
largest value) + 1 and b = s!, which makes the moduli 1 + b*(i+1)
pairwise coprime and large enough, then solves for the least a by the
Chinese remainder theorem.  The numbers grow factorially; that is the
point of the construction, not a defect to optimize away.

Trees are flattened in heap order (children of slot i at 2i+1 and
2i+2), each node contributing one natural number cell, and the cell
sequence is compressed into a single (a, b, length) triple.  A fixed
operator numbering keeps term encodings stable; it is published in the
README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grammar import is_perfect
from .terms import EMPTY, EmptyState, State, Term, TermError, VarUniverse


class CodecError(ValueError):
    pass


# --------------------------------------------------------------------------
# Sequences of naturals


@dataclass(frozen=True)
class BetaPair:
    """Compressed sequence: beta(a, b, i) recovers entry i.

    The length is stored alongside because the formulas cannot recover
    it from (a, b) alone.
    """

    a: int
    b: int
    length: int


def beta(a: int, b: int, i: int) -> int:
    return a % (1 + b * (i + 1))


# Beyond this, b = s! stops being computable in reasonable time/space.
# The construction is exact, not compact; callers hitting the guard are
# asking for a number with many millions of digits.
_FACTORIAL_CAP = 1_000_000


def factorial_base_size(length: int, largest: int = 0) -> int:
    """The s with b = s! for ``length`` entries up to ``largest``.

    Raises CodecError past the cap, so a caller that is about to lay out
    ``length`` cells can ask first and allocate nothing it cannot encode.
    """
    s = max(length, largest) + 1
    if s > _FACTORIAL_CAP:
        raise CodecError(
            f"{length} sequence entries, the largest at least {largest}, "
            f"need a factorial base of {s}!, which is astronomically large; "
            "this codec is exact but only practical for short sequences of "
            "small entries"
        )
    return s


def encode_seq(cs: list[int] | tuple[int, ...]) -> BetaPair:
    """Canonical factorial/CRT compression of a non-empty sequence."""
    if not cs:
        raise CodecError("cannot encode an empty sequence")
    if any(c < 0 for c in cs):
        raise CodecError("sequence entries must be naturals")
    b = math.factorial(factorial_base_size(len(cs), max(cs)))
    a, modulus = 0, 1
    for i, c in enumerate(cs):
        m = 1 + b * (i + 1)
        # incremental CRT: adjust a by a multiple of the moduli seen so far
        t = ((c - a) * pow(modulus, -1, m)) % m
        a += modulus * t
        modulus *= m
    return BetaPair(a, b, len(cs))


def decode_seq(p: BetaPair) -> list[int]:
    if p.length < 1:
        raise CodecError("sequence length must be at least 1")
    if p.length >= _FACTORIAL_CAP:  # encode_seq refuses these lengths
        raise CodecError(
            f"sequence length {p.length} has no encoding: encoded sequences "
            f"have fewer than {_FACTORIAL_CAP} entries")
    return [beta(p.a, p.b, i) for i in range(p.length)]


# --------------------------------------------------------------------------
# Pairing and signed integers


def pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def int_to_nat(k: int) -> int:
    return 2 * k if k >= 0 else -2 * k - 1


def nat_to_int(n: int) -> int:
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def seq_to_nat(cs: list[int] | tuple[int, ...]) -> int:
    """Whole sequence (possibly empty) in one natural number."""
    if not cs:
        return 0
    p = encode_seq(list(cs))
    return 1 + pair(pair(p.a, p.b), p.length - 1)


def nat_to_seq(n: int) -> list[int]:
    if n == 0:
        return []
    ab, len_minus_1 = unpair(n - 1)
    a, b = unpair(ab)
    return decode_seq(BetaPair(a, b, len_minus_1 + 1))


def list_to_nat(cs: list[int] | tuple[int, ...]) -> int:
    """Pure-pairing list codec: nil = 0, cons(h, t) = 1 + pair(h, t).

    Unlike the beta construction this stays small for short lists of
    small entries, at the cost of growing much faster with length.
    """
    n = 0
    for c in reversed(cs):
        if c < 0:
            raise CodecError("list entries must be naturals")
        n = 1 + pair(c, n)
    return n


def nat_to_list(n: int) -> list[int]:
    out = []
    while n:
        head, n = unpair(n - 1)
        out.append(head)
    return out


# --------------------------------------------------------------------------
# States


def encode_state(sigma: State | EmptyState) -> int:
    """0 for the dummy state, else 1 + right-nested pairing of the values."""
    if sigma is EMPTY:
        return 0
    folded = int_to_nat(sigma.values[-1])
    for v in reversed(sigma.values[:-1]):
        folded = pair(int_to_nat(v), folded)
    return 1 + folded


def decode_state(n: int, universe: VarUniverse) -> State | EmptyState:
    if n < 0:
        raise CodecError("state codes are naturals")
    if n == 0:
        return EMPTY
    rest = n - 1
    nats = []
    for _ in range(len(universe) - 1):
        head, rest = unpair(rest)
        nats.append(head)
    nats.append(rest)
    return State(universe, tuple(nat_to_int(v) for v in nats))


# --------------------------------------------------------------------------
# Terms

OP_CODES = {
    "null": 0,
    "nop": 1,
    "0": 2,
    "1": 3,
    "true": 4,
    "false": 5,
    "+": 6,
    "-": 7,
    "*": 8,
    "/": 9,
    "<": 10,
    "=": 11,
    "and": 12,
    "not": 13,
    ":=": 14,
    "seq": 15,
    "if": 16,
    "while": 17,
}
VAR_CODE_BASE = 18

_CODE_OPS = {v: k for k, v in OP_CODES.items()}


def op_code(op: str, universe: VarUniverse) -> int:
    code = OP_CODES.get(op)
    if code is not None:
        return code
    return VAR_CODE_BASE + universe.index(op)


def code_op(code: int, universe: VarUniverse) -> str:
    if code in _CODE_OPS:
        return _CODE_OPS[code]
    i = code - VAR_CODE_BASE
    if 0 <= i < len(universe):
        return universe.names[i]
    raise CodecError(f"operator code {code} is out of range")


@dataclass(frozen=True)
class EncodedTree:
    """Heap-order node cells compressed to one BetaPair, plus tree height."""

    seq: BetaPair
    height: int

    def __post_init__(self) -> None:
        if self.seq.length != 2 ** (self.height + 1) - 1:
            raise CodecError("encoded length must be 2^(height+1) - 1")


def heap_height(length: int) -> int:
    """The height h of a complete binary tree of ``length`` = 2^(h+1) - 1
    cells; CodecError for any other length."""
    height = (length + 1).bit_length() - 2
    if height < 0 or 2 ** (height + 1) - 1 != length:
        raise CodecError(
            f"length {length} is not a complete-tree size (2^(h+1) - 1)")
    return height


def heap_slots(root) -> list:
    """Every node of a tree with its heap slot, in preorder.  The
    children of slot i sit at 2i+1 and 2i+2, so a tree of height h takes
    2^(h+1) - 1 slots; slots without a node hold 0."""
    order = []
    stack = [(root, 0)]
    while stack:
        node, i = stack.pop()
        order.append((node, i))
        kids = node.children
        for j in range(len(kids) - 1, -1, -1):
            stack.append((kids[j], 2 * i + j + 1))
    return order


def encode_heap(root, cell) -> EncodedTree:
    """The cells ``cell(node)`` of a tree, laid out by `heap_slots`, as
    one triple.  A tree too tall to lay out is refused before any cell
    is computed or allocated.  Cells are computed in preorder."""
    order = heap_slots(root)
    # heap slots grow with depth, so the deepest node has the largest one
    height = (max(i for _, i in order) + 1).bit_length() - 1
    length = 2 ** (height + 1) - 1
    factorial_base_size(length)
    cells = [0] * length
    for node, i in order:
        cells[i] = cell(node)
    return EncodedTree(encode_seq(cells), height)


def encode_term(t: Term, universe: VarUniverse) -> EncodedTree:
    """Operator codes in heap order; the tree must be shaped perfectly.

    Perfectly shaped means every node has two children except the
    leaves, which all sit at the same depth; pad with `embed` first
    when necessary.
    """
    if not is_perfect(t):
        raise CodecError("term is not a perfect binary tree; embed it first")
    return encode_heap(t, lambda node: op_code(node.op, universe))


def decode_term(e: EncodedTree, universe: VarUniverse) -> Term:
    cells = decode_seq(e.seq)

    def build(i: int, depth: int) -> Term:
        op = code_op(cells[i], universe)
        if depth == e.height:
            return Term(op)
        return Term(op, (build(2 * i + 1, depth + 1), build(2 * i + 2, depth + 1)))

    try:
        return build(0, 0)
    except TermError as exc:
        raise CodecError(f"encoded tree is not well-sorted: {exc}") from None
