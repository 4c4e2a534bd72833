"""Abstract syntax for the IMP language and its padded binary form.

Terms cover five sorts: integer expressions, Booleans, statements,
variables, and the Null sort used by padding nodes (`nop` and `null`).
Every operator has a plain arity (matching the surface language) and a
widened binary signature in which missing operand slots are filled by
Null-sorted padding.  Both shapes are accepted by the constructor so
plain terms, fully padded terms, and mixtures of the two are all
representable; sort checking is per node.

Two concrete syntaxes are supported:

* an infix surface syntax (`x := 1`, `while x < 2 do x := x + 1`,
  `((1 + x) + 1)`) via `parse_term` / `print_term`, and
* a parenthesized prefix form (`(+ (+ 1 x) 1)`) via `parse_prefix` /
  `to_prefix`, used in grammar files and machine output.

Padded nodes print in application style in both syntaxes, e.g.
`1(null, null)` infix and `(1 null null)` prefix.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping


class Sort(enum.Enum):
    EXPR = "expr"
    BOOL = "bool"
    STMT = "stmt"
    VAR = "var"
    NULL = "null"


@dataclass(frozen=True)
class OpInfo:
    sort: Sort
    operands: tuple[Sort, ...]

    @property
    def arity(self) -> int:
        return len(self.operands)


OP_TABLE: dict[str, OpInfo] = {
    "0": OpInfo(Sort.EXPR, ()),
    "1": OpInfo(Sort.EXPR, ()),
    "+": OpInfo(Sort.EXPR, (Sort.EXPR, Sort.EXPR)),
    "-": OpInfo(Sort.EXPR, (Sort.EXPR, Sort.EXPR)),
    "*": OpInfo(Sort.EXPR, (Sort.EXPR, Sort.EXPR)),
    "/": OpInfo(Sort.EXPR, (Sort.EXPR, Sort.EXPR)),
    "true": OpInfo(Sort.BOOL, ()),
    "false": OpInfo(Sort.BOOL, ()),
    "not": OpInfo(Sort.BOOL, (Sort.BOOL,)),
    "and": OpInfo(Sort.BOOL, (Sort.BOOL, Sort.BOOL)),
    "<": OpInfo(Sort.BOOL, (Sort.EXPR, Sort.EXPR)),
    "=": OpInfo(Sort.BOOL, (Sort.EXPR, Sort.EXPR)),
    ":=": OpInfo(Sort.STMT, (Sort.VAR, Sort.EXPR)),
    "seq": OpInfo(Sort.STMT, (Sort.STMT, Sort.STMT)),
    "if": OpInfo(Sort.STMT, (Sort.BOOL, Sort.STMT)),
    "while": OpInfo(Sort.STMT, (Sort.BOOL, Sort.STMT)),
    "nop": OpInfo(Sort.NULL, (Sort.NULL, Sort.NULL)),
    "null": OpInfo(Sort.NULL, ()),
}

RESERVED_WORDS = frozenset(
    ["true", "false", "not", "and", "seq", "if", "then", "while", "do", "nop", "null"]
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class TermError(ValueError):
    """Base class for term construction and parsing failures."""


class SortError(TermError):
    """Operator applied to operands of the wrong sort or arity."""


class ParseError(TermError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


def is_variable_name(name: str) -> bool:
    return bool(_IDENT_RE.match(name)) and name not in RESERVED_WORDS


# variable names already seen by op_info, each mapped to the one OpInfo
# every variable shares, so a lookup does not run _IDENT_RE again
_VAR_INFO: dict[str, OpInfo] = {}
_VAR = OpInfo(Sort.VAR, ())


def op_info(op: str) -> OpInfo:
    info = OP_TABLE.get(op) or _VAR_INFO.get(op)
    if info is not None:
        return info
    if is_variable_name(op):
        _VAR_INFO[op] = _VAR
        return _VAR
    raise SortError(f"unknown operator {op!r}")


def operand_sorts(op: str, n: int) -> tuple[Sort, ...]:
    """Sorts of the operand slots of `op` applied to `n` children.

    `n` is the plain arity or, for an operator of arity below two other
    than `null`, two: the widened form fills the missing slots on the
    right with Null padding.
    """
    info = op_info(op)
    if n == info.arity:
        return info.operands
    if n == 2 and info.arity < 2 and op != "null":
        return info.operands + (Sort.NULL,) * (2 - info.arity)
    raise SortError(f"operator {op!r} takes {info.arity} operands, got {n}")


def sort_fits(actual: Sort, expected: Sort) -> bool:
    # a variable may stand wherever an expression is expected
    return actual is expected or (actual is Sort.VAR and expected is Sort.EXPR)


# (operator, child count) -> (operand sorts, result sort), filled on first
# use so that building a node does not look its operator up again
_SIGNATURES: dict[tuple[str, int], tuple[tuple[Sort, ...], Sort]] = {}


@dataclass(frozen=True, slots=True, eq=False)
class Term:
    """One node of an IMP syntax tree.

    `children` must match the operator's plain signature or, for
    operators of arity below two (except `null`), the widened binary
    signature with Null-sorted padding in the missing slots.

    A term carries its sort and its size (node count), both set when it
    is built, and caches its prefix form on the first `to_prefix`.  Hash
    and equality are those of the prefix form, which `parse_prefix`
    inverts, so two terms are equal exactly when they have the same
    operator and equal children.
    """

    op: str
    children: tuple["Term", ...] = ()
    sort: Sort = field(init=False, repr=False)
    size: int = field(init=False, repr=False)
    _prefix: str | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        key = (self.op, len(self.children))
        signature = _SIGNATURES.get(key)
        if signature is None:
            signature = _SIGNATURES[key] = (operand_sorts(*key),
                                            op_info(self.op).sort)
        size = 1
        for child, want in zip(self.children, signature[0]):
            if child.sort is not want and not sort_fits(child.sort, want):
                raise SortError(
                    f"operand of {self.op!r} has sort {child.sort.value}, "
                    f"expected {want.value}"
                )
            size += child.size
        object.__setattr__(self, "sort", signature[1])
        object.__setattr__(self, "size", size)

    def __hash__(self) -> int:
        return hash(to_prefix(self))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return to_prefix(self) == to_prefix(other)

    @property
    def is_padded(self) -> bool:
        return len(self.children) != op_info(self.op).arity

    def __repr__(self) -> str:
        return f"Term<{to_prefix(self)}>"

    def walk(self) -> Iterator["Term"]:
        """Every node in preorder, children left to right."""
        stack = [self]
        while stack:
            t = stack.pop()
            yield t
            stack.extend(reversed(t.children))


def term_size(t: Term) -> int:
    """Number of nodes, padding nodes included."""
    return t.size


def term_height(t: Term) -> int:
    """Edge count of the longest root-to-leaf path; a leaf has height 0."""
    height = 0
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        height = max(height, depth)
        stack.extend((c, depth + 1) for c in node.children)
    return height


def is_binform(t: Term) -> bool:
    """True when every node is binary except bare `null` leaves."""
    if t.op == "null":
        return not t.children
    return len(t.children) == 2 and all(is_binform(c) for c in t.children)


def variables_of(t: Term) -> set[str]:
    return {n.op for n in t.walk() if n.sort is Sort.VAR}


# --------------------------------------------------------------------------
# Variable universes and states


@dataclass(frozen=True)
class VarUniverse:
    """Ordered, distinct variable names; the order fixes encoding order."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise TermError("variable universe must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise TermError("variable universe has duplicate names")
        for name in self.names:
            if not is_variable_name(name):
                raise TermError(f"invalid variable name {name!r}")

    @classmethod
    def of(cls, *names: str) -> "VarUniverse":
        return cls(tuple(names))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise TermError(f"variable {name!r} not in universe") from None

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


class EmptyState:
    """The dummy value produced and consumed by padding nodes.

    A single instance, `EMPTY`, stands in wherever a state or value is
    absent; it is distinct from every real state and from faults.
    """

    _instance: "EmptyState | None" = None

    def __new__(cls) -> "EmptyState":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "EMPTY"


EMPTY = EmptyState()


@dataclass(frozen=True)
class State:
    """Total map from a variable universe to integers."""

    universe: VarUniverse
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.universe):
            raise TermError(
                f"state has {len(self.values)} values for "
                f"{len(self.universe)} variables"
            )

    @classmethod
    def of(cls, universe: VarUniverse, assignment: Mapping[str, int]) -> "State":
        extra = set(assignment) - set(universe.names)
        if extra:
            raise TermError(f"assignment mentions unknown variables {sorted(extra)}")
        return cls(universe, tuple(int(assignment.get(n, 0)) for n in universe))

    def get(self, name: str) -> int:
        return self.values[self.universe.index(name)]

    def set(self, name: str, value: int) -> "State":
        i = self.universe.index(name)
        return State(self.universe, self.values[:i] + (value,) + self.values[i + 1 :])

    def __str__(self) -> str:
        return ",".join(f"{n}={v}" for n, v in zip(self.universe, self.values))


def parse_state(text: str, universe: VarUniverse | None = None) -> State | EmptyState:
    """Parse "x=3,y=0".

    Against a universe, every universe variable must be assigned and
    "empty" gives EMPTY.  Without one, the universe is the listed names,
    in order, and at least one must be listed.
    """
    if universe is not None and text.strip() == "empty":
        return EMPTY
    seen: dict[str, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, raw = part.partition("=")
        name, raw = name.strip(), raw.strip()
        if not eq:
            raise TermError(f"expected NAME=VALUE, got {part!r}")
        if universe is None and not is_variable_name(name):
            raise TermError(f"bad variable name {name!r}")
        if universe is not None and name not in universe:
            raise TermError(f"variable {name!r} not in universe")
        if name in seen:
            raise TermError(f"variable {name!r} listed twice")
        try:
            seen[name] = int(raw, 10)
        except ValueError:
            raise TermError(f"bad integer {raw!r} for {name!r}") from None
    if universe is None:
        if not seen:
            raise TermError("state must bind at least one variable")
        universe = VarUniverse(tuple(seen))
    missing = [n for n in universe if n not in seen]
    if missing:
        raise TermError(f"state is missing variables {missing}")
    return State.of(universe, seen)


def format_state(state: State | EmptyState) -> str:
    return "empty" if state is EMPTY else str(state)


# --------------------------------------------------------------------------
# Infix surface syntax

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>[0-9]+)"
    r"|(?P<sym>:=|[;(),+\-*/<=!]))"
)

# Binding powers, loosest first.  `;` is right associative, arithmetic is
# left associative, comparisons do not chain (a second comparator yields a
# Boolean operand and fails the sort check).
_BP_SEQ = 10
_BP_ASSIGN = 20
_BP_AND = 30
_BP_CMP = 40
_BP_ADD = 50
_BP_MUL = 60

_INFIX_BP = {
    ";": _BP_SEQ,
    ":=": _BP_ASSIGN,
    "and": _BP_AND,
    "<": _BP_CMP,
    "=": _BP_CMP,
    "+": _BP_ADD,
    "-": _BP_ADD,
    "*": _BP_MUL,
    "/": _BP_MUL,
}

_APPLICATION_HEADS = frozenset(["0", "1", "true", "false", "not", "nop"])


class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", pos)
        pos = m.end()
        for kind in ("ident", "num", "sym"):
            lexeme = m.group(kind)
            if lexeme is not None:
                tokens.append(_Tok(kind, lexeme, m.start(kind)))
                break
    tokens.append(_Tok("eof", "", len(text)))
    return tokens


class _InfixParser:
    def __init__(self, text: str, universe: VarUniverse | None) -> None:
        self.tokens = _tokenize(text)
        self.i = 0
        self.universe = universe

    def peek(self) -> _Tok:
        return self.tokens[self.i]

    def next(self) -> _Tok:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)

    def parse(self) -> Term:
        t = self.term(0)
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return t

    def term(self, min_bp: int) -> Term:
        left = self.prefix()
        while True:
            tok = self.peek()
            op = tok.text if tok.kind in ("sym", "ident") else ""
            bp = _INFIX_BP.get(op)
            if bp is None or bp <= min_bp:
                return left
            self.next()
            # right associative `;` reuses its own level, everything else
            # binds its right operand one notch tighter
            rhs_bp = bp - 1 if op == ";" else bp
            right = self.term(rhs_bp)
            left = self.build("seq" if op == ";" else op, (left, right), tok.pos)

    def prefix(self) -> Term:
        tok = self.next()
        if tok.text == "(":
            inner = self.term(0)
            self.expect(")")
            return inner
        if tok.text == "!":
            operand = self.term(_BP_CMP - 1)
            return self.build("not", (operand,), tok.pos)
        if tok.text == "while":
            guard = self.term(_BP_ASSIGN)
            self.expect("do")
            body = self.term(0)
            return self.build("while", (guard, body), tok.pos)
        if tok.text == "if":
            guard = self.term(_BP_ASSIGN)
            self.expect("then")
            body = self.term(0)
            return self.build("if", (guard, body), tok.pos)
        if tok.kind == "num":
            if tok.text in ("0", "1"):
                return self.atom_or_application(tok)
            # the language has literals 0 and 1 only; larger numerals are
            # surface sugar for a left chain of +1
            n = int(tok.text)
            acc = Term("1")
            for _ in range(n - 1):
                acc = Term("+", (acc, Term("1")))
            return acc
        if tok.kind == "ident":
            if tok.text == "null":
                return Term("null")
            if tok.text in _APPLICATION_HEADS or is_variable_name(tok.text):
                return self.atom_or_application(tok)
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)

    def atom_or_application(self, head: _Tok) -> Term:
        children: tuple[Term, ...] = ()
        if self.peek().text == "(":
            self.next()
            args = [self.term(0)]
            while self.peek().text == ",":
                self.next()
                args.append(self.term(0))
            self.expect(")")
            children = tuple(args)
        elif head.text in ("nop", "not"):
            raise ParseError(f"{head.text!r} needs an argument list", head.pos)
        if is_variable_name(head.text):
            self.check_variable(head)
        return self.build(head.text, children, head.pos)

    def check_variable(self, tok: _Tok) -> None:
        if self.universe is not None and tok.text not in self.universe:
            raise ParseError(f"unknown variable {tok.text!r}", tok.pos)

    def build(self, op: str, children: tuple[Term, ...], pos: int) -> Term:
        try:
            return Term(op, children)
        except SortError as exc:
            raise ParseError(str(exc), pos) from None


def parse_term(text: str, universe: VarUniverse | None = None) -> Term:
    """Parse the infix surface syntax into a Term.

    With a universe given, identifiers outside it are rejected; without
    one, any non-reserved identifier is accepted as a variable.
    """
    return _InfixParser(text, universe).parse()


def print_term(t: Term) -> str:
    """Infix rendering; `parse_term` recovers the exact tree."""
    if t.is_padded or t.op in ("nop", "null"):
        if not t.children:
            return t.op
        return f"{t.op}({', '.join(print_term(c) for c in t.children)})"
    if not t.children:
        return t.op
    a, b = t.children if len(t.children) == 2 else (t.children[0], None)
    if t.op == "not":
        inner = print_term(t.children[0])
        if t.children[0].children:
            return f"!({inner})"
        return f"!{inner}"
    if t.op in ("+", "-", "*", "/", "and"):
        return f"({print_term(a)} {t.op} {print_term(b)})"
    if t.op in ("<", "="):
        return f"{print_term(a)} {t.op} {print_term(b)}"
    if t.op == ":=":
        return f"{print_term(a)} := {print_term(b)}"
    if t.op == "seq":
        left = print_term(a)
        if a.op != ":=":
            left = f"({left})"
        return f"{left}; {print_term(b)}"
    if t.op == "while":
        return f"while {print_term(a)} do {print_term(b)}"
    if t.op == "if":
        return f"if {print_term(a)} then {print_term(b)}"
    raise AssertionError(f"unhandled operator {t.op!r}")


# --------------------------------------------------------------------------
# Prefix form


def to_prefix(t: Term) -> str:
    """The prefix form, kept on the term after the first call and built
    from the children's kept forms, so each node's form is joined once."""
    prefix = t._prefix
    if prefix is None:
        if t.children:
            prefix = ("(" + " ".join([t.op] + [to_prefix(c) for c in t.children])
                      + ")")
        else:
            prefix = t.op
        object.__setattr__(t, "_prefix", prefix)
    return prefix


_SEXP_TOKEN_RE = re.compile(r"\s*(?:(?P<open>\()|(?P<close>\))|(?P<atom>[^\s()]+))")


def _read_sexps(text: str) -> list[object]:
    """Read whitespace separated s-expressions into nested lists of atoms."""
    stack: list[list[object]] = [[]]
    pos = 0
    while pos < len(text):
        m = _SEXP_TOKEN_RE.match(text, pos)
        if m is None:
            break
        pos = m.end()
        if m.group("open"):
            stack.append([])
        elif m.group("close"):
            if len(stack) == 1:
                raise ParseError("unbalanced ')'", m.start())
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(m.group("atom"))
    if len(stack) != 1:
        raise ParseError("unbalanced '('", len(text))
    return stack[0]


def _sexp_to_term(sexp: object, universe: VarUniverse | None) -> Term:
    if isinstance(sexp, str):
        head, children = sexp, ()
    else:
        items = list(sexp)  # type: ignore[arg-type]
        if not items or not isinstance(items[0], str):
            raise TermError(f"expected operator at head of {items!r}")
        head = items[0]
        children = tuple(_sexp_to_term(c, universe) for c in items[1:])
    if head not in OP_TABLE:
        if not is_variable_name(head):
            raise TermError(f"unknown operator {head!r}")
        if universe is not None and head not in universe:
            raise TermError(f"unknown variable {head!r}")
    return Term(head, children)


def parse_prefix(text: str, universe: VarUniverse | None = None) -> Term:
    """Parse the parenthesized prefix form, e.g. "(+ (+ 1 x) 1)"."""
    sexps = _read_sexps(text)
    if len(sexps) != 1:
        raise TermError(f"expected exactly one term, found {len(sexps)}")
    return _sexp_to_term(sexps[0], universe)
