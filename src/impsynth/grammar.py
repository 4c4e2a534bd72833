"""Regular tree grammars over the IMP operator alphabet.

A grammar maps nonterminals to productions, each an operator applied to
nonterminals.  Supported operations: membership by bottom-up labeling,
deterministic size-ordered enumeration, the padded binary form (every
operator widened to arity two, missing slots derived from a dedicated
Null nonterminal), embedding a plain term into a perfect binary tree of
padding, stripping padding back off, language finiteness, and a textual
grammar format.

Enumeration order is part of the contract: terms come out in
nondecreasing size, ties broken by the lexicographic order of their
prefix serialization.  Search results elsewhere in the package are
reproducible because of this.  One bottom-up builder, `Levels`, makes
the terms of each nonterminal size by size, each level in prefix order:
`enumerate_terms` streams the start symbol's levels without storing
them, and with a class key (such as a term's outcomes on a set of
examples) each level keeps only the first term of every class not seen
at a smaller size.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .terms import (
    OP_TABLE,
    Sort,
    SortError,
    Term,
    VarUniverse,
    _read_sexps,
    is_variable_name,
    op_info,
    operand_sorts,
    sort_fits,
    term_height,
    to_prefix,
)

NULL_NT = "NullNT"


class GrammarError(ValueError):
    pass


@dataclass(frozen=True)
class Production:
    op: str
    operands: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.operands:
            return self.op
        return "(" + " ".join((self.op,) + self.operands) + ")"


@dataclass(frozen=True)
class Rtg:
    """Regular tree grammar; rules keep declaration order per nonterminal.

    `binform` marks the padded binary form of a plain grammar.
    """

    universe: VarUniverse
    start: str
    rules: tuple[tuple[str, tuple[Production, ...]], ...]
    binform: bool = False
    _by_nt: dict = field(init=False, compare=False, repr=False, hash=False)

    def __post_init__(self) -> None:
        by_nt = {nt: prods for nt, prods in self.rules}
        if len(by_nt) != len(self.rules):
            raise GrammarError("duplicate nonterminal declaration")
        if self.start not in by_nt:
            raise GrammarError(f"start nonterminal {self.start!r} has no rules")
        for nt, prods in self.rules:
            for p in prods:
                self._check_production(nt, p, by_nt)
        object.__setattr__(self, "_by_nt", by_nt)
        if self.binform:
            self._check_binform_tag(by_nt)

    def _check_production(self, nt: str, p: Production, by_nt: dict) -> None:
        if p.op not in OP_TABLE:
            if not is_variable_name(p.op):
                raise GrammarError(f"production {p} of {nt}: unknown operator")
            if p.op not in self.universe:
                raise GrammarError(
                    f"production {p} of {nt}: variable {p.op!r} not in universe"
                )
        try:
            slots = operand_sorts(p.op, len(p.operands))
        except SortError:
            raise GrammarError(f"production {p} of {nt}: arity mismatch") from None
        for operand_nt, want in zip(p.operands, slots):
            if operand_nt not in by_nt:
                raise GrammarError(
                    f"production {p} of {nt}: undeclared nonterminal {operand_nt!r}"
                )
            for got in self._result_sorts(by_nt[operand_nt]):
                if not sort_fits(got, want):
                    raise GrammarError(
                        f"production {p} of {nt}: operand {operand_nt!r} can "
                        f"derive sort {got.value} where {want.value} is needed"
                    )

    @staticmethod
    def _result_sorts(prods: tuple[Production, ...]) -> set[Sort]:
        return {op_info(p.op).sort for p in prods}

    def _check_binform_tag(self, by_nt: dict) -> None:
        prods = by_nt.get(NULL_NT)
        want = (Production("null"), Production("nop", (NULL_NT, NULL_NT)))
        if prods is None or tuple(sorted(prods, key=str)) != tuple(sorted(want, key=str)):
            raise GrammarError(
                f"binform grammar must define {NULL_NT} ::= null | (nop {NULL_NT} {NULL_NT})"
            )

    @property
    def nonterminals(self) -> tuple[str, ...]:
        return tuple(nt for nt, _ in self.rules)

    def productions(self, nt: str) -> tuple[Production, ...]:
        try:
            return self._by_nt[nt]
        except KeyError:
            raise GrammarError(f"unknown nonterminal {nt!r}") from None


# --------------------------------------------------------------------------
# Membership


def member(g: Rtg, t: Term) -> bool:
    """Bottom-up labeling: does the start nonterminal derive t?"""
    return g.start in _labels(g, t, {})


def _labels(g: Rtg, t: Term, memo: dict) -> frozenset[str]:
    key = id(t)
    cached = memo.get(key)
    if cached is not None:
        return cached
    child_labels = [_labels(g, c, memo) for c in t.children]
    mine = set()
    for nt in g.nonterminals:
        for p in g.productions(nt):
            if p.op != t.op or len(p.operands) != len(t.children):
                continue
            if all(p.operands[i] in child_labels[i] for i in range(len(t.children))):
                mine.add(nt)
                break
    result = frozenset(mine)
    memo[key] = result
    return result


# --------------------------------------------------------------------------
# Enumeration


def enumerate_terms(g: Rtg, max_size: int | None = None) -> Iterator[Term]:
    """Yield every term of L(g) up to max_size, smallest first.

    Within one size, terms come out sorted by their prefix form.  With
    max_size None the generator is unbounded for infinite languages and
    stops on its own for finite ones.
    """
    if max_size is not None and max_size < 1:
        return
    bound = max_size if max_size is not None else _largest(g)
    levels = Levels(g)
    for n in itertools.count(1) if bound is None else range(1, bound + 1):
        yield from levels.stream(g.start, n)


def _splits(p: Production, n: int) -> list[tuple[int, ...]]:
    """The operand sizes with which p derives terms of size n."""
    if len(p.operands) == 2:
        return [(i, n - 1 - i) for i in range(1, n - 1)]
    return [(n - 1,)] if p.operands else [()] if n == 1 else []


class Levels:
    """The terms each nonterminal derives at each exact size, in prefix
    order, built bottom-up from smaller levels.

    A level's derivations come from one stream per production and split
    of the size among its operands, merged by prefix form with ties kept
    in production and split order.  Each stream is a nested loop over
    operand levels, so it is in prefix order too: prefix forms compare
    by operator, then by children left to right.  A split where an
    operand derives nothing of its size builds no level.

    `at` stores each level it builds; `stream` yields the distinct terms
    of a level, unkeyed and unstored, building each as it is read.  With
    ``key(term)``, `at` keeps in a level of nt the first derivation of
    each key that no smaller term of nt has; larger terms are built from
    kept terms only, and ``keys`` maps each kept term to its key.  A
    keyed level is built after the smaller levels of its nonterminal.
    """

    def __init__(self, g: Rtg, key=None):
        self._g = g
        self._key = key
        self.keys: dict[Term, object] = {}
        self._levels: dict[tuple[str, int], tuple[Term, ...]] = {}
        self._seen: dict[str, set] = {nt: set() for nt in g.nonterminals}
        self._sized: list[set[str]] = [set()]  # nonterminals deriving each size

    def at(self, nt: str, n: int) -> tuple[Term, ...]:
        level = self._levels.get((nt, n))
        if level is None:
            if self._key and n > 1:
                self.at(nt, n - 1)
            level = self._levels[(nt, n)] = tuple(
                self._kept(nt, n) if self._key else self.stream(nt, n))
        return level

    def stream(self, nt: str, n: int) -> Iterator[Term]:
        # a term derived twice comes out twice in a row: keep the first
        merged = itertools.groupby(self._derivations(nt, n), to_prefix)
        return (next(repeats) for _, repeats in merged)

    def _kept(self, nt: str, n: int) -> Iterator[Term]:
        seen = self._seen[nt]
        for t in self._derivations(nt, n):
            value = self._key(t)
            if value not in seen:
                seen.add(value)
                self.keys[t] = value
                yield t

    def _derivations(self, nt: str, n: int) -> Iterator[Term]:
        return heapq.merge(*(
            self._product(p, sizes)
            for p in self._g.productions(nt) for sizes in _splits(p, n)
            if all(map(self._derives, p.operands, sizes))), key=to_prefix)

    def _product(self, p: Production, sizes: tuple[int, ...]) -> Iterator[Term]:
        levels = map(self.at, p.operands, sizes)
        return (Term(p.op, children) for children in itertools.product(*levels))

    def _derives(self, nt: str, n: int) -> bool:
        sized = self._sized
        while len(sized) <= n:
            m = len(sized)
            sized.append({name for name, prods in self._g.rules if any(
                all(o in sized[s] for o, s in zip(p.operands, sizes))
                for p in prods for sizes in _splits(p, m))})
        return nt in sized[n]


# --------------------------------------------------------------------------
# Finiteness


def _productive(g: Rtg) -> set[str]:
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for nt in g.nonterminals:
            if nt in productive:
                continue
            for p in g.productions(nt):
                if all(o in productive for o in p.operands):
                    productive.add(nt)
                    changed = True
                    break
    return productive


def _largest(g: Rtg) -> int | None:
    """Size of the largest member of L(g), 0 when L(g) is empty, None when
    it is infinite.

    One memoised depth-first walk from the start symbol, over the
    productions whose operands are all productive.  Reaching a
    nonterminal that is still on the walk's stack closes a usable cycle,
    so the language is infinite.
    """
    productive = _productive(g)
    if g.start not in productive:
        return 0
    memo: dict[str, int] = {}
    on_stack: set[str] = set()

    def biggest(nt: str) -> int | None:
        if nt in memo:
            return memo[nt]
        if nt in on_stack:
            return None
        on_stack.add(nt)
        best = 0
        for p in g.productions(nt):
            if not all(o in productive for o in p.operands):
                continue
            size = 1
            for o in p.operands:
                below = biggest(o)
                if below is None:
                    return None
                size += below
            best = max(best, size)
        on_stack.remove(nt)
        memo[nt] = best
        return best

    return biggest(g.start)


def language_finite(g: Rtg) -> bool:
    """True when L(g) is finite: no usable nonterminal cycle."""
    return _largest(g) is not None


def max_term_size(g: Rtg) -> int:
    """Largest member size of a finite language (0 if the language is empty)."""
    biggest = _largest(g)
    if biggest is None:
        raise GrammarError("language is infinite")
    return biggest


def language_size(g: Rtg, max_size: int) -> int:
    """Number of members with term size at most max_size."""
    memo: dict[tuple[str, int], int] = {}

    def count(nt: str, n: int) -> int:
        key = (nt, n)
        if key in memo:
            return memo[key]
        total = 0
        for p in g.productions(nt):
            k = len(p.operands)
            if k == 0:
                total += 1 if n == 1 else 0
            elif k == 1:
                total += count(p.operands[0], n - 1) if n >= 2 else 0
            else:
                for i in range(1, n - 1):
                    a = count(p.operands[0], i)
                    if a:
                        total += a * count(p.operands[1], n - 1 - i)
        memo[key] = total
        return total

    return sum(count(g.start, n) for n in range(1, max_size + 1))


# --------------------------------------------------------------------------
# Padded binary form


def to_bin_form(g: Rtg) -> Rtg:
    """Widen every operator to arity two, padding slots with the Null nonterminal."""
    if g.binform:
        raise GrammarError("grammar is already a padded binary form")
    if NULL_NT in g._by_nt:
        raise GrammarError(f"nonterminal name {NULL_NT} is reserved")
    new_rules = []
    for nt, prods in g.rules:
        out = []
        for p in prods:
            if p.op in ("nop", "null"):
                raise GrammarError("plain grammar must not use padding operators")
            pad = 2 - op_info(p.op).arity
            out.append(Production(p.op, p.operands + (NULL_NT,) * pad))
        new_rules.append((nt, tuple(out)))
    new_rules.append(
        (NULL_NT, (Production("null"), Production("nop", (NULL_NT, NULL_NT))))
    )
    return Rtg(
        universe=g.universe,
        start=g.start,
        rules=tuple(new_rules),
        binform=True,
    )


def embed(t: Term) -> Term:
    """Pad t into a perfect binary tree one level taller than t.

    Every original node keeps its real children and gains padding up to
    arity two; padding slots are filled with `nop` chains bottoming out
    in `null` leaves, all at the same depth.
    """
    for node in t.walk():
        if node.op in ("nop", "null"):
            raise GrammarError("embed input must be free of padding nodes")
    height = term_height(t) + 1

    def dummy(depth: int) -> Term:
        if depth == height:
            return Term("null")
        return Term("nop", (dummy(depth + 1), dummy(depth + 1)))

    def widen(node: Term, depth: int) -> Term:
        real = tuple(widen(c, depth + 1) for c in node.children)
        pad = tuple(dummy(depth + 1) for _ in range(2 - len(real)))
        return Term(node.op, real + pad)

    return widen(t, 0)


def strip(t: Term) -> Term:
    """Remove all padding and narrow widened operators back to plain arity."""
    if t.sort is Sort.NULL:
        raise GrammarError("term has no non-padding root")
    arity = op_info(t.op).arity
    if len(t.children) not in (arity, 2):
        raise GrammarError(f"malformed padded term at {t.op!r}")
    for extra in t.children[arity:]:
        if extra.sort is not Sort.NULL:
            raise GrammarError(f"non-padding child in padding slot of {t.op!r}")
    return Term(t.op, tuple(strip(c) for c in t.children[:arity]))


def complete_binary_witness(g_bin: Rtg, t: Term) -> Term:
    """Equal-semantics member of g_bin shaped as a perfect binary tree."""
    if not g_bin.binform:
        raise GrammarError("witness construction needs a padded binary grammar")
    if not member(g_bin, t):
        raise GrammarError("term is not in the grammar's language")
    return embed(strip(t))


def is_perfect(t: Term) -> bool:
    """Every node binary except leaves, all leaves at equal depth.

    No node has more than two children, so a tree of height h is perfect
    exactly when it has all 2^(h+1) - 1 nodes.
    """
    return t.size == 2 ** (term_height(t) + 1) - 1


# --------------------------------------------------------------------------
# Grammar files


def parse_grammar(text: str) -> Rtg:
    """Read the parenthesized grammar format.

    Example: (grammar (vars x y) (start E) (rule E 1) (rule E (+ E E)))
    """
    forms = _read_sexps(text)
    if len(forms) != 1 or not isinstance(forms[0], list) or forms[0][:1] != ["grammar"]:
        raise GrammarError("expected a single (grammar ...) form")
    vars_decl: list[str] | None = None
    start: str | None = None
    rule_order: list[str] = []
    prods: dict[str, list[Production]] = {}
    for item in forms[0][1:]:
        if not isinstance(item, list) or not item:
            raise GrammarError(f"bad grammar clause {item!r}")
        head = item[0]
        if head == "vars":
            if vars_decl is not None:
                raise GrammarError("duplicate (vars ...) clause")
            if not all(isinstance(v, str) for v in item[1:]):
                raise GrammarError("bad (vars ...) clause")
            vars_decl = list(item[1:])
        elif head == "start":
            if start is not None:
                raise GrammarError("duplicate (start ...) clause")
            if len(item) != 2 or not isinstance(item[1], str):
                raise GrammarError("bad (start ...) clause")
            start = item[1]
        elif head == "rule":
            if len(item) != 3 or not isinstance(item[1], str):
                raise GrammarError(f"bad (rule ...) clause {item!r}")
            nt, body = item[1], item[2]
            if isinstance(body, str):
                p = Production(body)
            elif body and all(isinstance(x, str) for x in body):
                p = Production(body[0], tuple(body[1:]))
            else:
                raise GrammarError(f"bad production {body!r}")
            if nt not in prods:
                rule_order.append(nt)
                prods[nt] = []
            prods[nt].append(p)
        else:
            raise GrammarError(f"unknown grammar clause {head!r}")
    if vars_decl is None or start is None:
        raise GrammarError("grammar needs (vars ...) and (start ...)")
    rules = tuple((nt, tuple(prods[nt])) for nt in rule_order)
    return Rtg(VarUniverse(tuple(vars_decl)), start, rules, NULL_NT in prods)


def serialize_grammar(g: Rtg) -> str:
    """Canonical multi-line rendering; parse_grammar inverts it."""
    lines = ["(grammar"]
    lines.append("  (vars " + " ".join(g.universe.names) + ")")
    lines.append(f"  (start {g.start})")
    for nt, prods in g.rules:
        for p in prods:
            lines.append(f"  (rule {nt} {p})")
    out = "\n".join(lines) + ")"
    return out
