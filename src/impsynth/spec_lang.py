"""Decidable correctness predicates over (input state, term, outcome).

A predicate is a tiny total expression language: integer comparisons,
Boolean connectives, arithmetic over the input state's variables, the
evaluated outcome (`out` for a value result, `(out x)` for one variable
of a state result), and the candidate's syntactic size `(term-size)`.
Every predicate terminates on every input by construction, so the
verification step of a synthesis query never adds undecidability of its
own.

Outcome atoms are partial: when the run faulted, returned the dummy
value, or produced the wrong kind of result for the atom (asking `out`
of a state, or `(out x)` of a number), the atom is undefined and any
comparison touching it is false; so is a variable outside the input
state's universe.  Fuel exhaustion never reaches a predicate — engines
decide how to treat it before consulting the spec.

Parsing checks and compiles a formula in one walk: it raises the first
`SpecError` (depth first, left to right, a head's arity before its
operands), collects the variable names, and builds one closure per
construct, so `holds`, asked once per candidate and example, only runs
closures.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

from .semantics import BoolValue, EvalOutcome, StateOut, Value
from .terms import ParseError, State, Term, _read_sexps, is_variable_name, term_size


class SpecError(ValueError):
    pass


# A compiled formula maps (sigma, f, outcome) to a bool, a compiled value
# expression to an int, a bool, or None when it is undefined.
Compiled = Callable[[State, Term, EvalOutcome], object]

_COMPARISONS = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
                ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Predicate:
    """Parsed specification formula; evaluate with holds().  Equality is
    by text, of which the compiled formula and the names are functions."""

    text: str
    formula: Compiled = field(compare=False, repr=False)
    names: frozenset[str] = field(compare=False, repr=False)

    def holds(self, sigma: State, f: Term, outcome: EvalOutcome) -> bool:
        return self.formula(sigma, f, outcome)

    def variables(self) -> frozenset[str]:
        return self.names

    def __str__(self) -> str:
        return self.text


def parse_predicate(text: str) -> Predicate:
    try:
        sexps = _read_sexps(text)
    except ParseError as e:
        raise SpecError(f"bad spec syntax: {e}") from e
    if len(sexps) != 1:
        raise SpecError(f"expected one spec formula, found {len(sexps)}")
    return _predicate(sexps[0], text.strip())


def predicate_from_sexp(sexp: object) -> Predicate:
    return _predicate(sexp, _render(sexp))


def _predicate(sexp: object, text: str) -> Predicate:
    names: set[str] = set()
    formula = _formula(sexp, names)
    return Predicate(text, formula, frozenset(names))


def _render(sexp: object) -> str:
    if isinstance(sexp, str):
        return sexp
    return "(" + " ".join(_render(x) for x in sexp) + ")"


# --------------------------------------------------------------------------
# Checking and compiling in one walk


def _constant(v) -> Compiled:
    return lambda sigma, f, out: v


def _formula(sexp: object, names: set[str]) -> Compiled:
    if isinstance(sexp, str):
        if sexp in ("true", "false"):
            return _constant(sexp == "true")
        raise SpecError(f"expected a formula, got atom {sexp!r}")
    items = list(sexp)
    if not items or not isinstance(items[0], str):
        raise SpecError(f"expected a formula, got {_render(sexp)}")
    head, args = items[0], items[1:]
    if head in _COMPARISONS:
        if len(args) != 2:
            raise SpecError(f"({head} ...) takes exactly two arguments")
        lhs, rhs = _value(args[0], names), _value(args[1], names)
        return _comparison(_COMPARISONS[head], head == "=", lhs, rhs)
    if head == "not":
        if len(args) != 1:
            raise SpecError("(not ...) takes exactly one argument")
        inner = _formula(args[0], names)
        return lambda sigma, f, out: not inner(sigma, f, out)
    if head in ("and", "or"):
        if not args:
            raise SpecError(f"({head} ...) needs at least one argument")
        return _junction([_formula(x, names) for x in args], head == "or")
    raise SpecError(f"unknown formula head {head!r}")


def _junction(parts: list[Compiled], stop: bool) -> Compiled:
    # `and` stops at the first false part, `or` at the first true one
    def formula(sigma, f, out):
        for p in parts:
            if p(sigma, f, out) is stop:
                return stop
        return not stop

    return formula


def _comparison(test, is_equality: bool, lhs: Compiled, rhs: Compiled) -> Compiled:
    # false on an undefined operand, on a bool against a number, and on
    # an ordered comparison of bools
    def formula(sigma, f, out):
        a, b = lhs(sigma, f, out), rhs(sigma, f, out)
        if a is None or b is None:
            return False
        if isinstance(a, bool) or isinstance(b, bool):
            return is_equality and a is b
        return test(a, b)

    return formula


def _value(sexp: object, names: set[str]) -> Compiled:
    if isinstance(sexp, str):
        return _atom(sexp, names)
    items = list(sexp)
    if not items or not isinstance(items[0], str):
        raise SpecError(f"expected a value expression, got {_render(sexp)}")
    head, args = items[0], items[1:]
    if head == "out":
        name = args[0] if len(args) == 1 else None
        if not isinstance(name, str) or not is_variable_name(name):
            raise SpecError("(out ...) takes exactly one variable name")
        names.add(name)
        return lambda sigma, f, out: (
            _lookup(out.state, name) if isinstance(out, StateOut) else None)
    if head == "term-size":
        if args:
            raise SpecError("(term-size) takes no arguments")
        return lambda sigma, f, out: term_size(f)
    if head in ("+", "-", "*"):
        if head == "-" and len(args) != 2:
            raise SpecError("(- ...) takes exactly two arguments")
        if len(args) < 2:
            raise SpecError(f"({head} ...) needs at least two arguments")
        return _arithmetic(head, [_value(x, names) for x in args])
    raise SpecError(f"unknown value expression head {head!r}")


def _atom(atom: str, names: set[str]) -> Compiled:
    if atom in ("true", "false"):
        return _constant(atom == "true")
    if atom == "out":
        # a value result; undefined for a state, a fault or the dummy
        return lambda sigma, f, out: (
            out.value if isinstance(out, (Value, BoolValue)) else None)
    if is_variable_name(atom):
        names.add(atom)
        return lambda sigma, f, out: _lookup(sigma, atom)
    try:
        return _constant(int(atom))
    except ValueError:
        raise SpecError(f"unknown spec atom {atom!r}") from None


def _lookup(sigma: State, name: str):
    """The variable's value, or None when it is outside sigma's universe."""
    names = sigma.universe.names
    return sigma.values[names.index(name)] if name in names else None


def _arithmetic(head: str, parts: list[Compiled]) -> Compiled:
    # undefined when an operand is undefined or a bool
    def value(sigma, f, out):
        args = [p(sigma, f, out) for p in parts]
        for a in args:
            if a is None or isinstance(a, bool):
                return None
        if head == "-":
            return args[0] - args[1]
        total = args[0]
        for a in args[1:]:
            total = total + a if head == "+" else total * a
        return total

    return value
