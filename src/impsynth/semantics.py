"""Fuel-bounded big-step interpreter for IMP terms, padded or plain.

Evaluation is deterministic and total once a fuel budget is fixed.  One
fuel unit is charged for every node activation (each time a node is
actually executed, so a loop guard is charged once per check) plus one
unit per completed loop iteration.  Padding subtrees are never executed
and never charged, which keeps the fuel use of a padded term identical
to that of the term it was padded from.

The dummy value is `terms.EMPTY`.  Padding nodes (`nop`, `null`) yield
it, and any operator consuming it yields it again, except that widened
nullary and unary operators ignore their padding slots outright.  In a
well-sorted term over a real input state the dummy value therefore
surfaces only when the root itself is a padding node.  Division by zero
raises a fault, which is distinct from the dummy value and takes
precedence over it (operands are evaluated left to right and a fault
aborts immediately).

The interpreter is one recursive walker.  `_run` charges a node and
hands it to the rule of its operator in `RULES`, one rule per operator,
built from `LITERALS` and `VALUE_OPS`; a name missing from the table is
a variable, read from the state by its position.  A chain of `seq` nodes
nested to the right runs in one frame, so a long statement list does
not deepen the recursion.  `eval_term`, `loop_trace` and the
certificate builder (`value_tree.build_value_tree`) all run on it.

An optional tracer receives one callback per node activation, in
chronological order; the certificate builder uses this to reconstruct
full per-node evidence without disturbing fuel accounting.  Subtrees
that an activation skips (padding slots, the body of an `if` whose
guard is false) are reported to the tracer as dummy activations at zero
fuel cost.  All of this tracer work happens only when a tracer is
given: an untraced run does none of it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Protocol, Union

from .terms import EMPTY, EmptyState, Sort, State, Term, op_info


@dataclass(frozen=True)
class Value:
    value: int


@dataclass(frozen=True)
class BoolValue:
    value: bool


@dataclass(frozen=True)
class StateOut:
    state: State


@dataclass(frozen=True)
class Fault:
    reason: str = "div0"


@dataclass(frozen=True)
class Dummy:
    pass


@dataclass(frozen=True)
class FuelExhausted:
    pass


DUMMY = Dummy()
FUEL_EXHAUSTED = FuelExhausted()

EvalOutcome = Union[Value, BoolValue, StateOut, Fault, Dummy, FuelExhausted]

# internal results are unwrapped: int | bool | State | EMPTY
_Internal = Union[int, bool, State, EmptyState]


class _OutOfFuel(Exception):
    pass


class _FaultSignal(Exception):
    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class Budget:
    """Mutable fuel counter shared across one evaluation."""

    __slots__ = ("remaining",)

    def __init__(self, fuel: int) -> None:
        if fuel < 0:
            raise ValueError("fuel must be non-negative")
        self.remaining = fuel

    def charge(self) -> None:
        if self.remaining == 0:
            raise _OutOfFuel()
        self.remaining -= 1


class Tracer(Protocol):
    def on_value(self, path: int, value: Union[int, bool, EmptyState]) -> None: ...

    def on_run(self, path: int, run: tuple) -> None: ...


def _child(path: int, i: int) -> int:
    # heap addressing: children of node p sit at 2p+1 and 2p+2 (the rules
    # below write these out on their hot paths)
    return 2 * path + i + 1


def _skip(t: Term, path: int, tracer: Tracer) -> None:
    """Record a dummy activation for a whole unexecuted subtree.

    Statement nodes get the run (EMPTY, EMPTY) except `while`, which
    gets the zero-iteration run (EMPTY,) so that its guard/body entry
    arithmetic matches a real zero-iteration activation.
    """
    if t.sort is Sort.STMT:
        if t.op == "while":
            tracer.on_run(path, (EMPTY,))
            _skip(t.children[0], _child(path, 0), tracer)
            return
        tracer.on_run(path, (EMPTY, EMPTY))
    else:
        tracer.on_value(path, EMPTY)
    for i, c in enumerate(t.children):
        _skip(c, _child(path, i), tracer)


def _div(a: int, b: int) -> int:
    """Quotient truncated toward zero; a zero divisor faults."""
    if b == 0:
        raise _FaultSignal("div0")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


# The meaning of every literal and value operator, stated once.  The
# evaluator, the certificate checker and the search engines all read these
# two tables; an operator faults by raising _FaultSignal.
LITERALS: dict[str, Union[int, bool]] = {"0": 0, "1": 1, "true": True, "false": False}
VALUE_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _div,
    "<": operator.lt,
    "=": operator.eq,
    "and": lambda a, b: a and b,
    "not": operator.not_,
}


def apply_op(op: str, *args):
    """Value of a value operator on real operands; None when it faults."""
    try:
        return VALUE_OPS[op](*args)
    except _FaultSignal:
        return None


# --------------------------------------------------------------------------
# The walker: one rule per operator.  A rule runs after its node has been
# charged, evaluates the children it needs through `_run` and returns the
# node's unwrapped result.  Every call to the tracer sits behind a
# `tracer is not None` test.


def _run(
    t: Term,
    sigma: Union[State, EmptyState],
    budget: Budget,
    tracer: Tracer | None = None,
    path: int = 0,
) -> _Internal:
    if sigma is EMPTY:
        if tracer is not None:
            _skip(t, path, tracer)
        return EMPTY
    budget.charge()
    return RULES.get(t.op, _variable)(t, sigma, budget, tracer, path)


def _skip_from(t: Term, first: int, path: int, tracer: Tracer) -> None:
    """Report the operand slots of t from `first` on as skipped."""
    kids = t.children
    for i in range(first, len(kids)):
        _skip(kids[i], _child(path, i), tracer)


def _literal(t, sigma, budget, tracer, path):
    v = LITERALS[t.op]
    if tracer is not None:
        _skip_from(t, 0, path, tracer)
        tracer.on_value(path, v)
    return v


def _variable(t, sigma, budget, tracer, path):
    v = sigma.values[sigma.universe.index(t.op)]
    if tracer is not None:
        _skip_from(t, 0, path, tracer)
        tracer.on_value(path, v)
    return v


def _padding(t, sigma, budget, tracer, path):
    if tracer is not None:
        _skip_from(t, 0, path, tracer)
        tracer.on_value(path, EMPTY)
    return EMPTY


def _unary(fn):
    # a widened unary operator ignores its padding slot
    def rule(t, sigma, budget, tracer, path):
        a = _run(t.children[0], sigma, budget, tracer, 2 * path + 1)
        if tracer is not None:
            _skip_from(t, 1, path, tracer)
        v = EMPTY if a is EMPTY else fn(a)
        if tracer is not None:
            tracer.on_value(path, v)
        return v

    return rule


def _binary(fn):
    # strict in both operands, evaluated left to right
    def rule(t, sigma, budget, tracer, path):
        left, right = t.children
        a = _run(left, sigma, budget, tracer, 2 * path + 1)
        b = _run(right, sigma, budget, tracer, 2 * path + 2)
        v = EMPTY if a is EMPTY or b is EMPTY else fn(a, b)
        if tracer is not None:
            tracer.on_value(path, v)
        return v

    return rule


def _assign(t, sigma, budget, tracer, path):
    target, rhs = t.children
    _run(target, sigma, budget, tracer, 2 * path + 1)
    v = _run(rhs, sigma, budget, tracer, 2 * path + 2)
    out = EMPTY if v is EMPTY else sigma.set(target.op, v)
    if tracer is not None:
        tracer.on_run(path, (sigma, out))
    return out


def _seq(t, sigma, budget, tracer, path):
    # A chain of `seq` nodes nested to the right (how `;` parses) runs in
    # this one frame: each further link is charged here on entry, so a
    # long statement list does not deepen the recursion.
    links = []  # (path, input state) of each link, for the tracer
    while True:
        first, rest = t.children
        if tracer is not None:
            links.append((path, sigma))
        sigma = _run(first, sigma, budget, tracer, 2 * path + 1)
        path = 2 * path + 2
        if rest.op != "seq" or sigma is EMPTY:
            break
        budget.charge()
        t = rest
    out = _run(rest, sigma, budget, tracer, path)
    if tracer is not None:
        for link, before in reversed(links):
            tracer.on_run(link, (before, out))
    return out


def _if(t, sigma, budget, tracer, path):
    guard, body = t.children
    g = _run(guard, sigma, budget, tracer, 2 * path + 1)
    if g is not EMPTY and g:
        out = _run(body, sigma, budget, tracer, 2 * path + 2)
    else:
        if tracer is not None:
            _skip(body, 2 * path + 2, tracer)
        out = EMPTY if g is EMPTY else sigma
    if tracer is not None:
        tracer.on_run(path, (sigma, out))
    return out


def _while(t, sigma, budget, tracer, path):
    guard, body = t.children
    guard_path, body_path = 2 * path + 1, 2 * path + 2
    states = [sigma]
    cur = sigma
    while True:
        g = _run(guard, cur, budget, tracer, guard_path)
        if g is EMPTY:
            cur = EMPTY
            break
        if not g:
            break
        cur = _run(body, cur, budget, tracer, body_path)
        budget.charge()  # completed iteration
        if cur is EMPTY:
            break
        if tracer is not None:
            states.append(cur)
    if tracer is not None:
        tracer.on_run(path, tuple(states) if cur is not EMPTY else (*states, EMPTY))
    return cur


Rule = Callable[[Term, State, Budget, Union[Tracer, None], int], _Internal]

# Names missing from the table are variables.
RULES: dict[str, Rule] = {
    **{op: _literal for op in LITERALS},
    **{op: (_unary if op_info(op).arity == 1 else _binary)(fn)
       for op, fn in VALUE_OPS.items()},
    ":=": _assign,
    "seq": _seq,
    "if": _if,
    "while": _while,
    "nop": _padding,
    "null": _padding,
}


def _wrap(t: Term, v: _Internal) -> EvalOutcome:
    if v is EMPTY:
        return DUMMY
    if isinstance(v, State):
        return StateOut(v)
    if isinstance(v, bool):
        return BoolValue(v)
    return Value(v)


def eval_term(t: Term, sigma: Union[State, EmptyState], fuel: int) -> EvalOutcome:
    """Big-step outcome of t on sigma under the given fuel budget."""
    budget = Budget(fuel)
    try:
        return _wrap(t, _run(t, sigma, budget))
    except _OutOfFuel:
        return FUEL_EXHAUSTED
    except _FaultSignal as f:
        return Fault(f.reason)


def terminate_within(t: Term, sigma: Union[State, EmptyState], n: int) -> bool:
    """True when evaluation settles (any outcome but fuel exhaustion)."""
    return eval_term(t, sigma, n) is not FUEL_EXHAUSTED


def loop_trace(
    b: Term, s: Term, sigma: State, fuel: int
) -> Union[tuple, Fault, FuelExhausted]:
    """Witness sequence of the loop `while b do s` started at sigma.

    Returns states t0..tk with t0 = sigma, b true and one s-step between
    consecutive states, and b false at tk.  Charges fuel exactly like
    evaluating the loop itself: one unit for the loop node, the usual
    cost of every guard and body evaluation, one unit per completed
    iteration.  Rebuilt here from single-step evaluations rather than by
    calling the loop rule of the interpreter.
    """
    if b.sort is not Sort.BOOL or s.sort is not Sort.STMT:
        raise ValueError("loop_trace needs a Boolean guard and a Statement body")
    budget = Budget(fuel)
    states = [sigma]
    cur = sigma
    try:
        budget.charge()  # the loop node itself
        while True:
            g = _run(b, cur, budget)
            if g is EMPTY:
                return Fault("dummy guard")
            if not g:
                return tuple(states)
            nxt = _run(s, cur, budget)
            budget.charge()
            if nxt is EMPTY or not isinstance(nxt, State):
                return Fault("dummy body")
            states.append(nxt)
            cur = nxt
    except _OutOfFuel:
        return FUEL_EXHAUSTED
    except _FaultSignal as f:
        return Fault(f.reason)


def format_outcome(outcome: EvalOutcome) -> str:
    """Render an outcome the way the command line interface prints it."""
    if isinstance(outcome, StateOut):
        return f"state: {outcome.state}"
    if isinstance(outcome, Value):
        return f"value: {outcome.value}"
    if isinstance(outcome, BoolValue):
        return f"value: {'true' if outcome.value else 'false'}"
    if isinstance(outcome, Dummy):
        return "dummy"
    if isinstance(outcome, Fault):
        return f"fault: {outcome.reason}"
    if isinstance(outcome, FuelExhausted):
        return "fuel-exhausted"
    raise AssertionError(f"unhandled outcome {outcome!r}")
