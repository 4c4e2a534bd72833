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

An optional tracer receives one callback per node activation, in
chronological order; the certificate builder uses this to reconstruct
full per-node evidence without disturbing fuel accounting.  Subtrees
that an activation skips (padding slots, the body of an `if` whose
guard is false) are reported to the tracer as dummy activations at zero
fuel cost.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Protocol, Union

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
    # heap addressing: children of node p sit at 2p+1 and 2p+2
    return 2 * path + i + 1


def _skip(t: Term, path: int, tracer: Tracer | None) -> None:
    """Record a dummy activation for a whole unexecuted subtree.

    Statement nodes get the run (EMPTY, EMPTY) except `while`, which
    gets the zero-iteration run (EMPTY,) so that its guard/body entry
    arithmetic matches a real zero-iteration activation.
    """
    if tracer is None:
        return
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


def _skip_padding(t: Term, path: int, tracer: Tracer | None) -> None:
    real = op_info(t.op).arity
    for i in range(real, len(t.children)):
        _skip(t.children[i], _child(path, i), tracer)


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


def _run(
    t: Term,
    sigma: Union[State, EmptyState],
    budget: Budget,
    tracer: Tracer | None = None,
    path: int = 0,
) -> _Internal:
    if sigma is EMPTY:
        _skip(t, path, tracer)
        return EMPTY
    budget.charge()
    op = t.op
    kids = t.children

    if t.sort in (Sort.EXPR, Sort.VAR, Sort.BOOL, Sort.NULL):
        v = _run_value(t, sigma, budget, tracer, path)
        if tracer is not None:
            tracer.on_value(path, v)
        return v

    # statements
    if op == ":=":
        target = kids[0]
        _run(target, sigma, budget, tracer, _child(path, 0))
        rhs = _run(kids[1], sigma, budget, tracer, _child(path, 1))
        result: _Internal = EMPTY if rhs is EMPTY else sigma.set(target.op, rhs)
    elif op == "seq":
        mid = _run(kids[0], sigma, budget, tracer, _child(path, 0))
        result = _run(kids[1], mid, budget, tracer, _child(path, 1))
    elif op == "if":
        g = _run(kids[0], sigma, budget, tracer, _child(path, 0))
        if g is EMPTY:
            _skip(kids[1], _child(path, 1), tracer)
            result = EMPTY
        elif g:
            result = _run(kids[1], sigma, budget, tracer, _child(path, 1))
        else:
            _skip(kids[1], _child(path, 1), tracer)
            result = sigma
    elif op == "while":
        states: list = [sigma]
        cur: _Internal = sigma
        while True:
            g = _run(kids[0], cur, budget, tracer, _child(path, 0))
            if g is EMPTY:
                cur = EMPTY
                break
            if not g:
                break
            nxt = _run(kids[1], cur, budget, tracer, _child(path, 1))
            budget.charge()  # completed iteration
            cur = nxt
            if cur is EMPTY:
                break
            states.append(cur)
        if tracer is not None:
            tracer.on_run(path, tuple(states) if cur is not EMPTY else tuple(states) + (EMPTY,))
        return cur
    else:
        raise AssertionError(f"unhandled statement {op!r}")

    if tracer is not None:
        tracer.on_run(path, (sigma, result))
    return result


def _run_value(
    t: Term, sigma: State, budget: Budget, tracer: Tracer | None, path: int
) -> _Internal:
    op = t.op
    kids = t.children
    if t.sort is Sort.NULL:
        for i, c in enumerate(kids):
            _skip(c, _child(path, i), tracer)
        return EMPTY
    if op in LITERALS:
        _skip_padding(t, path, tracer)
        return LITERALS[op]
    if t.sort is Sort.VAR:
        _skip_padding(t, path, tracer)
        return sigma.get(op)
    if op == "not":
        v = _run(kids[0], sigma, budget, tracer, _child(path, 0))
        _skip_padding(t, path, tracer)
        return EMPTY if v is EMPTY else VALUE_OPS[op](v)
    # strict binary operators, left to right
    a = _run(kids[0], sigma, budget, tracer, _child(path, 0))
    b = _run(kids[1], sigma, budget, tracer, _child(path, 1))
    if a is EMPTY or b is EMPTY:
        return EMPTY
    return VALUE_OPS[op](a, b)


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
