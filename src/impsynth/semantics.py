"""Fuel-bounded big-step interpreter for IMP terms, padded or plain.

Evaluation is deterministic and total once a fuel budget is fixed.  One
fuel unit is charged for every node activation (each time a node is
actually executed, so a loop guard is charged once per check) plus one
unit per completed loop iteration.  Padding subtrees are never executed
and never charged, which keeps the fuel use of a padded term identical
to that of the term it was padded from.

The dummy value is `terms.EMPTY`.  Padding nodes (`nop`, `null`) yield
it, and widened nullary and unary operators ignore their padding slots
outright.  A term refuses a Null-sorted child in a real operand slot, so
in a well-sorted term over a real input state the dummy value surfaces
only when the root itself is a padding node, and no rule below ever
meets a dummy operand.  The dummy input state is handled once, where a
run starts: `eval_term` gives the dummy value and `loop_trace` a
"dummy guard" fault.  The rule that a dummy operand gives a dummy result
is written in one place, `value_tree.check_node`, which checks the
evidence of skipped subtrees.  Division by zero raises a fault, which is
distinct from the dummy value.

The interpreter is one recursive walker.  `_run` charges a node and
hands it to the rule of its operator in `RULES`, one rule per operator,
built from `LITERALS` and `VALUE_OPS`; a name missing from the table is
a variable, read from the state by its position.  A chain of `seq` nodes
nested to the right runs in one frame, so a long statement list does
not deepen the recursion.  `eval_term` and `loop_trace` run on it, and
so does the certificate builder (`value_tree.build_value_tree`), which
evaluates value nodes and loop traces on their activation inputs; the
runs of the other statements follow from one flow shared with the
checks.  Every convention of the certificate's evidence lives there.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Union

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
# node's unwrapped result.


def _run(t: Term, sigma: State, budget: Budget) -> _Internal:
    budget.charge()
    return RULES.get(t.op, _variable)(t, sigma, budget)


def _literal(t, sigma, budget):
    return LITERALS[t.op]


def _variable(t, sigma, budget):
    return sigma.values[sigma.universe.index(t.op)]


def _padding(t, sigma, budget):
    return EMPTY


def _unary(fn):
    # a widened unary operator ignores its padding slot
    def rule(t, sigma, budget):
        return fn(_run(t.children[0], sigma, budget))

    return rule


def _binary(fn):
    # strict in both operands, evaluated left to right
    def rule(t, sigma, budget):
        left, right = t.children
        a = _run(left, sigma, budget)
        return fn(a, _run(right, sigma, budget))

    return rule


def _assign(t, sigma, budget):
    target, rhs = t.children
    _run(target, sigma, budget)
    return sigma.set(target.op, _run(rhs, sigma, budget))


def _seq(t, sigma, budget):
    # A chain of `seq` nodes nested to the right (how `;` parses) runs in
    # this one frame: each further link is charged here on entry, so a
    # long statement list does not deepen the recursion.
    while True:
        first, rest = t.children
        sigma = _run(first, sigma, budget)
        if rest.op != "seq":
            return _run(rest, sigma, budget)
        budget.charge()
        t = rest


def _if(t, sigma, budget):
    guard, body = t.children
    if _run(guard, sigma, budget):
        return _run(body, sigma, budget)
    return sigma


def _while(t, sigma, budget):
    guard, body = t.children
    while _run(guard, sigma, budget):
        sigma = _run(body, sigma, budget)
        budget.charge()  # completed iteration
    return sigma


Rule = Callable[[Term, State, Budget], _Internal]

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


def _wrap(v: _Internal) -> EvalOutcome:
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
    if sigma is EMPTY:
        return DUMMY
    try:
        return _wrap(_run(t, sigma, budget))
    except _OutOfFuel:
        return FUEL_EXHAUSTED
    except _FaultSignal as f:
        return Fault(f.reason)


def terminate_within(t: Term, sigma: Union[State, EmptyState], n: int) -> bool:
    """True when evaluation settles (any outcome but fuel exhaustion)."""
    return eval_term(t, sigma, n) is not FUEL_EXHAUSTED


def loop_trace(
    b: Term, s: Term, sigma: Union[State, EmptyState], fuel: int
) -> Union[tuple, Fault, FuelExhausted]:
    """Witness sequence of the loop `while b do s` started at sigma.

    Returns states t0..tk with t0 = sigma, b true and one s-step between
    consecutive states, and b false at tk.  Charges fuel exactly like
    evaluating the loop itself: one unit for the loop node, the usual
    cost of every guard and body evaluation, one unit per completed
    iteration.  Rebuilt here from single-step evaluations rather than by
    calling the loop rule of the interpreter.  On the dummy input state
    the loop node is charged and the result is a "dummy guard" fault.
    """
    if b.sort is not Sort.BOOL or s.sort is not Sort.STMT:
        raise ValueError("loop_trace needs a Boolean guard and a Statement body")
    budget = Budget(fuel)
    states = [sigma]
    try:
        budget.charge()  # the loop node itself
        if sigma is EMPTY:
            return Fault("dummy guard")
        while _run(b, states[-1], budget):
            states.append(_run(s, states[-1], budget))
            budget.charge()
        return tuple(states)
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
