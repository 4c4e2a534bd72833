"""A small IMP interpreter of the benchmark's own, and the output checks.

The checks judge the library's answers by recomputing them here, apart
from the library: this interpreter reads only a term's ``op`` and
``children`` and keeps states as plain dicts, so it shares no code with
``impsynth.semantics``.  It handles plain (unpadded) loop-free and loop
IMP.  Each check returns a list of error strings; an empty list passes.
"""

from __future__ import annotations


class Fault(Exception):
    """Division by zero."""


class OutOfSteps(Exception):
    """The run took more than MAX_STEPS node activations."""


MAX_STEPS = 100_000


def _div(a: int, b: int) -> int:
    if b == 0:
        raise Fault("div0")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
    "<": lambda a, b: a < b,
    "=": lambda a, b: a == b,
    "and": lambda a, b: a and b,
}


def run(term, state: dict):
    """Value (int or bool) or final state (dict) of ``term`` on ``state``.

    Raises Fault on division by zero and OutOfSteps after MAX_STEPS node
    activations.
    """
    steps = [MAX_STEPS]

    def ev(t, env):
        steps[0] -= 1
        if steps[0] < 0:
            raise OutOfSteps()
        op, kids = t.op, t.children
        if op in ("0", "1"):
            return int(op)
        if op in ("true", "false"):
            return op == "true"
        if op in _BINARY:
            return _BINARY[op](ev(kids[0], env), ev(kids[1], env))
        if op == "not":
            return not ev(kids[0], env)
        if op == ":=":
            out = dict(env)
            out[kids[0].op] = ev(kids[1], env)
            return out
        if op == "seq":
            return ev(kids[1], ev(kids[0], env))
        if op == "if":
            return ev(kids[1], env) if ev(kids[0], env) else env
        if op == "while":
            while ev(kids[0], env):
                env = ev(kids[1], env)
            return env
        if not kids and op in env:
            return env[op]
        raise ValueError(f"the reference interpreter does not handle {op!r}")

    return ev(term, dict(state))


def size(term) -> int:
    return 1 + sum(size(c) for c in term.children)


def reads(term) -> set[str]:
    """Variables the term reads (assignment targets excluded)."""
    if term.op == ":=":
        return reads(term.children[1])
    if not term.children:
        return set() if term.op in ("0", "1", "true", "false") else {term.op}
    return set().union(*(reads(c) for c in term.children))


def state_dict(state) -> dict:
    """An ``impsynth`` State as a plain dict."""
    return dict(zip(state.universe.names, state.values))


# --------------------------------------------------------------------------
# cegis_refute


def copies_y(state: dict, out) -> bool:
    """The spec of example_assignment_problem: out.x = y and out.y = y."""
    return isinstance(out, dict) and out["x"] == state["y"] and out["y"] == state["y"]


def _meets(term, state: dict, predicate) -> bool:
    try:
        out = run(term, state)
    except Fault:
        return False
    return predicate(state, out)


def check_cegis(seed_states: list[dict], history: list, bound: int,
                ended_in_budget: bool, rounds: int) -> list[str]:
    """Checks of one cegis call on example_assignment_problem(bound).

    ``history`` holds (candidate term, counterexample dict or None) per
    round.  Every round must produce a candidate that meets all earlier
    examples, whose counterexample is the earliest domain state, in ``y``
    order, that the candidate fails; the call must end in BudgetExhausted.
    """
    errors = []
    if not ended_in_budget:
        errors.append("the call did not end in BudgetExhausted")
    if len(history) != rounds:
        errors.append(f"history has {len(history)} entries for {rounds} rounds")
    domain = [{"x": 0, "y": y} for y in range(bound + 1)]
    examples = list(seed_states)
    for i, (candidate, cex) in enumerate(history, 1):
        for ex in examples:
            if not _meets(candidate, ex, copies_y):
                errors.append(f"round {i}: candidate fails earlier example {ex}")
        want = next((s for s in domain if not _meets(candidate, s, copies_y)), None)
        if cex != want:
            errors.append(f"round {i}: counterexample {cex}, earliest is {want}")
        if cex is not None:
            examples.append(cex)
    return errors


# --------------------------------------------------------------------------
# pbe_loops


def raise_to_successor(a: str, b: str):
    """Predicate "raise a to b+1": out.a = max(a, b+1) and b unchanged."""

    def holds(state: dict, out) -> bool:
        return (isinstance(out, dict) and out[b] == state[b]
                and out[a] == max(state[a], state[b] + 1))

    return holds


def check_pbe(term, examples: list[dict], predicate, size_budget: int) -> list[str]:
    """A realized term must meet the predicate on every example and fit
    the size budget."""
    if term is None:
        return ["the call did not realize a term"]
    errors = []
    if size(term) > size_budget:
        errors.append(f"term size {size(term)} exceeds the budget {size_budget}")
    for ex in examples:
        try:
            ok = _meets(term, ex, predicate)
        except OutOfSteps:
            ok = False
        if not ok:
            errors.append(f"term misses example {ex}")
    return errors


# --------------------------------------------------------------------------
# certify_check


def check_certificate(plain, state: dict, built, decoded, accepted,
                      rejected_elsewhere) -> list[str]:
    """Checks of one certificate round trip.

    ``plain`` is the unpadded program, ``built`` and ``decoded`` the value
    trees before encoding and after decoding, ``accepted`` the verdict of
    validate_report at the true input and ``rejected_elsewhere`` its
    verdict at an input that differs in one variable the program reads.
    """
    errors = []
    if decoded != built:
        errors.append("decoded tree differs from the built tree")
    if accepted != (True, None):
        errors.append(f"validate_report rejects the true input: {accepted}")
    if rejected_elsewhere[0]:
        errors.append("validate_report accepts a perturbed input")
    want = run(plain, state)
    got = built.root_output()
    if hasattr(got, "universe"):
        got = state_dict(got)
    if got != want or type(got) is not type(want):
        errors.append(f"root output {got!r}, the interpreter gives {want!r}")
    return errors
