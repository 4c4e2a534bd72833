"""The evaluator and the certificate builder against an independent IMP
interpreter.

`bench/oracle.py` holds a small interpreter of its own: it reads only a
term's `op` and `children`, keeps states as dicts and shares no code with
`impsynth.semantics`.  It is loaded here by path as a module object of
this test alone, with a lower step cap so that diverging runs end fast.
The sweeps read `bench/loops.rtg`, the fixture grammars and one grammar
with `-` and `/` on the states of the semantics oracle; every file under
`bench/` is an input only.
"""

from __future__ import annotations

import functools
import importlib.util

from impsynth.grammar import embed, enumerate_terms, parse_grammar
from impsynth.semantics import (
    FUEL_EXHAUSTED,
    BoolValue,
    Fault,
    StateOut,
    Value,
    eval_term,
)
from impsynth.terms import State
from impsynth.value_tree import ValueTree, build_value_tree, validate_report

from .test_semantics_oracle import ROOT, _GRAMMARS, _grammar, _states

SIZE = 8
FUEL = 4_000
STEPS = 2_000  # the reference's cap on node activations
SAMPLE = 7  # every SAMPLE-th pair that settles has its least fuel compared
# None of the shared grammars has `-` or `/`; with them a run meets
# division by zero and negative values
FAULTING = ("(grammar (vars x y) (start S) (rule S (:= V E)) (rule S (while B S))"
            " (rule B (< E E)) (rule V x) (rule E 0) (rule E 1) (rule E x)"
            " (rule E (- E E)) (rule E (/ E E)))")


def _load_reference(steps: int):
    """A fresh module object of the reference with its own step cap."""
    spec = importlib.util.spec_from_file_location(
        f"reference_semantics_oracle_{steps}", ROOT / "bench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.MAX_STEPS = steps
    return module


reference = _load_reference(STEPS)


def _plain(v) -> tuple:
    """A value or state in one comparable form; a bool is not an int."""
    if isinstance(v, dict):
        return ("state", tuple(sorted(v.items())))
    if isinstance(v, State):
        return _plain(reference.state_dict(v))
    return (type(v).__name__, v)


def _reference_outcome(t, sigma):
    """The reference's outcome of t on sigma, or None when it does not
    settle within its step cap."""
    try:
        return _plain(reference.run(t, reference.state_dict(sigma)))
    except reference.Fault:
        return ("fault",)
    except reference.OutOfSteps:
        return None


def _outcome(o):
    """`eval_term`'s outcome in the reference's form, or None for a fuel-out."""
    if o is FUEL_EXHAUSTED:
        return None
    if isinstance(o, Fault):
        return ("fault",)
    if isinstance(o, StateOut):
        return _plain(o.state)
    assert isinstance(o, (Value, BoolValue)), o
    return _plain(o.value)


def _least_fuel(t, sigma, top: int) -> int:
    """Least fuel at which t settles on sigma, given that it does at top."""
    lo, hi = 0, top
    while lo < hi:
        mid = (lo + hi) // 2
        if eval_term(t, sigma, mid) is FUEL_EXHAUSTED:
            lo = mid + 1
        else:
            hi = mid
    return lo


@functools.cache
def _rows(source: str) -> tuple:
    """(term, its embedding, state, eval_term outcome, reference outcome)
    for every term of one grammar (a path under the root, or the text
    FAULTING) up to SIZE and every state."""
    g = parse_grammar(source) if source == FAULTING else _grammar(source)
    states = _states(g.universe)
    rows = []
    for t in enumerate_terms(g, SIZE):
        padded = embed(t)
        for sigma in states:
            rows.append((t, padded, sigma, eval_term(t, sigma, FUEL),
                         _reference_outcome(t, sigma)))
    return tuple(rows)


def _sweep() -> tuple:
    return sum(map(_rows, _GRAMMARS + [FAULTING]), ())


def test_sweep_size():
    rows = sum(map(_rows, _GRAMMARS), ())
    settled = [r for r in rows if r[4] is not None]
    # 69 runs diverge: loops whose guard stays true
    assert (len(rows), len(settled)) == (1_305, 1_236)
    outcomes = [r[4] for r in _rows(FAULTING)]
    settled = [o for o in outcomes if o is not None]
    faults = settled.count(("fault",))
    negative = [o for o in settled if o[0] == "state" and min(v for _, v in o[1]) < 0]
    # 16 runs diverge
    assert (len(outcomes), len(settled), faults, len(negative)) == (792, 776, 270, 106)


def test_eval_term_agrees_with_the_reference():
    mismatches, one_sided = [], []
    for t, _, sigma, outcome, want in _sweep():
        got = _outcome(outcome)
        if (got is None) != (want is None):
            one_sided.append((t, sigma, got, want))
        elif got != want:
            mismatches.append((t, sigma, got, want))
    assert mismatches == []
    # `eval_term` also charges one unit per completed iteration, so at
    # FUEL = 2 * STEPS every run the reference settles settles here too;
    # no swept run takes between STEPS and FUEL activations
    assert one_sided == []


def test_embedding_keeps_outcome_and_fuel():
    for i, (t, padded, sigma, outcome, _) in enumerate(_sweep()):
        assert eval_term(padded, sigma, FUEL) == outcome, (t, sigma)
        if outcome is not FUEL_EXHAUSTED and i % SAMPLE == 0:
            need = _least_fuel(t, sigma, FUEL)
            assert eval_term(padded, sigma, need) == outcome, (t, sigma)
            assert need == 0 or eval_term(padded, sigma, need - 1) is FUEL_EXHAUSTED


def test_built_trees_validate_and_give_the_reference_output():
    for t, padded, sigma, outcome, want in _sweep():
        if want is None or want == ("fault",):
            continue
        for term in (t, padded):
            v = build_value_tree(term, sigma, FUEL)
            assert isinstance(v, ValueTree), (term, sigma, v)
            assert validate_report(term, sigma, v) == (True, None), (term, sigma)
            assert _plain(v.root_output()) == want, (term, sigma)
