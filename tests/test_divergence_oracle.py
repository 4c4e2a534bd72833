"""Loops that come back to a guard state, against two independent judges.

The interpreter stops a `while` run that comes back to a guard state it
already had (`semantics._while`) and reports it as out of fuel.  Here a
stepper of this test's own, which keeps every guard state of every loop
run in a set, finds the runs whose guard state repeats within ITERATIONS
loop iterations on the terms of `bench/loops.rtg` and
`fixtures/looping.rtg` over seeded states.  Each such run must be out of fuel at 10**12, and the
benchmark's interpreter (`bench/oracle.py`) must not settle it within
STEPS steps.  Every other run must agree with that interpreter, as in
`tests/test_reference_semantics.py`.

Every repeat in this sweep comes by a loop run's second iteration.  A run
that never repeats is stopped after ITERATIONS, not more: many of them
double a value each iteration, and at 10,000 iterations their big
integers made this file take about 6 s, against under 2 s at 1,000.
"""

from __future__ import annotations

import functools
import random

from impsynth.grammar import enumerate_terms
from impsynth.semantics import FUEL_EXHAUSTED, eval_term
from impsynth.terms import State

from .test_reference_semantics import (
    FUEL,
    _load_reference,
    _outcome,
    _reference_outcome,
)
from .test_semantics_oracle import _grammar

SEED = 20261022
SAMPLE = 40  # seeded terms of each larger size
ITERATIONS = 1_000  # loop iterations of the stepper, over the whole run
STEPS = 10_000  # node activations of the reference
STATES = 4  # seeded states per grammar
HUGE = 10 ** 12

reference = _load_reference(STEPS)


class _Repeat(Exception):
    """A loop run met a guard state it had already had."""


class _Long(Exception):
    """The run took more than ITERATIONS loop iterations without a repeat."""


def _step(t, env: dict, left: list):
    """Value or final state (a dict) of t on env; `left` counts down the
    loop iterations still allowed."""
    op, kids = t.op, t.children
    if op == "while":
        seen = set()
        while _step(kids[0], env, left):
            key = tuple(sorted(env.items()))
            if key in seen:
                raise _Repeat()
            seen.add(key)
            left[0] -= 1
            if left[0] < 0:
                raise _Long()
            env = _step(kids[1], env, left)
        return env
    if op == "seq":
        return _step(kids[1], _step(kids[0], env, left), left)
    if op == ":=":
        return {**env, kids[0].op: _step(kids[1], env, left)}
    if op == "+":
        return _step(kids[0], env, left) + _step(kids[1], env, left)
    if op == "<":
        return _step(kids[0], env, left) < _step(kids[1], env, left)
    if op in ("0", "1"):
        return int(op)
    if op == "true":
        return True
    return env[op]


def _kind(t, sigma: State) -> str:
    try:
        _step(t, dict(zip(sigma.universe, sigma.values)), [ITERATIONS])
    except _Repeat:
        return "repeat"
    except _Long:
        return "long"
    return "settled"


@functools.cache
def _rows() -> tuple:
    """(term, state, stepper's kind) for the terms of both grammars on
    STATES seeded states over their variables: every term up to size 7
    and SAMPLE seeded terms of each size from 9 to 11."""
    rng = random.Random(SEED)
    rows = []
    for rel in ("bench/loops.rtg", "fixtures/looping.rtg"):
        g = _grammar(rel)
        by_size: dict[int, list] = {}
        for t in enumerate_terms(g, 11):
            by_size.setdefault(t.size, []).append(t)
        terms = [t for size in sorted(by_size) for t in (
            by_size[size] if size <= 7 else rng.sample(by_size[size], SAMPLE))]
        states = [State(g.universe, tuple(rng.randint(-3, 4) for _ in g.universe))
                  for _ in range(STATES)]
        rows.extend((t, sigma, _kind(t, sigma)) for t in terms for sigma in states)
    return tuple(rows)


def test_sweep_size():
    kinds = [kind for _, _, kind in _rows()]
    assert len(kinds) == STATES * (222 + 81 + 4 * SAMPLE)
    # 150 runs come back to a guard state; 40 others run past ITERATIONS
    assert (kinds.count("repeat"), kinds.count("long")) == (150, 40)


def test_repeating_runs_diverge():
    for t, sigma, kind in _rows():
        if kind != "repeat":
            continue
        assert eval_term(t, sigma, HUGE) is FUEL_EXHAUSTED, (t, sigma)
        try:
            reference.run(t, reference.state_dict(sigma))
        except reference.OutOfSteps:
            continue
        raise AssertionError(f"the reference settles {t} on {sigma}")


def test_other_runs_agree_with_the_reference():
    disagree = []
    for t, sigma, kind in _rows():
        if kind == "repeat":
            continue
        got = _outcome(eval_term(t, sigma, FUEL))
        want = _reference_outcome(t, sigma)
        if got != want:
            disagree.append((t, sigma, kind, got, want))
    assert disagree == []
