"""Self-test of the benchmark's output checks.

Each check is fed a right answer, which it must pass, and a wrong one,
which it must reject.  Run from the root of the repository:

    python3 bench/selftest.py

It prints one line per case and exits 1 if any check misbehaves.
"""

from __future__ import annotations

import dataclasses
import sys

import run


def main() -> int:
    run.import_library()
    from impsynth.grammar import embed
    from impsynth.synthesis import cegis
    from impsynth.terms import State, VarUniverse, parse_term
    from impsynth.value_tree import (
        Val,
        build_value_tree,
        decode_value_tree,
        encode_value_tree,
        validate_report,
    )

    import oracle
    import workloads

    failures = 0

    def expect(label: str, errors: list[str], wrong: bool) -> None:
        nonlocal failures
        ok = bool(errors) == wrong
        failures += not ok
        verdict = "rejected" if errors else "passed"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
              + (f" ({errors[0]})" if errors else ""))

    # cegis_refute: a counterexample that is not the earliest
    wl = workloads.CegisRefute(seed=0)
    seeds = [State(wl.problem.universe, (0, 0))]
    result, trace = cegis(wl.problem, seeds, wl.ROUNDS, wl.SIZE, wl.FUEL)
    right = workloads.Record({"work": 0.0}, outputs=[(seeds, result, trace)])
    expect("cegis, true history", wl.check(right), wrong=False)
    (cand, cex), *rest = trace.history
    later = next(s for s in wl.problem.domain.states()
                 if s.get("y") > cex.get("y")
                 and not oracle.copies_y(oracle.state_dict(s),
                                         oracle.run(cand, oracle.state_dict(s))))
    forged = dataclasses.replace(trace, history=((cand, later), *rest))
    wrong = workloads.Record({"work": 0.0}, outputs=[(seeds, result, forged)])
    expect(f"cegis, counterexample {later} instead of {cex}", wl.check(wrong),
           wrong=True)

    # pbe_loops: a term that misses one example
    wl = workloads.PbeLoops(seed=0)
    right = wl.run_unit(0)
    expect("pbe, realized term", wl.check(right), wrong=False)
    result, examples, predicate = right.outputs[0]
    misses = parse_term("x := 1 + y")
    bad = oracle.check_pbe(misses, examples, predicate, wl.SIZE)
    expect("pbe, loop-free term x := 1 + y", bad, wrong=True)

    # certify_check: a certificate checked at a perturbed state, and a
    # tree with one payload changed
    universe = VarUniverse.of("x")
    plain = parse_term("x + 1", universe)
    for program in (plain, embed(plain)):
        state, other = State(universe, (1,)), State(universe, (2,))
        built = build_value_tree(program, state, workloads.FUEL)
        decoded = decode_value_tree(encode_value_tree(built), program, state,
                                    universe)
        at_state = validate_report(program, state, decoded)
        at_other = validate_report(program, other, decoded)
        form = "embed" if program is not plain else "plain"
        expect(f"certify {form}, true round trip",
               oracle.check_certificate(plain, {"x": 1}, built, decoded,
                                        at_state, at_other), wrong=False)
        expect(f"certify {form}, checked at x=2 as if true",
               oracle.check_certificate(plain, {"x": 1}, built, decoded,
                                        at_other, at_other), wrong=True)
        for index in (0, 1):
            changed = decoded.with_payload(index, Val(7))
            expect(f"certify {form}, payload {index} changed to 7",
                   oracle.check_certificate(
                       plain, {"x": 1}, built, changed,
                       validate_report(program, state, changed),
                       validate_report(program, other, changed)), wrong=True)
        changed_built = built.with_payload(0, Val(7))
        expect(f"certify {form}, root output changed in both trees",
               oracle.check_certificate(
                   plain, {"x": 1}, changed_built, changed_built,
                   (True, None), (False, 0)), wrong=True)

    print(f"{failures} check(s) misbehaved" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
