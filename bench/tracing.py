"""Traced runs: wrappers around the library's public functions.

``Tracer.install`` replaces each wrapped function by name in every module
that imported it (and ``Predicate.holds`` on its class); ``uninstall``
puts the originals back.  An untraced run never creates a Tracer.

Calls that happen a handful of times per unit (cegis, verify, the value
tree and codec functions) each become a span: name, start, end, parent
span, unit id.  Calls that happen tens of thousands of times per unit
(``eval_term``, ``Predicate.holds`` and each step of the
``enumerate_terms`` iterator) are folded into one aggregate record per
(parent span, name) holding a count and the seconds spent; one span per
evaluation, at about 150 bytes, would take some 200 MB in a cegis run.
Everything stays in memory until ``write_jsonl`` at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

from impsynth import codec, grammar, semantics, spec_lang, synthesis, value_tree

_clock = time.perf_counter

SPANNED = [
    (synthesis, "cegis"),
    (synthesis, "synthesize_pbe"),
    (synthesis, "verify"),
    (value_tree, "build_value_tree"),
    (value_tree, "encode_value_tree"),
    (value_tree, "decode_value_tree"),
    (value_tree, "validate_report"),
    (codec, "encode_seq"),
    (codec, "decode_seq"),
]
EVAL = "semantics.eval_term"  # every call
FUEL_OUT = "semantics.eval_term.fuel_out"  # the calls that ran out of fuel
HOLDS = "spec_lang.holds"
ENUM = "grammar.enumerate_terms"


UNITS = {
    "grammar.terms": "count",
    "grammar.us_per_term": "us",
    "semantics.eval_calls": "count",
    "semantics.us_per_eval": "us",
    "semantics.fuel_outs": "count",
    "semantics.ns_per_fuel": "ns",
    "semantics.repeat_evals": "count",
    "spec_lang.holds_calls": "count",
    "spec_lang.us_per_holds": "us",
    "synthesis.candidates": "count",
    "synthesis.evaluations": "count",
    "synthesis.candidates_per_round": "count",
    "synthesis.verify_calls": "count",
    "synthesis.ms_per_verify": "ms",
    "synthesis.self_ms": "ms",
    "codec.encode_us_per_cell": "us",
    "codec.decode_us_per_cell": "us",
    "codec.b_bits": "bits",
    "value_tree.build_us": "us",
    "value_tree.encode_self_ms": "ms",
    "value_tree.decode_self_ms": "ms",
    "value_tree.validate_us": "us",
}


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _span_info(name: str, args: tuple, result) -> dict:
    if name == "codec.encode_seq":
        return {"cells": result.length, "b_bits": result.b.bit_length()}
    if name == "codec.decode_seq":
        return {"cells": args[0].length}
    return {}


class Tracer:
    def __init__(self, extra_modules=()) -> None:
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if n.startswith("impsynth")] + list(extra_modules)
        # spans[i] = [name, start, end, parent, unit, info]
        self.spans: list[list] = []
        # (parent span, name) -> [count, seconds, fuel]
        self.aggregates: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0])
        self.stack: list[int | None] = [None]
        self.unit: int | None = None
        self.seen: set = set()
        self.repeats: dict[int, int] = defaultdict(int)
        self._patched: list[tuple] = []

    # -- installing --------------------------------------------------------

    def _patch(self, original, wrapper) -> None:
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def install(self) -> None:
        for module, attr in SPANNED:
            original = getattr(module, attr)
            self._patch(original, self._span_wrapper(f"{_layer(module)}.{attr}",
                                                     original))
        self._patch(semantics.eval_term, self._eval_wrapper(semantics.eval_term))
        self._patch(grammar.enumerate_terms,
                    self._enum_wrapper(grammar.enumerate_terms))
        holds = spec_lang.Predicate.holds
        spec_lang.Predicate.holds = self._holds_wrapper(holds)
        self._patched.append((spec_lang.Predicate, "holds", holds))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent is None:  # outside a unit: not measured
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [name, 0.0, 0.0, parent, self.unit, {}]
            spans.append(span)
            stack.append(sid)
            span[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
            span[5] = _span_info(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, name: str, seconds: float, fuel: int = 0) -> None:
        agg = self.aggregates[(self.stack[-1], name)]
        agg[0] += 1
        agg[1] += seconds
        agg[2] += fuel

    def _eval_wrapper(self, fn):
        exhausted = semantics.FUEL_EXHAUSTED

        def eval_term(t, sigma, fuel):
            if self.stack[-1] is None:
                return fn(t, sigma, fuel)
            start = _clock()
            out = fn(t, sigma, fuel)
            seconds = _clock() - start
            self._add(EVAL, seconds, fuel)
            if out is exhausted:
                self._add(FUEL_OUT, seconds, fuel)
            key = (t, sigma)
            if key in self.seen:
                self.repeats[self.unit] += 1
            else:
                self.seen.add(key)
            return out

        eval_term.__wrapped__ = fn
        return eval_term

    def _holds_wrapper(self, fn):
        def holds(pred, sigma, f, outcome):
            if self.stack[-1] is None:
                return fn(pred, sigma, f, outcome)
            start = _clock()
            result = fn(pred, sigma, f, outcome)
            self._add(HOLDS, _clock() - start)
            return result

        holds.__wrapped__ = fn
        return holds

    def _enum_wrapper(self, fn):
        def enumerate_terms(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                start = _clock()
                try:
                    term = next(inner)
                except StopIteration:
                    return
                if self.stack[-1] is not None:
                    self._add(ENUM, _clock() - start)
                yield term

        enumerate_terms.__wrapped__ = fn
        return enumerate_terms

    # -- units -------------------------------------------------------------

    def begin_unit(self, unit: int) -> None:
        self.unit = unit
        self.seen = set()
        self.repeats[unit] = 0
        self.spans.append(["bench.unit", _clock(), 0.0, None, unit, {}])
        self.stack.append(len(self.spans) - 1)

    def end_unit(self) -> None:
        sid = self.stack.pop()
        self.spans[sid][2] = _clock()
        self.unit = None
        self.seen = set()

    # -- results -----------------------------------------------------------

    def per_unit(self) -> dict[int, dict[str, float]]:
        """Counters and seconds of each traced unit, by name."""
        units: dict[int, dict[str, float]] = {}
        child_s = defaultdict(float)  # span id -> seconds in child spans/aggs
        for span in self.spans:
            name, start, end, parent, unit, info = span
            row = units.setdefault(unit, defaultdict(float))
            if parent is not None:
                child_s[parent] += end - start
            row[name + ".n"] += 1
            row[name + ".s"] += end - start
            for key, value in info.items():
                row[f"{name}.{key}"] += value
        for (parent, name), (count, seconds, fuel) in self.aggregates.items():
            row = units[self.spans[parent][4]]
            if name != FUEL_OUT:  # already counted under EVAL
                child_s[parent] += seconds
            row[name + ".n"] += count
            row[name + ".s"] += seconds
            row[name + ".fuel"] += fuel
        for sid, span in enumerate(self.spans):
            name, start, end, parent, unit, info = span
            layer = name.split(".")[0]
            if layer in ("synthesis", "value_tree"):
                units[unit][name + ".self_s"] += end - start - child_s[sid]
                units[unit][layer + ".self_s"] += end - start - child_s[sid]
        for unit, count in self.repeats.items():
            units.setdefault(unit, defaultdict(float))["semantics.repeats"] = count
        return units

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, (name, start, end, parent, unit, info) in enumerate(self.spans):
                out.write(json.dumps({"id": sid, "name": name, "start": start,
                                      "end": end, "parent": parent, "unit": unit,
                                      **info}) + "\n")
            for (parent, name), (count, seconds, fuel) in self.aggregates.items():
                out.write(json.dumps({"aggregate": name, "parent": parent,
                                      "unit": self.spans[parent][4],
                                      "count": count, "seconds": seconds,
                                      "fuel": fuel}) + "\n")


def _ratio(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def median_or_zero(values) -> float:
    """Median, or 0 where the layer did no work."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(units: dict[int, dict[str, float]], stats: list) -> dict[str, float]:
    """Per-layer metrics of the traced units.

    Counts are medians over units; times per call are totals over all
    traced units divided by total calls.  A layer that does no work on
    the workload reads 0.
    """
    rows = list(units.values())

    def total(key: str) -> float:
        return sum(r.get(key, 0.0) for r in rows)

    def median(key: str) -> float:
        return median_or_zero(r.get(key, 0.0) for r in rows)

    return {
        "grammar.terms": median(ENUM + ".n"),
        "grammar.us_per_term": _ratio(total(ENUM + ".s"), total(ENUM + ".n"), 1e6),
        "semantics.eval_calls": median(EVAL + ".n"),
        "semantics.us_per_eval": _ratio(total(EVAL + ".s"), total(EVAL + ".n"), 1e6),
        "semantics.fuel_outs": median(FUEL_OUT + ".n"),
        "semantics.ns_per_fuel": _ratio(total(FUEL_OUT + ".s"),
                                        total(FUEL_OUT + ".fuel"), 1e9),
        "semantics.repeat_evals": median("semantics.repeats"),
        "spec_lang.holds_calls": median(HOLDS + ".n"),
        "spec_lang.us_per_holds": _ratio(total(HOLDS + ".s"), total(HOLDS + ".n"), 1e6),
        "synthesis.candidates": median_or_zero(s.candidates for s in stats),
        "synthesis.evaluations": median_or_zero(s.evaluations for s in stats),
        "synthesis.candidates_per_round":
            median_or_zero(s.candidates / s.rounds for s in stats if s.rounds),
        "synthesis.verify_calls": median("synthesis.verify.n"),
        "synthesis.ms_per_verify": _ratio(total("synthesis.verify.s"),
                                          total("synthesis.verify.n"), 1e3),
        "synthesis.self_ms": median("synthesis.self_s") * 1e3,
        "codec.encode_us_per_cell": _ratio(total("codec.encode_seq.s"),
                                           total("codec.encode_seq.cells"), 1e6),
        "codec.decode_us_per_cell": _ratio(total("codec.decode_seq.s"),
                                           total("codec.decode_seq.cells"), 1e6),
        "codec.b_bits": median("codec.encode_seq.b_bits"),
        "value_tree.build_us": _ratio(total("value_tree.build_value_tree.s"),
                                      total("value_tree.build_value_tree.n"), 1e6),
        "value_tree.encode_self_ms":
            median("value_tree.encode_value_tree.self_s") * 1e3,
        "value_tree.decode_self_ms":
            median("value_tree.decode_value_tree.self_s") * 1e3,
        "value_tree.validate_us": _ratio(total("value_tree.validate_report.s"),
                                         total("value_tree.validate_report.n"), 1e6),
    }
