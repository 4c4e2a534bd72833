"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository:

    python3 bench/run.py --workload cegis_refute --seed 1 --seconds 30 --trace 0

Workloads: cegis_refute, pbe_loops, certify_check (see README.md).  The
run builds its inputs from ``--seed``, then repeats units of work until
``--seconds`` have passed, in one process and one thread.
Each unit is timed between two reference times (each the mean of
REF_CALLS runs of the workload's reference loop), and its time is
reported divided by their mean (unit ``ref``).  Every output is checked
against the benchmark's own interpreter.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, and the spans go to
``bench/out/trace_<workload>_<seed>.jsonl``.
"""

import time

_START = time.perf_counter()  # set-up is timed from here: before any import

import argparse
import json
import os
import resource
import statistics
import sys

from reference import time_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("cegis_refute", "pbe_loops", "certify_check")
# The loop's speed flips between two levels about 1.5x apart several times
# a second on a busy 2-core machine; one 10 ms sample per side often lands
# on the level the unit did not mostly run at, three rarely all do.
REF_CALLS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import impsynth from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "impsynth", "__init__.py")):
        raise SystemExit(f"error: no impsynth sources under {SRC}")
    sys.path.insert(0, SRC)
    import impsynth

    if os.path.dirname(os.path.dirname(os.path.abspath(impsynth.__file__))) != SRC:
        raise SystemExit(f"error: impsynth was imported from {impsynth.__file__}")


def _median_iqr(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q2, q3 - q1


class Run:
    """The measuring loop: units of work until the time is up."""

    def __init__(self, workload, tracer) -> None:
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.refs: list[float] = []
        self.raw: list[float] = []
        # per phase ("work", "certify", "check"): ratios of traced and of
        # untraced units
        self.ratios = {True: {}, False: {}}
        self.records = {True: [], False: []}

    def reference(self) -> float:
        samples = [time_reference(self.workload.reference)
                   for _ in range(REF_CALLS)]
        self.refs += samples
        return sum(samples) / REF_CALLS

    def unit(self, k: int, traced: bool) -> None:
        wl = self.workload
        ref0 = self.reference()
        if traced:
            self.tracer.begin_unit(k)
        try:
            record = wl.run_unit(k)
        except Exception as exc:  # a failed operation; the run goes on
            record = None
            print(f"unit {k}: {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            if traced:
                self.tracer.end_unit()
        ref1 = self.reference()
        self.attempted += wl.ops_per_unit
        if record is None:
            self.failed += wl.ops_per_unit
            return
        self.failed += record.failed
        ref = (ref0 + ref1) / 2
        for phase, seconds in record.seconds.items():
            self.ratios[traced].setdefault(phase, []).append(seconds / ref)
        if not traced:
            self.raw.append(record.seconds["work"])
        self.records[traced].append(record)
        self.errors += [f"unit {k}: {e}" for e in wl.check(record)]

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            # a traced run alternates traced and untraced units, which
            # gives the tracing overhead within one run
            traced = self.tracer is not None and k % 2 == 0
            if traced:
                self.tracer.install()
            try:
                self.unit(k, traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            k += 1
            done = time.perf_counter() >= deadline
            if done and (self.tracer is None or k % 2 == 0):
                return


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_library()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - _START

    tracer = tracing.Tracer(extra_modules=[workloads]) if args.trace else None
    run = Run(workload, tracer)
    run.measure(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ref_median, ref_iqr = _median_iqr(run.refs)
    raw_median, _ = _median_iqr(run.raw)
    print(f"reference loop ({workload.reference}): median {ref_median:.6f} s, "
          f"IQR {ref_iqr:.6f} s, {len(run.refs)} samples")
    print(f"{args.workload}: {len(run.raw)} untraced units, raw median "
          f"{raw_median:.4f} s per unit, set-up {setup_s:.4f} s")
    for line in run.errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    untraced = run.ratios[False]
    if args.trace:
        traced = run.ratios[True]
        units = tracer.per_unit()
        stats = [s for r in run.records[True] for s in r.stats]
        metrics = {name: _metric(v, tracing.UNITS[name])
                   for name, v in tracing.layer_metrics(units, stats).items()}
        # only certify_check times these phases and counts bits
        for phase in ("certify", "check"):
            metrics[f"{phase}_time"] = _metric(
                tracing.median_or_zero(untraced.get(phase, ())), "ref")
        metrics["cert_bits"] = _metric(
            tracing.median_or_zero(r.bits for r in run.records[False]), "bits")
        metrics["trace_overhead"] = _metric(
            statistics.median(traced["work"]) / statistics.median(untraced["work"]),
            "ratio")
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace_{args.workload}_{args.seed}.jsonl")
        tracer.write_jsonl(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        if args.workload == "pbe_loops":
            calls = sum(u.get(tracing.EVAL + ".n", 0) for u in units.values())
            evaluations = sum(s.evaluations for s in stats)
            print(f"cross-check: eval_term calls {calls}, "
                  f"SearchStats.evaluations {evaluations}")
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "work_time": _metric(statistics.median(untraced["work"]), "ref"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        }
    print(json.dumps({"correct": not run.errors, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
