"""Command-line front end.

One executable, ten subcommands::

    parse       check and pretty-print a program
    run         evaluate a program on a state under a fuel budget
    encode      number a term, state, or sequence
    decode      invert `encode`
    binform     print the padded binary form of a grammar
    certify     emit an arithmetized evidence certificate for one run
    check-cert  validate a certificate against a program and state
    synth       search a grammar for a term meeting a predicate
    cegis       counterexample-guided search over a boxed domain
    classify    difficulty class of a synthesis-problem family

Exit codes: 0 success (`synth`/`cegis`: a term was found), 1 invalid
certificate, 2 unrealizable, 3 budget exhausted, 64 usage or malformed
input, 66 unreadable file, 70 internal error or capability limit.

`--json` swaps the human lines for one JSON object on stdout; field
names are documented in the README and stay stable.  Large integers
print in full decimal, or hexadecimal under `--hex`; in JSON they are
strings, since many JSON readers mangle big numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterable

from .codec import (
    BetaPair,
    CodecError,
    EncodedTree,
    decode_seq,
    decode_state,
    decode_term,
    encode_seq,
    encode_state,
    encode_term,
    factorial_base_size,
    heap_height,
)
from .grammar import (
    GrammarError,
    embed,
    is_perfect,
    parse_grammar,
    serialize_grammar,
    strip,
    to_bin_form,
)
from .semantics import eval_term, format_outcome
from .spec_lang import SpecError
from .synthesis import (
    CLASSIFY_VARIANTS,
    Realized,
    SynthesisError,
    Unrealizable,
    cegis,
    classify,
    load_problem,
    synthesize,
)
from .terms import (
    Sort,
    State,
    Term,
    TermError,
    VarUniverse,
    parse_state,
    parse_term,
    print_term,
    term_height,
    to_prefix,
)
from .value_tree import (
    ValueTree,
    build_value_tree,
    decode_value_tree,
    encode_value_tree,
    validate_report,
)

EX_USAGE = 64
EX_NOINPUT = 66
EX_INTERNAL = 70


class _UsageError(Exception):
    """Malformed flags or malformed input data; exits 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


# ---------------------------------------------------------------------------
# Small input helpers


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _parse_vars(text: str) -> VarUniverse:
    return VarUniverse(tuple(text.replace(",", " ").split()))


def _load_program(args: argparse.Namespace,
                  universe: VarUniverse | None) -> tuple[Term, VarUniverse]:
    if getattr(args, "program", None):
        text = _read_file(args.program)
    elif getattr(args, "text", None) is not None:
        text = args.text
    else:
        raise _UsageError("give a program with --program FILE or --text TEXT")
    term = parse_term(text, universe)
    if universe is None:
        # a bare program's variables, in preorder: their order of first
        # appearance in the text
        names = dict.fromkeys(n.op for n in term.walk() if n.sort is Sort.VAR)
        universe = VarUniverse(tuple(names) or ("x",))
    return term, universe


def _parse_ints(raw: Iterable[str]) -> list[int]:
    """Decimal integers, or hexadecimal ones with the 0x prefix `--hex` prints."""
    values = []
    for piece in raw:
        base = 16 if piece.lstrip("+-")[:2].lower() == "0x" else 10
        try:
            values.append(int(piece, base))
        except ValueError:
            raise _UsageError(f"bad integer {piece!r}") from None
    return values


def _parse_numbers(raw: Iterable[str], want: int, what: str) -> list[int]:
    values = _parse_ints(raw)
    if len(values) != want:
        raise _UsageError(f"{what} takes exactly {want} integers, "
                          f"got {len(values)}")
    if any(v < 0 for v in values):
        raise _UsageError(f"{what} integers must be non-negative")
    return values


def _format_int(n: int, args: argparse.Namespace) -> str:
    return hex(n) if getattr(args, "hex", False) else str(n)


def _emit(args: argparse.Namespace, obj: dict, human: list[str],
          quiet_keep: int | None = None) -> None:
    """Print either the JSON object or the human lines."""
    if args.json:
        print(json.dumps(obj))
        return
    lines = human
    if args.quiet and quiet_keep is not None:
        lines = human[:quiet_keep]
    for line in lines:
        print(line)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_parse(args: argparse.Namespace) -> int:
    universe = _parse_vars(args.vars) if args.vars else None
    term, universe = _load_program(args, universe)
    canonical = print_term(term)
    prefix = to_prefix(term)
    _emit(args,
          {"canonical": canonical, "prefix": prefix,
           "vars": list(universe)},
          [prefix if args.prefix else canonical])
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    sigma = parse_state(args.state)
    term, _ = _load_program(args, sigma.universe)
    outcome = eval_term(term, sigma, args.fuel)
    line = format_outcome(outcome)
    kind, _, detail = line.partition(": ")
    obj: dict = {"outcome": kind}
    if kind == "state":
        out_state = outcome.state
        obj["state"] = {name: out_state.get(name)
                        for name in out_state.universe}
    elif kind == "value":
        obj["value"] = detail
    elif kind == "fault":
        obj["reason"] = detail
    _emit(args, obj, [line])
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    if args.as_what == "term":
        universe = _parse_vars(args.vars) if args.vars else None
        term, universe = _load_program(args, universe)
        try:
            if not is_perfect(term):
                # embed adds a level; refuse before building the padded tree
                factorial_base_size(2 ** (term_height(term) + 2) - 1)
                term = embed(term)
            enc = encode_term(term, universe)
        except CodecError as err:
            print(f"error: term numbers out of reach: {err}", file=sys.stderr)
            return EX_INTERNAL
        triple = (enc.seq.a, enc.seq.b, enc.seq.length)
        _emit(args,
              {"as": "term", "a": str(triple[0]), "b": str(triple[1]),
               "length": triple[2], "height": enc.height},
              [" ".join(_format_int(v, args) for v in triple)])
        return 0
    if args.as_what == "state":
        if not args.state:
            raise _UsageError("encode --as state needs --state")
        code = encode_state(parse_state(args.state))
        _emit(args, {"as": "state", "code": str(code)},
              [_format_int(code, args)])
        return 0
    if not args.values:
        raise _UsageError("encode --as seq needs --values \"n1 n2 ...\"")
    pair = encode_seq(_parse_ints(args.values.replace(",", " ").split()))
    _emit(args,
          {"as": "seq", "a": str(pair.a), "b": str(pair.b),
           "length": pair.length},
          [" ".join(_format_int(v, args)
                    for v in (pair.a, pair.b, pair.length))])
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    if args.as_what == "term":
        if not args.vars:
            raise _UsageError("decode --as term needs --vars")
        universe = _parse_vars(args.vars)
        a, b, length = _parse_numbers(args.numbers, 3, "decode --as term")
        enc = EncodedTree(BetaPair(a, b, length), heap_height(length))
        term = decode_term(enc, universe)
        # Encoded terms carry their padding; the prefix form shows it
        # exactly, and the stripped rendering is the program it stands for.
        _emit(args,
              {"as": "term", "prefix": to_prefix(term),
               "stripped": print_term(strip(term))},
              [to_prefix(term)])
        return 0
    if args.as_what == "state":
        if not args.vars:
            raise _UsageError("decode --as state needs --vars")
        universe = _parse_vars(args.vars)
        (code,) = _parse_numbers(args.numbers, 1, "decode --as state")
        sigma = decode_state(code, universe)
        _emit(args,
              {"as": "state",
               "state": {name: sigma.get(name) for name in universe}},
              [str(sigma)])
        return 0
    a, b, length = _parse_numbers(args.numbers, 3, "decode --as seq")
    entries = decode_seq(BetaPair(a, b, length))
    _emit(args, {"as": "seq", "values": entries},
          [" ".join(str(v) for v in entries)])
    return 0


def _cmd_binform(args: argparse.Namespace) -> int:
    grammar = parse_grammar(_read_file(args.grammar))
    text = serialize_grammar(to_bin_form(grammar))
    _emit(args, {"grammar": text}, [text])
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    sigma = parse_state(args.state)
    term, _ = _load_program(args, sigma.universe)
    built = build_value_tree(term, sigma, args.fuel)
    if not isinstance(built, ValueTree):
        print(f"error: no certificate: evaluation ended with "
              f"{format_outcome(built)}", file=sys.stderr)
        return 1
    try:
        enc = encode_value_tree(built)
    except CodecError as err:
        print(f"error: certificate numbers out of reach: {err}",
              file=sys.stderr)
        return EX_INTERNAL
    triple = (enc.seq.a, enc.seq.b, enc.seq.length)
    _emit(args,
          {"a": str(triple[0]), "b": str(triple[1]), "length": triple[2],
           "height": enc.height},
          [" ".join(_format_int(v, args) for v in triple)])
    return 0


def _cmd_check_cert(args: argparse.Namespace) -> int:
    sigma = parse_state(args.state)
    term, _ = _load_program(args, sigma.universe)
    raw = _read_file(args.cert).split()
    a, b, length = _parse_numbers(raw, 3, "certificate file")
    try:
        enc = EncodedTree(BetaPair(a, b, length), heap_height(length))
        tree = decode_value_tree(enc, term, sigma, sigma.universe)
    except CodecError as err:
        _emit(args, {"valid": False, "error": str(err)},
              [f"invalid: malformed certificate ({err})"])
        return 1
    ok, node = validate_report(term, sigma, tree)
    if ok:
        _emit(args, {"valid": True}, ["valid"])
        return 0
    _emit(args, {"valid": False, "node": node}, [f"invalid: node {node}"])
    return 1


def _stats_line(stats) -> str:
    return (f"stats: candidates={stats.candidates} "
            f"evaluations={stats.evaluations} rounds={stats.rounds} "
            f"fuel-limit={stats.fuel_limit}")


def _stats_obj(stats) -> dict:
    return {"candidates": stats.candidates, "evaluations": stats.evaluations,
            "rounds": stats.rounds, "fuel_limit": stats.fuel_limit}


def _result_pieces(result) -> tuple[str, int, dict, str]:
    """(result tag, exit code, json fields, human line)."""
    if isinstance(result, Realized):
        return ("realized", 0, {"term": print_term(result.term)},
                f"realized: {print_term(result.term)}")
    if isinstance(result, Unrealizable):
        return ("unrealizable", 2, {"proof": result.proof},
                f"unrealizable: {result.proof}")
    return ("budget-exhausted", 3, {"reason": result.reason},
            f"budget-exhausted: {result.reason}")


def _cmd_synth(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    result = synthesize(problem, args.size_budget, fuel_cap=args.fuel)
    tag, code, fields, line = _result_pieces(result)
    obj = {"result": tag, **fields, "stats": _stats_obj(result.stats)}
    _emit(args, obj, [line, _stats_line(result.stats)], quiet_keep=1)
    return code


def _cmd_cegis(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    seeds = [_lift_state(parse_state(raw), problem.universe)
             for raw in (args.seed_states or [])]
    result, state = cegis(problem, seeds, args.rounds, args.size_budget,
                          args.fuel, engine=args.engine)
    tag, code, fields, line = _result_pieces(result)
    history_lines = []
    rounds_json = []
    for i, (cand, cex) in enumerate(state.history):
        cex_text = str(cex) if cex is not None else "-"
        history_lines.append(
            f"round {i + 1}: candidate {print_term(cand)} | "
            f"counterexample {cex_text}")
        rounds_json.append({"candidate": print_term(cand),
                            "counterexample":
                                None if cex is None else str(cex)})
    obj = {"result": tag, **fields, "rounds": rounds_json,
           "examples": [str(s) for s in state.examples],
           "stats": _stats_obj(result.stats)}
    if args.quiet:
        lines = [line]
    else:
        lines = [*history_lines, line, _stats_line(result.stats)]
    _emit(args, obj, lines)
    return code


def _lift_state(sigma: State, universe: VarUniverse) -> State:
    """Reorder a parsed seed state onto the problem's universe."""
    if set(sigma.universe) != set(universe):
        raise _UsageError(
            f"seed state must bind exactly {', '.join(universe)}")
    return State(universe,
                 tuple(sigma.get(name) for name in universe))


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        entry = classify(args.variant, args.n)
    except SynthesisError as err:
        raise _UsageError(str(err)) from err
    _emit(args,
          {"variant": entry.variant, "label": entry.label,
           "note": entry.note},
          [f"{entry.variant}: {entry.label}", f"  {entry.note}"],
          quiet_keep=1)
    return 0


# ---------------------------------------------------------------------------
# Wiring


def _int_at_least(low: int):
    """argparse type for an integer flag that must be at least `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _add_program_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--program", metavar="FILE",
                     help="file holding the program text")
    sub.add_argument("--text", metavar="TEXT",
                     help="program text given inline")


def _build_parser() -> _Parser:
    parser = _Parser(prog="impsynth",
                     description="Arithmetized interpreter and synthesis "
                                 "workbench for a small imperative language.")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of text")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress secondary output lines")
    parser.add_argument("--hex", action="store_true",
                        help="print large integers in hexadecimal")
    # The same flags are accepted after the subcommand; SUPPRESS keeps a
    # flag given before the subcommand from being reset to a default.
    common = argparse.ArgumentParser(add_help=False)
    for flag, help_text in (("--json", "print one JSON object"),
                            ("--quiet", "suppress secondary output lines"),
                            ("--hex", "print large integers in hexadecimal")):
        common.add_argument(flag, action="store_true",
                            default=argparse.SUPPRESS, help=help_text)
    subs = parser.add_subparsers(dest="command", metavar="COMMAND",
                                 parser_class=_Parser)

    p = subs.add_parser("parse", parents=[common],
                        help="check and pretty-print a program")
    _add_program_args(p)
    p.add_argument("--vars", help="comma-separated universe override")
    p.add_argument("--prefix", action="store_true",
                   help="print the parenthesized prefix form")
    p.set_defaults(func=_cmd_parse)

    p = subs.add_parser("run", parents=[common], help="evaluate a program on a state")
    _add_program_args(p)
    p.add_argument("--state", required=True, metavar="BINDINGS",
                   help='input state, e.g. "x=3,y=0"')
    p.add_argument("--fuel", type=_int_at_least(0), default=10_000, metavar="N",
                   help="step budget (default 10000)")
    p.set_defaults(func=_cmd_run)

    p = subs.add_parser("encode", parents=[common], help="number a term, state, or sequence")
    p.add_argument("--as", dest="as_what", required=True,
                   choices=("term", "state", "seq"))
    _add_program_args(p)
    p.add_argument("--vars", help="universe override for --as term")
    p.add_argument("--state", metavar="BINDINGS",
                   help="state to encode for --as state")
    p.add_argument("--values", metavar="LIST",
                   help='sequence to encode for --as seq, e.g. "3 1 4"')
    p.set_defaults(func=_cmd_encode)

    p = subs.add_parser("decode", parents=[common], help="invert encode")
    p.add_argument("--as", dest="as_what", required=True,
                   choices=("term", "state", "seq"))
    p.add_argument("numbers", nargs="*", metavar="N",
                   help="term/seq: A B LENGTH; state: CODE")
    p.add_argument("--vars", help="universe for --as term / --as state")
    p.set_defaults(func=_cmd_decode)

    p = subs.add_parser("binform", parents=[common],
                        help="print the padded binary form of a grammar")
    p.add_argument("--grammar", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_binform)

    p = subs.add_parser("certify", parents=[common],
                        help="emit an evidence certificate for one run")
    _add_program_args(p)
    p.add_argument("--state", required=True, metavar="BINDINGS")
    p.add_argument("--fuel", type=_int_at_least(0), default=10_000, metavar="N")
    p.set_defaults(func=_cmd_certify)

    p = subs.add_parser("check-cert", parents=[common],
                        help="validate a certificate for a program and state")
    _add_program_args(p)
    p.add_argument("--state", required=True, metavar="BINDINGS")
    p.add_argument("--cert", required=True, metavar="FILE",
                   help="file with the three certificate numbers")
    p.set_defaults(func=_cmd_check_cert)

    p = subs.add_parser("synth", parents=[common], help="search a grammar for a term")
    p.add_argument("--problem", required=True, metavar="FILE")
    p.add_argument("--size-budget", required=True, type=_int_at_least(1), metavar="N")
    p.add_argument("--fuel", type=_int_at_least(0), default=2 ** 16, metavar="N",
                   help="fuel cap for grammars with loops")
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("cegis", parents=[common], help="counterexample-guided search")
    p.add_argument("--problem", required=True, metavar="FILE")
    p.add_argument("--rounds", required=True, type=_int_at_least(1), metavar="R")
    p.add_argument("--size-budget", required=True, type=_int_at_least(1), metavar="N")
    p.add_argument("--fuel", type=_int_at_least(0), default=1024, metavar="N")
    p.add_argument("--seed", dest="seed_states", action="append",
                   metavar="BINDINGS",
                   help='seed example state, e.g. "x=0,y=0" (repeatable)')
    p.add_argument("--engine", choices=("auto", "dovetail"), default="auto")
    p.set_defaults(func=_cmd_cegis)

    p = subs.add_parser("classify", parents=[common],
                        help="difficulty class of a problem family")
    p.add_argument("--variant", required=True,
                   help=f"one of: {', '.join(CLASSIFY_VARIANTS)}")
    p.add_argument("--n", type=int, default=None,
                   help="quantifier depth for spec-sigma")
    p.set_defaults(func=_cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EX_USAGE
    # Certificates run to tens of thousands of digits, past Python's default
    # limit on int-string conversion.  The limit is lifted for this call
    # only, because tests and other callers run main in their own process.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EX_USAGE
    except (TermError, GrammarError, CodecError, SpecError,
            SynthesisError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EX_USAGE
    except RecursionError:
        # the parser, printer, evaluator and certificate builders recurse
        # once per level of nesting
        print("error: nesting too deep: terms this deep are out of reach of "
              "the recursive term walks", file=sys.stderr)
        return EX_INTERNAL
    except Exception as err:
        if isinstance(err, OSError) and err.filename is not None:
            print(f"error: cannot read {err.filename}: {err.strerror}",
                  file=sys.stderr)
            return EX_NOINPUT
        print(f"internal error: {err}", file=sys.stderr)
        return EX_INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
