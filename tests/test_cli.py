"""Command-line behavior: output shapes, exit codes, flag placement."""

import json
import sys

import pytest

from impsynth.cli import main

from .conftest import FIXTURES


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def box_problem(tmp_path):
    """A loop-free boxed problem solved by ((1 + 1) + x)."""
    (tmp_path / "g.rtg").write_text((FIXTURES / "expr.rtg").read_text())
    prob = tmp_path / "plus_two.prob"
    prob.write_text(
        "(problem\n"
        "  (grammar-file g.rtg)\n"
        "  (mode total)\n"
        "  (domain (box (x 0 5)))\n"
        "  (spec (= out (+ x 2))))\n")
    return str(prob)


# ---------------------------------------------------------------------------
# parse / run


def test_parse_canonical_and_prefix(run):
    code, out, _ = run("parse", "--text", "1+x+1")
    assert (code, out) == (0, "((1 + x) + 1)\n")
    code, out, _ = run("parse", "--text", "1+x+1", "--prefix")
    assert (code, out) == (0, "(+ (+ 1 x) 1)\n")


def test_parse_json(run):
    code, out, _ = run("parse", "--json", "--text", "x := 1; y := x")
    assert code == 0
    assert json.loads(out) == {
        "canonical": "x := 1; y := x",
        "prefix": "(seq (:= x 1) (:= y x))",
        "vars": ["x", "y"],
    }


def test_parse_vars_override(run):
    code, _, err = run("parse", "--text", "x + 1", "--vars", "y")
    assert code == 64
    assert "error" in err


def test_parse_syntax_error(run):
    code, _, err = run("parse", "--text", "1 + + 1")
    assert code == 64
    assert err.startswith("error:")


def test_run_outcomes(run):
    assert run("run", "--text", "x := x + 1", "--state", "x=3") == (
        0, "state: x=4\n", "")
    assert run("run", "--text", "x + 1", "--state", "x=3") == (
        0, "value: 4\n", "")
    assert run("run", "--text", "x / 0", "--state", "x=3") == (
        0, "fault: div0\n", "")
    code, out, _ = run("run", "--text", "while x < 2 do x := x + 1",
                       "--state", "x=0", "--fuel", "5")
    assert (code, out) == (0, "fuel-exhausted\n")


def test_run_json_state(run):
    code, out, _ = run("run", "--json", "--text", "x := x + y",
                       "--state", "x=3,y=4")
    assert code == 0
    assert json.loads(out) == {"outcome": "state", "state": {"x": 7, "y": 4}}


def test_run_state_parsing_errors(run):
    assert run("run", "--text", "x", "--state", "x=")[0] == 64
    assert run("run", "--text", "x", "--state", "while=1")[0] == 64
    assert run("run", "--text", "x", "--state", "x=1,x=2")[0] == 64
    assert run("run", "--text", "x", "--state", "")[0] == 64


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_decode_seq(run):
    code, out, _ = run("encode", "--as", "seq", "--values", "0 1")
    assert (code, out) == (0, "14 6 2\n")
    code, out, _ = run("decode", "--as", "seq", "14", "6", "2")
    assert (code, out) == (0, "0 1\n")


def test_encode_seq_hex(run):
    code, out, _ = run("encode", "--as", "seq", "--values", "0, 1", "--hex")
    assert (code, out) == (0, "0xe 0x6 0x2\n")


def test_encode_json_uses_strings_for_big_ints(run):
    code, out, _ = run("encode", "--json", "--as", "seq", "--values", "0 1")
    assert code == 0
    assert json.loads(out) == {"as": "seq", "a": "14", "b": "6", "length": 2}


def test_encode_decode_state(run):
    code, out, _ = run("encode", "--as", "state", "--state", "x=3")
    assert (code, out) == (0, "7\n")
    code, out, _ = run("decode", "--as", "state", "7", "--vars", "x")
    assert (code, out) == (0, "x=3\n")


def test_encode_decode_term_round_trip(run):
    code, out, _ = run("encode", "--as", "term", "--text", "1 + x + 1")
    assert code == 0
    a, b, length = out.split()
    code, out, _ = run("decode", "--as", "term", a, b, length, "--vars", "x")
    assert code == 0
    assert out == ("(+ (+ (1 null null) (x null null))"
                   " (1 (nop null null) (nop null null)))\n")
    code, out, _ = run("decode", "--json", "--as", "term", a, b, length,
                       "--vars", "x")
    assert json.loads(out)["stripped"] == "((1 + x) + 1)"


def test_encode_is_deterministic(run):
    first = run("encode", "--as", "term", "--text", "x := x + 1")
    second = run("encode", "--as", "term", "--text", "x := x + 1")
    assert first == second


@pytest.mark.parametrize("argv", [
    ("encode", "--as", "seq"),
    ("encode", "--as", "seq", "--values", "1 frog"),
    ("encode", "--as", "state"),
    ("decode", "--as", "term", "1", "2", "3"),          # needs --vars
    ("decode", "--as", "term", "1", "2", "--vars", "x"),  # not 3 numbers
    ("decode", "--as", "seq", "14", "6", "-2"),
    ("decode", "--as", "term", "14", "6", "4", "--vars", "x"),  # not 2^(h+1)-1
])
def test_codec_usage_errors(run, argv):
    code, _, err = run(*argv)
    assert code == 64
    assert "error" in err


# ---------------------------------------------------------------------------
# binform


def test_binform_frozen(run):
    code, out, _ = run("binform", "--grammar", str(FIXTURES / "expr.rtg"))
    assert code == 0
    assert out == (
        "(grammar\n"
        "  (vars x)\n"
        "  (start E)\n"
        "  (rule E (1 NullNT NullNT))\n"
        "  (rule E (x NullNT NullNT))\n"
        "  (rule E (+ E E))\n"
        "  (rule NullNT null)\n"
        "  (rule NullNT (nop NullNT NullNT)))\n")


def test_binform_missing_file(run):
    code, _, err = run("binform", "--grammar", "no/such/file.rtg")
    assert code == 66
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# certify / check-cert


def test_certify_check_cert_cycle(run, tmp_path):
    code, out, _ = run("certify", "--text", "1 + x + 1", "--state", "x=3")
    assert code == 0
    cert = tmp_path / "sum.cert"
    cert.write_text(out)
    code, out, _ = run("check-cert", "--text", "1 + x + 1", "--state", "x=3",
                       "--cert", str(cert))
    assert (code, out) == (0, "valid\n")


def test_check_cert_rejects_tampering(run, tmp_path):
    code, out, _ = run("certify", "--text", "1 + x + 1", "--state", "x=3")
    a, b, length = (int(v) for v in out.split())
    cert = tmp_path / "bad.cert"
    cert.write_text(f"{a + 1} {b} {length}\n")
    code, out, _ = run("check-cert", "--text", "1 + x + 1", "--state", "x=3",
                       "--cert", str(cert))
    assert code == 1
    assert out.startswith("invalid")


def test_check_cert_frozen_fixture(run):
    code, out, _ = run("check-cert",
                       "--program", str(FIXTURES / "sum_binform.imp"),
                       "--state", "x=3",
                       "--cert", str(FIXTURES / "sum_binform.cert"))
    assert (code, out) == (0, "valid\n")


def test_check_cert_malformed(run, tmp_path):
    # not even an (a, b, length) triple: a usage problem, not a certificate
    short = tmp_path / "short.cert"
    short.write_text("1 2\n")
    code, _, err = run("check-cert", "--text", "1 + x + 1", "--state", "x=3",
                       "--cert", str(short))
    assert code == 64 and "error" in err
    # a triple that is no certificate for this term: rejected as invalid
    for body, reason in (("14 6 4", "complete-tree size"),
                         ("1 2 3", "height")):
        cert = tmp_path / "bad.cert"
        cert.write_text(body + "\n")
        code, out, _ = run("check-cert", "--text", "1 + x + 1",
                           "--state", "x=3", "--cert", str(cert), "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["valid"] is False and reason in payload["error"]


@pytest.mark.parametrize("flags", [(), ("--hex",)])
def test_certify_check_cert_past_the_digit_limit(run, tmp_path, flags):
    # this certificate has some 14,800 decimal digits, more than Python
    # converts between int and str by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(*flags, "certify", "--text", "x := x + 1",
                         "--state", "x=6")
    assert (code, err) == (0, "")
    cert = tmp_path / "big.cert"
    cert.write_text(out)
    code, out, _ = run("check-cert", "--text", "x := x + 1", "--state", "x=6",
                       "--cert", str(cert))
    assert (code, out) == (0, "valid\n")
    # main lifts the limit for its own call only
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_decode_reads_hex(run):
    code, out, _ = run("decode", "--as", "seq", "0xe", "0x6", "0x2")
    assert (code, out) == (0, "0 1\n")


def test_certify_divergent_run(run):
    code, _, err = run("certify", "--text", "while x < 2 do x := x + 1",
                       "--state", "x=0", "--fuel", "5")
    assert code == 1
    assert "no certificate" in err


def test_certify_loop_exceeds_codec(run):
    code, _, err = run("certify", "--text", "while x < 2 do x := x + 1",
                       "--state", "x=0")
    assert code == 70
    assert "out of reach" in err


def test_certify_tall_tree_exceeds_codec(run):
    # the 51-level tree is refused before its 2**52 - 1 cells are laid out
    code, _, err = run("certify", "--text", "x := 50", "--state", "x=0")
    assert code == 70
    assert "out of reach" in err
    assert "internal error" not in err


def test_encode_tall_term_is_refused_before_padding(run):
    # embedding the 41-level term would build a padded tree of 2**42 - 1
    # nodes; it is refused before the tree exists
    code, _, err = run("encode", "--as", "term", "--text", "x := 40")
    assert code == 70
    assert "out of reach" in err
    assert "internal error" not in err


@pytest.mark.parametrize("argv", [
    ("run", "--text", "x := 500", "--state", "x=0"),
    ("parse", "--text", "x := 1500"),
])
def test_deep_nesting_is_a_capability_limit(run, argv):
    code, _, err = run(*argv)
    assert code == 70
    assert "out of reach" in err
    assert "internal error" not in err


def test_long_statement_chain_runs(run):
    # `;` nests to the right: 900 levels of `seq`
    chain = "; ".join(["x := x + 1"] * 900)
    code, out, _ = run("run", "--text", chain, "--state", "x=0")
    assert code == 0
    assert out.strip() == "state: x=900"


def test_deep_numeral_runs(run):
    # the numeral desugars to a left-nested chain of 449 additions
    code, out, _ = run("run", "--text", "x := 450", "--state", "x=0")
    assert code == 0
    assert out.strip() == "state: x=450"


# ---------------------------------------------------------------------------
# synth / cegis


def test_synth_realized(run):
    code, out, _ = run("synth", "--problem", str(FIXTURES / "value_five.prob"),
                       "--size-budget", "7", "--quiet")
    assert (code, out) == (0, "realized: ((1 + 1) + x)\n")


def test_synth_stats_line(run):
    code, out, _ = run("synth", "--problem", str(FIXTURES / "value_five.prob"),
                       "--size-budget", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "realized: ((1 + 1) + x)"
    assert lines[1].startswith("stats: candidates=")


def test_synth_json(run):
    code, out, _ = run("synth", "--json", "--problem",
                       str(FIXTURES / "value_five.prob"), "--size-budget", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "realized"
    assert payload["term"] == "((1 + 1) + x)"
    assert set(payload["stats"]) == {
        "candidates", "evaluations", "rounds", "fuel_limit"}


def test_synth_budget_exhausted(run):
    code, out, _ = run("synth", "--problem", str(FIXTURES / "value_five.prob"),
                       "--size-budget", "3", "--quiet")
    assert code == 3
    assert out.startswith("budget-exhausted:")


def test_synth_unrealizable(run, tmp_path):
    (tmp_path / "one.rtg").write_text(
        "(grammar (vars x) (start S) (rule S 1))")
    prob = tmp_path / "two.prob"
    prob.write_text(
        "(problem (grammar-file one.rtg) (mode total)"
        " (domain (finite (state x 0))) (spec (= out 2)))")
    code, out, _ = run("synth", "--problem", str(prob),
                       "--size-budget", "9", "--quiet")
    assert code == 2
    assert out.startswith("unrealizable:")


def test_synth_looping_grammar_on_a_finite_domain(run, tmp_path):
    (tmp_path / "loop.rtg").write_text((FIXTURES / "looping.rtg").read_text())
    prob = tmp_path / "finite.prob"
    prob.write_text(
        "(problem (grammar-file loop.rtg) (mode total)"
        " (domain (finite (state x 3))) (spec (= (out x) 5)))")
    code, out, _ = run("synth", "--problem", str(prob), "--size-budget", "7",
                       "--fuel", "64")
    assert code == 0
    assert out.splitlines()[0] == "realized: x := ((1 + 1) + x)"


def test_synth_looping_grammar_needs_finite_domain(run, tmp_path):
    (tmp_path / "loop.rtg").write_text((FIXTURES / "looping.rtg").read_text())
    prob = tmp_path / "boxed.prob"
    prob.write_text(
        "(problem (grammar-file loop.rtg) (mode total)"
        " (domain (box (x 0 3))) (spec (= (out x) 5)))")
    code, _, err = run("synth", "--problem", str(prob), "--size-budget", "7")
    assert code == 64
    assert "cegis" in err


def test_cegis_realized(run, box_problem):
    code, out, _ = run("cegis", "--problem", box_problem, "--rounds", "10",
                       "--size-budget", "9", "--fuel", "100")
    assert code == 0
    assert out.splitlines() == [
        "round 1: candidate 1 | counterexample x=0",
        "round 2: candidate (1 + 1) | counterexample x=1",
        "round 3: candidate ((1 + 1) + x) | counterexample -",
        "realized: ((1 + 1) + x)",
        "stats: candidates=8 evaluations=26 rounds=3 fuel-limit=100",
    ]


def test_cegis_json(run, box_problem):
    code, out, _ = run("cegis", "--json", "--problem", box_problem,
                       "--rounds", "10", "--size-budget", "9", "--fuel", "100",
                       "--seed", "x=0")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "realized"
    assert payload["rounds"][-1]["counterexample"] is None
    assert payload["examples"][0] == "x=0"


def test_cegis_budget_exhausted(run):
    code, out, _ = run("cegis", "--problem", str(FIXTURES / "copy_small.prob"),
                       "--rounds", "3", "--size-budget", "24", "--fuel", "256",
                       "--quiet")
    assert code == 3
    assert out.startswith("budget-exhausted:")


def test_cegis_seed_outside_universe(run, box_problem):
    code, _, err = run("cegis", "--problem", box_problem, "--rounds", "1",
                       "--size-budget", "9", "--fuel", "100",
                       "--seed", "x=0,y=0")
    assert code == 64
    assert "seed state" in err


# ---------------------------------------------------------------------------
# classify


def test_classify_human(run):
    code, out, _ = run("classify", "--variant", "general")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "general: Σ3-complete"
    assert lines[1].startswith("  ")


def test_classify_quiet_and_sigma_n(run):
    code, out, _ = run("classify", "--variant", "spec-sigma", "--n", "2",
                       "--quiet")
    assert (code, out) == (0, "spec-sigma: in Σ5\n")


def test_classify_json(run):
    code, out, _ = run("classify", "--json", "--variant", "loop-free")
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "loop-free"
    assert payload["label"] == "Σ2-complete"
    assert payload["note"]


def test_classify_unknown_variant(run):
    assert run("classify", "--variant", "frobnication")[0] == 64
    assert run("classify", "--variant", "general", "--n", "1")[0] == 64


# ---------------------------------------------------------------------------
# Global behavior


def test_global_flags_accepted_on_both_sides(run):
    before = run("--json", "classify", "--variant", "general")
    after = run("classify", "--variant", "general", "--json")
    assert before == after
    assert before[0] == 0


@pytest.mark.parametrize("argv, flag", [
    (("run", "--text", "x := 1", "--state", "x=0", "--fuel", "-1"), "--fuel"),
    (("certify", "--text", "x := 1", "--state", "x=0", "--fuel", "-1"),
     "--fuel"),
    (("synth", "--problem", str(FIXTURES / "value_five.prob"),
      "--size-budget", "7", "--fuel", "-1"), "--fuel"),
    (("synth", "--problem", str(FIXTURES / "value_five.prob"),
      "--size-budget", "-3"), "--size-budget"),
    (("cegis", "--problem", str(FIXTURES / "copy.prob"), "--rounds", "1",
      "--size-budget", "24", "--fuel", "-1"), "--fuel"),
    (("cegis", "--problem", str(FIXTURES / "copy.prob"), "--rounds", "1",
      "--size-budget", "0"), "--size-budget"),
    (("cegis", "--problem", str(FIXTURES / "copy.prob"), "--rounds", "-2",
      "--size-budget", "24"), "--rounds"),
    (("cegis", "--problem", str(FIXTURES / "copy.prob"), "--rounds", "0",
      "--size-budget", "24"), "--rounds"),
])
def test_out_of_range_numeric_flags(run, argv, flag):
    code, out, err = run(*argv)
    assert (code, out) == (64, "")
    assert f"argument {flag}: must be at least" in err


def test_numeric_flags_accept_their_lower_bounds(run):
    assert run("run", "--text", "x := 1", "--state", "x=0", "--fuel", "0") == (
        0, "fuel-exhausted\n", "")
    code, out, _ = run("cegis", "--problem", str(FIXTURES / "copy.prob"),
                       "--rounds", "1", "--size-budget", "1", "--quiet")
    assert code == 3 and out.startswith("budget-exhausted")


def test_unknown_subcommand(run):
    code, _, err = run("frobnicate")
    assert code == 64
    assert "error" in err


def test_no_arguments_prints_help(run):
    code, out, _ = run()
    assert code == 64
    assert "usage" in out.lower()


def test_missing_required_flag(run):
    code, _, err = run("synth")
    assert code == 64
    assert "required" in err
