"""End-to-end acceptance checks.

Each test covers one headline guarantee and prints a single [PASS] line
with the measured evidence; independent oracles are computed locally in
this file rather than through the code paths they are checking.
"""

import random
import time

from impsynth.cli import main
from impsynth.codec import decode_seq, encode_seq
from impsynth.grammar import embed, enumerate_terms, parse_grammar, strip, to_bin_form
from impsynth.semantics import StateOut, eval_term, loop_trace
from impsynth.spec_lang import parse_predicate
from impsynth.synthesis import (
    BudgetExhausted,
    Realized,
    cegis,
    classify,
    example_assignment_problem,
    load_problem,
    synthesize_pbe,
)
from impsynth.terms import (
    EMPTY,
    Sort,
    State,
    Term,
    VarUniverse,
    parse_term,
    print_term,
    term_size,
)
from impsynth.value_tree import (
    StatePair,
    StatePayload,
    Val,
    ValuePayload,
    ValueTree,
    ValueTreeError,
    VNode,
    build_value_tree,
    check_node,
    validate,
    validate_report,
)

from .conftest import FIXTURES, UNIVERSE_XY, random_loop

SEED = 20260816
X = VarUniverse.of("x")


def _heap_indices(t: Term) -> list[int]:
    found = []

    def go(node: Term, i: int) -> None:
        found.append(i)
        for j, child in enumerate(node.children):
            go(child, 2 * i + j + 1)

    go(t, 0)
    return found


# ---------------------------------------------------------------------------
# 1. Sequence codec soundness in bulk


def test_sequence_codec_bulk_round_trip():
    rng = random.Random(SEED)
    started = time.monotonic()
    for _ in range(10_000):
        seq = [rng.randint(0, 100) for _ in range(rng.randint(1, 8))]
        assert decode_seq(encode_seq(seq)) == seq
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"[PASS] sequence codec: 10000 random round trips exact "
          f"in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Padded binary form: exact rendering, embedding, inversion


def test_padded_binary_form_exact_rendering(capsys):
    assert main(["binform", "--grammar", str(FIXTURES / "expr.rtg")]) == 0
    printed = capsys.readouterr().out
    assert printed == (
        "(grammar\n"
        "  (vars x)\n"
        "  (start E)\n"
        "  (rule E (1 NullNT NullNT))\n"
        "  (rule E (x NullNT NullNT))\n"
        "  (rule E (+ E E))\n"
        "  (rule NullNT null)\n"
        "  (rule NullNT (nop NullNT NullNT)))\n")

    term = parse_term("1 + x + 1")
    padded = embed(term)
    rendered = print_term(padded)
    assert rendered == ("((1(null, null) + x(null, null))"
                        " + 1(nop(null, null), nop(null, null)))")
    assert rendered == (FIXTURES / "sum_binform.imp").read_text().strip()
    assert strip(padded) == term
    print("[PASS] padded form: grammar and term render to the frozen "
          "strings; strip inverts embed")


# ---------------------------------------------------------------------------
# 3. Evidence trees validate exactly when freshly built


def test_evidence_valid_iff_freshly_built():
    started = time.monotonic()
    grammar = parse_grammar((FIXTURES / "expr.rtg").read_text())
    padded = to_bin_form(grammar)
    terms = list(enumerate_terms(padded, 9))
    assert len(terms) == 64
    states = [State(X, (v,)) for v in (0, 1, 2)]

    corpus = []
    for term in terms:
        for sigma in states:
            tree = build_value_tree(term, sigma, 1000)
            assert isinstance(tree, ValueTree)
            corpus.append((term, sigma, tree))

    # the guessed object is the payload tree; the input state is given
    disagreements = 0
    checks = 0
    for term, sigma, built in corpus:
        for _, _, candidate in corpus:
            expected = candidate.root == built.root
            try:
                actual = validate(term, sigma,
                                  ValueTree(sigma, candidate.root))
            except ValueTreeError:
                actual = False
            checks += 1
            if actual != expected:
                disagreements += 1
    elapsed = time.monotonic() - started
    assert disagreements == 0
    assert elapsed < 60.0
    print(f"[PASS] evidence trees: {checks} validate-vs-rebuild "
          f"comparisons over {len(corpus)} runs, 0 disagreements "
          f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Any single payload mutation is rejected


def _mutate(payload, sigma_universe, rng):
    if isinstance(payload, ValuePayload):
        entries = list(payload.entries)
        if not entries:
            return ValuePayload((0,))
        i = rng.randrange(len(entries))
        entry = entries[i]
        if entry is EMPTY:
            entries[i] = rng.randint(0, 3)
        elif isinstance(entry, bool):
            entries[i] = not entry
        else:
            entries[i] = entry + rng.choice((-2, -1, 1, 2))
        return ValuePayload(tuple(entries))
    runs = [list(run) for run in payload.runs]
    if not runs:
        return StatePair(EMPTY, EMPTY)
    i = rng.randrange(len(runs))
    j = rng.randrange(len(runs[i]))
    entry = runs[i][j]
    if entry is EMPTY:
        runs[i][j] = State(sigma_universe,
                           tuple(0 for _ in sigma_universe))
    else:
        values = list(entry.values)
        k = rng.randrange(len(values))
        values[k] += rng.choice((-1, 1))
        runs[i][j] = State(entry.universe, tuple(values))
    return StatePayload(tuple(tuple(run) for run in runs))


def test_single_payload_mutations_all_rejected():
    # the worked example: bumping the inner sum from 4 to 5 must name
    # node 1 (the deepest, leftmost inconsistency) as the failure
    padded_sum = embed(parse_term("1 + x + 1"))
    sigma3 = State(X, (3,))
    worked = build_value_tree(padded_sum, sigma3, 1000)
    assert validate_report(padded_sum, sigma3,
                           worked.with_payload(1, Val(5))) == (False, 1)

    grammar = to_bin_form(parse_grammar((FIXTURES / "expr.rtg").read_text()))
    corpus = []
    for term in enumerate_terms(grammar, 9):
        for value in (0, 1, 2):
            sigma = State(X, (value,))
            corpus.append((term, sigma,
                           build_value_tree(term, sigma, 1000)))
    rng = random.Random(SEED)
    count_up = parse_term("while x < 2 do x := x + 1")
    corpus.append((count_up, State(X, (0,)),
                   build_value_tree(count_up, State(X, (0,)), 1000)))
    for _ in range(10):
        guard, body, sigma = random_loop(rng)
        loop = Term("while", (guard, body))
        corpus.append((loop, sigma, build_value_tree(loop, sigma, 100_000)))

    rejected = 0
    for _ in range(1000):
        term, sigma, tree = corpus[rng.randrange(len(corpus))]
        index = rng.choice(_heap_indices(term))
        original = tree.node_at(index).payload
        changed = _mutate(original, sigma.universe, rng)
        assert changed != original
        if not validate(term, sigma, tree.with_payload(index, changed)):
            rejected += 1
    assert rejected == 1000
    print("[PASS] mutations: frozen 4->5 corruption fails at node 1; "
          "1000/1000 random single-payload mutations rejected")


# statement programs whose runs take every path of the statement checks:
# skipped assignments, sequences, branches and loops (under an untaken
# branch), untaken and taken branches, zero and several iterations
_STATEMENT_PROGRAMS = [
    "x := x + 1; y := x",
    "while x < 3 do ((if x = 1 then (x := x + 1; y := y + 1)); x := x + 1)",
    "if x = 5 then ((if x = 5 then x := 2); while x < 4 do x := x + 1)",
    "while x < 0 do x := x + 1",
    "while y < 2 do ((while x < y do x := x + 1); y := y + 1)",
]
_STATEMENT_STATES = [State(UNIVERSE_XY, v) for v in ((0, 0), (1, 0), (5, 1))]


def _reshapes(payload):
    """Every variant of one payload by one edit: an activation dropped or
    repeated, a run lengthened or shortened, or one entry bumped, made
    dummy or made real."""
    if isinstance(payload, ValuePayload):
        entries = payload.entries
        variants = [entries[:-1], entries + entries[-1:]] if entries else [(0,)]
        for i, e in enumerate(entries):
            for new in ((7,) if e is EMPTY else
                        (EMPTY, not e) if isinstance(e, bool) else (EMPTY, e + 1)):
                variants.append(entries[:i] + (new,) + entries[i + 1:])
        return [ValuePayload(v) for v in variants]
    runs = payload.runs
    variants = [runs[:-1], runs + runs[-1:]] if runs else [((EMPTY, EMPTY),)]
    for i, run in enumerate(runs):
        edits = [run + run[-1:]] + ([run[:-1]] if len(run) > 1 else [])
        for j, s in enumerate(run):
            for new in ((State(UNIVERSE_XY, (7, 7)),) if s is EMPTY else
                        (EMPTY, State(s.universe, (s.values[0] + 1,) + s.values[1:]))):
                edits.append(run[:j] + (new,) + run[j + 1:])
        variants += [runs[:i] + (edit,) + runs[i + 1:] for edit in edits]
    return [StatePayload(v) for v in variants]


def _path(index: int) -> list[int]:
    """Child positions from the root down to heap index `index`."""
    steps = []
    while index:
        steps.append((index - 1) % 2)
        index = (index - 1) // 2
    return steps[::-1]


def _subterm(t: Term, index: int) -> Term:
    for step in _path(index):
        t = t.children[step]
    return t


def _graft(node, steps, subtree):
    """Copy of an evidence tree with the subtree at `steps` replaced."""
    if not steps:
        return subtree
    kids = list(node.children)
    kids[steps[0]] = _graft(kids[steps[0]], steps[1:], subtree)
    return VNode(node.payload, tuple(kids))


def _caught_locally(term, sigma, tree, index) -> bool:
    """Whether the statement check at `index` or at its parent rejects:
    the two checks that read a statement node's runs, whose states the
    runs carry themselves (the root's first state is checked against the
    input instead of a parent)."""
    for i in [index] + ([(index - 1) // 2] if index else []):
        sub, node = _subterm(term, i), tree.node_at(i)
        left, right = (kid.payload for kid in node.children)
        if not check_node(sub.op, node.payload, left, right,
                          target=sub.children[0].op if sub.op == ":=" else None):
            return True
    if index:
        return False
    runs = tree.root.payload.runs
    return not (len(runs) == 1 and runs[0][0] == sigma)


def test_statement_payload_mutations_all_rejected():
    """Every one-edit mutation of every payload is rejected, a statement
    node's edits by its own check or its parent's already; a statement
    subtree grafted from a run on another input, consistent within
    itself, is rejected at its parent."""
    edits = grafts = 0
    for text in _STATEMENT_PROGRAMS:
        term = parse_term(text, UNIVERSE_XY)
        trees = [build_value_tree(term, sigma, 1000) for sigma in _STATEMENT_STATES]
        for sigma, tree in zip(_STATEMENT_STATES, trees):
            assert validate(term, sigma, tree)
            for index in _heap_indices(term):
                node = tree.node_at(index)
                statement = _subterm(term, index).sort is Sort.STMT
                for changed in _reshapes(node.payload):
                    assert changed != node.payload
                    mutated = tree.with_payload(index, changed)
                    assert not validate(term, sigma, mutated)
                    assert not statement or _caught_locally(term, sigma, mutated, index)
                    edits += 1
                if not statement:
                    continue
                for other in trees:
                    donor = other.node_at(index)
                    if donor != node:
                        grafted = ValueTree(sigma, _graft(tree.root, _path(index), donor))
                        assert validate_report(term, sigma, grafted) == (
                            False, (index - 1) // 2 if index else 0)
                        grafts += 1
    assert (edits, grafts) == (1592, 120)
    print(f"[PASS] statement mutations: {edits} one-edit mutations and "
          f"{grafts} grafted subtrees rejected")


# ---------------------------------------------------------------------------
# 5. Loop evidence alignment invariants


def test_loop_evidence_alignment_invariants():
    rng = random.Random(SEED)
    for _ in range(200):
        guard, body, sigma = random_loop(rng)
        loop = Term("while", (guard, body))
        tree = build_value_tree(loop, sigma, 100_000)
        assert isinstance(tree, ValueTree)

        (trace,) = tree.root.payload.runs
        guard_entries = tree.root.children[0].payload.entries
        body_runs = tree.root.children[1].payload.runs

        # child outer lengths match the parent's transition count
        assert len(guard_entries) == len(trace)
        assert len(body_runs) == len(trace) - 1

        # each body run spans one parent transition and agrees with
        # evaluating the body on its own input
        for step, run in enumerate(body_runs):
            assert run[0] == trace[step]
            assert run[-1] == trace[step + 1]
            replay = eval_term(body, run[0], 100_000)
            assert isinstance(replay, StateOut)
            assert replay.state == run[-1]

        assert validate(loop, sigma, tree)
        outcome = eval_term(loop, sigma, 100_000)
        assert isinstance(outcome, StateOut)
        assert tree.root_output() == outcome.state
    print("[PASS] loop evidence: 200 random terminating loops satisfy "
          "both alignment invariants, validate, and match eval")


# ---------------------------------------------------------------------------
# 6. Padding preserves bounded realizability


def _pad_sizes(budget: int) -> set[int]:
    sizes = set()
    frontier = {1}
    while frontier:
        sizes |= frontier
        frontier = {1 + a + b
                    for a in sizes for b in sizes
                    if 1 + a + b <= budget} - sizes
    return sizes


def _padded_realizable(xs: tuple[int, ...], satisfied, budget: int) -> bool:
    """Class-based exhaustive search over the padded expression grammar.

    Transitions are spelled out here by hand: a widened literal or
    variable leaf costs 1 plus two padding subtrees, `+` costs 1 plus
    two expression subtrees, and padding subtrees are `null` (size 1)
    or `nop` over two more padding subtrees.  Terms are grouped by
    their per-state value vector, which is all the predicate can see.
    """
    pads = _pad_sizes(budget)
    classes: list[set[tuple[int, ...]]] = [set() for _ in range(budget + 1)]
    leaf_vectors = (tuple(1 for _ in xs), tuple(xs))
    for left in pads:
        for right in pads:
            size = 1 + left + right
            if size <= budget:
                classes[size].update(leaf_vectors)
    for size in range(1, budget + 1):
        for left in range(1, size - 1):
            right = size - 1 - left
            for u in classes[left]:
                for v in classes[right]:
                    classes[size].add(tuple(a + b for a, b in zip(u, v)))
    return any(satisfied(vec) for group in classes for vec in group)


def test_padding_preserves_bounded_realizability():
    rng = random.Random(SEED)
    grammar = parse_grammar((FIXTURES / "expr.rtg").read_text())
    padded = to_bin_form(grammar)

    def literal_realizable(g, budget, spec, states):
        return any(
            all(spec.holds(sigma, t, eval_term(t, sigma, 10_000))
                for sigma in states)
            for t in enumerate_terms(g, budget))

    verdicts = []
    for _ in range(5):
        xs = tuple(rng.sample(range(6), 2))
        states = [State(X, (v,)) for v in xs]
        family = rng.choice(("affine-small", "affine-big", "contradiction"))
        if family == "contradiction":
            spec = parse_predicate("(and (= out 0) (= out 1))")
            satisfied = lambda vec: False
        else:
            if family == "affine-small":
                a = rng.randint(0, 4)
                b = rng.randint(max(0, 1 - a), 4 - a)
            else:
                a = rng.randint(3, 6)
                b = rng.randint(9 - a, 12 - a)
            spec = parse_predicate(f"(= out (+ (* {a} x) {b}))")
            satisfied = (lambda a=a, b=b:
                         lambda vec: vec == tuple(a * x + b for x in xs))()

        plain_small = literal_realizable(grammar, 7, spec, states)
        padded_wide = _padded_realizable(xs, satisfied, 31)
        # the hand-rolled search must agree with literal enumeration at
        # a scale where the padded language can still be listed
        assert (_padded_realizable(xs, satisfied, 15)
                == literal_realizable(padded, 15, spec, states))
        assert plain_small == padded_wide, (family, xs, str(spec))
        verdicts.append((family, plain_small))
    assert {v for _, v in verdicts} == {True, False}
    print(f"[PASS] bounded realizability: size 7 plain vs size 31 padded "
          f"agree on 5/5 problems {verdicts}")


# ---------------------------------------------------------------------------
# 7. Example-directed search: minimal answer, dovetailed liveness


def test_example_search_minimality_and_liveness():
    started = time.monotonic()
    problem = load_problem(FIXTURES / "value_five.prob")
    result = synthesize_pbe(problem, 7)
    assert isinstance(result, Realized)
    assert term_size(result.term) == 5

    # brute oracle: every grammar term with fewer than 5 nodes, built
    # and evaluated by hand (leaves, then one + over two leaves)
    leaf_values = [1, 3]  # the literal 1 and the variable x at x = 3
    small_values = leaf_values + [
        a + b for a in leaf_values for b in leaf_values]
    assert 5 not in small_values

    spin_prone = load_problem(FIXTURES / "assign_five.prob")
    spun = synthesize_pbe(spin_prone, 7)
    assert isinstance(spun, Realized)
    assert print_term(spun.term) == "x := ((1 + 1) + x)"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"[PASS] example search: size-5 minimum confirmed by a "
          f"{len(small_values)}-term oracle; diverging candidates "
          f"dovetailed past in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 8. Refinement rounds escalate counterexamples forever


def _constant_value(t: Term) -> int | None:
    if t.op == "0":
        return 0
    if t.op == "1":
        return 1
    if t.op == "+" and len(t.children) == 2:
        left = _constant_value(t.children[0])
        right = _constant_value(t.children[1])
        if left is not None and right is not None:
            return left + right
    return None


def _local_max_constant(t: Term) -> int:
    best = 0
    for sub in t.walk():
        value = _constant_value(sub)
        if value is not None and value > best:
            best = value
    return best


def test_refinement_rounds_escalate_counterexamples():
    started = time.monotonic()
    problem = example_assignment_problem(50)
    seed = State(problem.universe, (0, 0))
    result, trace = cegis(problem, [seed], round_budget=10,
                          size_budget=256, fuel=1024)
    assert isinstance(result, BudgetExhausted)
    assert result.stats.rounds == 10
    assert len(trace.history) == 10
    for candidate, cex in trace.history:
        assert cex is not None
        assert cex.get("y") == _local_max_constant(candidate) + 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"[PASS] refinement: 10/10 rounds answered with y = "
          f"max-constant + 1, then budget exhaustion, in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. Difficulty labels


def test_difficulty_labels_exact():
    labels = {variant: classify(variant).label
              for variant in ("general", "finite-examples", "loop-free",
                              "partial-correctness", "generalization")}
    assert labels == {
        "general": "Σ3-complete",
        "finite-examples": "Σ1-complete",
        "loop-free": "Σ2-complete",
        "partial-correctness": "in Σ2",
        "generalization": "Σ2-complete",
    }
    print("[PASS] difficulty labels: all five variants exact")


# ---------------------------------------------------------------------------
# 10. Loop witnesses match the evaluator


def test_loop_witness_matches_evaluator():
    rng = random.Random(SEED)
    for _ in range(1000):
        guard, body, sigma = random_loop(rng)
        trace = loop_trace(guard, body, sigma, 1_000_000)
        assert isinstance(trace, tuple)
        outcome = eval_term(Term("while", (guard, body)), sigma, 1_000_000)
        assert isinstance(outcome, StateOut)
        assert trace[-1] == outcome.state
        assert trace[0] == sigma
    print("[PASS] loop witnesses: 1000/1000 traces end in the "
          "evaluator's final state")
