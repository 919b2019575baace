"""The experiment harness: one function per experiment E1--E17.

Each function runs its workload and returns a :class:`Report` with the
paper's claim, the measured rows, and a shape verdict.  The paper has no
empirical tables; these experiments regenerate its *formal* claims --
complexity theorems, worked examples, correctness theorems, and the
comparative claims of Section 3.3 (see DESIGN.md section 2 for the index).

Absolute timings are environment noise; every verdict is about shape
(fitted slopes / growth ratios / exact example outputs).
"""

from __future__ import annotations

import math
import random

from repro.obs import core as obs
from repro.bench.harness import (
    Report,
    counting,
    fit_exponential_base,
    fit_loglog_slope,
    measure_seconds,
    measure_with_counters,
)
from repro.blu.clausal_genmask import clausal_genmask, depends_on
from repro.blu.clausal_impl import (
    ClausalImplementation,
    clausal_combine,
    clausal_complement,
)
from repro.blu.clausal_mask import clausal_mask
from repro.logic.clauses import ClauseSet, clause_of, make_literal
from repro.logic.propositions import Vocabulary
from repro.workloads.generators import (
    clause_set_of_length,
    random_clause_set,
)

__all__ = [
    "a01_simplify_ablation",
    "a02_mask_strategy",
    "a03_backend_crossover",
    "a04_wilkins_hybrid",
    "e01_assert_linear",
    "e02_combine_quadratic",
    "e03_complement_exponential",
    "e04_mask_blowup",
    "e05_genmask_exponential",
    "e06_example_315",
    "e07_example_325",
    "e08_inset_example",
    "e09_congruence_theorem",
    "e10_emulation",
    "e11_wilkins_tradeoff",
    "e12_hlu_equivalence",
    "e13_relational_grounding",
    "e14_tabular_gap",
    "e15_minimal_change",
    "e16_hlu_bottleneck",
    "e17_template_coverage",
    "all_experiments",
]


# ---------------------------------------------------------------------------
# E1 -- Theorem 2.3.4(b.i): assert is Theta(Length1 + Length2)
# ---------------------------------------------------------------------------

def e01_assert_linear(seed: int = 11) -> Report:
    report = Report(
        ident="E1",
        title="BLU--C assert scaling",
        claim="Theta(Length[Phi1] + Length[Phi2])  (Theorem 2.3.4(b.i))",
        columns=("Length", "clauses out (obs)", "seconds"),
    )
    rng = random.Random(seed)
    vocabulary = Vocabulary.standard(64)
    impl = ClausalImplementation(vocabulary, simplify=False)
    lengths = [2000, 4000, 8000, 16000, 32000]
    times = []
    for length in lengths:
        left = clause_set_of_length(rng, vocabulary, length // 2)
        right = clause_set_of_length(rng, vocabulary, length // 2)
        measured = measure_with_counters(lambda: impl.op_assert(left, right))
        seconds = measured.seconds
        times.append(seconds)
        report.merge_counters(measured.counters)
        report.add_row(
            length,
            measured.counters.get("blu.c.assert.clauses_out", 0),
            f"{seconds:.6f}",
        )
    slope = fit_loglog_slope(lengths, times)
    report.metrics["loglog_slope"] = slope
    report.observed = f"log-log slope {slope:.2f} (linear ~ 1)"
    report.holds = 0.4 <= slope <= 1.6
    return report


# ---------------------------------------------------------------------------
# E2 -- Theorem 2.3.4(b.ii): combine is Theta(Length1 x Length2)
# ---------------------------------------------------------------------------

def e02_combine_quadratic(seed: int = 12) -> Report:
    report = Report(
        ident="E2",
        title="BLU--C combine scaling",
        claim="Theta(Length[Phi1] x Length[Phi2])  (Theorem 2.3.4(b.ii))",
        columns=("Length each", "output clauses", "seconds"),
    )
    rng = random.Random(seed)
    vocabulary = Vocabulary.standard(64)
    lengths = [150, 300, 600, 1200]
    times = []
    for length in lengths:
        left = clause_set_of_length(rng, vocabulary, length)
        right = clause_set_of_length(rng, vocabulary, length)
        measured = measure_with_counters(
            lambda: clausal_combine(left, right, simplify=False)
        )
        seconds = measured.seconds
        report.merge_counters(measured.counters)
        output = clausal_combine(left, right, simplify=False)
        times.append(seconds)
        report.add_row(length, len(output), f"{seconds:.6f}")
    slope = fit_loglog_slope(lengths, times)
    report.metrics["loglog_slope"] = slope
    report.observed = f"log-log slope {slope:.2f} vs per-side Length (quadratic ~ 2)"
    report.holds = 1.5 <= slope <= 2.6
    return report


# ---------------------------------------------------------------------------
# E3 -- Theorem 2.3.4(b.iii): complement is Theta(eps^Length), eps = e^(1/e)
# ---------------------------------------------------------------------------

def e03_complement_exponential(seed: int = 13) -> Report:
    report = Report(
        ident="E3",
        title="BLU--C complement output growth",
        claim=(
            "Theta(eps^Length) with eps = e^(1/e) ~ 1.4447, worst case at "
            "clause width ~ e (Theorem 2.3.4(b.iii))"
        ),
        columns=("width", "Length", "output clauses"),
    )
    rng = random.Random(seed)
    bases: dict[int, float] = {}
    for width in (2, 3, 4):
        # Disjoint-letter clauses maximise the product: Length/width
        # clauses of the given width, each over fresh letters.
        lengths = [width * k for k in range(3, 7)]
        outputs = []
        for length in lengths:
            clause_count = length // width
            vocabulary = Vocabulary.standard(clause_count * width)
            clauses = [
                clause_of(
                    make_literal(width * i + j, rng.random() < 0.5)
                    for j in range(width)
                )
                for i in range(clause_count)
            ]
            state = ClauseSet(vocabulary, clauses)
            with counting(report):
                output = clausal_complement(state, simplify=False)
            outputs.append(len(output))
            report.add_row(width, length, len(output))
        bases[width] = fit_exponential_base(lengths, outputs)
        report.metrics[f"exp_base_w{width}"] = bases[width]
    eps = math.exp(1 / math.e)
    summary = ", ".join(f"width {w}: base {b:.3f}" for w, b in bases.items())
    report.observed = f"{summary}; eps = {eps:.4f}"
    report.holds = (
        abs(bases[3] - eps) < 0.05
        and bases[3] >= bases[2] - 1e-9
        and bases[3] >= bases[4] - 1e-9
    )
    return report


# ---------------------------------------------------------------------------
# E4 -- Theorem 2.3.6(b): mask blowup
# ---------------------------------------------------------------------------

def _star_instance(clause_count: int) -> ClauseSet:
    """A star family: one hub letter in every clause (half positive, half
    negative), spokes distinct -- eliminating the hub produces the full
    quadratic product."""
    letters = 1 + clause_count  # hub + one fresh letter per clause
    vocabulary = Vocabulary.standard(letters)
    clauses = []
    for i in range(clause_count):
        hub = make_literal(0, positive=(i % 2 == 0))
        spoke = make_literal(1 + i)
        clauses.append(clause_of((hub, spoke)))
    return ClauseSet(vocabulary, clauses)


def e04_mask_blowup(seed: int = 14) -> Report:
    report = Report(
        ident="E4",
        title="BLU--C mask output blowup",
        claim=(
            "worst case O(Length^(2^|P|)): masking is inherently hard "
            "(Theorem 2.3.6(b))"
        ),
        columns=("family", "|P|", "input Length", "output Length", "seconds"),
    )
    # (a) single-letter star family: quadratic output in input length.
    star_sizes = [8, 16, 32, 64]
    star_outputs = []
    for clause_count in star_sizes:
        state = _star_instance(clause_count)
        measured = measure_with_counters(
            lambda: clausal_mask(state, [0], simplify=False), repeat=2
        )
        seconds = measured.seconds
        report.merge_counters(measured.counters)
        output = clausal_mask(state, [0], simplify=False)
        star_outputs.append(output.length)
        report.add_row("star", 1, state.length, output.length, f"{seconds:.6f}")
    star_slope = fit_loglog_slope(
        [2 * c for c in star_sizes], star_outputs
    )
    report.metrics["star_output_slope"] = star_slope
    # (b) dense random family, growing |P|: time compounds with each letter.
    rng = random.Random(seed)
    vocabulary = Vocabulary.standard(12)
    dense = random_clause_set(rng, vocabulary, 40, width=3)
    dense_times = []
    for mask_size in (1, 2, 3, 4):
        indices = list(range(mask_size))
        measured = measure_with_counters(
            lambda: clausal_mask(dense, indices, simplify=True), repeat=2
        )
        seconds = measured.seconds
        report.merge_counters(measured.counters)
        output = clausal_mask(dense, indices, simplify=True)
        dense_times.append(seconds)
        report.add_row(
            "dense", mask_size, dense.length, output.length, f"{seconds:.6f}"
        )
    report.observed = (
        f"star output slope {star_slope:.2f} (quadratic ~ 2, already "
        f"super-linear for |P| = 1); dense time grows with |P|"
    )
    report.holds = star_slope >= 1.5 and dense_times[-1] >= dense_times[0]
    return report


# ---------------------------------------------------------------------------
# E5 -- Theorem 2.3.9(b,c): genmask exponential; dependence is NP-complete
# ---------------------------------------------------------------------------

def e05_genmask_exponential(seed: int = 15) -> Report:
    report = Report(
        ident="E5",
        title="BLU--C genmask scaling and NP-hardness witness",
        claim=(
            "Theta(2^|Prop[Phi]| . Length . |Prop|^2) time; deciding "
            "dependence is NP-complete (Theorem 2.3.9)"
        ),
        columns=("letters", "Length", "seconds"),
    )
    rng = random.Random(seed)
    # Worst-case family: a letter z that *occurs* but is *independent*
    # (Phi_k = {(z | A_i), (~z | A_i)} for i = 1..k is equivalent to
    # conj(A_i)).  Independence has no early exit, so testing z compares
    # all 2^k Ldiff pairs -- the Theorem 2.3.9(b) worst case.  On the
    # truth table that enumeration is a few big-integer operations per
    # 2^16 worlds, so the 2^k term dominates only from ~20 letters on.
    letter_counts = [22, 24, 26, 28]
    times = []
    for k in letter_counts:
        vocabulary = Vocabulary.standard(k + 1)
        z_index = k
        clauses = []
        for i in range(k):
            clauses.append(clause_of([make_literal(z_index), make_literal(i)]))
            clauses.append(
                clause_of([make_literal(z_index, False), make_literal(i)])
            )
        state = ClauseSet(vocabulary, clauses)
        measured = measure_with_counters(lambda: clausal_genmask(state), repeat=2)
        seconds = measured.seconds
        report.merge_counters(measured.counters)
        times.append(seconds)
        report.add_row(k + 1, state.length, f"{seconds:.6f}")
    base = fit_exponential_base(letter_counts, times)
    report.metrics["exp_base"] = base
    # NP-hardness witness: for fresh z, Phi = F u {z} depends on z iff F
    # is satisfiable (Mod[Phi] = z-true models of F, never closed under
    # flipping z unless empty) -- a SAT oracle in one dependence query.
    from repro.logic.sat import is_satisfiable

    agreement = 0
    trials = 12
    with counting(report):
        for _ in range(trials):
            vocabulary = Vocabulary.standard(7)  # letters 0..5 for F, 6 = z
            f_clauses = random_clause_set(rng, Vocabulary.standard(6), 9, width=3)
            z = make_literal(6)
            phi = ClauseSet(vocabulary, f_clauses.clauses).with_clause(
                clause_of([z])
            )
            if depends_on(phi, 6) == is_satisfiable(f_clauses):
                agreement += 1
    report.observed = (
        f"fitted exponential base {base:.2f} per letter (claim ~ 2); "
        f"SAT-reduction witness agreed {agreement}/{trials}"
    )
    report.holds = base >= 1.5 and agreement == trials
    return report


# ---------------------------------------------------------------------------
# E6 -- Example 3.1.5 (exact)
# ---------------------------------------------------------------------------

PAPER_STATE_STRS = ("~A1 | A3", "A1 | A4", "A4 | A5", "~A1 | ~A2 | ~A5")


def e06_example_315() -> Report:
    report = Report(
        ident="E6",
        title="Worked Example 3.1.5: insert {A1 | A2}",
        claim=(
            "genmask = {A1, A2}; mask(Phi) = {A4|A5, A3|A4}; result = "
            "{A1|A2, A4|A5, A3|A4}"
        ),
        columns=("step", "paper", "measured", "match"),
    )
    vocabulary = Vocabulary.standard(5)
    impl = ClausalImplementation(vocabulary)
    phi = ClauseSet.from_strs(vocabulary, PAPER_STATE_STRS)
    payload = ClauseSet.from_strs(vocabulary, ["A1 | A2"])

    with counting(report):
        mask = impl.op_genmask(payload)
    mask_names = sorted(vocabulary.name_of(i) for i in mask)
    ok1 = mask_names == ["A1", "A2"]
    report.add_row("genmask", "{A1, A2}", "{" + ", ".join(mask_names) + "}", ok1)

    with counting(report):
        masked = impl.op_mask(phi, mask)
    expected_masked = ClauseSet.from_strs(vocabulary, ["A4 | A5", "A3 | A4"])
    ok2 = masked == expected_masked
    report.add_row("mask", "{A4 | A5, A3 | A4}", str(masked), ok2)

    with counting(report):
        result = impl.op_assert(masked, payload)
    expected = ClauseSet.from_strs(vocabulary, ["A1 | A2", "A4 | A5", "A3 | A4"])
    ok3 = result == expected
    report.add_row("assert", str(expected), str(result), ok3)

    report.observed = "all three steps match the paper exactly" if (
        ok1 and ok2 and ok3
    ) else "MISMATCH"
    report.holds = ok1 and ok2 and ok3
    return report


# ---------------------------------------------------------------------------
# E7 -- Example 3.2.5 (exact expansion + agreeing backends)
# ---------------------------------------------------------------------------

def e07_example_325() -> Report:
    from repro.hlu import language
    from repro.hlu.session import IncompleteDatabase

    report = Report(
        ident="E7",
        title="Worked Example 3.2.5: (where {A5} (insert {A1 | A2}))",
        claim=(
            "macro expands to (lambda (s0 s1 s1.0) (combine (assert (mask "
            "(assert s0 s1) (genmask s1.0)) s1.0) (assert s0 (complement "
            "s1)))); branches combine to 16 raw products"
        ),
        columns=("check", "result"),
    )
    update = language.where("A5", language.insert("A1 | A2"))
    program, _ = update.compile()
    expected_text = (
        "(lambda (s0 s1 s1.0) (combine (assert (mask (assert s0 s1) "
        "(genmask s1.0)) s1.0) (assert s0 (complement s1))))"
    )
    ok_expansion = str(program) == expected_text
    report.add_row("expansion matches paper", ok_expansion)

    with counting(report):
        clausal = IncompleteDatabase.over(5).assert_(*PAPER_STATE_STRS).apply(update)
        instance = IncompleteDatabase.over(5, backend="instance").assert_(
            *PAPER_STATE_STRS
        ).apply(update)
    ok_agree = clausal.worlds() == instance.worlds()
    report.add_row("clausal == instance result", ok_agree)

    ok_semantics = (
        clausal.is_certain("A5 -> (A1 | A2)")
        and clausal.is_certain("~A5 -> (~A1 | A3)")
        and clausal.is_possible("A5")
        and clausal.is_possible("~A5")
    )
    report.add_row("semantic content (split worked)", ok_semantics)

    report.holds = ok_expansion and ok_agree and ok_semantics
    report.observed = "expansion and result reproduce the paper"
    return report


# ---------------------------------------------------------------------------
# E8 -- Example 1.4.6 / Remark 1.4.7
# ---------------------------------------------------------------------------

def e08_inset_example() -> Report:
    from repro.db.literal_base import inset

    report = Report(
        ident="E8",
        title="Example 1.4.6: Inset[{A1 | A2}] and the tautology rule",
        claim=(
            "Inset[{A1|A2}] = {{A1,A2},{A1,~A2},{~A1,A2}}; a tautologous "
            "insert is the identity (Remark 1.4.7)"
        ),
        columns=("formula", "Inset size", "expected", "match"),
    )
    vocabulary = Vocabulary.standard(3)
    cases = [
        ("A1 | A2", 3),
        ("A1 | ~A1", 1),   # { {} }
        ("A1", 1),
        ("A1 & ~A1", 0),
        ("(A1 | A2) & (A1 | ~A2)", 1),
    ]
    all_ok = True
    for text, expected_size in cases:
        with counting(report):
            got = inset(vocabulary, [text])
        ok = len(got) == expected_size
        all_ok = all_ok and ok
        report.add_row(text, len(got), expected_size, ok)
    exact = inset(vocabulary, ["A1 | A2"])
    exact_ok = exact == frozenset(
        {
            frozenset({1, 2}),
            frozenset({1, -2}),
            frozenset({-1, 2}),
        }
    )
    report.add_row("A1 | A2 exact sets", "-", "paper's three", exact_ok)
    report.holds = all_ok and exact_ok
    report.observed = "Inset values match Example 1.4.6 and Remark 1.4.7"
    return report


# ---------------------------------------------------------------------------
# E9 -- Theorem 1.5.4: Congruence(insert[Phi]) = s--mask[Prop[Inset[Phi]]]
# ---------------------------------------------------------------------------

def e09_congruence_theorem(seed: int = 19, trials: int = 25) -> Report:
    from repro.db.literal_base import insert_update, inset_prop_indices
    from repro.db.masks import SimpleMask, congruence_of, masks_equal
    from repro.workloads.generators import random_formula

    report = Report(
        ident="E9",
        title="Theorem 1.5.4 on random formulas",
        claim="Congruence(insert[Phi]) = s--mask[Prop[Inset[Phi]]]",
        columns=("trials", "holds", "identity cases (tautologies)"),
    )
    rng = random.Random(seed)
    vocabulary = Vocabulary.standard(4)
    holds = 0
    identity_cases = 0
    checked = 0
    with counting(report):
        for _ in range(trials):
            formula = random_formula(rng, vocabulary, depth=3)
            update = insert_update(vocabulary, [formula])
            if len(update) == 0:
                continue  # unsatisfiable insert: congruence not defined
            checked += 1
            expected = SimpleMask(
                vocabulary, inset_prop_indices(vocabulary, [formula])
            )
            if not expected.indices:
                identity_cases += 1
            if masks_equal(congruence_of(update), expected):
                holds += 1
    report.add_row(checked, holds, identity_cases)
    report.observed = f"theorem held on {holds}/{checked} satisfiable formulas"
    report.holds = holds == checked and checked > 0
    return report


# ---------------------------------------------------------------------------
# E10 -- Theorems 2.3.4(a)/2.3.6(a)/2.3.9(a): BLU--C emulates BLU--I
# ---------------------------------------------------------------------------

def e10_emulation(seed: int = 20, trials: int = 40) -> Report:
    from repro.blu.emulation import canonical_emulation
    from repro.blu.instance_impl import InstanceImplementation

    report = Report(
        ident="E10",
        title="Canonical emulation e_CI across all five operators",
        claim=(
            "e_CI(op_C(args)) == op_I(e_CI(args)) for assert, combine, "
            "complement, mask, genmask (Theorems 2.3.4/2.3.6/2.3.9 part (a))"
        ),
        columns=("operator", "trials", "agreed"),
    )
    rng = random.Random(seed)
    vocabulary = Vocabulary.standard(4)
    clausal = ClausalImplementation(vocabulary)
    instance = InstanceImplementation(vocabulary)
    emulation = canonical_emulation(clausal, instance)
    all_ok = True
    for operator in ("assert", "combine", "complement", "mask", "genmask"):
        agreed = 0
        with counting(report):
            for _ in range(trials):
                left = random_clause_set(
                    rng, vocabulary, rng.randint(0, 5), width=2
                )
                if operator in ("assert", "combine"):
                    right = random_clause_set(
                        rng, vocabulary, rng.randint(0, 5), width=2
                    )
                    ok = emulation.check_operator(operator, left, right)
                elif operator == "mask":
                    indices = frozenset(rng.sample(range(4), rng.randint(0, 4)))
                    ok = emulation.check_operator(operator, left, indices)
                else:
                    ok = emulation.check_operator(operator, left)
                agreed += ok
        report.add_row(operator, trials, agreed)
        all_ok = all_ok and agreed == trials
    report.observed = "emulation respected on every trial" if all_ok else "MISMATCH"
    report.holds = all_ok
    return report


# ---------------------------------------------------------------------------
# E11 -- Section 3.3.1: the Wilkins trade-off
# ---------------------------------------------------------------------------

def e11_wilkins_tradeoff(seed: int = 21) -> Report:
    from repro.baselines.wilkins import WilkinsDatabase
    from repro.hlu import language
    from repro.hlu.session import IncompleteDatabase
    from repro.workloads.generators import update_stream

    report = Report(
        ident="E11",
        title="Hegner vs Wilkins: update cost now or query cost later",
        claim=(
            "Wilkins updates are linear (faster than mask-assert); queries "
            "degrade as auxiliary letters accumulate; cleanup = deferred "
            "mask is expensive (Section 3.3.1)"
        ),
        columns=(
            "inserts",
            "aux letters",
            "hegner update s",
            "wilkins update s",
            "hegner query s",
            "wilkins query s",
            "wilkins cleanup s",
        ),
    )
    vocabulary = Vocabulary.standard(12)
    update_counts = [4, 8, 16, 32]
    hegner_updates, wilkins_updates = [], []
    hegner_queries, wilkins_queries = [], []
    query = "A1 | A2 | A3"
    for count in update_counts:
        rng = random.Random(seed)
        payloads = list(update_stream(rng, vocabulary, count, width=2))

        def run_hegner_stream():
            db = IncompleteDatabase.over(12)
            for payload in payloads:
                db.apply(language.insert(payload))
            return db

        def run_wilkins_stream():
            db = WilkinsDatabase(vocabulary)
            for payload in payloads:
                db.insert(payload)
            return db

        # Best-of-repeats: single-shot sub-millisecond timings are too
        # noisy to compare (this runs inside a loaded benchmark session).
        hegner_measured = measure_with_counters(run_hegner_stream, repeat=3)
        wilkins_measured = measure_with_counters(run_wilkins_stream, repeat=3)
        hegner_update = hegner_measured.seconds
        wilkins_update = wilkins_measured.seconds
        report.merge_counters(hegner_measured.counters)
        report.merge_counters(wilkins_measured.counters)
        hegner = run_hegner_stream()
        wilkins = run_wilkins_stream()

        hegner_query = measure_seconds(lambda: hegner.is_certain(query), repeat=5)
        wilkins_query = measure_seconds(lambda: wilkins.is_certain(query), repeat=5)

        def build_and_cleanup():
            db = run_wilkins_stream()
            db.cleanup()

        build_and_clean = measure_seconds(build_and_cleanup, repeat=2)
        cleanup = max(build_and_clean - wilkins_update, 0.0)

        hegner_updates.append(hegner_update)
        wilkins_updates.append(wilkins_update)
        hegner_queries.append(hegner_query)
        wilkins_queries.append(wilkins_query)
        report.add_row(
            count,
            2 * count,
            f"{hegner_update:.5f}",
            f"{wilkins_update:.5f}",
            f"{hegner_query:.6f}",
            f"{wilkins_query:.6f}",
            f"{cleanup:.5f}",
        )
    # Verdicts tolerate wall-clock jitter: compare totals and the largest
    # (least noisy) row rather than demanding strict per-row ordering.
    updates_cheaper = (
        sum(wilkins_updates) <= sum(hegner_updates)
        and wilkins_updates[-1] <= hegner_updates[-1] * 1.2
    )
    query_degrades = wilkins_queries[-1] > wilkins_queries[0]
    query_gap_grows = (wilkins_queries[-1] / max(hegner_queries[-1], 1e-9)) > (
        wilkins_queries[0] / max(hegner_queries[0], 1e-9)
    )
    report.observed = (
        f"Wilkins updates cheaper overall: {updates_cheaper}; "
        f"Wilkins query time grows with update count: {query_degrades}; "
        f"query-time gap widens: {query_gap_grows}"
    )
    report.holds = updates_cheaper and query_degrades
    return report


# ---------------------------------------------------------------------------
# E12 -- Theorem 3.1.4: HLU (via BLU) vs Definition 1.4.5
# ---------------------------------------------------------------------------

def e12_hlu_equivalence(seed: int = 22, trials: int = 30) -> Report:
    from repro.blu.instance_impl import InstanceImplementation
    from repro.db.instances import WorldSet
    from repro.db.literal_base import delete_update, insert_update, modify_update
    from repro.hlu import language
    from repro.hlu.interpreter import run_update
    from repro.workloads.generators import random_formula

    report = Report(
        ident="E12",
        title="Theorem 3.1.4: HLU updates vs Definition 1.4.5",
        claim=(
            "HLU-insert/delete/modify are logically equivalent to the "
            "nondeterministic updates of 1.4.5"
        ),
        columns=("operation", "trials", "agreed", "note"),
    )
    rng = random.Random(seed)
    vocabulary = Vocabulary.standard(3)
    impl = InstanceImplementation(vocabulary)

    def random_state() -> WorldSet:
        return WorldSet(
            vocabulary, frozenset(rng.sample(range(8), rng.randint(0, 6)))
        )

    insert_ok = 0
    delete_ok = 0
    with counting(report):
        for _ in range(trials):
            formula = random_formula(rng, vocabulary, depth=3)
            state = random_state()
            if insert_update(vocabulary, [formula]).apply_world_set(
                state
            ) == run_update(impl, state, language.insert(formula)):
                insert_ok += 1
            if delete_update(vocabulary, [formula]).apply_world_set(
                state
            ) == run_update(impl, state, language.delete(formula)):
                delete_ok += 1
    report.add_row("insert", trials, insert_ok, "")
    report.add_row("delete", trials, delete_ok, "")

    literal_ok = 0
    with counting(report):
        for _ in range(trials):
            pre = rng.choice(["A1", "~A1", "A2", "~A3"])
            post = random_formula(rng, vocabulary, depth=2)
            state = random_state()
            if modify_update(vocabulary, [pre], [post]).apply_world_set(
                state
            ) == run_update(impl, state, language.modify(pre, post)):
                literal_ok += 1
    report.add_row("modify (literal precondition)", trials, literal_ok, "")

    # The documented divergence: conjunctive precondition.
    state = WorldSet(vocabulary, {0b101})
    reference = modify_update(vocabulary, ["A1 & A3"], ["A1"]).apply_world_set(state)
    via_blu = run_update(impl, state, language.modify("A1 & A3", "A1"))
    diverges = reference != via_blu
    report.add_row(
        "modify (multi-literal precondition)",
        1,
        0 if diverges else 1,
        "KNOWN DIVERGENCE: 1.4.5 forces deleted letters false; the BLU "
        "program leaves them unknown",
    )
    report.observed = (
        "insert/delete: theorem holds; modify: holds for literal "
        "preconditions, diverges beyond (see EXPERIMENTS.md)"
    )
    report.holds = (
        insert_ok == trials and delete_ok == trials and literal_ok == trials and diverges
    )
    return report


# ---------------------------------------------------------------------------
# E13 -- Section 5.1.1: grounding blowup vs internal constants
# ---------------------------------------------------------------------------

def e13_relational_grounding() -> Report:
    from repro.relational.constants import CategoryExpr
    from repro.relational.grounding import Grounding
    from repro.relational.atoms import OpenAtom
    from repro.relational.session import RelationalDatabase
    from repro.workloads.generators import directory_schema

    report = Report(
        ident="E13",
        title="'Jones has a new telephone number': representation sizes",
        claim=(
            "the grounded update is an enormous disjunction (O(n) in the "
            "number of phone numbers, over an O(n) vocabulary); the "
            "internal-constant representation is a single literal (5.1.1)"
        ),
        columns=(
            "phone numbers",
            "grounded letters",
            "update disjuncts",
            "compact atom size",
            "grounded update s",
        ),
    )
    all_ok = True
    for phone_count in (4, 8, 16, 64, 256):
        schema = directory_schema(phone_count)
        grounding = Grounding(schema)
        u = schema.dictionary.activate(
            CategoryExpr(schema.algebra.named("telno"))
        )
        atom = OpenAtom("R", ("P1", "D1", u))
        formula = grounding.atom_formula(atom)
        disjuncts = len(formula.props())
        compact_size = len(atom.args) + 1

        if phone_count <= 8:
            db = RelationalDatabase(schema, backend="clausal")
            with counting(report):
                db.tell(("R", "P1", "D1", "T1"))
                with obs.span(
                    "relational.tell.grounded", phones=phone_count
                ) as span:
                    db.tell(atom)
            grounded_seconds = f"{span.elapsed:.4f}"
        else:
            grounded_seconds = "skipped (impractical -- the paper's point)"
        report.add_row(
            phone_count,
            len(grounding.vocabulary),
            disjuncts,
            compact_size,
            grounded_seconds,
        )
        all_ok = all_ok and disjuncts == phone_count and compact_size == 4
    report.observed = (
        "grounded form grows linearly with the domain while the compact "
        "open-atom form stays constant"
    )
    report.holds = all_ok
    return report


# ---------------------------------------------------------------------------
# E14 -- Section 3.3.3: the tabular expressiveness gap
# ---------------------------------------------------------------------------

def e14_tabular_gap() -> Report:
    from repro.baselines.tabular import (
        hlu_insert_transformer,
        search_for_transformer,
        t_intersection,
        t_union,
    )

    report = Report(
        ident="E14",
        title="Abiteboul-Grahne primitives cannot realise genmask",
        claim=(
            "three primitives coincide with combine/assert/difference; the "
            "six together do not express the genmask-based insert (3.3.3)"
        ),
        columns=("target", "expressible (depth-bounded search)"),
    )
    vocabulary = Vocabulary.standard(2)
    with counting(report):
        sanity_union = search_for_transformer(vocabulary, t_union, max_rounds=1)
    report.add_row("union (sanity: a primitive)", sanity_union)
    with counting(report):
        composed = search_for_transformer(
            vocabulary, lambda x, y: t_intersection(t_union(x, y), x), max_rounds=2
        )
    report.add_row("intersection(union(x,y),x) (sanity)", composed)
    with counting(report):
        insert_found = search_for_transformer(
            vocabulary, hlu_insert_transformer, max_rounds=2, max_functions=5000
        )
    report.add_row("HLU-insert (mask genmask then assert)", insert_found)
    report.observed = (
        "primitive compositions found; the genmask-based insert is not "
        "reachable within the searched depth"
    )
    report.holds = sanity_union and composed and not insert_found
    return report


# ---------------------------------------------------------------------------
# E15 -- Section 3.3.2: minimal change is syntactic and differs from ours
# ---------------------------------------------------------------------------

def e15_minimal_change() -> Report:
    from repro.baselines.minimal_change import MinimalChangeDatabase
    from repro.hlu.session import IncompleteDatabase

    report = Report(
        ident="E15",
        title="Minimal-change (flock) vs mask-assert insertion",
        claim=(
            "minimal change is purely syntactic (equivalent presentations "
            "diverge) and differs from mask-assert semantics (3.3.2)"
        ),
        columns=("scenario", "expectation", "holds"),
    )
    vocabulary = Vocabulary.standard(3)

    with counting(report):
        packaged = MinimalChangeDatabase(vocabulary, ["A1 & A2"])
        separated = MinimalChangeDatabase(vocabulary, ["A1", "A2"])
        packaged.insert("~A1")
        separated.insert("~A1")
    syntactic = packaged.world_set() != separated.world_set()
    report.add_row(
        "{A1 & A2} vs {A1, A2}, insert ~A1",
        "equivalent theories update differently",
        syntactic,
    )

    with counting(report):
        flock = MinimalChangeDatabase(vocabulary, ["A1 <-> A2"])
        flock.insert("~A1")
        hegner = IncompleteDatabase.over(3, backend="instance")
        hegner.assert_("A1 <-> A2").insert("~A1")
    differs = flock.world_set() != hegner.worlds()
    retains_more = flock.is_certain("~A2") and not hegner.is_certain("~A2")
    report.add_row(
        "{A1 <-> A2}, insert ~A1",
        "flock keeps the biconditional; mask-assert forgets it",
        differs and retains_more,
    )

    flock2 = MinimalChangeDatabase(vocabulary, ["A2"])
    flock2.insert("A1")
    hegner2 = IncompleteDatabase.over(3, backend="instance")
    hegner2.assert_("A2").insert("A1")
    agree = flock2.world_set() == hegner2.worlds()
    report.add_row(
        "independent insert",
        "both agree when nothing conflicts",
        agree,
    )
    report.observed = "flock semantics reproduced; divergence as described"
    report.holds = syntactic and differs and retains_more and agree
    return report


# ---------------------------------------------------------------------------
# E16 -- Section 4: mask on the system state is the bottleneck
# ---------------------------------------------------------------------------

def e16_hlu_bottleneck(seed: int = 26) -> Report:
    report = Report(
        ident="E16",
        title="HLU insert pipeline: where the time goes",
        claim=(
            "complement/genmask take only small user parameters; the "
            "bottleneck is mask applied to the (large) system state "
            "(Section 4)"
        ),
        columns=(
            "state Length",
            "genmask(payload) s",
            "mask(state) s",
            "mask resolvents (obs)",
            "assert s",
            "mask share",
        ),
    )
    rng = random.Random(seed)
    vocabulary = Vocabulary.standard(24)
    payload = ClauseSet.from_strs(vocabulary, ["A1 | A2"])
    impl = ClausalImplementation(vocabulary)
    mask_shares = []
    for state_length in (150, 300, 600, 1200):
        state = clause_set_of_length(rng, vocabulary, state_length, width=3)
        genmask_measured = measure_with_counters(lambda: impl.op_genmask(payload))
        genmask_seconds = genmask_measured.seconds
        report.merge_counters(genmask_measured.counters)
        mask_value = impl.op_genmask(payload)
        mask_measured = measure_with_counters(
            lambda: impl.op_mask(state, mask_value), repeat=2
        )
        mask_seconds = mask_measured.seconds
        report.merge_counters(mask_measured.counters)
        resolvents = mask_measured.counters.get(
            "logic.resolution.resolvents_formed", 0
        )
        masked = impl.op_mask(state, mask_value)
        assert_measured = measure_with_counters(
            lambda: impl.op_assert(masked, payload)
        )
        assert_seconds = assert_measured.seconds
        report.merge_counters(assert_measured.counters)
        # The share is computed from each phase's *first* (cold) sample:
        # under the opt-in kernel cache later repeats are hits and their
        # near-zero timings would make the share meaningless, while the
        # first repeat on each fresh state always does the real work.
        cold_genmask = genmask_seconds.samples[0]
        cold_mask = mask_seconds.samples[0]
        cold_assert = assert_seconds.samples[0]
        total = cold_genmask + cold_mask + cold_assert
        share = cold_mask / total if total else 0.0
        mask_shares.append(share)
        report.add_row(
            state_length,
            f"{genmask_seconds:.6f}",
            f"{mask_seconds:.6f}",
            resolvents,
            f"{assert_seconds:.6f}",
            f"{share:.0%}",
        )
    report.metrics["mask_share_largest"] = mask_shares[-1]
    report.observed = (
        f"mask's share of the pipeline on the largest state: "
        f"{mask_shares[-1]:.0%}"
    )
    report.holds = mask_shares[-1] >= 0.5
    return report


def all_experiments() -> list[Report]:
    """Run every experiment (E-suite then A-ablations), in order."""
    return [
        e01_assert_linear(),
        e02_combine_quadratic(),
        e03_complement_exponential(),
        e04_mask_blowup(),
        e05_genmask_exponential(),
        e06_example_315(),
        e07_example_325(),
        e08_inset_example(),
        e09_congruence_theorem(),
        e10_emulation(),
        e11_wilkins_tradeoff(),
        e12_hlu_equivalence(),
        e13_relational_grounding(),
        e14_tabular_gap(),
        e15_minimal_change(),
        e16_hlu_bottleneck(),
        e17_template_coverage(),
        a01_simplify_ablation(),
        a02_mask_strategy(),
        a03_backend_crossover(),
        a04_wilkins_hybrid(),
    ]


# ---------------------------------------------------------------------------
# E17 -- Section 4: the template (V-table) model covers much but not all
# ---------------------------------------------------------------------------

def e17_template_coverage() -> Report:
    from repro.baselines.tables import (
        TableVariable,
        VTable,
        is_representable,
        representable_world_sets,
    )
    from repro.db.instances import WorldSet
    from repro.relational.schema import RelationalSchema

    report = Report(
        ident="E17",
        title="Imielinski-Lipski V-tables: coverage of possible-world sets",
        claim=(
            "'this model is not able to represent all possible worlds, "
            "[but] it can represent many important cases arising in "
            "practice' (Section 4)"
        ),
        columns=("check", "result"),
    )
    tiny = RelationalSchema.build(
        constants={"thing": ["a", "b"]},
        relations={"P": [("X", "thing")]},
    )
    with counting(report):
        reachable = representable_world_sets(tiny, max_rows=3, max_variables=2)
    total = 1 << (1 << 2)  # world sets over 2 ground facts
    report.add_row(
        "world sets reachable by <=3-row tables (2 ground facts)",
        f"{len(reachable)} of {total}",
    )

    # Important case: the Jones-style "some value" state is a table.
    phone = RelationalSchema.build(
        constants={"person": ["Jones"], "telno": ["T1", "T2"]},
        relations={"Phone": [("N", "person"), ("T", "telno")]},
    )
    x = TableVariable("x", phone.algebra.named("telno"))
    with counting(report):
        some_phone = VTable(phone, [("Phone", ("Jones", x))]).world_set()
        practical = is_representable(
            some_phone, phone, max_rows=2, max_variables=1
        )
    report.add_row("'Jones has some phone' representable", practical is not None)

    # Open-world insert result: representable via row collapse.
    vocab = VTable(tiny, []).grounding.vocabulary
    a_bit = 1 << vocab.index_of("P.a")
    b_bit = 1 << vocab.index_of("P.b")
    open_insert = WorldSet(vocab, {a_bit, a_bit | b_bit})
    with counting(report):
        collapse = is_representable(open_insert, tiny, max_rows=2, max_variables=1)
    report.add_row(
        "open-world insert result representable (row collapse)",
        collapse is not None,
    )

    # The gap: presence correlation ("nothing or both") is not a table.
    correlated = WorldSet(vocab, {0, a_bit | b_bit})
    with counting(report):
        gap = is_representable(correlated, tiny, max_rows=3, max_variables=2)
    report.add_row("'nothing or both' representable", gap is not None)

    report.observed = (
        f"{len(reachable)}/{total} world sets reachable; practical cases "
        f"representable, presence-correlated sets are not"
    )
    report.holds = (
        0 < len(reachable) < total
        and practical is not None
        and collapse is not None
        and gap is None
    )
    return report


# ---------------------------------------------------------------------------
# A1 -- ablation: subsumption reduction (simplify) in BLU--C
# ---------------------------------------------------------------------------

def a01_simplify_ablation(seed: int = 17, inserts: int = 12) -> Report:
    from repro.hlu import language
    from repro.hlu.interpreter import run_update
    from repro.logic.semantics import models_of_clauses
    from repro.workloads.generators import update_stream

    report = Report(
        ident="A1",
        title="Ablation: simplification on the insert stream",
        claim=(
            "tautology elimination + subsumption reduction keep states "
            "smaller at equal semantics (Section 4's 'correctness-"
            "preserving optimizations')"
        ),
        columns=("mode", "inserts", "final Length", "seconds"),
    )
    vocabulary = Vocabulary.standard(14)

    def run_stream(simplify: bool) -> ClauseSet:
        impl = ClausalImplementation(vocabulary, simplify=simplify)
        state = ClauseSet.tautology(vocabulary)
        rng = random.Random(seed)
        for payload in update_stream(rng, vocabulary, inserts, width=2):
            state = run_update(impl, state, language.insert(payload))
        return state

    lengths: dict[bool, int] = {}
    for simplify in (True, False):
        measured = measure_with_counters(lambda: run_stream(simplify), repeat=2)
        report.merge_counters(measured.counters)
        state = run_stream(simplify)
        lengths[simplify] = state.length
        report.add_row(
            "simplified" if simplify else "raw",
            inserts,
            state.length,
            f"{measured.seconds:.5f}",
        )
    agree = models_of_clauses(run_stream(True)) == models_of_clauses(
        run_stream(False)
    )
    ratio = lengths[False] / max(lengths[True], 1)
    report.metrics["raw_over_simplified_length"] = ratio
    report.observed = (
        f"same models: {agree}; raw state is {ratio:.2f}x the simplified Length"
    )
    report.holds = agree and lengths[True] <= lengths[False]
    return report


# ---------------------------------------------------------------------------
# A2 -- ablation: masking strategies (Section 4)
# ---------------------------------------------------------------------------

def a02_mask_strategy(seed: int = 23) -> Report:
    from repro.logic.implicates import mask_via_implicates
    from repro.logic.resolution import eliminate_letter
    from repro.logic.semantics import models_of_clauses

    report = Report(
        ident="A2",
        title="Ablation: resolve-then-drop vs expand-then-drop masking",
        claim=(
            "making masking trivial via full prime-implicate expansion "
            "makes everything else intolerably slow (Section 4)"
        ),
        columns=("strategy", "clauses", "output Length", "seconds"),
    )
    vocabulary = Vocabulary.standard(12)
    indices = [0, 1, 2]

    def make_state(clause_count: int) -> ClauseSet:
        rng = random.Random(seed)
        return random_clause_set(rng, vocabulary, clause_count, width=3)

    def fewest_occurrences_first(state: ClauseSet) -> ClauseSet:
        remaining = set(indices)
        current = state
        while remaining:
            def occurrences(index: int) -> int:
                return sum(
                    1
                    for clause in current.clauses
                    if index + 1 in clause or -(index + 1) in clause
                )

            best = min(remaining, key=occurrences)
            remaining.discard(best)
            current = eliminate_letter(current, best)
        return current

    for clause_count in (20, 40):
        state = make_state(clause_count)
        measured = measure_with_counters(
            lambda: clausal_mask(state, indices, simplify=True), repeat=2
        )
        report.merge_counters(measured.counters)
        output = clausal_mask(state, indices, simplify=True)
        report.add_row(
            "resolve-then-drop", clause_count, output.length,
            f"{measured.seconds:.5f}",
        )
    for clause_count in (8, 12):
        state = make_state(clause_count)
        measured = measure_with_counters(
            lambda: mask_via_implicates(state, indices, 500_000), repeat=2
        )
        report.merge_counters(measured.counters)
        output = mask_via_implicates(state, indices, 500_000)
        report.add_row(
            "expand-then-drop", clause_count, output.length,
            f"{measured.seconds:.5f}",
        )
    state = make_state(20)
    measured = measure_with_counters(
        lambda: fewest_occurrences_first(state), repeat=2
    )
    report.merge_counters(measured.counters)
    report.add_row(
        "fewest-occurrences-first", 20,
        fewest_occurrences_first(state).length, f"{measured.seconds:.5f}",
    )

    small = make_state(12)
    agree = (
        models_of_clauses(clausal_mask(small, indices))
        == models_of_clauses(mask_via_implicates(small, indices, 500_000))
        == models_of_clauses(fewest_occurrences_first(small))
    )
    try:
        mask_via_implicates(make_state(40), indices, 100_000)
        budget_blows = False
    except MemoryError:
        budget_blows = True
    report.observed = (
        f"strategies agree semantically: {agree}; 40-clause expansion "
        f"exceeds a 100k-implicate budget: {budget_blows}"
    )
    report.holds = agree and budget_blows
    return report


# ---------------------------------------------------------------------------
# A3 -- ablation: instance vs clausal backend crossover
# ---------------------------------------------------------------------------

def a03_backend_crossover(seed: int = 31) -> Report:
    from repro.hlu import language
    from repro.hlu.session import IncompleteDatabase
    from repro.workloads.generators import update_stream

    report = Report(
        ident="A3",
        title="Ablation: instance vs clausal backend as letters grow",
        claim=(
            "direct world-set representation is exponential in the "
            "vocabulary; the clausal backend scales with the "
            "representation ('direct representation is impractical', "
            "Section 0)"
        ),
        columns=("letters", "instance s", "clausal s"),
    )

    def run_script(letters: int, backend: str) -> IncompleteDatabase:
        db = IncompleteDatabase.over(letters, backend=backend)
        rng = random.Random(seed)
        for payload in update_stream(rng, db.vocabulary, 6, width=2):
            db.apply(language.insert(payload))
        db.is_certain("A1 | A2")
        return db

    for letters in (6, 10, 14, 18, 22):
        instance_measured = measure_with_counters(
            lambda: run_script(letters, "instance"), repeat=2
        )
        clausal_measured = measure_with_counters(
            lambda: run_script(letters, "clausal"), repeat=2
        )
        report.merge_counters(instance_measured.counters)
        report.merge_counters(clausal_measured.counters)
        report.add_row(
            letters,
            f"{instance_measured.seconds:.5f}",
            f"{clausal_measured.seconds:.5f}",
        )
    agree = (
        run_script(10, "instance").worlds() == run_script(10, "clausal").worlds()
    )
    report.observed = f"backends agree at 10 letters: {agree}"
    report.holds = agree
    return report


# ---------------------------------------------------------------------------
# A4 -- ablation: hybrid cleanup policies for the Wilkins strategy
# ---------------------------------------------------------------------------

def a04_wilkins_hybrid(seed: int = 47, inserts: int = 24) -> Report:
    from repro.baselines.wilkins import WilkinsDatabase
    from repro.workloads.generators import update_stream

    report = Report(
        ident="A4",
        title="Ablation: Wilkins cleanup policy sweep",
        claim=(
            "deferred masking must eventually be paid; policies trade "
            "update cost against query cost with no superior alternative "
            "(Section 3.3.1)"
        ),
        columns=("policy", "aux letters", "seconds"),
    )
    vocabulary = Vocabulary.standard(12)
    queries_per_insert = 4
    query = "A1 | A2 | A3"

    def payloads():
        rng = random.Random(seed)
        return list(update_stream(rng, vocabulary, inserts, width=2))

    def run_policy(cleanup_every: int | None) -> WilkinsDatabase:
        db = WilkinsDatabase(vocabulary)
        for step, payload in enumerate(payloads(), start=1):
            db.insert(payload)
            if cleanup_every and step % cleanup_every == 0:
                db.cleanup()
            for _ in range(queries_per_insert):
                db.is_certain(query)
        return db

    aux_counts: dict[str, int] = {}
    for label, policy in (
        ("never", None), ("every-8", 8), ("every-4", 4), ("eager", 1)
    ):
        measured = measure_with_counters(lambda: run_policy(policy), repeat=1)
        report.merge_counters(measured.counters)
        db = run_policy(policy)
        aux_counts[label] = db.aux_count
        report.add_row(label, db.aux_count, f"{measured.seconds:.5f}")

    def final_state(policy: int | None):
        db = run_policy(policy)
        db.cleanup()
        return db.state

    agree = final_state(None) == final_state(4) == final_state(1)
    report.observed = (
        f"policies agree on base-letter knowledge after cleanup: {agree}; "
        f"aux letters never={aux_counts['never']}, eager={aux_counts['eager']}"
    )
    report.holds = (
        agree
        and aux_counts["eager"] == 0
        and aux_counts["never"] == 2 * inserts
    )
    return report
