"""Hilbert-system machinery: schema matching, tautology rule, derivations,
proof files, and the bounded soundness sweep."""

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expertlogic.formula import TOP, And, Atom, Iff, Imp, ModalA, ModalS, Not, parse, render
from expertlogic.proofs import (
    Axiom,
    Derivation,
    DerivationFormatError,
    E_DISTRIBUTION,
    MAX_TAUT_LETTERS,
    MP,
    NecA,
    RS,
    SCHEMAS,
    Step,
    SweepReport,
    SweepViolation,
    Taut,
    TautologyLimitError,
    check_derivation,
    check_taut,
    instantiate,
    load_derivation,
    match_schema,
    parse_derivation,
    schema_instances,
    soundness_sweep,
)
from expertlogic.validity import EnumerationSpec, corpus_formulas, find_countermodel

from mutations import mutation_catalog
from reference import ref_tautology
from strategies import formulas

FIXTURES = "fixtures"


def _fixture(name):
    return load_derivation(f"{FIXTURES}/{name}")


class TestSchemas:
    def test_the_eight_names(self):
        assert set(SCHEMAS) == {"K_S", "T_S", "5_S", "K_A", "T_A", "5_A", "ES", "Inc"}

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("K_S", ("phi", "psi")),
            ("T_S", ("phi",)),
            ("5_S", ("phi",)),
            ("K_A", ("phi", "psi")),
            ("T_A", ("phi",)),
            ("5_A", ("phi",)),
            ("ES", ("phi",)),
            ("Inc", ("phi",)),
        ],
    )
    def test_metavariable_arity(self, name, expected):
        assert SCHEMAS[name].metavariables() == expected

    def test_distribution_is_not_among_the_axioms(self):
        assert E_DISTRIBUTION.name not in SCHEMAS
        assert E_DISTRIBUTION.metavariables() == ("phi", "psi")


class TestMatchSchema:
    def test_direct_instantiation(self):
        got = match_schema(SCHEMAS["T_S"], parse("(p & q) -> S (p & q)"))
        assert got == {"phi": parse("p & q")}

    def test_biconditional_schema(self):
        got = match_schema(SCHEMAS["ES"], parse("E p <-> A (S p -> p)"))
        assert got == {"phi": parse("p")}

    def test_metavariable_mismatch(self):
        assert match_schema(SCHEMAS["T_S"], parse("p -> S q")) is None

    def test_two_place_schema(self):
        got = match_schema(SCHEMAS["K_S"], parse("S ~q & ~S ~p -> S (~q & ~~p)"))
        assert got == {"phi": parse("~q"), "psi": parse("~p")}

    def test_shape_mismatch(self):
        assert match_schema(SCHEMAS["K_S"], parse("S p & ~S q -> S (p & q)")) is None

    def test_modal_substitutions_match(self):
        f = parse("A (E p) -> E p")
        assert match_schema(SCHEMAS["T_A"], f) == {"phi": parse("E p")}

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(SCHEMAS)),
        formulas(with_k=False, max_leaves=6),
        formulas(with_k=False, max_leaves=6),
    )
    def test_match_inverts_instantiate(self, name, f, g):
        schema = SCHEMAS[name]
        names = schema.metavariables()
        subst = dict(zip(names, (f, g)))
        instance = instantiate(schema.template, subst)
        assert match_schema(schema, instance) == subst


class TestCheckTaut:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("S p | ~S p", True),
            ("E p -> E p", True),
            ("S p -> p", False),
            ("T", True),
            ("F", False),
            ("p -> (q -> p)", True),
            ("(p -> q) -> ((q -> r) -> (p -> r))", True),
            ("E (p & q) -> E p", False),
            ("A p & ~A p", False),
            ("S p & S q -> S q", True),
        ],
    )
    def test_examples(self, text, expected):
        assert check_taut(parse(text)) is expected

    def test_modal_subtrees_are_opaque_letters(self):
        # same modal subtree twice is one letter, so this is p-or-not-p
        assert check_taut(parse("S (p & q) | ~S (p & q)"))
        # distinct subtrees are distinct letters
        assert not check_taut(parse("S (p & q) | ~S (q & p)"))

    @settings(max_examples=200, deadline=None)
    @given(formulas(with_k=False, max_leaves=8))
    def test_matches_reference_oracle(self, f):
        assert check_taut(f) == ref_tautology(f)

    def test_letter_cap_is_refused_with_counts(self):
        wide = Atom("a0")
        for i in range(1, MAX_TAUT_LETTERS + 1):
            wide = And(wide, Atom(f"a{i}"))
        with pytest.raises(TautologyLimitError) as err:
            check_taut(wide)
        assert "21 distinct letters" in str(err.value)
        assert "cap is 20" in str(err.value)

    def test_constants_are_columns_not_letters(self):
        assert check_taut(parse("T"))
        assert check_taut(parse("p -> T"))
        assert check_taut(parse("F -> p"))
        f = Atom("a0")
        for i in range(1, MAX_TAUT_LETTERS):
            f = And(f, Atom(f"a{i}"))
        assert not check_taut(And(f, TOP))  # 20 letters: within the cap
        assert check_taut(Imp(And(f, TOP), Atom("a0")))

    def test_twenty_letters_is_still_allowed(self):
        f = Atom("a0")
        for i in range(1, MAX_TAUT_LETTERS):
            f = And(f, Atom(f"a{i}"))
        assert check_taut(Imp(f, Atom("a0")))


class TestCheckDerivation:
    def test_single_rule_application(self):
        d = Derivation(
            (
                Step(parse("p -> S p"), Axiom("T_S")),
                Step(parse("A (p -> S p)"), NecA(1)),
            )
        )
        assert check_derivation(d).ok

    def test_explicit_substitution_accepted(self):
        d = Derivation(
            (
                Step(
                    parse("E (p | q) <-> A (S (p | q) -> p | q)"),
                    Axiom("ES", (("phi", parse("p | q")),)),
                ),
            )
        )
        assert check_derivation(d).ok

    def test_explicit_substitution_checked(self):
        d = Derivation(
            (
                Step(
                    parse("E (p | q) <-> A (S (p | q) -> p | q)"),
                    Axiom("ES", (("phi", parse("p")),)),
                ),
            )
        )
        verdict = check_derivation(d)
        assert not verdict.ok
        assert verdict.step == 1
        assert "does not instantiate" in verdict.reason

    def test_unknown_axiom_name(self):
        d = Derivation((Step(parse("p -> S p"), Axiom("T_X")),))
        verdict = check_derivation(d)
        assert not verdict.ok and "unknown axiom" in verdict.reason

    def test_rule_rs(self):
        d = Derivation(
            (
                Step(parse("(p & q) <-> (q & p)"), Taut()),
                Step(parse("S (p & q) <-> S (q & p)"), RS(1)),
            )
        )
        assert check_derivation(d).ok

    def test_rs_demands_a_biconditional(self):
        d = Derivation(
            (
                Step(parse("p -> p"), Taut()),
                Step(parse("S p <-> S p"), RS(1)),
            )
        )
        verdict = check_derivation(d)
        assert verdict.step == 2 and "not a biconditional" in verdict.reason

    def test_forward_reference_rejected(self):
        d = Derivation(
            (
                Step(parse("A (p -> p)"), NecA(2)),
                Step(parse("p -> p"), Taut()),
            )
        )
        verdict = check_derivation(d)
        assert verdict.step == 1 and "does not precede" in verdict.reason

    def test_knowledge_operator_rejected(self):
        d = Derivation((Step(parse("K p | ~K p"), Taut()),))
        verdict = check_derivation(d)
        assert verdict.step == 1 and "outside the proof language" in verdict.reason

    def test_mp_requires_the_exact_implication(self):
        d = Derivation(
            (
                Step(parse("p -> S p"), Axiom("T_S")),
                Step(parse("q -> S q"), Axiom("T_S")),
                Step(parse("S q"), MP(1, 2)),
            )
        )
        verdict = check_derivation(d)
        assert verdict.step == 3 and "not the implication" in verdict.reason

    @pytest.mark.parametrize(
        "steps, expected",
        [
            (
                ((parse("p -> p"), Taut()), (parse("p"), MP(3, 1))),
                "bad step 2: reference to step 3, which does not precede step 2",
            ),
            (
                ((parse("p -> p"), Taut()), (parse("q -> q"), Taut()), (parse("q"), MP(1, 3))),
                "bad step 3: reference to step 3, which does not precede step 3",
            ),
            (
                ((parse("S p <-> S p"), RS(2)), (parse("p <-> p"), Taut())),
                "bad step 1: reference to step 2, which does not precede step 1",
            ),
            (
                ((parse("p <-> p"), Taut()), (parse("A p <-> A p"), RS(1))),
                "bad step 2: formula is not S applied to both sides of step 1",
            ),
            (
                ((parse("E p <-> A (S p -> p)"), Axiom("ES", (("psi", parse("p")),))),),
                "bad step 1: no substitution for metavariable phi",
            ),
            (
                ((parse("p -> p"), "lemma"),),
                "bad step 1: unsupported justification 'lemma'",
            ),
        ],
        ids=["mp-premise", "mp-implication", "rs-forward", "rs-shape", "axiom-meta", "other"],
    )
    def test_rejection_wording(self, steps, expected):
        d = Derivation(tuple(Step(f, j) for f, j in steps))
        assert str(check_derivation(d)) == expected

    def test_verdict_string_forms(self):
        good = check_derivation(
            Derivation((Step(parse("p -> p"), Taut()),))
        )
        assert str(good) == "ok"
        bad = check_derivation(Derivation((Step(parse("p"), Taut()),)))
        assert str(bad) == "bad step 1: not a propositional tautology"


class TestFixtureProofs:
    @pytest.mark.parametrize(
        "name,theorem",
        [
            ("nec_shat.prf", "~S ~(p -> p)"),
            ("shat_t.prf", "S ~p | p"),
            ("shat_k.prf", "S ~(p -> q) | (S ~p | ~S ~q)"),
            ("shat_5.prf", "~S ~p | ~S ~~~S ~p"),
        ],
    )
    def test_bundled_derivations_check(self, name, theorem):
        d = _fixture(name)
        assert check_derivation(d).ok
        assert render(d.theorem) == theorem

    def test_cited_axiom_swap_is_caught_at_its_step(self):
        d = _fixture("nec_shat.prf")
        steps = list(d.steps)
        steps[2] = Step(steps[2].formula, Axiom("T_A"))
        verdict = check_derivation(Derivation(tuple(steps)))
        assert str(verdict) == "bad step 3: formula is not an instance of axiom T_A"

    def test_twenty_mutations_all_rejected_at_the_mutated_step(self):
        d = _fixture("nec_shat.prf")
        catalog = mutation_catalog(d)
        assert len(catalog) == 20
        for expected_step, mutant in catalog:
            verdict = check_derivation(mutant)
            assert not verdict.ok
            assert verdict.step == expected_step, (expected_step, verdict)


class TestProofFiles:
    def test_round_trip_with_comments_and_blanks(self):
        text = (
            "# dual necessitation from a tautology\n"
            "\n"
            "1. p -> p ; taut   # the seed\n"
            "2. A (p -> p) ; necA 1\n"
        )
        d = parse_derivation(text)
        assert len(d.steps) == 2
        assert check_derivation(d).ok

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("", "no steps"),
            ("# only a comment\n", "no steps"),
            ("1. p -> p taut", "expected"),
            ("2. p -> p ; taut", "step numbered 2, expected 1"),
            ("1. p -> ; taut", "bad formula"),
            ("1. p -> p ; tautology", "unknown justification"),
            ("1. p -> p ; mp 1", "unknown justification"),
            ("1. p -> p ; axiom", "unknown justification"),
            ("1. p -> p ; necA one", "non-numeric step reference"),
        ],
    )
    def test_malformed_files(self, text, fragment):
        with pytest.raises(DerivationFormatError) as err:
            parse_derivation(text)
        assert fragment in str(err.value)

    def test_line_numbers_in_errors(self):
        with pytest.raises(DerivationFormatError) as err:
            parse_derivation("1. p -> p ; taut\nwhoops\n")
        assert err.value.line == 2


class TestSchemaInstances:
    def test_one_metavariable_count(self):
        corpus = corpus_formulas()
        assert len(list(schema_instances(SCHEMAS["T_S"], corpus))) == 12

    def test_two_metavariable_count(self):
        corpus = corpus_formulas()[:4]
        got = list(schema_instances(SCHEMAS["K_S"], corpus))
        assert len(got) == 16
        # first metavariable varies slowest, in corpus order
        assert [dict(s)["phi"] for s, _ in got[:4]] == [corpus[0]] * 4

    @pytest.mark.parametrize(
        "schema", [*SCHEMAS.values(), E_DISTRIBUTION], ids=lambda s: s.name
    )
    def test_instances_reproduce_via_instantiate(self, schema):
        # nodes are interned, so equal instances are one object
        pairs = list(schema_instances(schema, corpus_formulas()))
        assert len(pairs) == 12 ** len(schema.metavariables())
        for subst, instance in pairs:
            assert instance is instantiate(schema.template, dict(subst))


class TestSoundnessSweep:
    def test_axioms_are_clean_at_small_bound(self):
        corpus = corpus_formulas()[:4]
        spec = EnumerationSpec(3, ("p", "q"))
        report = soundness_sweep([SCHEMAS["K_S"], SCHEMAS["T_S"]], corpus, spec)
        assert report.ok
        assert report.instances_checked == 16 + 4
        assert report.schemas == ("K_S", "T_S")
        assert report.to_report()["violations"] == []

    def test_planted_distribution_schema_is_flagged(self):
        corpus = corpus_formulas()[:4]
        spec = EnumerationSpec(3, ("p", "q"))
        report = soundness_sweep([E_DISTRIBUTION], corpus, spec)
        assert not report.ok
        assert report.instances_checked == 16
        first = report.violations[0]
        assert first.schema == "E_dist"
        assert dict(first.substitution) == {"phi": parse("p"), "psi": parse("q")}
        assert first.verdict.status == "countermodel-found"

    def test_report_shape(self):
        spec = EnumerationSpec(2, ("p", "q"))
        report = soundness_sweep([SCHEMAS["T_A"]], corpus_formulas()[:2], spec)
        doc = report.to_report()
        assert set(doc) == {
            "schemas",
            "corpus",
            "bound",
            "engine",
            "instances_checked",
            "violations",
        }
        assert "elapsed_s" in report.to_report(include_timing=True)

    def test_engine_is_resolved_before_any_search(self):
        spec = EnumerationSpec(2, ("p", "q"))
        assert soundness_sweep([], corpus_formulas(), spec).engine == "bitslice"
        report = soundness_sweep([SCHEMAS["T_A"]], corpus_formulas()[:1], spec, "python")
        assert report.engine == "python"
        with pytest.raises(ValueError, match="unknown engine"):
            soundness_sweep([], corpus_formulas(), spec, "gpu")


ALL_NINE = [*SCHEMAS.values(), E_DISTRIBUTION]


def _limited(n):
    """A limit that cuts inside the bound's largest size over {p, q}."""
    return EnumerationSpec(n, ("p", "q")).total_count() * 2 // 3


@cache
def _single_searches(n, limit):
    """Every instance of the nine schemas searched on its own:
    {(schema, substitution): verdict}."""
    spec = EnumerationSpec(n, ("p", "q"), limit)
    return {
        (schema.name, substitution): find_countermodel(instance, spec)
        for schema in ALL_NINE
        for substitution, instance in schema_instances(schema, corpus_formulas())
    }


class TestSweepSearchesEachSchemaOnce:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("cut", [False, True], ids=["whole", "limit"])
    @pytest.mark.parametrize(
        "schemas",
        [[s] for s in ALL_NINE] + [ALL_NINE],
        ids=[s.name for s in ALL_NINE] + ["all"],
    )
    def test_report_equals_one_search_per_instance(self, schemas, n, cut):
        limit = _limited(n) if cut else None
        spec = EnumerationSpec(n, ("p", "q"), limit)
        verdicts = _single_searches(n, limit)
        violations = [
            SweepViolation(schema.name, substitution, verdicts[schema.name, substitution])
            for schema in schemas
            for substitution, _ in schema_instances(schema, corpus_formulas())
            if verdicts[schema.name, substitution].status == "countermodel-found"
        ]
        expected = SweepReport(
            schemas=tuple(s.name for s in schemas),
            corpus=corpus_formulas(),
            spec=spec,
            engine="bitslice",
            instances_checked=sum(1 for s in schemas for _ in schema_instances(s, corpus_formulas())),
            violations=tuple(violations),
        )
        report = soundness_sweep(schemas, corpus_formulas(), spec)
        assert report.to_report() == expected.to_report()
        # the verdicts themselves, counts and witnesses included
        assert [v.verdict.stats.models_checked for v in report.violations] == [
            v.verdict.stats.models_checked for v in violations
        ]

    def test_models_evaluated_counts_each_walk_once(self):
        # over {p, q} at 2 states a whole walk is 4 + 2 * 16 = 36 codes;
        # every schema has an instance valid to the bound, so each of the
        # nine walks runs whole
        spec = EnumerationSpec(2, ("p", "q"))
        report = soundness_sweep(ALL_NINE, corpus_formulas(), spec)
        assert report.models_evaluated == 9 * 36
        assert report.to_report(include_timing=True)["models_evaluated"] == 9 * 36
        assert "models_evaluated" not in report.to_report()
        # the python engine walks once per instance: 12 of T_S
        report = soundness_sweep([SCHEMAS["T_S"]], corpus_formulas(), spec, "python")
        assert report.models_evaluated == 12 * 36

    def test_witness_report_is_the_verdicts_own(self):
        spec = EnumerationSpec(2, ("p", "q"))
        report = soundness_sweep([E_DISTRIBUTION], corpus_formulas(), spec)
        for doc, v in zip(report.to_report()["violations"], report.violations):
            assert doc["witness"] == v.verdict.to_report()["witness"]
            assert doc["witness"] == v.verdict.witness_report()
