"""Bounded countermodel search: enumeration, verdicts, engines.

Oracle values (counts and witnesses) were derived by hand and with the
naive frozenset evaluator in reference.py before the search existed; they
are frozen here so a regression in enumeration order or engine reduction
shows up as a changed witness, not just a changed runtime.
"""

import json

import pytest

from expertlogic.formula import parse, render
from expertlogic.model import model_to_dict
from expertlogic.semantics import extension
from expertlogic.validity import (
    ENGINES,
    EnumerationSpec,
    SearchStats,
    Verdict,
    bell_number,
    blocks_from_rgs,
    check_equivalence,
    corpus_formulas,
    CORPUS_TEXTS,
    enumerate_models,
    find_countermodel,
    resolve_engine,
    rgs_partitions,
)

from reference import ref_partitions


class TestCounting:
    def test_bell_numbers(self):
        assert [bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_rgs_count_matches_reference_partitions(self, n):
        got = list(rgs_partitions(n))
        assert len(got) == bell_number(n)
        assert all(a < b for a, b in zip(got, got[1:]))
        as_sets = {
            frozenset(frozenset(i for i in range(n) if rgs[i] == j) for j in set(rgs))
            for rgs in got
        }
        assert as_sets == set(ref_partitions(set(range(n))))

    def test_rgs_order_is_lexicographic(self):
        assert list(rgs_partitions(3)) == [
            (0, 0, 0),
            (0, 0, 1),
            (0, 1, 0),
            (0, 1, 1),
            (0, 1, 2),
        ]

    def test_blocks_from_rgs(self):
        assert blocks_from_rgs((0, 1, 0)) == (0b101, 0b010)

    def test_size_counts(self):
        spec = EnumerationSpec(4, ("p", "q"))
        assert [spec.size_count(n) for n in (1, 2, 3, 4)] == [4, 32, 320, 3840]
        assert spec.total_count() == 4196

    def test_stream_yields_each_model_once(self):
        spec = EnumerationSpec(3, ("p",))
        seen = set()
        count = 0
        for model in enumerate_models(spec):
            assert model.n == 3
            seen.add(json.dumps(model_to_dict(model), sort_keys=True))
            count += 1
        assert count == spec.size_count(3) == 40
        assert len(seen) == count

    def test_stream_truncation_flag(self):
        assert len(list(enumerate_models(EnumerationSpec(2, ("p",), limit=5)))) == 5
        assert len(list(enumerate_models(EnumerationSpec(2, ("p",))))) == 8


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_states": 0, "atoms": ("p",)},
            {"n_states": 13, "atoms": ("p",)},
            {"n_states": 2, "atoms": ("p", "p")},
            {"n_states": 2, "atoms": ("P",)},
            {"n_states": 2, "atoms": ("p q",)},
            {"n_states": 12, "atoms": ("a", "b", "c", "d", "e")},
            {"n_states": 2, "atoms": ("p",), "limit": 0},
        ],
    )
    def test_bad_bounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EnumerationSpec(**kwargs)

    def test_atoms_are_normalised_to_tuple(self):
        spec = EnumerationSpec(2, ["q", "p"])
        assert spec.atoms == ("q", "p")


class TestSearch:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_expertise_is_rare_witness(self, engine):
        verdict = find_countermodel(parse("E p"), EnumerationSpec(2, ("p",)), engine)
        assert verdict.status == "countermodel-found"
        assert verdict.stats.models_checked == 4
        assert verdict.stats.engine == engine
        doc = model_to_dict(verdict.witness_model)
        assert doc == {
            "states": ["x0", "x1"],
            "partition": [["x0", "x1"]],
            "valuation": {"p": ["x0"]},
        }
        assert verdict.witness_state == "x0"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_distribution_over_expertise_fails(self, engine):
        verdict = find_countermodel(
            parse("E(p -> q) -> (E p -> E q)"),
            EnumerationSpec(3, ("p", "q")),
            engine,
        )
        assert verdict.status == "countermodel-found"
        assert verdict.stats.models_checked == 9
        doc = model_to_dict(verdict.witness_model)
        assert doc == {
            "states": ["x0", "x1"],
            "partition": [["x0", "x1"]],
            "valuation": {"p": [], "q": ["x0"]},
        }
        assert verdict.witness_state == "x0"

    def test_engines_agree_exactly(self):
        reports = []
        for engine in ENGINES:
            verdict = find_countermodel(
                parse("E(p -> q) -> (E p -> E q)"),
                EnumerationSpec(3, ("p", "q")),
                engine,
            )
            doc = verdict.to_report()
            doc.pop("engine")
            reports.append(doc)
        assert all(doc == reports[0] for doc in reports)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "text",
        [
            "p -> S p",
            "E p <-> E ~p",
            "E p <-> A (S p -> p)",
            "~E p <-> A^ (S p & ~p)",
            "S ~S p -> ~S p",
            "A p -> ~S ~p",
            "E top | ~E top",
            "E T & E F & E E p",
            "(E p & E q) -> E (p & q)",
        ],
    )
    def test_valid_formulas_survive_small_bound(self, engine, text):
        spec = EnumerationSpec(3, ("p", "q"))
        verdict = find_countermodel(parse(text), spec, engine)
        assert verdict.status == "valid-up-to-bound"
        assert verdict.stats.models_checked == spec.total_count() == 356

    @pytest.mark.parametrize("engine", ENGINES)
    def test_contradiction_falls_at_one_state(self, engine):
        verdict = find_countermodel(
            parse("E p & ~E p"), EnumerationSpec(4, ("p",)), engine
        )
        assert verdict.status == "countermodel-found"
        assert verdict.witness_model.n == 1
        assert verdict.stats.models_checked == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_soundness_claim_separated_from_truth(self, engine):
        verdict = check_equivalence(
            parse("S p"), parse("p"), EnumerationSpec(2, ("p",)), engine
        )
        assert verdict.status == "countermodel-found"
        doc = model_to_dict(verdict.witness_model)
        assert doc["partition"] == [["x0", "x1"]]
        assert doc["valuation"] == {"p": ["x0"]}
        assert verdict.witness_state == "x1"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_limit_truncates_and_reports(self, engine):
        spec = EnumerationSpec(3, ("p", "q"), limit=10)
        verdict = find_countermodel(parse("p -> S p"), spec, engine)
        assert verdict.status == "valid-up-to-bound"
        assert verdict.stats.truncated
        assert verdict.stats.models_checked == 10
        assert "truncated" in verdict.summary()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_limit_at_the_bound_is_not_a_truncation(self, engine):
        whole = EnumerationSpec(3, ("p", "q")).total_count()
        for limit, truncated in ((whole, False), (whole - 1, True)):
            spec = EnumerationSpec(3, ("p", "q"), limit=limit)
            verdict = find_countermodel(parse("p -> S p"), spec, engine)
            assert verdict.status == "valid-up-to-bound"
            assert verdict.stats.models_checked == limit
            assert verdict.stats.truncated is truncated

    def test_limit_inside_a_partition_spanning_several_ranges(self):
        # size 6 over three atoms has 2^18 valuations per partition, so
        # each of its partitions spans four ranges; the cut falls in the
        # third range of the first one
        spec = EnumerationSpec(6, ("p", "q", "r"), limit=1_900_000)
        verdict = find_countermodel(parse("p -> S p"), spec, "numpy")
        assert verdict.status == "valid-up-to-bound"
        assert verdict.stats.models_checked == 1_900_000
        assert verdict.stats.truncated

    def test_limit_before_witness_misses_it(self):
        spec = EnumerationSpec(2, ("p",), limit=3)
        verdict = find_countermodel(parse("E p"), spec, "python")
        assert verdict.status == "valid-up-to-bound"
        assert verdict.stats.truncated

    def test_python_engine_counts_match_kernels(self):
        for text in ("E p", "S p -> p", "p -> S p"):
            counts = set()
            for engine in ENGINES:
                verdict = find_countermodel(
                    parse(text), EnumerationSpec(2, ("p",)), engine
                )
                counts.add(verdict.stats.models_checked)
            assert len(counts) == 1, text


class TestSearchInputs:
    def test_knowledge_formulas_rejected(self):
        with pytest.raises(ValueError, match="E/S/A"):
            find_countermodel(parse("K p"), EnumerationSpec(2, ("p",)))

    def test_uncovered_atom_rejected(self):
        with pytest.raises(ValueError, match="outside the search valuations"):
            find_countermodel(parse("p & r"), EnumerationSpec(2, ("p",)))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_every_uncovered_atom_is_named_sorted(self, engine):
        spec = EnumerationSpec(2, ("p",))
        with pytest.raises(ValueError, match="valuations: r, s$"):
            find_countermodel(parse("s & p & r"), spec, engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_knowledge_wins_over_an_uncovered_atom(self, engine):
        with pytest.raises(ValueError, match="E/S/A"):
            find_countermodel(parse("r & K p"), EnumerationSpec(2, ("p",)), engine)

    def test_constants_need_no_valuation_column(self):
        verdict = find_countermodel(parse("T"), EnumerationSpec(2, ("p",)), "python")
        assert verdict.status == "valid-up-to-bound"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            find_countermodel(parse("p"), EnumerationSpec(1, ("p",)), "gpu")

    def test_default_engine_is_numpy(self):
        assert resolve_engine() == "numpy"
        assert resolve_engine("python") == "python"


class TestVerdict:
    def _stats(self):
        return SearchStats(models_checked=1, truncated=False, elapsed_s=0.5, engine="python")

    def test_found_self_check_rejects_non_witness(self):
        model = next(iter(enumerate_models(EnumerationSpec(1, ("p",)))))
        taut = parse("p | ~p")
        with pytest.raises(RuntimeError, match="does not falsify"):
            Verdict.found(taut, EnumerationSpec(1, ("p",)), self._stats(), model, "x0")

    def test_summary_wording_is_fixed(self):
        verdict = find_countermodel(parse("p -> S p"), EnumerationSpec(4, ("p",)), "python")
        assert "no countermodel with ≤ 4 states" in verdict.summary()
        assert "checked 290 of 290 models" in verdict.summary()

    def test_report_shape_and_determinism(self):
        spec = EnumerationSpec(2, ("p",))
        a = find_countermodel(parse("E p"), spec, "python").to_report()
        b = find_countermodel(parse("E p"), spec, "python").to_report()
        assert a == b
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert set(a) == {
            "formula",
            "status",
            "bound",
            "search_space",
            "models_checked",
            "truncated",
            "engine",
            "witness",
        }
        assert a["bound"] == {"n_states": 2, "atoms": ["p"]}
        assert a["search_space"] == 10

    def test_report_timing_is_opt_in(self):
        verdict = find_countermodel(parse("p"), EnumerationSpec(1, ("p",)), "python")
        assert "elapsed_s" not in verdict.to_report()
        timed = verdict.to_report(include_timing=True)
        assert timed["elapsed_s"] >= 0.0

    def test_valid_report_has_null_witness(self):
        verdict = find_countermodel(parse("T"), EnumerationSpec(1, ("p",)), "python")
        doc = verdict.to_report()
        assert doc["witness"] is None
        assert doc["status"] == "valid-up-to-bound"


class TestWitnessIsEnumerationLeast:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_first_falsifying_model_in_order(self, engine):
        formula = parse("S p -> p")
        spec = EnumerationSpec(2, ("p",))
        verdict = find_countermodel(formula, spec, engine)
        position = 0
        for n in (1, 2):
            for model in enumerate_models(EnumerationSpec(n, spec.atoms)):
                position += 1
                ext = extension(model, formula)
                if ext != model.full_mask:
                    assert verdict.stats.models_checked == position
                    assert model_to_dict(model) == model_to_dict(verdict.witness_model)
                    return
        pytest.fail("expected a countermodel in the sweep")


class TestCorpus:
    def test_twelve_formulas_parse_and_render_back(self):
        assert len(CORPUS_TEXTS) == 12
        formulas = corpus_formulas()
        assert tuple(render(f) for f in formulas) == CORPUS_TEXTS

    def test_corpus_depth_and_atoms(self):
        from expertlogic.formula import atom_names, modal_depth

        for f in corpus_formulas():
            assert modal_depth(f) <= 2
            assert atom_names(f) <= {"p", "q"}
