"""Bounded countermodel search: enumeration, verdicts, engines.

Oracle values (counts and witnesses) were derived by hand and with the
naive frozenset evaluator in reference.py before the search existed; they
are frozen here so a regression in enumeration order or engine reduction
shows up as a changed witness, not just a changed runtime.
"""

import json
import random
import time
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from expertlogic import kernels, validity
from expertlogic.formula import TOP, Atom, ModalA, ModalE, Or, parse, render, subformulas
from expertlogic.model import Partition, model_to_dict
from expertlogic.semantics import extension
from expertlogic.validity import (
    ENGINES,
    EnumerationSpec,
    Verdict,
    bell_number,
    blocks_from_rgs,
    check_equivalence,
    corpus_formulas,
    CORPUS_TEXTS,
    enumerate_models,
    find_countermodel,
    find_countermodels,
    resolve_engine,
    rgs_partitions,
)

from reference import ref_partitions
from strategies import formulas

# the kernel engine was named numpy until it moved to Python ints; its test
# ids keep that name so a test's history reads across the rename
ENGINE_PARAMS = [pytest.param(e, id={"bitslice": "numpy"}.get(e, e)) for e in ENGINES]


class TestCounting:
    def test_bell_numbers(self):
        assert [bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_bell_numbers_are_computed_once(self):
        # every search counts its space, so the triangle is built once per n
        spec = EnumerationSpec(5, ("p",))
        spec.total_count()
        before = bell_number.cache_info()
        assert spec.total_count() == EnumerationSpec(5, ("p",)).total_count()
        after = bell_number.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 2 * 5

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
            {"n_states": 12, "atoms": ("p", "q", "r", "s")},
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


class TestPlannedCalls:
    """The one guard on a bound's size: the kernel calls its whole walk
    plans, at most MAX_PLANNED_CALLS."""

    def test_shapes_are_counted_without_listing_them(self):
        # with no atoms each shape is one window, so size n adds p(n)
        for n in range(1, 21):
            shapes = sum(len(validity._representatives(m)) for m in range(1, n + 1))
            assert validity.planned_calls(n, 0) == shapes

    def test_refusal_names_the_bound_the_calls_and_the_cap(self):
        message = (
            "the bound of 12 states over atoms {p, q, r, s} plans at least "
            "8,240,871 kernel calls, above the cap of 1,048,576; search fewer "
            "states or atoms"
        )
        with pytest.raises(ValueError) as refused:
            EnumerationSpec(12, ("p", "q", "r", "s"))
        assert str(refused.value) == message

    @pytest.mark.parametrize(
        "n_states, atoms",
        [(10**9, ()), (12, ("p", "q", "r", "s")), (10**9, ("p", "q", "r", "s", "t", "u"))],
    )
    def test_huge_bounds_are_refused_at_once(self, n_states, atoms):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="plans at least"):
            EnumerationSpec(n_states, atoms)
        assert time.perf_counter() - started < 1.0

    def test_thirteen_states_over_one_atom_are_admitted(self):
        # 372 calls, where the old 12-state rule refused it
        assert validity.planned_calls(13, 1) == 372
        verdict = find_countermodel(parse("p -> S p"), EnumerationSpec(13, ("p",)))
        assert verdict.status == "valid-up-to-bound"
        assert not verdict.stats.truncated

    def test_largest_admitted_bound_per_atom_count(self):
        atoms = ("p", "q", "r", "s", "t", "u")
        for k, n in enumerate([48, 26, 15, 10, 8, 6, 5]):
            assert EnumerationSpec(n, atoms[:k]).n_states == n
            with pytest.raises(ValueError, match="plans at least"):
                EnumerationSpec(n + 1, atoms[:k])

    def test_a_limit_does_not_admit_a_larger_bound(self):
        with pytest.raises(ValueError, match="plans at least"):
            EnumerationSpec(12, ("p", "q", "r"), limit=1)


class TestSearch:
    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
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

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
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

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    @pytest.mark.parametrize(
        "text",
        [
            "p -> S p",
            "E p <-> E ~p",
            "E p <-> A (S p -> p)",
            "~E p <-> A^ (S p & ~p)",
            "S ~S p -> ~S p",
            "A p -> ~S ~p",
            "E F | ~E F",
            "E T & E F & E E p",
            "(E p & E q) -> E (p & q)",
        ],
    )
    def test_valid_formulas_survive_small_bound(self, engine, text):
        spec = EnumerationSpec(3, ("p", "q"))
        verdict = find_countermodel(parse(text), spec, engine)
        assert verdict.status == "valid-up-to-bound"
        assert verdict.stats.models_checked == spec.total_count() == 356

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_contradiction_falls_at_one_state(self, engine):
        verdict = find_countermodel(
            parse("E p & ~E p"), EnumerationSpec(4, ("p",)), engine
        )
        assert verdict.status == "countermodel-found"
        assert verdict.witness_model.n == 1
        assert verdict.stats.models_checked == 1

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_soundness_claim_separated_from_truth(self, engine):
        verdict = check_equivalence(
            parse("S p"), parse("p"), EnumerationSpec(2, ("p",)), engine
        )
        assert verdict.status == "countermodel-found"
        doc = model_to_dict(verdict.witness_model)
        assert doc["partition"] == [["x0", "x1"]]
        assert doc["valuation"] == {"p": ["x0"]}
        assert verdict.witness_state == "x1"

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_limit_truncates_and_reports(self, engine):
        spec = EnumerationSpec(3, ("p", "q"), limit=10)
        verdict = find_countermodel(parse("p -> S p"), spec, engine)
        assert verdict.status == "valid-up-to-bound"
        assert verdict.stats.truncated
        assert verdict.stats.models_checked == 10
        assert "truncated" in verdict.summary()

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_limit_at_the_bound_is_not_a_truncation(self, engine):
        whole = EnumerationSpec(3, ("p", "q")).total_count()
        for limit, truncated in ((whole, False), (whole - 1, True)):
            spec = EnumerationSpec(3, ("p", "q"), limit=limit)
            verdict = find_countermodel(parse("p -> S p"), spec, engine)
            assert verdict.status == "valid-up-to-bound"
            assert verdict.stats.models_checked == limit
            assert verdict.stats.truncated is truncated

    def test_limit_inside_a_partition_spanning_several_ranges(self, monkeypatch):
        # size 6 over three atoms has 2^18 valuations per partition, so
        # with windows of 2^17 codes each of its partitions spans two
        # windows; the cut falls in the first window of the first one
        monkeypatch.setattr(kernels, "WINDOW_BITS", 17)
        spec = EnumerationSpec(6, ("p", "q", "r"), limit=1_900_000)
        verdict = find_countermodel(parse("p -> S p"), spec, "bitslice")
        assert verdict.status == "valid-up-to-bound"
        assert verdict.stats.models_checked == 1_900_000
        assert verdict.stats.truncated

    def test_limit_in_the_second_window_of_a_partition(self, monkeypatch):
        # 1,768,072 models of up to 5 states, then the first 6-state
        # partition's first window of 2^17 codes
        monkeypatch.setattr(kernels, "WINDOW_BITS", 17)
        limit = 1_768_072 + 174_720 + 1_000
        spec = EnumerationSpec(6, ("p", "q", "r"), limit=limit)
        verdict = find_countermodel(parse("p -> S p"), spec, "bitslice")
        assert verdict.stats.models_checked == limit
        assert verdict.stats.truncated

    def test_witness_in_the_second_window_of_a_later_partition(self, monkeypatch):
        # refuting it needs r everywhere, a block with all four p/q types
        # and a second block of two: first at 6 states in the fourth
        # partition, [[x0..x3], [x4, x5]], with r's code bits all set, so
        # in the second window of 2^17 codes: 1,768,072 + 3 * 2^18 + 258,262
        monkeypatch.setattr(kernels, "WINDOW_BITS", 17)
        text = (
            "~(A r & S (p & q) & S (p & ~q) & S (~p & q) & S (~p & ~q)"
            " & ~A S (p & q) & ~E (p | q | S (p & q)))"
        )
        for limit in (None, 2_812_766, 2_812_765):
            spec = EnumerationSpec(6, ("p", "q", "r"), limit=limit)
            verdict = find_countermodel(parse(text), spec, "bitslice")
            if limit == 2_812_765:
                assert verdict.status == "valid-up-to-bound"
                assert verdict.stats.models_checked == limit
                continue
            assert verdict.stats.models_checked == 2_812_766
            doc = model_to_dict(verdict.witness_model)
            assert doc["partition"] == [["x0", "x1", "x2", "x3"], ["x4", "x5"]]
            assert doc["valuation"]["r"] == ["x0", "x1", "x2", "x3", "x4", "x5"]

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    @pytest.mark.parametrize("into", [63, 64, 65])
    def test_limit_at_a_word_boundary_of_a_multi_word_size(self, engine, into):
        # over {p, q, r}, sizes 1 and 2 hold 8 + 128 models; a 3-state
        # partition has 512 codes, one window; the cuts fall around its
        # 64th code
        spec = EnumerationSpec(3, ("p", "q", "r"), limit=136 + into)
        verdict = find_countermodel(parse("p -> S p"), spec, engine)
        assert verdict.status == "valid-up-to-bound"
        assert verdict.stats.models_checked == 136 + into
        assert verdict.stats.truncated

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_witness_in_a_later_word_of_a_later_partition(self, engine):
        # refuting it needs p nonempty, two blocks and a block r splits:
        # first in partition [[x0, x1], [x2]] (the second of size 3) at
        # p = r = {x0}, code 1 + 64: model 136 + 512 + 66
        witness = {
            "states": ["x0", "x1", "x2"],
            "partition": [["x0", "x1"], ["x2"]],
            "valuation": {"p": ["x0"], "q": [], "r": ["x0"]},
        }
        for limit in (None, 714, 713):
            spec = EnumerationSpec(3, ("p", "q", "r"), limit=limit)
            verdict = find_countermodel(parse("A S p | E r | A ~p"), spec, engine)
            if limit == 713:
                assert verdict.status == "valid-up-to-bound"
                assert verdict.stats.truncated
            else:
                assert model_to_dict(verdict.witness_model) == witness
                assert verdict.witness_state == "x0"
            assert verdict.stats.models_checked == (713 if limit == 713 else 714)

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_limit_inside_a_batch_of_several_partitions(self, engine):
        # over {p, q}, the five 3-state partitions (64 codes each) follow
        # the 36 smaller models; this formula's first countermodel is
        # model 36 + 64 + 10, in the second partition, and a limit in the
        # fourth leaves it found
        text = "A S p | E q | A ~p"
        for limit, checked in ((None, 110), (110, 110), (36 + 64 * 3 + 10, 110)):
            spec = EnumerationSpec(3, ("p", "q"), limit=limit)
            verdict = find_countermodel(parse(text), spec, engine)
            assert verdict.status == "countermodel-found"
            assert model_to_dict(verdict.witness_model)["partition"] == [
                ["x0", "x1"],
                ["x2"],
            ]
            assert verdict.stats.models_checked == checked
        spec = EnumerationSpec(3, ("p", "q"), limit=109)
        verdict = find_countermodel(parse(text), spec, engine)
        assert verdict.status == "valid-up-to-bound"
        assert verdict.stats.models_checked == 109
        assert verdict.stats.truncated
        # cuts in the second and third partitions
        for limit in (109, 36 + 64 * 2 + 10):
            spec = EnumerationSpec(3, ("p", "q"), limit=limit)
            verdict = find_countermodel(parse("p -> S p"), spec, engine)
            assert verdict.status == "valid-up-to-bound"
            assert verdict.stats.models_checked == limit
            assert verdict.stats.truncated

    def _kernel_widths(self, monkeypatch):
        # the widest int each eval_chunk call takes or returns, for a full
        # search of p -> S p at 6 states over {p, q, r}
        widths = []
        eval_chunk = kernels.eval_chunk

        def guarded(program, planes, ends):
            found = eval_chunk(program, planes, ends)
            rows = [v for root in found.values() for v in root]
            widths.append(max(v.bit_length() for v in (*planes, *rows)))
            return found

        monkeypatch.setattr(kernels, "eval_chunk", guarded)
        spec = EnumerationSpec(6, ("p", "q", "r"))
        verdict = find_countermodel(parse("p -> S p"), spec, "bitslice")
        assert verdict.stats.models_checked == spec.total_count()
        return widths

    def test_no_kernel_slot_exceeds_the_budget(self, monkeypatch):
        # a kernel value holds one bit per code of its window, and a window
        # holds at most 2^18 codes however large the search
        assert max(self._kernel_widths(monkeypatch)) == 1 << 18

    def test_one_kernel_call_per_representative_window(self, monkeypatch):
        # the kernel sees each size's shape representatives only, one call
        # per window of at most 2^18 codes: sizes 1-6 over three atoms have
        # 1, 2, 3, 5, 7 and 11 shapes and at most 2^18 codes each
        assert len(self._kernel_widths(monkeypatch)) == 1 + 2 + 3 + 5 + 7 + 11

    def test_python_engine_builds_each_partition_once(self, monkeypatch):
        built = []
        from_blocks = Partition.from_blocks.__func__

        def counted(cls, blocks):
            built.append(blocks)
            return from_blocks(cls, blocks)

        monkeypatch.setattr(Partition, "from_blocks", classmethod(counted))
        spec = EnumerationSpec(3, ("p", "q"))
        verdict = find_countermodel(parse("p -> S p"), spec, "python")
        assert verdict.stats.models_checked == 356
        assert len(built) == 1 + 2 + 5

    def test_python_engine_evaluates_only_the_models_it_checks(self, monkeypatch):
        # it stops at the first countermodel and at the limit, not at the
        # end of a partition or a size: here both fall inside the five
        # 3-state partitions over {p, q}
        evaluated = []

        def counted(model, formula, **mode):
            # the walk's own calls; the witness re-check passes a mode
            if not mode:
                evaluated.append(model)
            return extension(model, formula, **mode)

        monkeypatch.setattr(validity, "extension", counted)
        for text, limit, checked in (
            ("A S p | E q | A ~p", None, 110),
            ("p -> S p", 109, 109),
        ):
            evaluated.clear()
            spec = EnumerationSpec(3, ("p", "q"), limit=limit)
            verdict = find_countermodel(parse(text), spec, "python")
            assert verdict.stats.models_checked == checked
            assert len(evaluated) == checked

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


class TestPythonEngineIsIndependent:
    # pinned verdicts, each found elsewhere in this file on both engines:
    # (formula, bound, atoms, limit, models_checked, witness state or None)
    PINNED = [
        ("E p", 2, ("p",), None, 4, "x0"),
        ("E p | q", 2, ("p", "q"), None, 6, "x0"),
        ("p -> S p", 3, ("p", "q"), None, 356, None),
        ("A S p | E q | A ~p", 3, ("p", "q"), 109, 109, None),
        ("A S p | E r | A ~p", 3, ("p", "q", "r"), None, 714, "x0"),
    ]

    @pytest.mark.parametrize("text, n, atoms, limit, checked, state", PINNED)
    def test_runs_without_the_kernel(self, monkeypatch, text, n, atoms, limit, checked, state):
        # the reference shares only the enumeration order with the kernel:
        # it evaluates through semantics and reduces on its own
        for name in ("atom_planes", "eval_chunk"):

            def refuse(*args, name=name):
                raise AssertionError(f"the python engine called kernels.{name}")

            monkeypatch.setattr(kernels, name, refuse)
        spec = EnumerationSpec(n, atoms, limit)
        verdict = find_countermodel(parse(text), spec, "python")
        assert verdict.stats.models_checked == checked
        assert verdict.witness_state == state
        if state is None:
            assert verdict.status == "valid-up-to-bound"
            assert verdict.stats.truncated is (limit is not None)
        with pytest.raises(AssertionError, match="called kernels"):
            find_countermodel(parse(text), spec, "bitslice")

    @pytest.mark.parametrize("text, n, atoms, limit, checked, state", PINNED)
    def test_runs_without_the_kernel_walk(self, monkeypatch, text, n, atoms, limit, checked, state):
        # nor does it share the kernel walk's partition source: it walks
        # every partition in enumeration order
        for name in ("_representatives",):

            def refuse(*args, name=name):
                raise AssertionError(f"the python engine called validity.{name}")

            monkeypatch.setattr(validity, name, refuse)
        spec = EnumerationSpec(n, atoms, limit)
        verdict = find_countermodel(parse(text), spec, "python")
        assert verdict.stats.models_checked == checked
        assert verdict.witness_state == state
        with pytest.raises(AssertionError, match="called validity"):
            find_countermodel(parse(text), spec, "bitslice")


class TestSearchInputs:
    def test_knowledge_formulas_rejected(self):
        with pytest.raises(ValueError, match="E/S/A"):
            find_countermodel(parse("K p"), EnumerationSpec(2, ("p",)))

    def test_uncovered_atom_rejected(self):
        with pytest.raises(ValueError, match="outside the search valuations"):
            find_countermodel(parse("p & r"), EnumerationSpec(2, ("p",)))

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_every_uncovered_atom_is_named_sorted(self, engine):
        spec = EnumerationSpec(2, ("p",))
        with pytest.raises(ValueError, match="valuations: r, s$"):
            find_countermodel(parse("s & p & r"), spec, engine)

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_knowledge_wins_over_an_uncovered_atom(self, engine):
        with pytest.raises(ValueError, match="E/S/A"):
            find_countermodel(parse("r & K p"), EnumerationSpec(2, ("p",)), engine)

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_atom_named_top_is_an_ordinary_atom(self, engine):
        spec = EnumerationSpec(3, ("p", "q"))
        with pytest.raises(ValueError, match="outside the search valuations: top$"):
            find_countermodel(parse("E top | ~E top"), spec, engine)

    def test_constants_need_no_valuation_column(self):
        verdict = find_countermodel(parse("T"), EnumerationSpec(2, ("p",)), "python")
        assert verdict.status == "valid-up-to-bound"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            find_countermodel(parse("p"), EnumerationSpec(1, ("p",)), "gpu")

    def test_former_engine_name_is_unknown(self):
        with pytest.raises(ValueError, match="unknown engine 'numpy'"):
            find_countermodel(parse("p"), EnumerationSpec(1, ("p",)), "numpy")

    def test_default_engine_is_bitslice(self):
        assert resolve_engine() == "bitslice"
        assert resolve_engine("python") == "python"


class TestVerdict:
    def test_self_check_rejects_non_witness(self):
        model = next(iter(enumerate_models(EnumerationSpec(1, ("p",)))))
        taut = parse("p | ~p")
        with pytest.raises(RuntimeError, match="does not falsify"):
            Verdict.of_walk(taut, EnumerationSpec(1, ("p",)), (1, 1, model), 0.5, "python")

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


@st.composite
def searches(draw):
    """A formula over 1-3 atoms and a bound of 1-4 states; a limit of at
    most 2,500 models where the bound holds more, so the python engine
    stays quick."""
    atoms = ("p", "q", "r")[: draw(st.integers(1, 3))]
    n = draw(st.integers(1, 4))
    f = draw(formulas(atoms, with_k=False, max_leaves=8))
    total = EnumerationSpec(n, atoms).total_count()
    if total > 2_500:
        limit = draw(st.integers(1, 2_500))
    else:
        limit = draw(st.none() | st.integers(1, total))
    return f, EnumerationSpec(n, atoms, limit)


@settings(max_examples=60, deadline=None)
@given(searches())
def test_engines_give_equal_reports(case):
    f, spec = case
    reports = []
    for engine in ENGINES:
        doc = find_countermodel(f, spec, engine).to_report()
        assert doc.pop("engine") == engine
        reports.append(doc)
    assert reports[0] == reports[1]


@settings(max_examples=60, deadline=None)
@given(searches())
def test_the_witness_state_is_the_least_the_literal_clauses_falsify(case):
    # on both engines, whether or not the limit cuts the search.  The
    # first countermodel of most formulas has one state; no model of one
    # state falsifies A p | A ~p | f, so its witnesses have two or more
    f, spec = case
    for g in (f, Or(parse("A p | A ~p"), f)):
        for engine in ENGINES:
            verdict = find_countermodel(g, spec, engine)
            if verdict.witness_model is None:
                continue
            model = verdict.witness_model
            ext = extension(model, g, mode="literal")
            falsified = [s for i, s in enumerate(model.states) if not ext >> i & 1]
            assert verdict.witness_state == falsified[0]


@pytest.mark.parametrize("window_bits", [3, 6])
@settings(max_examples=40, deadline=None)
@given(case=searches())
def test_window_size_does_not_change_the_report(window_bits, case):
    # windows of 8 or 64 codes cut most code spaces into several windows,
    # and most limits fall inside one; the report is the default window's
    # and the python engine's
    f, spec = case
    reports = [find_countermodel(f, spec).to_report()]
    default = kernels.WINDOW_BITS
    kernels.WINDOW_BITS = window_bits
    try:
        reports.append(find_countermodel(f, spec, "bitslice").to_report())
    finally:
        kernels.WINDOW_BITS = default
    reports.append(find_countermodel(f, spec, "python").to_report())
    for doc in reports:
        doc.pop("engine")
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("window_bits", [kernels.WINDOW_BITS, 3, 6])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 6), k=st.integers(0, 3))
def test_the_plan_is_the_calls_of_a_whole_walk(window_bits, n, k):
    # T holds everywhere, so the walk runs to the bound
    spec = EnumerationSpec(n, ("p", "q", "r")[:k])
    calls = []
    default, eval_chunk = kernels.WINDOW_BITS, kernels.eval_chunk

    def counted(*args):
        calls.append(1)
        return eval_chunk(*args)

    kernels.WINDOW_BITS, kernels.eval_chunk = window_bits, counted
    try:
        find_countermodel(TOP, spec)
        assert len(calls) == validity.planned_calls(n, k)
    finally:
        kernels.WINDOW_BITS, kernels.eval_chunk = default, eval_chunk


@st.composite
def formula_lists(draw):
    """A bound and limit as in searches() (1-3 states here, so six formulas
    stay quick on the python engine) and 1-6 formulas that share: repeats,
    subformulas of one another, T, bare atoms, and A- or E-rooted formulas,
    whose value is one int for every state."""
    atoms = ("p", "q", "r")[: draw(st.integers(1, 3))]
    n = draw(st.integers(1, 3))
    pool = draw(st.lists(formulas(atoms, with_k=False, max_leaves=8), min_size=1, max_size=3))
    parts = [g for f in pool for g in subformulas(f)]
    pick = st.sampled_from(pool)
    one = (
        pick
        | st.sampled_from(parts)
        | st.sampled_from([TOP, *map(Atom, atoms)])
        | st.builds(ModalA, pick)
        | st.builds(ModalE, pick)
    )
    fs = draw(st.lists(one, min_size=1, max_size=6))
    total = EnumerationSpec(n, atoms).total_count()
    limit = draw(st.none() | st.integers(1, min(total, 1_000)))
    return fs, EnumerationSpec(n, atoms, limit)


def _fields(verdict):
    """Everything a verdict says, elapsed time aside."""
    stats = verdict.stats
    return (
        verdict.formula,
        verdict.status,
        verdict.spec,
        verdict.witness_model,
        verdict.witness_state,
        stats.models_checked,
        stats.truncated,
        stats.engine,
        stats.models_evaluated,
    )


@pytest.mark.parametrize("window_bits", [kernels.WINDOW_BITS, 3, 6])
@settings(max_examples=30, deadline=None)
@given(case=formula_lists())
def test_one_search_of_many_formulas_equals_a_search_of_each(window_bits, case):
    # each formula retires at its own first failure or at the limit, with
    # the counts its own search reports; windows of 8 or 64 codes make
    # formulas retire in different windows of one size
    fs, spec = case
    default = kernels.WINDOW_BITS
    kernels.WINDOW_BITS = window_bits
    try:
        for engine in ENGINES:
            together = find_countermodels(fs, spec, engine)
            alone = [find_countermodel(f, spec, engine) for f in fs]
            assert list(map(_fields, together)) == list(map(_fields, alone))
    finally:
        kernels.WINDOW_BITS = default


@settings(max_examples=60, deadline=None)
@given(case=formula_lists(), data=st.data())
def test_a_pruned_program_equals_the_kept_formulas_own(case, data):
    # the kept roots, in any order and with repeats, keep their rows; the
    # ops no kept root reads are gone, so the program has one op per
    # distinct node of the kept formulas, as their own program has
    fs, spec = case
    keep = data.draw(st.lists(st.integers(0, len(fs) - 1), max_size=len(fs)))
    kept = [fs[i] for i in keep]
    pruned = kernels.prune(kernels.compile_program(fs, spec.atoms), keep)
    own = kernels.compile_program(kept, spec.atoms)
    assert len(pruned.ops) == len(own.ops) == len(list(subformulas(*kept)))
    assert pruned.stops == tuple(sorted(set(pruned.roots)))
    n, k = spec.n_states, len(spec.atoms)
    cuts = data.draw(st.integers(0, (1 << (n - 1)) - 1))
    ends = memoryview(bytes(i for i in range(1, n + 1) if i == n or cuts >> (i - 1) & 1))
    w = data.draw(st.integers(0, n * k))
    start = data.draw(st.integers(0, (1 << (n * k - w)) - 1)) << w
    planes = kernels.atom_planes(n, k, start, w)
    got = kernels.eval_chunk(pruned, planes, ends)
    want = kernels.eval_chunk(own, planes, ends)
    assert [got.get(r) for r in pruned.roots] == [want.get(r) for r in own.roots]


class TestManyFormulas:
    def test_one_kernel_walk_for_all_formulas(self, monkeypatch):
        # p fails in the first window and E p at 2 states; the valid
        # p -> S p keeps the walk going to the bound: 1 + 2 windows over
        # {p, q} at 2 states, not one walk per formula
        calls = []
        eval_chunk = kernels.eval_chunk

        def counted(program, planes, ends):
            calls.append(len(program.roots))
            return eval_chunk(program, planes, ends)

        monkeypatch.setattr(kernels, "eval_chunk", counted)
        fs = [parse("p -> S p"), parse("p"), parse("E p"), parse("p -> S p")]
        verdicts = find_countermodels(fs, EnumerationSpec(2, ("p", "q")), "bitslice")
        assert [v.status == "countermodel-found" for v in verdicts] == [False, True, True, False]
        # the program is pruned to the formulas still live
        assert calls == [4, 3, 2]
        assert [v.stats.models_evaluated for v in verdicts] == [36, 4, 20, 36]

    def test_retired_formulas_leave_the_program(self, monkeypatch):
        compiled, pruned = [], []
        compile_program, prune = kernels.compile_program, kernels.prune

        def counted(formulas, atoms):
            compiled.append(len(formulas))
            return compile_program(formulas, atoms)

        def counted_prune(program, keep):
            kept = prune(program, keep)
            pruned.append((len(program.roots), len(kept.roots), len(kept.ops)))
            return kept

        monkeypatch.setattr(kernels, "compile_program", counted)
        monkeypatch.setattr(kernels, "prune", counted_prune)
        fs = [parse("p"), parse("q"), parse("p -> S p")]
        find_countermodels(fs, EnumerationSpec(3, ("p", "q")), "bitslice")
        # p and q fail in the first window; p -> S p alone walks on, in a
        # program pruned of q's op and compiled once
        assert compiled == [3]
        assert pruned == [(3, 1, 5)]

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_no_formulas_is_no_search(self, engine):
        assert find_countermodels([], EnumerationSpec(3, ("p",)), engine) == []

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_input_check_names_every_loose_atom(self, engine):
        fs = [parse("p & r"), parse("s")]
        with pytest.raises(ValueError, match="outside the search valuations: r, s"):
            find_countermodels(fs, EnumerationSpec(2, ("p",)), engine)

    def test_a_bad_witness_of_any_formula_is_refused(self, monkeypatch):
        # the literal re-check covers every formula of the search
        eval_chunk = kernels.eval_chunk

        def faulty(program, planes, ends):
            # every root but the first fails at every state
            failing = eval_chunk(program, planes, ends)
            first = program.roots[0]
            faked = dict.fromkeys(program.roots[1:], [0])
            if first in failing:
                faked[first] = failing[first]
            return faked

        monkeypatch.setattr(kernels, "eval_chunk", faulty)
        fs = [parse("p"), parse("p -> S p")]
        with pytest.raises(RuntimeError, match="does not falsify"):
            find_countermodels(fs, EnumerationSpec(2, ("p",)), "bitslice")


class TestWitnessIsEnumerationLeast:
    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
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


    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_witness_state_is_the_least_falsified_one(self, engine):
        # the first countermodel, p = {x0} in one block of two, falsifies
        # E p | q at both of its states; the witness is the least, x0
        verdict = find_countermodel(
            parse("E p | q"), EnumerationSpec(2, ("p", "q")), engine
        )
        assert verdict.stats.models_checked == 4 + 2
        assert model_to_dict(verdict.witness_model) == {
            "states": ["x0", "x1"],
            "partition": [["x0", "x1"]],
            "valuation": {"p": ["x0"], "q": []},
        }
        assert extension(verdict.witness_model, parse("E p | q")) == 0
        assert verdict.witness_state == "x0"

    @pytest.mark.parametrize("engine", ENGINE_PARAMS)
    def test_partitions_come_before_words(self, engine):
        # the formula fails only where p splits every block, q meets every
        # block and p & q misses one: 4 states in two blocks of two.  The
        # first such partition, [[x0, x1], [x2, x3]], needs q at x2 or x3
        # (a code of 64 or more); a later one, [[x0, x2], [x1, x3]],
        # fails at a code below 64.  The search answers with the first partition.
        text = "~(A (S p & S ~p) & A S q & ~A S (p & q) & ~A ~S (p & q))"
        verdict = find_countermodel(parse(text), EnumerationSpec(4, ("p", "q")), engine)
        # 356 smaller models, three partitions of 256 codes, then code 86
        assert verdict.stats.models_checked == 356 + 3 * 256 + 87
        assert model_to_dict(verdict.witness_model) == {
            "states": ["x0", "x1", "x2", "x3"],
            "partition": [["x0", "x1"], ["x2", "x3"]],
            "valuation": {"p": ["x1", "x2"], "q": ["x0", "x2"]},
        }
        assert verdict.witness_state == "x0"


# facts over {p, q} for conjunctions whose countermodels need several
# states: one of each p/q type, and how the blocks split p and q
_TYPES = ("p & q", "p & ~q", "~p & q", "~p & ~q")
_FACTS = (
    "E p", "~E p", "E q", "~E q", "~A S p", "~A S q", "E (p & q)", "~E (p & q)",
    "A (S p & S ~p)", "~A (S p & S ~p)", "A S (p & q)", "A (S q & S ~q)",
    "~A (S q & S ~q)", "~A ~(S q & ~S p)", "~A ~(S p & ~S q)", "E (p | q)",
)


def large_countermodel_formulas(seed: int, count: int):
    """Negated conjunctions of _TYPES (each asserted somewhere, mostly) and
    two to five _FACTS, drawn from a seeded generator."""
    rnd = random.Random(seed)
    for _ in range(count):
        parts = [f"~A ~({t})" for t in _TYPES if rnd.random() < 0.8]
        parts += rnd.sample(_FACTS, rnd.randint(2, 5))
        rnd.shuffle(parts)
        yield "~(" + " & ".join(parts) + ")"


def _reports(text, spec):
    reports = []
    for engine in ENGINES:
        doc = find_countermodel(parse(text), spec, engine).to_report()
        assert doc.pop("engine") == engine
        reports.append(doc)
    assert reports[0] == reports[1], text
    return reports[0]


class TestSymmetryReduction:
    # the bitslice engine scans one representative partition per block-size
    # shape; the python engine walks every partition

    @pytest.mark.parametrize("n", range(1, 10))
    def test_representatives_match_a_walk_of_every_partition(self, n):
        first = {}
        for rank, rgs in enumerate(rgs_partitions(n)):
            shape = tuple(sorted(Counter(rgs).values(), reverse=True))
            first.setdefault(shape, (rank, rgs))
        assert validity._representatives(n) == tuple(first.values())

    def test_representatives_beyond_the_walk(self):
        # p(n) shapes, ranks ascending from 0 (one block) to bell(n) - 1
        # (all singletons, the last string in RGS order)
        counts = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        for n, count in enumerate(counts, 1):
            ranks = [rank for rank, _ in validity._representatives(n)]
            assert len(ranks) == count
            assert ranks == sorted(set(ranks))
            assert (ranks[0], ranks[-1]) == (0, bell_number(n) - 1)

    def test_engines_agree_on_countermodels_of_four_states(self):
        sizes = Counter()
        for text in large_countermodel_formulas(2026, 24):
            doc = _reports(text, EnumerationSpec(4, ("p", "q")))
            witness = doc["witness"]
            sizes[len(witness["model"]["states"]) if witness else 0] += 1
        # most need four states or hold up to them
        assert sizes == {4: 9, 0: 8, 3: 5, 2: 2}

    @pytest.mark.parametrize(
        "text, checked, partition",
        [
            (
                "~(~A ~(~p & q) & ~E q & A S q & ~A (S q & S ~q) & E p"
                " & ~A ~(p & ~q) & ~A ~(~p & ~q))",
                15_112,
                [["x0", "x1"], ["x2", "x3"], ["x4"]],
            ),
            (
                "~(~A ~(p & q) & ~A ~(S p & ~S q) & ~E (p & q) & E p & E (p | q)"
                " & ~A ~(p & ~q) & ~A ~(~p & q) & ~A ~(~p & ~q))",
                18_704,
                [["x0", "x1"], ["x2"], ["x3"], ["x4"]],
            ),
        ],
    )
    def test_engines_agree_on_countermodels_of_five_states(self, text, checked, partition):
        doc = _reports(text, EnumerationSpec(5, ("p", "q")))
        assert doc["models_checked"] == checked
        assert doc["witness"]["model"]["partition"] == partition

    @pytest.mark.parametrize(
        "limit, checked",
        [
            # 356 models of up to 3 states; the witness's partition
            # [[x0, x1], [x2, x3]] is 4-state rank 3, the representative of
            # 2 + 2, and the witness is its code 86
            (356 + 2 * 256 + 10, None),  # in rank 2, not a representative
            (356 + 3 * 256, None),  # just before the representative
            (356 + 3 * 256 + 1, None),  # its first code only
            (356 + 3 * 256 + 86, None),  # just before the witness
            (356 + 3 * 256 + 87, 356 + 3 * 256 + 87),  # on the witness
            (356 + 3 * 256 + 88, 356 + 3 * 256 + 87),
            (356 + 5 * 256 + 3, 356 + 3 * 256 + 87),  # in rank 5, not one
            (None, 356 + 3 * 256 + 87),
        ],
    )
    def test_limits_around_a_representative(self, limit, checked):
        text = "~(A (S p & S ~p) & A S q & ~A S (p & q) & ~A ~S (p & q))"
        doc = _reports(text, EnumerationSpec(4, ("p", "q"), limit))
        if checked is None:
            assert doc["status"] == "valid-up-to-bound"
            assert doc["models_checked"] == limit
            assert doc["truncated"]
        else:
            assert doc["status"] == "countermodel-found"
            assert doc["models_checked"] == checked

    @pytest.mark.parametrize("limit", [355, 356, 357, 356 + 256 + 5, 356 + 2 * 256 + 5, 4_000])
    def test_limits_on_a_valid_formula(self, limit):
        # cuts at the end of size 3, at the first model of size 4, inside
        # the representative of 3 + 1 and inside the partition after it
        doc = _reports("p -> S p", EnumerationSpec(4, ("p", "q"), limit))
        assert doc["models_checked"] == limit
        assert doc["truncated"]

    def test_models_evaluated(self):
        spec = EnumerationSpec(7, ("p", "q"))
        stats = find_countermodel(parse("p -> S p"), spec, "bitslice").stats
        assert stats.models_checked == spec.total_count() == 15_257_700
        # the representatives of sizes 1-7: sum of p(n) 4^n
        assert stats.models_evaluated == sum(
            len(validity._representatives(n)) << 2 * n for n in range(1, 8)
        ) == 299_492
        # a window that starts at the limit is not evaluated: the limit is
        # the first code of 3-state rank 1, after sizes 1-2 (4 + 2 * 16
        # models, each size's representatives whole) and rank 0's 64 codes
        spec = EnumerationSpec(3, ("p", "q"), 36 + 64)
        stats = find_countermodel(parse("p -> S p"), spec, "bitslice").stats
        assert stats.models_checked == stats.models_evaluated == 100
        for text, limit in (("p -> S p", None), ("E p | q", None), ("p -> S p", 200)):
            spec = EnumerationSpec(3, ("p", "q"), limit)
            stats = find_countermodel(parse(text), spec, "python").stats
            assert stats.models_evaluated == stats.models_checked


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
