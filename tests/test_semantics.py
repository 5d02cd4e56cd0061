import pytest

from expertlogic.formula import parse, render
from expertlogic.model import (
    ExpertiseModel,
    Partition,
    RelationalModel,
    mask_of,
    model_from_dict,
    set_names,
    to_s5_model,
)
from expertlogic.semantics import (
    UnknownAtomWarning,
    check_correspondence,
    extension,
    extension_relational,
    globally_true,
    holds,
    holds_relational,
)
from reference import ref_eval, ref_eval_relational, ref_extension, ref_partitions

ECONOMIST = model_from_dict(
    {
        "states": ["a", "b", "c", "d"],
        "partition": [["a", "c"], ["b", "d"]],
        "valuation": {"r": ["a", "c"], "p": ["a", "b"]},
    }
)

NO_DISTRIBUTION = model_from_dict(
    {
        "states": ["a", "b", "c"],
        "expertise": [[], ["a"], ["b", "c"], ["a", "b", "c"]],
        "valuation": {"p": ["a"], "q": ["b"]},
    }
)

# formulas exercising every clause, nesting included
BATTERY = [
    parse(s)
    for s in (
        "p", "q", "~p", "p & q", "p | q", "p -> q", "p <-> q", "T", "F",
        "E p", "E (p -> q)", "E T", "E F", "S p", "S (p & ~q)", "S ~p",
        "A p", "A (S p -> p)", "~E p", "E E p", "S S p", "E S p",
        "S (E p & q)", "A E p", "S^ p", "E^ (p & q)", "A^ p",
    )
]


def _tiny_models(max_n, atoms=("p", "q")):
    """Every expertise model with at most max_n states over `atoms`,
    generated through the reference partition enumerator."""
    for n in range(1, max_n + 1):
        states = tuple(f"x{i}" for i in range(n))
        for ref_part in ref_partitions(states):
            part = Partition.from_blocks([mask_of(b, states) for b in ref_part])
            for code in range(1 << (n * len(atoms))):
                valuation = tuple(
                    (atom, (code >> (j * n)) & ((1 << n) - 1))
                    for j, atom in enumerate(atoms)
                )
                yield ExpertiseModel(states, part, valuation)


def _as_sets(model):
    states = model.states
    family = None
    valuation = {
        atom: frozenset(set_names(m, states)) for atom, m in model.valuation
    }
    from expertlogic.model import expertise_set_from_partition

    family = [frozenset(set_names(m, states)) for m in
              expertise_set_from_partition(model.partition)]
    return states, family, valuation


class TestEconomistModel:
    def test_expertise_about_the_field(self):
        assert globally_true(ECONOMIST, parse("E r"))

    def test_no_expertise_outside_it(self):
        assert not globally_true(ECONOMIST, parse("E p"))
        assert extension(ECONOMIST, parse("E p")) == 0
        assert globally_true(ECONOMIST, parse("E r & ~E p"))

    def test_sound_but_false_conjunction(self):
        f = parse("S (r & p)")
        assert holds(ECONOMIST, "c", f)
        assert not holds(ECONOMIST, "b", f)
        assert set_names(extension(ECONOMIST, parse("~S (r & p)")), ECONOMIST.states) == ["b", "d"]

    def test_universal_quantifier(self):
        assert globally_true(ECONOMIST, parse("A (r | ~r)"))
        assert not holds(ECONOMIST, "a", parse("A r"))


class TestFootnoteModel:
    def test_expertise_does_not_distribute_over_implication(self):
        assert globally_true(NO_DISTRIBUTION, parse("E (p -> q)"))
        assert globally_true(NO_DISTRIBUTION, parse("E p"))
        assert not globally_true(NO_DISTRIBUTION, parse("E q"))
        assert extension(NO_DISTRIBUTION, parse("E (p -> q) -> (E p -> E q)")) == 0


class TestEvaluation:
    def test_rejects_knowledge_operator(self):
        with pytest.raises(ValueError):
            extension(ECONOMIST, parse("K p"))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            extension(ECONOMIST, parse("p"), mode="quick")

    def test_unknown_state(self):
        with pytest.raises(ValueError):
            holds(ECONOMIST, "z", parse("p"))

    def test_missing_atom_warns_and_is_false(self):
        with pytest.warns(UnknownAtomWarning, match="zz"):
            assert extension(ECONOMIST, parse("zz | r")) == mask_of("ac", ECONOMIST.states)

    def test_missing_atom_named_top_warns(self):
        with pytest.warns(UnknownAtomWarning, match="top"):
            assert extension(ECONOMIST, parse("top | ~top")) == ECONOMIST.full_mask

    def test_matches_reference_oracle_everywhere(self):
        for model in _tiny_models(3):
            states, family, valuation = _as_sets(model)
            for f in BATTERY:
                ours = extension(model, f)
                ref = ref_extension(states, family, valuation, f)
                assert ours == mask_of(ref, states), (model, render(f))

    def test_literal_and_fast_paths_agree(self):
        for model in _tiny_models(3):
            for f in BATTERY:
                assert extension(model, f, mode="fast") == extension(
                    model, f, mode="literal"
                ), (model, render(f))

    def test_expertise_claims_are_state_independent(self):
        claims = [parse(s) for s in ("E p", "E (p | ~q)", "E (p & q)", "A p")]
        for model in _tiny_models(3):
            for f in claims:
                assert extension(model, f) in (0, model.full_mask)

    def test_validity_of_plain_tautology(self):
        for model in _tiny_models(2):
            assert globally_true(model, parse("A (p -> p)"))
            assert globally_true(model, parse("S p | ~S p"))


class TestRelationalEvaluation:
    REL = to_s5_model(ECONOMIST)

    def test_knowledge_dual_marks_compatibility(self):
        f = parse("~K ~(r & p)")
        assert holds_relational(self.REL, "c", f)
        assert not holds_relational(self.REL, "b", f)

    def test_rejects_expertise_operators(self):
        with pytest.raises(ValueError):
            extension_relational(self.REL, parse("E p"))
        with pytest.raises(ValueError):
            extension_relational(self.REL, parse("S p"))

    def test_missing_atom_warns(self):
        with pytest.warns(UnknownAtomWarning):
            extension_relational(self.REL, parse("K zz"))

    def test_matches_reference_on_arbitrary_relations(self):
        # relations need not be equivalences for the K/A fragment
        states = ("x0", "x1", "x2")
        battery = [parse(s) for s in ("K p", "~K ~p", "A (p -> K p)", "K K p", "A p")]
        valuation = (("p", 0b011),)
        val_sets = {"p": frozenset({"x0", "x1"})}
        for succ_code in range(64):
            succ = tuple((succ_code >> (3 * i)) & 0b111 for i in range(2)) + (0b101,)
            rel = RelationalModel(states, succ, valuation)
            succ_sets = {
                states[i]: {states[j] for j in range(3) if (succ[i] >> j) & 1}
                for i in range(3)
            }
            for f in battery:
                ours = extension_relational(rel, f)
                ref = frozenset(
                    x for x in states if ref_eval_relational(states, succ_sets, val_sets, x, f)
                )
                assert ours == mask_of(ref, states)


class TestCorrespondence:
    def test_agreement_on_the_economist_model(self):
        report = check_correspondence(ECONOMIST, parse("S (r & p)"))
        assert report.agrees
        assert report.mismatch_state is None
        assert render(report.translated) == "~K ~(r & p)"

    def test_agreement_on_every_tiny_model(self):
        for model in _tiny_models(3):
            for f in BATTERY:
                report = check_correspondence(model, f)
                assert report.agrees, (model, render(f))

    def test_mismatch_reports_least_state(self):
        # force a disagreement by evaluating the translation on a coarser,
        # non-induced relation: E r holds on the model but its knowledge
        # form fails everywhere when every state sees every state
        from expertlogic.semantics import CorrespondenceReport

        report = check_correspondence(ECONOMIST, parse("E r"))
        assert report.agrees
        forged = RelationalModel(
            report.relational.states,
            (0b1111,) * 4,
            report.relational.valuation,
        )
        fake = CorrespondenceReport(
            model=ECONOMIST,
            relational=forged,
            formula=report.formula,
            translated=report.translated,
            source_extension=report.source_extension,
            translated_extension=extension_relational(forged, report.translated),
        )
        assert not fake.agrees
        assert fake.mismatch_state == "a"
