from itertools import combinations

import pytest

from expertlogic.model import (
    ExpertiseModel,
    ExpertiseSetError,
    ModelFormatError,
    Partition,
    RelationError,
    RelationalModel,
    closure,
    expertise_set_from_partition,
    from_s5_model,
    mask_of,
    model_from_dict,
    model_to_dict,
    partition_from_expertise_set,
    set_names,
    to_s5_model,
    verify_expertise_set,
)
from reference import (
    ref_family_from_partition,
    ref_family_laws,
    ref_partition_from_family,
    ref_partitions,
)

ABCD = ("a", "b", "c", "d")


def _blocks_as_names(partition, states):
    return {frozenset(set_names(b, states)) for b in partition.blocks}


def _masks_to_sets(masks, states):
    return {frozenset(set_names(m, states)) for m in masks}


def _partition_of(states, *blocks):
    return Partition.from_blocks([mask_of(b, states) for b in blocks])


class TestPartition:
    def test_blocks_sorted_by_least_state(self):
        part = _partition_of(ABCD, "bd", "ac")
        assert part.blocks == (mask_of("ac", ABCD), mask_of("bd", ABCD))

    def test_rejects_empty_and_overlapping_blocks(self):
        with pytest.raises(ModelFormatError):
            Partition.from_blocks([0b11, 0])
        with pytest.raises(ModelFormatError):
            Partition.from_blocks([0b011, 0b110])

    def test_saturate_and_union_of_blocks(self):
        part = _partition_of(ABCD, "ac", "bd")
        assert part.saturate(mask_of("a", ABCD)) == mask_of("ac", ABCD)
        assert part.saturate(0) == 0
        assert part.is_union_of_blocks(mask_of("ac", ABCD))
        assert not part.is_union_of_blocks(mask_of("ab", ABCD))


class TestVerify:
    def test_legal_family(self):
        fam = [0, mask_of("ac", ABCD), mask_of("bd", ABCD), 0b1111]
        assert verify_expertise_set(fam, 4) == []

    def test_whole_space_alone_lacks_empty_complement(self):
        violations = verify_expertise_set([0b1111], 4)
        assert [(v.law, v.missing) for v in violations] == [("complements", 0)]

    def test_missing_whole_space(self):
        violations = verify_expertise_set([0], 2)
        laws = {v.law for v in violations}
        assert "whole-set" in laws

    def test_missing_intersection_reports_both_members(self):
        ab, ac = mask_of("ab", ABCD), mask_of("ac", ABCD)
        violations = verify_expertise_set([0b1111, ab, ac], 4)
        inter = [v for v in violations if v.law == "intersections"]
        assert any(set(v.members) == {ab, ac} and v.missing == ab & ac for v in inter)

    def test_legality_matches_reference_on_every_family_of_three_states(self):
        # every subset of the powerset of a 3-state space, both verdicts
        states = ("a", "b", "c")
        subsets = list(range(8))
        legal_count = 0
        for picks in range(1 << 8):
            fam = [subsets[i] for i in range(8) if (picks >> i) & 1]
            fam_sets = [frozenset(set_names(m, states)) for m in fam]
            ours = verify_expertise_set(fam, 3) == []
            refs = ref_family_laws(states, fam_sets) == set()
            assert ours == refs
            legal_count += ours
        # legal families correspond one-to-one with partitions
        assert legal_count == sum(1 for _ in ref_partitions(states))  # Bell(3) == 5


class TestPartitionBijection:
    def test_smallest_member_blocks(self):
        fam = [0, mask_of("ac", ABCD), mask_of("bd", ABCD), 0b1111]
        part = partition_from_expertise_set(fam, 4)
        assert _blocks_as_names(part, ABCD) == {frozenset("ac"), frozenset("bd")}

    def test_trivial_and_discrete_families(self):
        assert partition_from_expertise_set([0, 0b11], 2).blocks == (0b11,)
        powerset = list(range(4))
        assert partition_from_expertise_set(powerset, 2).blocks == (0b01, 0b10)

    def test_illegal_family_raises_with_violations(self):
        with pytest.raises(ExpertiseSetError) as exc:
            partition_from_expertise_set([0b1111], 4)
        assert exc.value.violations

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_against_reference(self, n):
        states = tuple(f"x{i}" for i in range(n))
        for ref_part in ref_partitions(states):
            blocks = [mask_of(b, states) for b in ref_part]
            part = Partition.from_blocks(blocks)
            fam = expertise_set_from_partition(part)
            assert verify_expertise_set(fam, n) == []
            assert _masks_to_sets(fam, states) == ref_family_from_partition(ref_part)
            back = partition_from_expertise_set(fam, n)
            assert back == part
            assert ref_partition_from_family(
                states, _masks_to_sets(fam, states)
            ) == frozenset(ref_part)

    def test_family_is_ascending_and_complete(self):
        part = _partition_of(ABCD, "ac", "bd")
        fam = expertise_set_from_partition(part)
        assert list(fam) == sorted(fam)
        assert len(fam) == 4  # 2^blocks
        assert fam[0] == 0 and fam[-1] == 0b1111


class TestClosure:
    def test_single_set_splits_space_in_two(self):
        part = closure([mask_of("ac", ABCD)], 4)
        assert _blocks_as_names(part, ABCD) == {frozenset("ac"), frozenset("bd")}

    def test_empty_family_closes_to_trivial_expertise(self):
        assert closure([], 3).blocks == (0b111,)

    def test_closure_is_smallest_legal_superfamily(self):
        # brute-force oracle over every family on a 3-state space
        states = ("a", "b", "c")
        all_parts = list(ref_partitions(states))
        legal_families = [ref_family_from_partition(p) for p in all_parts]
        for picks in range(1 << 8):
            fam = [m for m in range(8) if (picks >> m) & 1]
            fam_sets = {frozenset(set_names(m, states)) for m in fam}
            closed = closure(fam, 3)
            got = _masks_to_sets(expertise_set_from_partition(closed), states)
            best = min(
                (lf for lf in legal_families if fam_sets <= lf),
                key=len,
            )
            assert got == best

    def test_closure_idempotent(self):
        fam = [mask_of("ab", ABCD), mask_of("b", ABCD)]
        once = closure(fam, 4)
        again = closure(expertise_set_from_partition(once), 4)
        assert once == again


class TestRelational:
    def test_partition_blocks_become_equivalence_classes(self):
        model = ExpertiseModel(ABCD, _partition_of(ABCD, "ac", "bd"))
        rel = to_s5_model(model)
        assert rel.is_s5
        assert set(rel.pairs()) == {
            ("a", "a"), ("a", "c"), ("c", "a"), ("c", "c"),
            ("b", "b"), ("b", "d"), ("d", "b"), ("d", "d"),
        }
        assert from_s5_model(rel) == model

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_round_trip_over_all_partitions(self, n):
        states = tuple(f"x{i}" for i in range(n))
        for ref_part in ref_partitions(states):
            model = ExpertiseModel(
                states, Partition.from_blocks([mask_of(b, states) for b in ref_part])
            )
            assert from_s5_model(to_s5_model(model)) == model

    def test_non_reflexive_named_with_witness(self):
        rel = RelationalModel(("a", "b"), (0b01, 0b01))
        with pytest.raises(RelationError) as exc:
            from_s5_model(rel)
        assert exc.value.property == "reflexive"
        assert exc.value.witness == ("b",)

    def test_non_symmetric_named_with_witness(self):
        rel = RelationalModel(("a", "b"), (0b11, 0b10))
        with pytest.raises(RelationError) as exc:
            from_s5_model(rel)
        assert exc.value.property == "symmetric"
        assert exc.value.witness == ("a", "b")

    def test_non_transitive_named_with_witness(self):
        # a-b and b-c but not a-c
        rel = RelationalModel(("a", "b", "c"), (0b011, 0b111, 0b110))
        with pytest.raises(RelationError) as exc:
            from_s5_model(rel)
        assert exc.value.property == "transitive"
        assert len(exc.value.witness) == 3


class TestJson:
    ECONOMIST = {
        "states": ["a", "b", "c", "d"],
        "partition": [["a", "c"], ["b", "d"]],
        "valuation": {"r": ["a", "c"], "p": ["a", "b"]},
    }

    def test_partition_form(self):
        model = model_from_dict(self.ECONOMIST)
        assert model.states == ABCD
        assert _blocks_as_names(model.partition, ABCD) == {
            frozenset("ac"),
            frozenset("bd"),
        }
        assert model.atom_mask("r") == mask_of("ac", ABCD)

    def test_expertise_form_is_converted(self):
        doc = {
            "states": ["a", "b", "c", "d"],
            "expertise": [[], ["a", "c"], ["b", "d"], ["a", "b", "c", "d"]],
            "valuation": {"r": ["a", "c"], "p": ["a", "b"]},
        }
        assert model_from_dict(doc) == model_from_dict(self.ECONOMIST)

    def test_expertise_form_rejects_illegal_family(self):
        doc = {"states": ["a", "b"], "expertise": [["a", "b"], ["a"]]}
        with pytest.raises(ExpertiseSetError) as exc:
            model_from_dict(doc)
        assert any(v.law == "complements" for v in exc.value.violations)

    @pytest.mark.parametrize(
        "doc",
        [
            {"states": ["a"], "partition": [["a"]], "expertise": [["a"]]},
            {"states": ["a"]},
            {"partition": [["a"]]},
            {"states": [], "partition": []},
            {"states": ["a", "a"], "partition": [["a"]]},
            {"states": ["a", "b"], "partition": [["a"]]},
            {"states": ["a", "b"], "partition": [["a", "b"], ["b"]]},
            {"states": ["a"], "partition": [["z"]]},
            {"states": ["a"], "partition": [["a"]], "valuation": {"p": ["z"]}},
            {"states": ["a"], "partition": [["a"]], "valuation": {"P": ["a"]}},
            {"states": ["a"], "partition": [["a"]], "valuation": "p"},
            # a string where an array of state names belongs is not split
            # into characters, and a nested or numeric one is no crash
            {"states": "abc", "partition": [["a", "b", "c"]]},
            {"states": ["a"], "partition": "a"},
            {"states": ["a", "b"], "partition": ["ab"]},
            {"states": ["a"], "partition": [["a"]], "valuation": {"p": "a"}},
            {"states": ["a", "b"], "expertise": ["ab", ""]},
            {"states": ["a"], "expertise": "a"},
            {"states": ["a"], "partition": [["a"]], "valuation": {"p": 3}},
            {"states": ["a"], "partition": [[["a"]]]},
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(ModelFormatError):
            model_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "model document must be a JSON object"),
            ({"states": [""], "partition": [[""]]}, "state names must be nonempty strings"),
        ],
    )
    def test_malformed_document_wording(self, doc, message):
        with pytest.raises(ModelFormatError) as exc:
            model_from_dict(doc)
        assert str(exc.value) == message

    def test_dict_round_trip(self):
        model = model_from_dict(self.ECONOMIST)
        assert model_from_dict(model_to_dict(model)) == model

    def test_dump_is_canonical(self):
        doc = model_to_dict(model_from_dict(self.ECONOMIST))
        assert doc["partition"] == [["a", "c"], ["b", "d"]]
        assert doc["valuation"] == {"p": ["a", "b"], "r": ["a", "c"]}
