"""The contract of the package's immutable records.

Models, search verdicts and proof objects are frozen value classes: each
builds positionally or by keyword with its defaults, compares and hashes
by value within its own class only, refuses assignment and deletion, and
survives copy, deepcopy and pickle.
"""

import copy
import pickle

import pytest

from expertlogic.formula import Atom, parse
from expertlogic.kernels import Program
from expertlogic.model import (
    ExpertiseModel,
    LawViolation,
    ModelFormatError,
    Partition,
    RelationalModel,
)
from expertlogic.proofs import (
    MP,
    RS,
    Axiom,
    AxiomSchema,
    Derivation,
    DerivationVerdict,
    NecA,
    Step,
    SweepReport,
    SweepViolation,
    Taut,
)
from expertlogic.semantics import CorrespondenceReport
from expertlogic.validity import EnumerationSpec, SearchStats, Verdict

P, Q = Atom("p"), Atom("q")
STATES = ("a", "b", "c")
PARTITION = Partition((1, 6))
MODEL = ExpertiseModel(STATES, PARTITION, (("p", 3),))
RELATIONAL = RelationalModel(STATES, (1, 6, 6), (("p", 3),))
SPEC = EnumerationSpec(2, ("p",))
STATS = SearchStats(5, False, 0.25, "bitslice", 3)
VERDICT = Verdict("countermodel-found", P, SPEC, STATS, MODEL, "c")
STEP = Step(parse("p -> p"), Taut())

# class, its fields in order with one value each, then the fields that
# have a default with that default
CASES = [
    (LawViolation, {"law": "complements", "members": (1,), "missing": 6}, {}),
    (Partition, {"blocks": (1, 6)}, {}),
    (
        ExpertiseModel,
        {"states": STATES, "partition": PARTITION, "valuation": (("p", 3),)},
        {"valuation": ()},
    ),
    (
        RelationalModel,
        {"states": STATES, "succ": (1, 6, 6), "valuation": (("p", 3),)},
        {"valuation": ()},
    ),
    (
        CorrespondenceReport,
        {
            "model": MODEL,
            "relational": RELATIONAL,
            "formula": P,
            "translated": P,
            "source_extension": 3,
            "translated_extension": 3,
        },
        {},
    ),
    (Program, {"ops": ((0, 0, 0),), "atom_order": ("p",), "frees": ((),), "negated": (False,)}, {}),
    (EnumerationSpec, {"n_states": 3, "atoms": ("p", "q"), "limit": 10}, {"limit": None}),
    (
        SearchStats,
        {
            "models_checked": 5,
            "truncated": True,
            "elapsed_s": 0.5,
            "engine": "python",
            "models_evaluated": 5,
        },
        {"models_evaluated": 0},
    ),
    (
        Verdict,
        {
            "status": "countermodel-found",
            "formula": P,
            "spec": SPEC,
            "stats": STATS,
            "witness_model": MODEL,
            "witness_state": "c",
        },
        {"witness_model": None, "witness_state": None},
    ),
    (AxiomSchema, {"name": "T_S", "template": parse("p -> S p")}, {}),
    (Taut, {}, {}),
    (Axiom, {"name": "T_A", "substitution": (("phi", P),)}, {"substitution": None}),
    (MP, {"premise": 1, "implication": 2}, {}),
    (NecA, {"premise": 1}, {}),
    (RS, {"premise": 1}, {}),
    (Step, {"formula": parse("p -> p"), "justification": Taut()}, {}),
    (Derivation, {"steps": (STEP,)}, {}),
    (DerivationVerdict, {"ok": False, "step": 2, "reason": "bad"}, {"step": None, "reason": None}),
    (
        SweepViolation,
        {"schema": "E_dist", "substitution": (("phi", P), ("psi", Q)), "verdict": VERDICT},
        {},
    ),
    (
        SweepReport,
        {
            "schemas": ("T_S",),
            "corpus": (P, Q),
            "spec": SPEC,
            "engine": "bitslice",
            "instances_checked": 2,
            "violations": (),
            "elapsed_s": 0.125,
        },
        {"violations": (), "elapsed_s": 0.0},
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_record_class_is_covered():
    assert len(CASES) == len(set(IDS)) == 20


@pytest.mark.parametrize("cls, fields, defaults", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, defaults):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, fields, defaults", CASES, ids=IDS)
def test_defaults_fill_the_trailing_fields(cls, fields, defaults):
    required = [value for name, value in fields.items() if name not in defaults]
    record = cls(*required)
    for name, value in defaults.items():
        assert getattr(record, name) == value
    assert list(fields)[len(required):] == list(defaults)


@pytest.mark.parametrize("cls, fields, defaults", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, fields, defaults):
    a, b = cls(**fields), cls(**fields)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != tuple(fields.values())
    assert len({a, b}) == 1


WITH_DEFAULTS = [case for case in CASES if case[2]]


@pytest.mark.parametrize(
    "cls, fields, defaults", WITH_DEFAULTS, ids=[c.__name__ for c, _, _ in WITH_DEFAULTS]
)
def test_a_field_that_differs_breaks_equality(cls, fields, defaults):
    full = cls(**fields)
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert full != cls(**required)


def test_records_of_different_classes_are_never_equal():
    assert NecA(1) != RS(1)
    assert RS(1) != NecA(1)
    assert Taut() != ()
    assert MP(1, 2) != (1, 2)
    assert (1, 2) != MP(1, 2)
    assert Taut() == Taut() and hash(Taut()) == hash(Taut())
    assert len({NecA(1), RS(1), NecA(1)}) == 2


@pytest.mark.parametrize("cls, fields, defaults", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, defaults):
    record = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for name, value in fields.items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls, fields, defaults", CASES, ids=IDS)
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal(cls, fields, defaults, clone):
    record = cls(**fields)
    twin = clone(record)
    assert type(twin) is cls
    assert twin == record and hash(twin) == hash(record)


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError):
        MP(1)
    with pytest.raises(TypeError):
        MP(1, 2, 3)
    with pytest.raises(TypeError):
        MP(1, premise=2)
    with pytest.raises(TypeError):
        NecA(step=1)
    with pytest.raises(TypeError):
        Partition()
    with pytest.raises(TypeError):
        SearchStats(1, False, 0.0)


def test_repr_names_the_fields():
    assert repr(MP(1, 2)) == "MP(premise=1, implication=2)"
    assert repr(Taut()) == "Taut()"
    assert repr(DerivationVerdict(True)) == "DerivationVerdict(ok=True, step=None, reason=None)"


def test_expertise_model_rejects_a_partition_that_misses_a_state():
    with pytest.raises(ModelFormatError, match="cover exactly"):
        ExpertiseModel(STATES, Partition((1, 2)))
    with pytest.raises(ModelFormatError, match="cover exactly"):
        ExpertiseModel(states=STATES, partition=Partition((1, 2)))


def test_expertise_model_sorts_its_valuation():
    model = ExpertiseModel(STATES, PARTITION, (("q", 4), ("p", 3)))
    assert model.valuation == (("p", 3), ("q", 4))
    assert model == ExpertiseModel(STATES, PARTITION, (("p", 3), ("q", 4)))
    assert copy.deepcopy(model).valuation == (("p", 3), ("q", 4))


def test_cached_lookups_do_not_enter_equality():
    a, b = ExpertiseModel(STATES, PARTITION, (("p", 3),)), MODEL
    assert a.atom_mask("p") == 3 and a.state_index("c") == 2
    assert a == b and hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == b


def test_checking_constructors_still_check():
    with pytest.raises(ModelFormatError, match="one successor set per state"):
        RelationalModel(STATES, (1, 2))
    with pytest.raises(ValueError, match="distinct"):
        EnumerationSpec(2, ("p", "p"))
    with pytest.raises(ValueError, match="limit must be positive"):
        EnumerationSpec(n_states=2, atoms=("p",), limit=0)
    assert EnumerationSpec(2, ["p", "q"]).atoms == ("p", "q")
    assert RelationalModel(STATES, (1, 6, 6), (("q", 1), ("p", 2))).valuation == (
        ("p", 2),
        ("q", 1),
    )
