"""Finite expertise models and their relational counterparts.

A subset of the state space is a bitmask int: bit i stands for states[i].
An expertise collection ("family") is the set of subsets someone has
expertise about; a legal family contains the whole space and is closed under
complements and (binary) intersections.  Such families are exactly the
unions-of-blocks of a partition of the space, which is the representation
ExpertiseModel stores:

* partition_from_expertise_set maps a verified family to its partition,
  taking each state's block to be the smallest family member containing it;
* expertise_set_from_partition materialises all 2^blocks unions back.

The two are mutually inverse, and closure() completes an arbitrary family to
the smallest legal one containing it (states are grouped by their membership
signature across the given sets).

to_s5_model / from_s5_model convert between an expertise model and the
relational model whose accessibility relation links states in the same
block; from_s5_model insists the relation is an equivalence and names the
failed property otherwise.

On disk a model is a JSON object: {"states": [...], "valuation":
{atom: [states]}, and exactly one of "partition": [[...]] (block lists) or
"expertise": [[...]] (the raw family, verified and converted on load)}.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Mapping

from .formula import Record, is_atom_name

Mask = int


class ModelFormatError(ValueError):
    """Malformed model description (JSON structure, names, coverage)."""


class LawViolation(Record):
    """One broken closure law, with the sets that witness the break."""

    law: str  # 'whole-set' | 'complements' | 'intersections'
    members: tuple[Mask, ...]  # family members involved
    missing: Mask  # the set the law demands but the family lacks

    def describe(self, states: tuple[str, ...]) -> str:
        missing = set_names(self.missing, states)
        if self.law == "whole-set":
            return f"family lacks the whole state space {missing}"
        if self.law == "complements":
            member = set_names(self.members[0], states)
            return f"family lacks the complement {missing} of member {member}"
        a, b = (set_names(m, states) for m in self.members)
        return f"family lacks the intersection {missing} of members {a} and {b}"


class ExpertiseSetError(ModelFormatError):
    """A family that breaks whole-set/complement/intersection closure."""

    def __init__(self, violations: list[LawViolation], states: tuple[str, ...]):
        self.violations = violations
        lines = "; ".join(v.describe(states) for v in violations)
        super().__init__(f"not a legal expertise collection: {lines}")


class RelationError(ValueError):
    """A relation that is not an equivalence; names property and witness."""

    def __init__(self, prop: str, witness: tuple[str, ...]):
        self.property = prop
        self.witness = witness
        pair = ", ".join(witness)
        super().__init__(f"relation is not {prop} (witness: {pair})")


def set_names(mask: Mask, states: tuple[str, ...]) -> list[str]:
    return [states[i] for i in range(len(states)) if (mask >> i) & 1]


def mask_of(names: Iterable[str], states: tuple[str, ...]) -> Mask:
    index = {s: i for i, s in enumerate(states)}
    mask = 0
    for name in names:
        if name not in index:
            raise ModelFormatError(f"unknown state {name!r}")
        mask |= 1 << index[name]
    return mask


class Partition(Record):
    """Disjoint nonempty blocks, sorted by their least state index."""

    blocks: tuple[Mask, ...]

    def __init__(self, blocks: tuple[Mask, ...]):
        self.__dict__["blocks"] = blocks

    @classmethod
    def from_blocks(cls, blocks: Iterable[Mask]) -> "Partition":
        blocks = list(blocks)
        if any(b == 0 for b in blocks):
            raise ModelFormatError("partition blocks must be nonempty")
        union = 0
        for b in blocks:
            if union & b:
                raise ModelFormatError("partition blocks must be disjoint")
            union |= b
        return cls(tuple(sorted(blocks, key=lambda b: b & -b)))

    @property
    def universe(self) -> Mask:
        u = 0
        for b in self.blocks:
            u |= b
        return u

    def block_of(self, state_bit: Mask) -> Mask:
        for b in self.blocks:
            if b & state_bit:
                return b
        raise ValueError("state not covered by partition")

    def saturate(self, mask: Mask) -> Mask:
        """Union of all blocks that meet `mask` (its block-closure)."""
        out = 0
        for b in self.blocks:
            if b & mask:
                out |= b
        return out

    def is_union_of_blocks(self, mask: Mask) -> bool:
        return self.saturate(mask) == mask


def verify_expertise_set(family: Iterable[Mask], n: int) -> list[LawViolation]:
    """Check whole-set membership and complement/intersection closure.

    Returns the (possibly empty) list of violations; each carries the
    offending member(s) and the set the family is missing.
    """
    full = (1 << n) - 1
    fam = sorted({m & full for m in family})
    have = set(fam)
    violations = []
    if full not in have:
        violations.append(LawViolation("whole-set", (), full))
    for a in fam:
        comp = full & ~a
        if comp not in have:
            violations.append(LawViolation("complements", (a,), comp))
    for i, a in enumerate(fam):
        for b in fam[i + 1 :]:
            if a & b not in have:
                violations.append(LawViolation("intersections", (a, b), a & b))
    return violations


def partition_from_expertise_set(family: Iterable[Mask], n: int) -> Partition:
    """Collapse a legal family to the partition it is generated by.

    Each state's block is the intersection of the family members containing
    it, i.e. the smallest set the family can tell apart from the rest around
    that state; on a legal family those are the blocks closure() groups.
    Raises ExpertiseSetError (with per-law witnesses) if the
    family is not legal; states are then reported positionally (s0, s1, ...).
    """
    family = list(family)
    violations = verify_expertise_set(family, n)
    if violations:
        placeholder = tuple(f"s{i}" for i in range(n))
        raise ExpertiseSetError(violations, placeholder)
    return closure(family, n)


def expertise_set_from_partition(partition: Partition) -> tuple[Mask, ...]:
    """All unions of blocks, ascending as mask integers (2^blocks sets)."""
    masks = [0]
    for b in partition.blocks:
        masks += [m | b for m in masks]
    return tuple(sorted(masks))


def closure(family: Iterable[Mask], n: int) -> Partition:
    """Smallest legal family containing `family`, as its partition.

    States are grouped by their membership signature across the given sets;
    two states land in one block exactly when no given set separates them.
    """
    full = (1 << n) - 1
    fam = [m & full for m in family]
    groups: dict[tuple[bool, ...], Mask] = {}
    for i in range(n):
        bit = 1 << i
        sig = tuple(bool(m & bit) for m in fam)
        groups[sig] = groups.get(sig, 0) | bit
    return Partition.from_blocks(groups.values())


def _check_valuation(
    valuation: tuple[tuple[str, Mask], ...], states: tuple[str, ...]
) -> None:
    full = (1 << len(states)) - 1
    seen = set()
    for atom, mask in valuation:
        if not is_atom_name(atom):
            raise ModelFormatError(f"invalid atom name {atom!r}")
        if atom in seen:
            raise ModelFormatError(f"duplicate atom {atom!r} in valuation")
        if mask & ~full:
            raise ModelFormatError(f"valuation of {atom!r} goes outside the state space")
        seen.add(atom)


def _check_states(states: tuple[str, ...]) -> None:
    if not states:
        raise ModelFormatError("a model needs at least one state")
    if len(set(states)) != len(states):
        raise ModelFormatError("state names must be distinct")
    if any(not s for s in states):
        raise ModelFormatError("state names must be nonempty strings")


class _ModelBase(Record):
    """What both model kinds derive from `states` and `valuation`.

    It declares no fields: each subclass declares its own and checks them
    in its own __init__.  The two cached lookups live in the instance's
    __dict__ beside the fields, which equality and hashing ignore.
    """

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def full_mask(self) -> Mask:
        return (1 << len(self.states)) - 1

    @cached_property
    def _valuation_dict(self) -> dict[str, Mask]:
        return dict(self.valuation)

    @cached_property
    def _state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    def state_index(self, name: str) -> int:
        try:
            return self._state_index[name]
        except KeyError:
            raise ValueError(f"unknown state {name!r}") from None

    def atom_mask(self, name: str) -> Mask | None:
        """Extension of an atom, or None when the valuation omits it."""
        return self._valuation_dict.get(name)


class ExpertiseModel(_ModelBase):
    """Finite state space, expertise partition, and atom valuation.

    `valuation` is stored as sorted (atom, mask) pairs so models hash and
    compare structurally; use atom_mask() for access.
    """

    states: tuple[str, ...]
    partition: Partition
    valuation: tuple[tuple[str, Mask], ...] = ()

    def __init__(self, states, partition, valuation=()):
        _check_states(states)
        if partition.universe != (1 << len(states)) - 1:
            raise ModelFormatError("partition must cover exactly the state space")
        _check_valuation(valuation, states)
        values = self.__dict__
        values["states"] = states
        values["partition"] = partition
        values["valuation"] = tuple(sorted(valuation))


class RelationalModel(_ModelBase):
    """State space with one accessibility relation plus the global one.

    succ[i] is the bitmask of states reachable from states[i].  The model is
    meaningful for the K/A fragment whatever the relation; s5_violation()
    reports where it fails to be an equivalence, and from_s5_model refuses
    such a relation where the expertise reading is at stake.
    """

    states: tuple[str, ...]
    succ: tuple[Mask, ...]
    valuation: tuple[tuple[str, Mask], ...] = ()

    def __init__(self, states, succ, valuation=()):
        _check_states(states)
        if len(succ) != len(states):
            raise ModelFormatError("need one successor set per state")
        full = (1 << len(states)) - 1
        if any(s & ~full for s in succ):
            raise ModelFormatError("successor sets go outside the state space")
        _check_valuation(valuation, states)
        values = self.__dict__
        values["states"] = states
        values["succ"] = succ
        values["valuation"] = tuple(sorted(valuation))

    def pairs(self) -> list[tuple[str, str]]:
        out = []
        for i, mask in enumerate(self.succ):
            out.extend((self.states[i], self.states[j]) for j in _bit_indices(mask))
        return out

    def s5_violation(self) -> RelationError | None:
        for i, mask in enumerate(self.succ):
            if not (mask >> i) & 1:
                return RelationError("reflexive", (self.states[i],))
        for i, mask in enumerate(self.succ):
            for j in _bit_indices(mask):
                if not (self.succ[j] >> i) & 1:
                    return RelationError("symmetric", (self.states[i], self.states[j]))
        for i, mask in enumerate(self.succ):
            for j in _bit_indices(mask):
                if self.succ[j] & ~mask:
                    k = next(_bit_indices(self.succ[j] & ~mask))
                    return RelationError(
                        "transitive", (self.states[i], self.states[j], self.states[k])
                    )
        return None

    @property
    def is_s5(self) -> bool:
        return self.s5_violation() is None


def _bit_indices(mask: Mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_s5_model(model: ExpertiseModel) -> RelationalModel:
    """Link each state to its whole partition block (an equivalence)."""
    succ = tuple(
        model.partition.block_of(1 << i) for i in range(model.n)
    )
    return RelationalModel(model.states, succ, model.valuation)


def from_s5_model(rmodel: RelationalModel) -> ExpertiseModel:
    """Read the relation's classes back as a partition.

    Raises RelationError naming the first failed property (reflexive,
    symmetric or transitive) with a witness tuple of states.
    """
    bad = rmodel.s5_violation()
    if bad is not None:
        raise bad
    blocks = set(rmodel.succ)  # each state's class is its successor set
    return ExpertiseModel(rmodel.states, Partition.from_blocks(blocks), rmodel.valuation)


# --- JSON input/output -------------------------------------------------------

def _names(value, what: str) -> list[str]:
    """`value` if it is an array of state names; a string is not one."""
    if not isinstance(value, (list, tuple)):
        raise ModelFormatError(f"{what} must be an array of state names")
    if not all(isinstance(s, str) for s in value):
        raise ModelFormatError("state names must be strings")
    return value


def _name_lists(value, what: str) -> list[list[str]]:
    if not isinstance(value, (list, tuple)):
        raise ModelFormatError(f"{what} must be an array of arrays of state names")
    return [_names(v, f"each member of {what}") for v in value]


def model_from_dict(doc: Mapping) -> ExpertiseModel:
    if not isinstance(doc, Mapping):
        raise ModelFormatError("model document must be a JSON object")
    try:
        states = tuple(_names(doc["states"], "'states'"))
    except KeyError:
        raise ModelFormatError("model document lacks 'states'") from None
    _check_states(states)

    has_partition = "partition" in doc
    has_family = "expertise" in doc
    if has_partition == has_family:
        raise ModelFormatError(
            "model document needs exactly one of 'partition' or 'expertise'"
        )
    if has_partition:
        blocks = [
            mask_of(block, states)
            for block in _name_lists(doc["partition"], "'partition'")
        ]
        partition = Partition.from_blocks(blocks)
    else:
        family = [
            mask_of(member, states)
            for member in _name_lists(doc["expertise"], "'expertise'")
        ]
        violations = verify_expertise_set(family, len(states))
        if violations:
            raise ExpertiseSetError(violations, states)
        partition = closure(family, len(states))

    raw_val = doc.get("valuation", {})
    if not isinstance(raw_val, Mapping):
        raise ModelFormatError("'valuation' must map atoms to state lists")
    valuation = tuple(
        (atom, mask_of(_names(names, f"the valuation of {atom!r}"), states))
        for atom, names in raw_val.items()
    )
    return ExpertiseModel(states, partition, valuation)


def model_to_dict(model: ExpertiseModel) -> dict:
    return {
        "states": list(model.states),
        "partition": [set_names(b, model.states) for b in model.partition.blocks],
        "valuation": {
            atom: set_names(mask, model.states) for atom, mask in model.valuation
        },
    }


def load_model(path: str) -> ExpertiseModel:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as e:
            raise ModelFormatError(f"invalid UTF-8 in {path}: {e}") from None
        except json.JSONDecodeError as e:
            raise ModelFormatError(f"invalid JSON in {path}: {e}") from None
        except RecursionError:
            raise ModelFormatError(f"invalid JSON in {path}: nested too deeply") from None
    return model_from_dict(doc)


def relational_to_dict(rmodel: RelationalModel) -> dict:
    return {
        "states": list(rmodel.states),
        "relation": [[a, b] for a, b in rmodel.pairs()],
        "valuation": {
            atom: set_names(mask, rmodel.states) for atom, mask in rmodel.valuation
        },
    }
