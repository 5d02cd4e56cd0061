"""Model checking over expertise models and relational models.

Truth clauses on an expertise model, for a state x and extension ||f||:

* E f holds (anywhere) iff ||f|| belongs to the expertise collection;
* S f holds at x iff every member of the collection that covers ||f||
  also contains x;
* A f holds iff ||f|| is the whole space.

Two interchangeable evaluation paths implement the E and S clauses.  The
default ('fast') works on the partition: the states reachable by S f are
the block-closure of ||f|| (union of blocks meeting it), and E f asks that
||f|| be block-closed.  The 'literal' path materialises the full collection
(2^blocks sets) and applies the clauses above word for word.  The fast path
is what the search kernels use; the literal path is the authority the test
suite and Verdict self-checks compare against.

Extensions are computed in one pass over the formula's distinct nodes
(formula.subformulas, children first), so each distinct subformula is
evaluated once per call however often it recurs.  Atoms missing from the
model's valuation evaluate as false and raise UnknownAtomWarning once per
call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .formula import (
    And,
    Atom,
    Formula,
    ModalA,
    ModalE,
    ModalK,
    ModalS,
    Not,
    RESERVED_TOP_ATOM,
    subformulas,
    to_knowledge_form,
)
from .model import (
    ExpertiseModel,
    Mask,
    RelationalModel,
    expertise_set_from_partition,
    to_s5_model,
)

MODES = ("fast", "literal")


class UnknownAtomWarning(UserWarning):
    """A formula mentions an atom absent from the model's valuation."""


def _warn_missing_atoms(missing: set[str]) -> None:
    # 'top' enters through the T/F sugar and cancels out of both, so its
    # absence from a valuation is not worth a warning
    missing = sorted(missing - {RESERVED_TOP_ATOM})
    if missing:
        warnings.warn(
            f"atoms not in the valuation are treated as false: {', '.join(missing)}",
            UnknownAtomWarning,
            stacklevel=3,
        )


def _atom_extension(model, name: str, missing: set[str]) -> Mask:
    mask = model.atom_mask(name)
    if mask is None:
        missing.add(name)
        return 0
    return mask


def extension(model: ExpertiseModel, f: Formula, *, mode: str = "fast") -> Mask:
    """Bitmask of the states satisfying f."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")

    partition = model.partition
    full = model.full_mask
    if mode == "literal":
        family = expertise_set_from_partition(partition)
        family_set = set(family)
    ext: dict[Formula, Mask] = {}
    missing: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            out = _atom_extension(model, g.name, missing)
        elif isinstance(g, Not):
            out = full & ~ext[g.child]
        elif isinstance(g, And):
            out = ext[g.left] & ext[g.right]
        elif isinstance(g, ModalA):
            out = full if ext[g.child] == full else 0
        elif isinstance(g, ModalE):
            e = ext[g.child]
            if mode == "fast":
                out = full if partition.saturate(e) == e else 0
            else:
                out = full if e in family_set else 0
        elif isinstance(g, ModalS):
            e = ext[g.child]
            if mode == "fast":
                out = partition.saturate(e)
            else:
                out = full
                for member in family:
                    if e & ~member == 0:
                        out &= member
        else:
            raise ValueError("K has no truth clause on expertise models")
        ext[g] = out
    _warn_missing_atoms(missing)
    return ext[f]


def holds(model: ExpertiseModel, state: str, f: Formula, *, mode: str = "fast") -> bool:
    """Truth of f at one named state."""
    i = model.state_index(state)
    return bool((extension(model, f, mode=mode) >> i) & 1)


def globally_true(model: ExpertiseModel, f: Formula, *, mode: str = "fast") -> bool:
    """True when f holds at every state of the model."""
    return extension(model, f, mode=mode) == model.full_mask


def extension_relational(rmodel: RelationalModel, f: Formula) -> Mask:
    """Bitmask of the states satisfying a K/A-fragment formula."""
    full = rmodel.full_mask
    succ = rmodel.succ
    ext: dict[Formula, Mask] = {}
    missing: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            out = _atom_extension(rmodel, g.name, missing)
        elif isinstance(g, Not):
            out = full & ~ext[g.child]
        elif isinstance(g, And):
            out = ext[g.left] & ext[g.right]
        elif isinstance(g, ModalA):
            out = full if ext[g.child] == full else 0
        elif isinstance(g, ModalK):  # x sees only f-states
            e = ext[g.child]
            out = 0
            for i in range(rmodel.n):
                if succ[i] & ~e == 0:
                    out |= 1 << i
        else:
            raise ValueError("relational models interpret only the K/A fragment")
        ext[g] = out
    _warn_missing_atoms(missing)
    return ext[f]


def holds_relational(rmodel: RelationalModel, state: str, f: Formula) -> bool:
    i = rmodel.state_index(state)
    return bool((extension_relational(rmodel, f) >> i) & 1)


@dataclass(frozen=True)
class CorrespondenceReport:
    """State-by-state comparison of a formula with its knowledge form.

    `source_extension` is computed on the expertise model, and
    `translated_extension` on the induced relational model.  When they
    differ, `mismatch_state` is the least state (in model order) where the
    two disagree, so reports do not depend on traversal order.
    """

    model: ExpertiseModel
    relational: RelationalModel
    formula: Formula
    translated: Formula
    source_extension: Mask
    translated_extension: Mask

    @property
    def agrees(self) -> bool:
        return self.source_extension == self.translated_extension

    @property
    def mismatch_state(self) -> str | None:
        diff = self.source_extension ^ self.translated_extension
        if diff == 0:
            return None
        return self.model.states[(diff & -diff).bit_length() - 1]


def check_correspondence(model: ExpertiseModel, f: Formula) -> CorrespondenceReport:
    """Evaluate f on the model and its knowledge form on the induced
    relational model, comparing the two extensions state by state."""
    rmodel = to_s5_model(model)
    translated = to_knowledge_form(f)
    return CorrespondenceReport(
        model=model,
        relational=rmodel,
        formula=f,
        translated=translated,
        source_extension=extension(model, f),
        translated_extension=extension_relational(rmodel, translated),
    )
