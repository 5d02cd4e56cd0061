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
(2^blocks sets, so at most 20 blocks) and applies the clauses above word
for word.  The fast path serves eval, extension and correspondence and the
python search engine; the bitslice engine has its own E and S clauses in
kernels.eval_chunk.  The literal path is the authority the test suite and
Verdict self-checks compare against.

Both model kinds share one loop, _evaluate, which takes the E and S (or
K) clauses from its caller.  It makes one pass over the formula's
distinct nodes (formula.subformulas, children first), so each distinct
subformula is evaluated once per call however often it recurs.  Atoms
missing from the model's valuation evaluate as false and raise
UnknownAtomWarning once per call.
"""

from __future__ import annotations

import warnings

from .formula import (
    And,
    Atom,
    Formula,
    ModalA,
    ModalE,
    ModalK,
    ModalS,
    Not,
    Record,
    Top,
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
# literal mode materialises all 2^blocks members of the expertise set
MAX_LITERAL_BLOCKS = 20


class UnknownAtomWarning(UserWarning):
    """A formula mentions an atom absent from the model's valuation."""


def _evaluate(model, f: Formula, modal: dict, refusal: str) -> Mask:
    """Bitmask of the states of `model` satisfying f.  `modal` maps each
    modal type other than A to its clause, from the child's extension to
    the node's; a node type with no clause raises ValueError(refusal)."""
    full = model.full_mask
    ext: dict[Formula, Mask] = {}
    missing: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, Top):
            out = full
        elif isinstance(g, Atom):
            out = model.atom_mask(g.name)
            if out is None:
                missing.add(g.name)
                out = 0
        elif isinstance(g, Not):
            out = full & ~ext[g.child]
        elif isinstance(g, And):
            out = ext[g.left] & ext[g.right]
        elif isinstance(g, ModalA):
            out = full if ext[g.child] == full else 0
        elif type(g) in modal:
            out = modal[type(g)](ext[g.child])
        else:
            raise ValueError(refusal)
        ext[g] = out
    if missing:
        # stacklevel 3 points at the caller of extension/extension_relational
        warnings.warn(
            f"atoms not in the valuation are treated as false: {', '.join(sorted(missing))}",
            UnknownAtomWarning,
            stacklevel=3,
        )
    return ext[f]


def extension(model: ExpertiseModel, f: Formula, *, mode: str = "fast") -> Mask:
    """Bitmask of the states satisfying f."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    partition = model.partition
    full = model.full_mask
    if mode == "fast":
        modal = {
            ModalE: lambda e: full if partition.saturate(e) == e else 0,
            ModalS: partition.saturate,
        }
    else:
        blocks = len(partition.blocks)
        if blocks > MAX_LITERAL_BLOCKS:
            raise ValueError(
                f"literal mode would materialise 2^{blocks} expertise sets for "
                f"{blocks} blocks (cap is {MAX_LITERAL_BLOCKS} blocks)"
            )
        family = expertise_set_from_partition(partition)
        family_set = set(family)

        def sound(e: Mask) -> Mask:  # the intersection of the members covering e
            out = full
            for member in family:
                if e & ~member == 0:
                    out &= member
            return out

        modal = {ModalE: lambda e: full if e in family_set else 0, ModalS: sound}
    return _evaluate(model, f, modal, "K has no truth clause on expertise models")


def holds(model: ExpertiseModel, state: str, f: Formula, *, mode: str = "fast") -> bool:
    """Truth of f at one named state."""
    i = model.state_index(state)
    return bool((extension(model, f, mode=mode) >> i) & 1)


def globally_true(model: ExpertiseModel, f: Formula, *, mode: str = "fast") -> bool:
    """True when f holds at every state of the model."""
    return extension(model, f, mode=mode) == model.full_mask


def extension_relational(rmodel: RelationalModel, f: Formula) -> Mask:
    """Bitmask of the states satisfying a K/A-fragment formula."""
    succ = rmodel.succ

    def known(e: Mask) -> Mask:  # the states that see only e-states
        return sum(1 << i for i in range(rmodel.n) if succ[i] & ~e == 0)

    return _evaluate(
        rmodel, f, {ModalK: known}, "relational models interpret only the K/A fragment"
    )


def holds_relational(rmodel: RelationalModel, state: str, f: Formula) -> bool:
    i = rmodel.state_index(state)
    return bool((extension_relational(rmodel, f) >> i) & 1)


class CorrespondenceReport(Record):
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
