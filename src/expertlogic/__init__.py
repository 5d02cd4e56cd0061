"""Modal logic of expertise and soundness: models, model checking, bounded
countermodel search and Hilbert-style proof checking.

Every public name is exported from the package root, and each loads on
first use: `from expertlogic import parse` imports expertlogic.formula
then, and a program that never touches a proof never imports
expertlogic.proofs.  `from expertlogic import X` and `expertlogic.X` work
as before, for the names below and for the submodules.
"""

import importlib

# owning module -> the public names it exports
_EXPORTS = {
    "formula": (
        "Atom",
        "And",
        "BOT",
        "Formula",
        "FormulaSyntaxError",
        "Iff",
        "Imp",
        "ModalA",
        "ModalE",
        "ModalK",
        "ModalS",
        "Not",
        "Or",
        "TOP",
        "Top",
        "UnknownOperatorError",
        "atom_names",
        "eliminate_expertise",
        "in_expertise_language",
        "in_ka_fragment",
        "in_sa_fragment",
        "modal_depth",
        "parse",
        "render",
        "to_knowledge_form",
    ),
    "model": (
        "ExpertiseModel",
        "ExpertiseSetError",
        "LawViolation",
        "ModelFormatError",
        "Partition",
        "RelationError",
        "RelationalModel",
        "closure",
        "expertise_set_from_partition",
        "from_s5_model",
        "load_model",
        "mask_of",
        "model_from_dict",
        "model_to_dict",
        "partition_from_expertise_set",
        "relational_to_dict",
        "set_names",
        "to_s5_model",
        "verify_expertise_set",
    ),
    "semantics": (
        "CorrespondenceReport",
        "UnknownAtomWarning",
        "check_correspondence",
        "extension",
        "extension_relational",
        "globally_true",
        "holds",
        "holds_relational",
    ),
    "validity": (
        "ENGINES",
        "EnumerationSpec",
        "SearchStats",
        "Verdict",
        "bell_number",
        "check_equivalence",
        "corpus_formulas",
        "enumerate_models",
        "find_countermodel",
    ),
    "proofs": (
        "AxiomSchema",
        "Derivation",
        "DerivationFormatError",
        "DerivationVerdict",
        "E_DISTRIBUTION",
        "SCHEMAS",
        "Step",
        "SweepReport",
        "TautologyLimitError",
        "check_derivation",
        "check_taut",
        "instantiate",
        "load_derivation",
        "match_schema",
        "parse_derivation",
        "soundness_sweep",
    ),
}
_SUBMODULES = (*_EXPORTS, "kernels", "cli")
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_OWNER, *_SUBMODULES})
