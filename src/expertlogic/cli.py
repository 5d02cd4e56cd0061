"""Command-line frontend.

Subcommands::

    eval MODEL FORMULA [--state X]    truth at a state, or the extension
    extension MODEL FORMULA           just the extension
    translate FORMULA                 knowledge form and expertise-free form
    to-s5 MODEL                       induced relational model
    correspondence MODEL FORMULA      compare formula with its knowledge form
    countermodel FORMULA              bounded countermodel search
    equiv FORMULA FORMULA             bounded equivalence check
    check-proof FILE                  verify a derivation file
    soundness-sweep                   search all axiom instantiations

Formulas are single shell arguments in the concrete grammar; models and
proofs come from files.  `--json` switches any subcommand to a stable JSON
document (byte-identical across runs; wall-clock timings only with
`--timings`).  Exit codes: 2 for any load/parse/usage error, 3 for any
internal fault (a search witness that fails its re-check, or any other
unexpected exception), 141 (128 + SIGPIPE) when the reader of stdout
closes it early; otherwise 0/1 encode the answer (true/false,
agrees/differs, no-countermodel/found, proof ok/bad step, sweep
clean/violations).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .formula import (
    atom_names,
    eliminate_expertise,
    parse,
    render,
    to_knowledge_form,
)
from .model import (
    load_model,
    model_to_dict,
    relational_to_dict,
    set_names,
    to_s5_model,
)
from .proofs import (
    E_DISTRIBUTION,
    SCHEMAS,
    check_derivation,
    load_derivation,
    soundness_sweep,
)
from .semantics import MODES, check_correspondence, extension
from .validity import (
    ENGINES,
    EnumerationSpec,
    check_equivalence,
    corpus_formulas,
    find_countermodel,
)

DEFAULT_BOUND = 4
DEFAULT_ATOM_CAP = 3
SWEEP_ATOMS = ("p", "q")


class UsageError(ValueError):
    pass


def _dump(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _braced(names) -> str:
    return "{" + ", ".join(names) + "}"


def _parse_atoms(text: str) -> tuple[str, ...]:
    return tuple(a.strip() for a in text.split(",") if a.strip())


def _atoms_option(args) -> tuple[str, ...] | None:
    """The atoms --atoms names, or None when it is not given."""
    if args.atoms is None:
        return None
    atoms = _parse_atoms(args.atoms)
    if not atoms:
        raise UsageError(f"--atoms {args.atoms!r} names no atom")
    return atoms


def _search_spec(args, *formulas) -> EnumerationSpec:
    atoms = _atoms_option(args)
    if atoms is None:
        names = set()
        for f in formulas:
            names |= atom_names(f)
        if len(names) > DEFAULT_ATOM_CAP:
            raise UsageError(
                f"formula mentions {len(names)} atoms; beyond {DEFAULT_ATOM_CAP} "
                "the search space must be chosen explicitly with --atoms"
            )
        atoms = tuple(sorted(names))
    return EnumerationSpec(args.max_states, atoms, args.limit)


def cmd_eval(args) -> int:
    model = load_model(args.model)
    f = parse(args.formula)
    ext = extension(model, f, mode=args.mode)
    if args.state is not None:
        value = bool((ext >> model.state_index(args.state)) & 1)
        if args.json:
            _dump(
                {
                    "formula": render(f),
                    "state": args.state,
                    "value": value,
                }
            )
        else:
            print("true" if value else "false")
        return 0 if value else 1
    globally = ext == model.full_mask
    if args.json:
        _dump(
            {
                "formula": render(f),
                "extension": set_names(ext, model.states),
                "globally_true": globally,
            }
        )
    else:
        print(f"extension: {_braced(set_names(ext, model.states))}")
        print(f"globally true: {'yes' if globally else 'no'}")
    return 0 if globally else 1


def cmd_extension(args) -> int:
    model = load_model(args.model)
    f = parse(args.formula)
    ext = extension(model, f, mode=args.mode)
    if args.json:
        _dump({"formula": render(f), "extension": set_names(ext, model.states)})
    else:
        print(_braced(set_names(ext, model.states)))
    return 0


def cmd_translate(args) -> int:
    f = parse(args.formula)
    knowledge = render(to_knowledge_form(f))
    no_expertise = render(eliminate_expertise(f))
    if args.json:
        _dump(
            {
                "formula": render(f),
                "knowledge_form": knowledge,
                "expertise_eliminated": no_expertise,
            }
        )
    else:
        print(f"knowledge form:       {knowledge}")
        print(f"expertise eliminated: {no_expertise}")
    return 0


def cmd_to_s5(args) -> int:
    model = load_model(args.model)
    rel = to_s5_model(model)
    classes = [set_names(b, model.states) for b in model.partition.blocks]
    if args.json:
        doc = relational_to_dict(rel)
        doc["classes"] = classes
        _dump(doc)
    else:
        print(f"classes: {' '.join(map(_braced, classes))}")
        print(f"relation: {len(rel.pairs())} pairs, equivalence: yes")
        for atom, mask in rel.valuation:
            print(f"valuation: {atom} = {_braced(set_names(mask, rel.states))}")
    return 0


def cmd_correspondence(args) -> int:
    model = load_model(args.model)
    f = parse(args.formula)
    report = check_correspondence(model, f)
    classes = [set_names(b, model.states) for b in model.partition.blocks]
    if args.json:
        _dump(
            {
                "formula": render(report.formula),
                "translated": render(report.translated),
                "classes": classes,
                "extension": set_names(report.source_extension, model.states),
                "translated_extension": set_names(
                    report.translated_extension, model.states
                ),
                "agrees": report.agrees,
                "mismatch_state": report.mismatch_state,
            }
        )
    else:
        print(f"translation: {render(report.translated)}")
        print(f"classes: {' '.join(map(_braced, classes))}")
        for i, state in enumerate(model.states):
            left = bool((report.source_extension >> i) & 1)
            right = bool((report.translated_extension >> i) & 1)
            print(f"  {state}: {str(left).lower()} / {str(right).lower()}")
        if report.agrees:
            print(f"agree at all {model.n} states")
        else:
            print(f"MISMATCH at state {report.mismatch_state}")
    return 0 if report.agrees else 1


def _print_witness(model, state) -> None:
    doc = model_to_dict(model)
    print(f"  states:    {' '.join(doc['states'])}")
    print(f"  partition: {' '.join(map(_braced, doc['partition']))}")
    for atom, names in sorted(doc["valuation"].items()):
        print(f"  valuation: {atom} = {_braced(names)}")
    print(f"  falsified at: {state}")


def cmd_countermodel(args) -> int:
    f = parse(args.formula)
    spec = _search_spec(args, f)
    verdict = find_countermodel(f, spec, args.engine)
    if args.json:
        _dump(verdict.to_report(include_timing=args.timings))
    else:
        print(verdict.summary())
        if verdict.witness_model is not None:
            _print_witness(verdict.witness_model, verdict.witness_state)
    return 1 if verdict.status == "countermodel-found" else 0


def cmd_equiv(args) -> int:
    left = parse(args.left)
    right = parse(args.right)
    spec = _search_spec(args, left, right)
    verdict = check_equivalence(left, right, spec, args.engine)
    if args.json:
        doc = verdict.to_report(include_timing=args.timings)
        doc["left"] = render(left)
        doc["right"] = render(right)
        doc["equivalent_up_to_bound"] = verdict.status == "valid-up-to-bound"
        _dump(doc)
    else:
        if verdict.status == "valid-up-to-bound":
            print(f"equivalent up to bound: {verdict.summary()}")
        else:
            print(f"not equivalent: {verdict.summary()}")
            _print_witness(verdict.witness_model, verdict.witness_state)
    return 0 if verdict.status == "valid-up-to-bound" else 1


def cmd_check_proof(args) -> int:
    derivation = load_derivation(args.proof)
    verdict = check_derivation(derivation)
    if args.json:
        doc = {"ok": verdict.ok, "steps": len(derivation.steps)}
        if verdict.ok:
            doc["theorem"] = render(derivation.theorem)
        else:
            doc["step"] = verdict.step
            doc["reason"] = verdict.reason
        _dump(doc)
    else:
        if verdict.ok:
            print(f"ok: {render(derivation.theorem)} ({len(derivation.steps)} steps)")
        else:
            print(str(verdict))
    return 0 if verdict.ok else 1


def cmd_soundness_sweep(args) -> int:
    if args.schemas is not None:
        known = {**SCHEMAS, E_DISTRIBUTION.name: E_DISTRIBUTION}
        chosen = []
        for name in _parse_atoms(args.schemas.replace(" ", ",")):
            if name not in known:
                raise UsageError(f"unknown schema {name!r}")
            chosen.append(known[name])
        if not chosen:
            raise UsageError(f"--schemas {args.schemas!r} names no schema")
    else:
        chosen = list(SCHEMAS.values())
    if args.with_e_distribution and E_DISTRIBUTION not in chosen:
        chosen.append(E_DISTRIBUTION)
    atoms = _atoms_option(args) or SWEEP_ATOMS
    spec = EnumerationSpec(args.max_states, atoms, args.limit)
    report = soundness_sweep(chosen, corpus_formulas(), spec, args.engine)
    if args.json:
        _dump(report.to_report(include_timing=args.timings))
    else:
        print(
            f"checked {report.instances_checked} instances of "
            f"{len(report.schemas)} schemas over {len(report.corpus)} corpus "
            f"formulas (bound: {spec.n_states} states, atoms {_braced(spec.atoms)})"
        )
        if report.ok:
            print("no violations")
        else:
            for v in report.violations:
                subst = ", ".join(f"{k} = {render(g)}" for k, g in v.substitution)
                print(f"VIOLATION {v.schema} [{subst}]: {render(v.verdict.formula)}")
    return 0 if report.ok else 1


def _add_search_flags(p, atoms_default: str) -> None:
    p.add_argument(
        "--max-states",
        type=int,
        default=DEFAULT_BOUND,
        metavar="N",
        help=f"state-count bound for the search (default {DEFAULT_BOUND})",
    )
    p.add_argument(
        "--atoms",
        metavar="LIST",
        help=f"comma-separated valuation atoms (default: {atoms_default})",
    )
    p.add_argument(
        "--limit",
        type=int,
        metavar="N",
        help="cap on models decided, in enumeration order (partial search, "
        "flagged as truncated)",
    )
    p.add_argument(
        "--engine",
        choices=ENGINES,
        help="evaluation engine (default: bitslice; python is the slow reference)",
    )
    p.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock seconds and the count of models evaluated in "
        "reports (breaks byte-stability)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expertlogic",
        description="Model checking and proof checking for the expertise/soundness modal logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula on a model")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--state", help="evaluate at this state only")
    p.add_argument("--mode", choices=MODES, default="fast")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("extension", help="print the set of states satisfying a formula")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--mode", choices=MODES, default="fast")
    p.set_defaults(func=cmd_extension)

    p = sub.add_parser("translate", help="print the knowledge form and the expertise-free form")
    p.add_argument("formula")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("to-s5", help="print the induced relational model")
    p.add_argument("model")
    p.set_defaults(func=cmd_to_s5)

    p = sub.add_parser(
        "correspondence",
        help="check a formula against its knowledge form on the induced model",
    )
    p.add_argument("model")
    p.add_argument("formula")
    p.set_defaults(func=cmd_correspondence)

    p = sub.add_parser("countermodel", help="bounded countermodel search")
    p.add_argument("formula")
    _add_search_flags(p, "the formula's atoms")
    p.set_defaults(func=cmd_countermodel)

    p = sub.add_parser("equiv", help="bounded equivalence check")
    p.add_argument("left")
    p.add_argument("right")
    _add_search_flags(p, "the atoms of both formulas")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("check-proof", help="verify a derivation file")
    p.add_argument("proof")
    p.set_defaults(func=cmd_check_proof)

    p = sub.add_parser(
        "soundness-sweep",
        help="bounded-search every axiom instantiation over the corpus",
    )
    p.add_argument(
        "--schemas",
        metavar="LIST",
        help="comma-separated schema names (default: all eight)",
    )
    p.add_argument(
        "--with-e-distribution",
        action="store_true",
        help="also sweep the deliberately invalid distribution schema",
    )
    _add_search_flags(p, ",".join(SWEEP_ATOMS))
    p.set_defaults(func=cmd_soundness_sweep)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit a stable JSON document")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a closed pipe shows at the flush when stdout is buffered
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away: end quietly, as SIGPIPE would,
        # with stdout on devnull so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
