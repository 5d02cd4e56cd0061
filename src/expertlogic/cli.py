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
proofs come from files.  Each cmd_* function computes its answer once and
returns (exit code, JSON document, text lines); main alone reads --json and
prints either the document or the lines, so a command writes nothing to
stdout until its answer is complete.  `--json` switches any subcommand to a
stable JSON document (byte-identical across runs; wall-clock timings only with
`--timings`).  Exit codes: 2 for any load/parse/usage error, 3 for any
internal fault (a search witness that fails its re-check, or any other
unexpected exception), 141 (128 + SIGPIPE) when the reader of stdout
closes it early; otherwise 0/1 encode the answer (true/false,
agrees/differs, no-countermodel/found, proof ok/bad step, sweep
clean/violations).  A warning prints once per command, as one line
`<category>: <message>` on stderr.

A process runs one command, so it compiles only the modules that command
calls: this module imports the formula layer alone, and each cmd_* imports
the rest.  translate needs nothing more; eval, extension and
correspondence add the model and semantics layers, to-s5 the model layer
alone, and check-proof the proof layer alone.  countermodel and equiv add
the search (validity and its kernel, which import model and semantics),
and soundness-sweep the proof layer too.  For the same reason main builds
the arguments of the chosen command's subparser and no other (see
build_parser), and the search options and --mode read their choices from
validity and semantics only when that subparser is built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import TYPE_CHECKING

from .formula import (
    atom_names,
    eliminate_expertise,
    parse,
    render,
    to_knowledge_form,
)

if TYPE_CHECKING:  # each command imports the layers it calls
    from .validity import EnumerationSpec

DEFAULT_BOUND = 4
DEFAULT_ATOM_CAP = 3
SWEEP_ATOMS = ("p", "q")
SEARCH_EVALUATED = "the count of models evaluated in reports"

# what each cmd_* returns: (exit code, JSON document, text lines)
Answer = tuple[int, dict, list[str]]


class UsageError(ValueError):
    pass


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
    from .validity import EnumerationSpec

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


def _classes(model) -> list[list[str]]:
    from .model import set_names

    return [set_names(b, model.states) for b in model.partition.blocks]


def cmd_eval(args) -> Answer:
    from .model import braced, load_model, set_names
    from .semantics import extension

    model = load_model(args.model)
    f = parse(args.formula)
    ext = extension(model, f, mode=args.mode)
    if args.state is not None:
        value = bool((ext >> model.state_index(args.state)) & 1)
        doc = {"formula": render(f), "state": args.state, "value": value}
        return 0 if value else 1, doc, ["true" if value else "false"]
    names = set_names(ext, model.states)
    globally = ext == model.full_mask
    doc = {"formula": render(f), "extension": names, "globally_true": globally}
    lines = [
        f"extension: {braced(names)}",
        f"globally true: {'yes' if globally else 'no'}",
    ]
    return 0 if globally else 1, doc, lines


def cmd_extension(args) -> Answer:
    from .model import braced, load_model, set_names
    from .semantics import extension

    model = load_model(args.model)
    f = parse(args.formula)
    names = set_names(extension(model, f, mode=args.mode), model.states)
    return 0, {"formula": render(f), "extension": names}, [braced(names)]


def cmd_translate(args) -> Answer:
    f = parse(args.formula)
    knowledge = render(to_knowledge_form(f))
    no_expertise = render(eliminate_expertise(f))
    doc = {
        "formula": render(f),
        "knowledge_form": knowledge,
        "expertise_eliminated": no_expertise,
    }
    lines = [
        f"knowledge form:       {knowledge}",
        f"expertise eliminated: {no_expertise}",
    ]
    return 0, doc, lines


def cmd_to_s5(args) -> Answer:
    from .model import braced, load_model, relational_to_dict, to_s5_model

    model = load_model(args.model)
    doc = relational_to_dict(to_s5_model(model))
    doc["classes"] = _classes(model)
    lines = [
        f"classes: {' '.join(map(braced, doc['classes']))}",
        f"relation: {len(doc['relation'])} pairs, equivalence: yes",
        *(f"valuation: {a} = {braced(names)}" for a, names in doc["valuation"].items()),
    ]
    return 0, doc, lines


def cmd_correspondence(args) -> Answer:
    from .model import braced, load_model, set_names
    from .semantics import check_correspondence

    model = load_model(args.model)
    report = check_correspondence(model, parse(args.formula))
    doc = {
        "formula": render(report.formula),
        "translated": render(report.translated),
        "classes": _classes(model),
        "extension": set_names(report.source_extension, model.states),
        "translated_extension": set_names(report.translated_extension, model.states),
        "agrees": report.agrees,
        "mismatch_state": report.mismatch_state,
    }
    lines = [
        f"translation: {doc['translated']}",
        f"classes: {' '.join(map(braced, doc['classes']))}",
    ]
    for i, state in enumerate(model.states):
        left = bool((report.source_extension >> i) & 1)
        right = bool((report.translated_extension >> i) & 1)
        lines.append(f"  {state}: {str(left).lower()} / {str(right).lower()}")
    if report.agrees:
        lines.append(f"agree at all {model.n} states")
    else:
        lines.append(f"MISMATCH at state {report.mismatch_state}")
    return 0 if report.agrees else 1, doc, lines


def _witness_lines(verdict) -> list[str]:
    """The verdict's countermodel, indented; no lines when it has none."""
    if verdict.witness_model is None:
        return []
    from .model import braced, model_to_dict

    doc = model_to_dict(verdict.witness_model)
    valuation = sorted(doc["valuation"].items())
    return [
        f"  states:    {' '.join(doc['states'])}",
        f"  partition: {' '.join(map(braced, doc['partition']))}",
        *(f"  valuation: {atom} = {braced(names)}" for atom, names in valuation),
        f"  falsified at: {verdict.witness_state}",
    ]


def cmd_countermodel(args) -> Answer:
    from .validity import find_countermodel

    f = parse(args.formula)
    verdict = find_countermodel(f, _search_spec(args, f), args.engine)
    doc = verdict.to_report(include_timing=args.timings)
    code = 1 if verdict.status == "countermodel-found" else 0
    return code, doc, [verdict.summary(), *_witness_lines(verdict)]


def cmd_equiv(args) -> Answer:
    from .validity import check_equivalence

    left = parse(args.left)
    right = parse(args.right)
    spec = _search_spec(args, left, right)
    verdict = check_equivalence(left, right, spec, args.engine)
    equivalent = verdict.status == "valid-up-to-bound"
    doc = verdict.to_report(include_timing=args.timings)
    doc["left"] = render(left)
    doc["right"] = render(right)
    doc["equivalent_up_to_bound"] = equivalent
    head = "equivalent up to bound" if equivalent else "not equivalent"
    lines = [f"{head}: {verdict.summary()}", *_witness_lines(verdict)]
    return 0 if equivalent else 1, doc, lines


def cmd_check_proof(args) -> Answer:
    from .proofs import check_derivation, load_derivation

    derivation = load_derivation(args.proof)
    verdict = check_derivation(derivation)
    doc = {"ok": verdict.ok, "steps": len(derivation.steps)}
    if verdict.ok:
        doc["theorem"] = render(derivation.theorem)
        return 0, doc, [f"ok: {doc['theorem']} ({doc['steps']} steps)"]
    doc["step"] = verdict.step
    doc["reason"] = verdict.reason
    return 1, doc, [str(verdict)]


def cmd_soundness_sweep(args) -> Answer:
    from .model import braced
    from .proofs import E_DISTRIBUTION, SCHEMAS, soundness_sweep
    from .validity import EnumerationSpec, corpus_formulas

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
    corpus = corpus_formulas()
    missing = set().union(*map(atom_names, corpus)).difference(atoms)
    if missing:
        names = ", ".join(sorted(missing))
        raise UsageError(f"--atoms {args.atoms!r} leaves out corpus atoms: {names}")
    spec = EnumerationSpec(args.max_states, atoms, args.limit)
    report = soundness_sweep(chosen, corpus, spec, args.engine)
    doc = report.to_report(include_timing=args.timings)
    lines = [
        f"checked {report.instances_checked} instances of "
        f"{len(report.schemas)} schemas over {len(report.corpus)} corpus "
        f"formulas (bound: {spec.n_states} states, atoms {braced(spec.atoms)})"
    ]
    # the report's rendered formulas, so each is rendered once
    for v in doc["violations"]:
        subst = ", ".join(f"{k} = {g}" for k, g in v["substitution"].items())
        lines.append(f"VIOLATION {v['schema']} [{subst}]: {v['instance']}")
    if report.ok:
        lines.append("no violations")
    return 0 if report.ok else 1, doc, lines


def _add_search_flags(p, atoms_help: str, evaluated_help: str) -> None:
    """The bound, engine and report flags; the caller says what --atoms
    defaults to and what --timings counts as evaluated."""
    from .validity import ENGINES

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
        help=f"comma-separated valuation atoms {atoms_help}",
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
        help=f"include wall-clock seconds and {evaluated_help} (breaks "
        "byte-stability)",
    )


def _mode_option(p) -> None:
    from .semantics import MODES

    p.add_argument("--mode", choices=MODES, default="fast")


def _eval_options(p) -> None:
    p.add_argument("--state", help="evaluate at this state only")
    _mode_option(p)


def _countermodel_options(p) -> None:
    _add_search_flags(p, "(default: the formula's atoms)", SEARCH_EVALUATED)


def _equiv_options(p) -> None:
    _add_search_flags(p, "(default: the atoms of both formulas)", SEARCH_EVALUATED)


def _sweep_options(p) -> None:
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
    _add_search_flags(
        p,
        f"(default: {','.join(SWEEP_ATOMS)}); the list must include the corpus "
        f"atoms {' and '.join(SWEEP_ATOMS)}",
        "the count of models evaluated in the report: the codes of each "
        "window the kernel evaluates, once per walk (a walk per schema, or per "
        "instance with --engine python)",
    )


# each command: its help, its positional arguments, the function that adds
# its options (besides --json) and the cmd_* that runs it, in the order
# `expertlogic --help` lists them
_COMMANDS = {
    "eval": (
        "evaluate a formula on a model",
        ("model", "formula"),
        _eval_options,
        cmd_eval,
    ),
    "extension": (
        "print the set of states satisfying a formula",
        ("model", "formula"),
        _mode_option,
        cmd_extension,
    ),
    "translate": (
        "print the knowledge form and the expertise-free form",
        ("formula",),
        None,
        cmd_translate,
    ),
    "to-s5": ("print the induced relational model", ("model",), None, cmd_to_s5),
    "correspondence": (
        "check a formula against its knowledge form on the induced model",
        ("model", "formula"),
        None,
        cmd_correspondence,
    ),
    "countermodel": (
        "bounded countermodel search",
        ("formula",),
        _countermodel_options,
        cmd_countermodel,
    ),
    "equiv": ("bounded equivalence check", ("left", "right"), _equiv_options, cmd_equiv),
    "check-proof": ("verify a derivation file", ("proof",), None, cmd_check_proof),
    "soundness-sweep": (
        "bounded-search every axiom instantiation over the corpus",
        (),
        _sweep_options,
        cmd_soundness_sweep,
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command's name and help, with the arguments of
    `command` alone, or of every command when it is None.

    argparse parses a command line with the subparser of its command and
    no other, so main gives arguments to that subparser only; the others
    hold the name and help line that `expertlogic --help` and the
    invalid-choice error print.  The search options read the engine names
    from the validity layer and --mode the modes from the semantics layer,
    so a command whose subparser has neither imports neither.
    """
    parser = argparse.ArgumentParser(
        prog="expertlogic",
        description="Model checking and proof checking for the expertise/soundness modal logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, positionals, add_options, run) in _COMMANDS.items():
        built = command is None or command == name
        # a subparser that parses nothing needs no -h either
        p = sub.add_parser(name, help=help_text, add_help=built)
        if built:
            for positional in positionals:
                p.add_argument(positional)
            if add_options is not None:
                add_options(p)
            p.add_argument("--json", action="store_true", help="emit a stable JSON document")
            p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser has no option but -h, so argparse takes the
    # first argument that is not an option for the command
    command = next((a for a in argv if not a.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    shown = set()

    def show_warning(message, category, filename, lineno, file=None, line=None):
        # one line per distinct warning, without the source location
        text = f"{category.__name__}: {message}"
        if text not in shown:
            shown.add(text)
            print(text, file=sys.stderr)

    # leaving catch_warnings restores showwarning; entering it forgets the
    # warnings shown before, so each command in one process warns anew
    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        try:
            code, doc, lines = args.func(args)
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True))
            else:
                print("\n".join(lines))
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
