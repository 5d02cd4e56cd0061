"""Hilbert-style proof checking for the expertise logic.

The calculus has eight axiom schemas over metavariables phi/psi::

    K_S   S phi & ~S psi -> S (phi & ~psi)
    T_S   phi -> S phi
    5_S   S ~S phi -> ~S phi
    K_A   A (phi -> psi) -> (A phi -> A psi)
    T_A   A phi -> phi
    5_A   ~A phi -> A ~A phi
    ES    E phi <-> A (S phi -> phi)
    Inc   A phi -> ~S ~phi

plus three rules: modus ponens, A-necessitation (from phi infer A phi) and
S-replacement (from phi <-> psi infer S phi <-> S psi).  The propositional
base is folded in as a 'taut' justification that abstracts maximal modal
subformulas to letters and checks a truth table.

Proof files are plain text, one step per line::

    # derives soundness-compatibility of a tautology
    1. p -> p ; taut
    2. A (p -> p) ; necA 1
    3. A (p -> p) -> ~S ~(p -> p) ; axiom Inc
    4. ~S ~(p -> p) ; mp 2 3

Justifications: `taut`, `axiom <name>`, `mp <i> <j>` (step j must be
step i -> this step), `necA <i>`, `rs <i>`.  Indices are 1-based and must
reference earlier steps.  `#` starts a comment, blank lines are ignored,
and steps must be numbered consecutively from 1.

soundness_sweep closes the loop with the semantics: it instantiates schemas
over a formula corpus and hands every instance to the bounded countermodel
search, reporting any falsified instance.
"""

from __future__ import annotations

import itertools
import re
import time
from typing import TYPE_CHECKING, Mapping

from .formula import (
    And,
    Atom,
    Formula,
    Iff,
    Imp,
    ModalA,
    ModalE,
    ModalS,
    Not,
    Record,
    TOP,
    Top,
    in_expertise_language,
    parse,
    rebuild,
    render,
    split_iff,
    subformulas,
    FormulaSyntaxError,
)

if TYPE_CHECKING:  # the search loads with the first sweep, not with proofs
    from .validity import EnumerationSpec, Verdict


class Meta(Formula):
    """Schema metavariable; instantiation replaces it by a formula."""

    __slots__ = ("name",)
    _leaf = True


PHI = Meta("phi")
PSI = Meta("psi")


class AxiomSchema(Record):
    name: str
    template: Formula

    def metavariables(self) -> tuple[str, ...]:
        """Names in order of first occurrence in the template."""
        names = (g.name for g in subformulas(self.template) if isinstance(g, Meta))
        return tuple(dict.fromkeys(names))


SCHEMAS: dict[str, AxiomSchema] = {
    s.name: s
    for s in (
        AxiomSchema("K_S", Imp(And(ModalS(PHI), Not(ModalS(PSI))), ModalS(And(PHI, Not(PSI))))),
        AxiomSchema("T_S", Imp(PHI, ModalS(PHI))),
        AxiomSchema("5_S", Imp(ModalS(Not(ModalS(PHI))), Not(ModalS(PHI)))),
        AxiomSchema("K_A", Imp(ModalA(Imp(PHI, PSI)), Imp(ModalA(PHI), ModalA(PSI)))),
        AxiomSchema("T_A", Imp(ModalA(PHI), PHI)),
        AxiomSchema("5_A", Imp(Not(ModalA(PHI)), ModalA(Not(ModalA(PHI))))),
        AxiomSchema("ES", Iff(ModalE(PHI), ModalA(Imp(ModalS(PHI), PHI)))),
        AxiomSchema("Inc", Imp(ModalA(PHI), Not(ModalS(Not(PHI))))),
    )
}

# Deliberately NOT an axiom: expertise does not distribute over implication.
# Kept around so sweeps can demonstrate that a bogus schema is caught.
E_DISTRIBUTION = AxiomSchema(
    "E_dist", Imp(ModalE(Imp(PHI, PSI)), Imp(ModalE(PHI), ModalE(PSI)))
)


def instantiate(template: Formula, subst: Mapping[str, Formula]) -> Formula:
    def replace(meta: Meta) -> Formula:
        try:
            return subst[meta.name]
        except KeyError:
            raise ValueError(f"no substitution for metavariable {meta.name}") from None

    return rebuild(template, {Meta: replace})


def match_schema(schema: AxiomSchema, f: Formula) -> dict[str, Formula] | None:
    """The unique substitution instantiating the schema to f, if any.

    Purely structural on desugared trees; repeated metavariables must bind
    the same subformula.
    """
    binding: dict[str, Formula] = {}
    # (template node, formula node) pairs still to match, leftmost on top
    stack = [(schema.template, f)]
    while stack:
        t, g = stack.pop()
        if isinstance(t, Meta):
            if binding.setdefault(t.name, g) != g:
                return None
        elif type(t) is not type(g) or (isinstance(t, Atom) and t.name != g.name):
            return None
        else:
            stack.extend(zip(reversed(t.children), reversed(g.children)))
    return binding


# --- propositional base ------------------------------------------------------

MAX_TAUT_LETTERS = 20


class TautologyLimitError(ValueError):
    pass


def check_taut(f: Formula) -> bool:
    """Truth-table tautology after abstracting modal subtrees to letters.

    Maximal modal subformulas and atoms become propositional letters and T
    the all-true column; the table is evaluated column-wise on big-int bit
    vectors (bit a = row a).  More than 20 distinct letters is refused
    outright.
    """
    nodes = list(subformulas(f))
    # the propositional skeleton: f and whatever it reaches through ~ and &
    skeleton = {f}
    for g in reversed(nodes):  # parents before children
        if g in skeleton and isinstance(g, (Not, And)):
            skeleton.update(g.children)
    letters = [g for g in nodes if g in skeleton and not isinstance(g, (Top, Not, And))]
    count = len(letters)
    if count > MAX_TAUT_LETTERS:
        raise TautologyLimitError(
            f"abstraction has {count} distinct letters; refusing to enumerate "
            f"2^{count} truth-table rows (cap is {MAX_TAUT_LETTERS}, "
            f"i.e. {1 << MAX_TAUT_LETTERS} rows)"
        )
    rows = 1 << count
    table_full = (1 << rows) - 1
    value: dict[Formula, int] = {TOP: table_full}
    for idx, letter in enumerate(letters):
        half = 1 << idx
        unit = ((1 << half) - 1) << half
        repeat = table_full // ((1 << (half << 1)) - 1)
        value[letter] = unit * repeat
    for g in nodes:
        if isinstance(g, Not) and g in skeleton:
            value[g] = table_full ^ value[g.child]
        elif isinstance(g, And) and g in skeleton:
            value[g] = value[g.left] & value[g.right]
    return value[f] == table_full


# --- derivations -------------------------------------------------------------

class Taut(Record):
    """The step is a propositional tautology."""


class Axiom(Record):
    name: str
    substitution: tuple[tuple[str, Formula], ...] | None = None


class MP(Record):
    premise: int
    implication: int


class NecA(Record):
    premise: int


class RS(Record):
    premise: int


Justification = Taut | Axiom | MP | NecA | RS


class Step(Record):
    formula: Formula
    justification: Justification


class Derivation(Record):
    steps: tuple[Step, ...]

    @property
    def theorem(self) -> Formula:
        return self.steps[-1].formula


class DerivationVerdict(Record):
    ok: bool
    step: int | None = None
    reason: str | None = None

    def __str__(self) -> str:
        return "ok" if self.ok else f"bad step {self.step}: {self.reason}"


class _BadReference(Exception):
    """A rule cites a step that does not come before it; the message is
    the step's reason."""


def check_derivation(derivation: Derivation) -> DerivationVerdict:
    """First unjustified step, if any.

    Every step must be in the E/S/A language and carry a justification that
    actually produces its formula; rule references must point at earlier
    steps (1-based).
    """
    steps = derivation.steps
    for k, step in enumerate(steps, start=1):
        try:
            reason = _check_step(steps, k, step)
        except _BadReference as e:
            reason = str(e)
        if reason is not None:
            return DerivationVerdict(False, k, reason)
    return DerivationVerdict(True)


def _earlier(steps, k: int, i: int) -> Formula:
    if not 1 <= i < k:
        raise _BadReference(f"reference to step {i}, which does not precede step {k}")
    return steps[i - 1].formula


def _check_step(steps, k: int, step: Step) -> str | None:
    f = step.formula
    if not in_expertise_language(f):
        return "knowledge operator is outside the proof language"
    j = step.justification
    if isinstance(j, Taut):
        return None if check_taut(f) else "not a propositional tautology"
    if isinstance(j, Axiom):
        schema = SCHEMAS.get(j.name)
        if schema is None:
            return f"unknown axiom {j.name!r}"
        if j.substitution is not None:
            try:
                produced = instantiate(schema.template, dict(j.substitution))
            except ValueError as e:
                return str(e)
            if produced != f:
                return f"given substitution does not instantiate {j.name} to this formula"
            return None
        if match_schema(schema, f) is None:
            return f"formula is not an instance of axiom {j.name}"
        return None
    if isinstance(j, MP):
        premise = _earlier(steps, k, j.premise)
        implication = _earlier(steps, k, j.implication)
        if implication != Imp(premise, f):
            return (
                f"step {j.implication} is not the implication "
                f"(step {j.premise} -> this formula)"
            )
        return None
    if isinstance(j, NecA):
        premise = _earlier(steps, k, j.premise)
        if f != ModalA(premise):
            return f"formula is not A applied to step {j.premise}"
        return None
    if isinstance(j, RS):
        premise = _earlier(steps, k, j.premise)
        pair = split_iff(premise)
        if pair is None:
            return f"step {j.premise} is not a biconditional"
        if f != Iff(ModalS(pair[0]), ModalS(pair[1])):
            return (
                f"formula is not S applied to both sides of step {j.premise}"
            )
        return None
    return f"unsupported justification {j!r}"


# --- proof files -------------------------------------------------------------

class DerivationFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


_STEP_LINE = re.compile(r"^(\d+)\.\s*(.*?)\s*;\s*(\S.*)$")


def parse_derivation(text: str) -> Derivation:
    """Parse the proof file format described in the module docstring."""
    steps: list[Step] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _STEP_LINE.match(line)
        if m is None:
            raise DerivationFormatError(
                "expected '<index>. <formula> ; <justification>'", line_no
            )
        index, formula_text, just_text = m.groups()
        if int(index) != len(steps) + 1:
            raise DerivationFormatError(
                f"step numbered {index}, expected {len(steps) + 1}", line_no
            )
        try:
            formula = parse(formula_text)
        except FormulaSyntaxError as e:
            raise DerivationFormatError(f"bad formula: {e}", line_no) from None
        steps.append(Step(formula, _parse_justification(just_text, line_no)))
    if not steps:
        raise DerivationFormatError("no steps")
    return Derivation(tuple(steps))


def _parse_justification(text: str, line_no: int) -> Justification:
    parts = text.split()
    kind = parts[0]
    try:
        if kind == "taut" and len(parts) == 1:
            return Taut()
        if kind == "axiom" and len(parts) == 2:
            return Axiom(parts[1])
        if kind == "mp" and len(parts) == 3:
            return MP(int(parts[1]), int(parts[2]))
        if kind == "necA" and len(parts) == 2:
            return NecA(int(parts[1]))
        if kind == "rs" and len(parts) == 2:
            return RS(int(parts[1]))
    except ValueError:
        raise DerivationFormatError(
            f"justification {text!r} has a non-numeric step reference", line_no
        ) from None
    raise DerivationFormatError(f"unknown justification {text!r}", line_no)


def load_derivation(path: str) -> Derivation:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise DerivationFormatError(f"invalid UTF-8 in {path}: {e}") from None
    return parse_derivation(text)


# --- soundness sweeps --------------------------------------------------------

class SweepViolation(Record):
    schema: str
    substitution: tuple[tuple[str, Formula], ...]
    verdict: Verdict


class SweepReport(Record):
    schemas: tuple[str, ...]
    corpus: tuple[Formula, ...]
    spec: EnumerationSpec
    engine: str
    instances_checked: int
    violations: tuple[SweepViolation, ...] = ()
    elapsed_s: float = 0.0
    models_evaluated: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_report(self, include_timing: bool = False) -> dict:
        doc = {
            "schemas": list(self.schemas),
            "corpus": [render(f) for f in self.corpus],
            "bound": {
                "n_states": self.spec.n_states,
                "atoms": list(self.spec.atoms),
            },
            "engine": self.engine,
            "instances_checked": self.instances_checked,
            "violations": [
                {
                    "schema": v.schema,
                    "substitution": {
                        name: render(g) for name, g in v.substitution
                    },
                    "instance": render(v.verdict.formula),
                    "witness": v.verdict.witness_report(),
                }
                for v in self.violations
            ],
        }
        if include_timing:
            doc["elapsed_s"] = self.elapsed_s
            doc["models_evaluated"] = self.models_evaluated
        return doc


def schema_instances(schema: AxiomSchema, corpus):
    """(substitution, instance) pairs over the corpus, in corpus order.

    The template is walked once: each of its nodes, children before
    parents, with the positions of its children in that order, builds its
    part of every instance, as instantiate would.
    """
    names = schema.metavariables()
    nodes = list(subformulas(schema.template))
    position = {g: i for i, g in enumerate(nodes)}
    steps = [(g, type(g), [position[c] for c in g.children]) for g in nodes]
    for picks in itertools.product(corpus, repeat=len(names)):
        subst = dict(zip(names, picks))
        built = []
        for g, kind, kids in steps:
            if kind is Meta:
                built.append(subst[g.name])
            elif kids:
                built.append(kind(*[built[i] for i in kids]))
            else:
                built.append(g)
        yield tuple(subst.items()), built[-1]


def soundness_sweep(
    schemas,
    corpus,
    spec: EnumerationSpec,
    engine: str | None = None,
) -> SweepReport:
    """Bounded-search every corpus instantiation of every schema.

    A sound schema produces no violation; any countermodel-found verdict is
    collected with its substitution and witness.  Each schema's instances
    go to one find_countermodels call, so the bitslice engine walks the
    windows once per schema, and every verdict equals the instance's own
    search.  One call per schema rather than one for the whole sweep keeps
    the slots of a call's shared subformulas alive only for that schema.
    models_evaluated counts the models each walk evaluated once per walk:
    once per schema on bitslice, where a walk lasts as long as its
    longest-lived instance, and once per instance on python.
    """
    from .validity import find_countermodels, resolve_engine

    started = time.perf_counter()
    schemas = list(schemas)
    corpus = tuple(corpus)
    engine = resolve_engine(engine)
    checked = evaluated = 0
    violations = []
    for schema in schemas:
        pairs = list(schema_instances(schema, corpus))
        verdicts = find_countermodels([f for _, f in pairs], spec, engine)
        counts = [v.stats.models_evaluated for v in verdicts]
        evaluated += max(counts, default=0) if engine == "bitslice" else sum(counts)
        checked += len(verdicts)
        for (substitution, _), verdict in zip(pairs, verdicts):
            if verdict.status == "countermodel-found":
                violations.append(SweepViolation(schema.name, substitution, verdict))
    return SweepReport(
        schemas=tuple(s.name for s in schemas),
        corpus=corpus,
        spec=spec,
        engine=engine,
        instances_checked=checked,
        violations=tuple(violations),
        elapsed_s=time.perf_counter() - started,
        models_evaluated=evaluated,
    )
