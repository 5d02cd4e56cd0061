"""Bounded validity checking by exhaustive countermodel search.

The search space for a bound (n_states, atoms) is every expertise model
with 1..n_states states, every partition of each state space, and every
valuation of the given atoms.  Enumeration order is fixed and documented,
so the first countermodel is the same on every engine and every run:

* sizes ascending; states of a size-n model are named x0..x{n-1};
* partitions in lexicographic restricted-growth-string order (the RGS maps
  state i to its block index; blocks are numbered by first appearance);
* valuations as a single counter: atom j's extension occupies bits
  [j*n, (j+1)*n) of the code, so the code runs through all 2^(n*k) masks.

A size-n slice therefore holds exactly bell(n) * 2^(n*k) models.  Two
engines visit that order: 'numpy' (the default) runs the compiled kernel
from .kernels over a chunk of valuations at a time, 'python' walks
ExpertiseModel objects through .semantics and is the reference the tests
compare it with.  Every witness found is re-verified with the
literal-clause evaluator before the Verdict is built, so a kernel bug
cannot produce a bogus countermodel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from . import kernels
from .formula import (
    Formula,
    Iff,
    RESERVED_TOP_ATOM,
    atom_names,
    in_expertise_language,
    is_atom_name,
    parse,
    render,
)
from .model import ExpertiseModel, Mask, Partition, model_to_dict
from .semantics import extension, holds

ENGINES = ("numpy", "python")

_CHUNK = 1 << 16


def resolve_engine(requested: str | None = None) -> str:
    """The engine a search runs on: the one named, else numpy."""
    name = requested or "numpy"
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r} (use one of {', '.join(ENGINES)})")
    return name


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set (triangle recurrence)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def rgs_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All restricted growth strings of length n, lexicographically.

    rgs[i] is state i's block index; a legal string starts at 0 and never
    jumps more than one past the maximum so far.
    """
    rgs = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield tuple(rgs)
            return
        for j in range(used + 1):
            rgs[i] = j
            yield from rec(i + 1, max(used, j + 1))

    yield from rec(1, 1) if n > 1 else iter([tuple(rgs)])


def blocks_from_rgs(rgs: tuple[int, ...]) -> tuple[Mask, ...]:
    blocks = [0] * (max(rgs) + 1)
    for i, j in enumerate(rgs):
        blocks[j] |= 1 << i
    return tuple(blocks)


@dataclass(frozen=True)
class EnumerationSpec:
    """Bound for a search: up to n_states states, valuations over atoms."""

    n_states: int
    atoms: tuple[str, ...]
    limit: int | None = None

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError("need at least one state")
        if self.n_states > 12:
            raise ValueError("bounds beyond 12 states are not tractable here")
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("search atoms must be distinct")
        for a in self.atoms:
            if not is_atom_name(a):
                raise ValueError(f"invalid atom name {a!r}")
        if self.n_states * len(self.atoms) > 48:
            raise ValueError("states x atoms too large to enumerate valuations")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be positive")

    def size_count(self, n: int) -> int:
        """Models with exactly n states under this spec."""
        return bell_number(n) << (n * len(self.atoms))

    def total_count(self) -> int:
        return sum(self.size_count(n) for n in range(1, self.n_states + 1))


def _state_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def _model_from_code(
    n: int, blocks: tuple[Mask, ...], atoms: tuple[str, ...], code: int
) -> ExpertiseModel:
    full = (1 << n) - 1
    valuation = tuple(
        (atom, (code >> (j * n)) & full) for j, atom in enumerate(atoms)
    )
    return ExpertiseModel(_state_names(n), Partition.from_blocks(blocks), valuation)


def enumerate_models(spec: EnumerationSpec) -> Iterator[ExpertiseModel]:
    """All models with exactly spec.n_states states, in enumeration order;
    at most spec.limit of them."""
    n = spec.n_states
    models = (
        _model_from_code(n, blocks, spec.atoms, code)
        for blocks in map(blocks_from_rgs, rgs_partitions(n))
        for code in range(1 << (n * len(spec.atoms)))
    )
    yield from islice(models, spec.limit)


@dataclass(frozen=True)
class SearchStats:
    models_checked: int
    truncated: bool
    elapsed_s: float
    engine: str


@dataclass(frozen=True)
class Verdict:
    """Outcome of a bounded search, with a re-verified witness if any.

    status is 'countermodel-found' or 'valid-up-to-bound'.  Construct through
    found()/valid_up_to(): found() re-evaluates the formula on the witness
    with the literal-clause evaluator and refuses to build a Verdict whose
    witness does not actually falsify the formula.
    """

    status: str
    formula: Formula
    spec: EnumerationSpec
    stats: SearchStats
    witness_model: ExpertiseModel | None = None
    witness_state: str | None = None

    @classmethod
    def found(cls, formula, spec, stats, model, state) -> "Verdict":
        if holds(model, state, formula, mode="literal"):
            raise RuntimeError(
                "search returned a witness that does not falsify the formula"
            )
        return cls("countermodel-found", formula, spec, stats, model, state)

    @classmethod
    def valid_up_to(cls, formula, spec, stats) -> "Verdict":
        return cls("valid-up-to-bound", formula, spec, stats)

    @property
    def is_valid_up_to_bound(self) -> bool:
        return self.status == "valid-up-to-bound"

    def summary(self) -> str:
        """One-line verdict; the wording of the bounded case is fixed."""
        atoms = "{" + ", ".join(self.spec.atoms) + "}"
        checked = (
            f"checked {self.stats.models_checked} of "
            f"{self.spec.total_count()} models"
        )
        if self.status == "countermodel-found":
            return (
                f"countermodel found: {self.witness_model.n} states, falsified at "
                f"state {self.witness_state} ({checked}, atoms {atoms})"
            )
        note = "; search truncated before the bound" if self.stats.truncated else ""
        return (
            f"no countermodel with ≤ {self.spec.n_states} states "
            f"(atoms {atoms}; {checked}{note})"
        )

    def to_report(self, include_timing: bool = False) -> dict:
        doc = {
            "formula": render(self.formula),
            "status": self.status,
            "bound": {
                "n_states": self.spec.n_states,
                "atoms": list(self.spec.atoms),
            },
            "search_space": self.spec.total_count(),
            "models_checked": self.stats.models_checked,
            "truncated": self.stats.truncated,
            "engine": self.stats.engine,
            "witness": None,
        }
        if self.witness_model is not None:
            doc["witness"] = {
                "model": model_to_dict(self.witness_model),
                "state": self.witness_state,
            }
        if include_timing:
            doc["elapsed_s"] = self.stats.elapsed_s
        return doc


def _check_search_inputs(formula: Formula, spec: EnumerationSpec) -> None:
    if not in_expertise_language(formula):
        raise ValueError("bounded search covers only E/S/A formulas")
    loose = atom_names(formula) - set(spec.atoms) - {RESERVED_TOP_ATOM}
    if loose:
        raise ValueError(
            "formula mentions atoms outside the search valuations: "
            + ", ".join(sorted(loose))
        )


def find_countermodel(
    formula: Formula, spec: EnumerationSpec, engine: str | None = None
) -> Verdict:
    """First model in enumeration order falsifying the formula, if any.

    The witness state is the least state of that model where the formula
    fails.  The numpy engine evaluates a chunk of valuations at once, then
    reduces to the least falsifying index, so the result is identical
    across engines and chunk sizes.
    """
    _check_search_inputs(formula, spec)
    engine = resolve_engine(engine)
    started = time.perf_counter()
    if engine == "python":
        outcome = _search_python(formula, spec)
    else:
        outcome = _search_kernel(formula, spec)
    checked, truncated, hit = outcome
    stats = SearchStats(
        models_checked=checked,
        truncated=truncated,
        elapsed_s=time.perf_counter() - started,
        engine=engine,
    )
    if hit is None:
        return Verdict.valid_up_to(formula, spec, stats)
    model, state = hit
    return Verdict.found(formula, spec, stats, model, state)


def _search_python(formula, spec):
    checked = 0
    for n in range(1, spec.n_states + 1):
        size_spec = EnumerationSpec(n, spec.atoms)
        full = (1 << n) - 1
        for model in enumerate_models(size_spec):
            if spec.limit is not None and checked >= spec.limit:
                return checked, True, None
            checked += 1
            ext = extension(model, formula)
            if ext != full:
                state = model.states[_lowest_zero(ext, n)]
                return checked, False, (model, state)
    return checked, False, None


def _search_kernel(formula, spec):
    program = kernels.compile_program(formula, spec.atoms)
    k = len(spec.atoms)
    checked = 0
    for n in range(1, spec.n_states + 1):
        full = (1 << n) - 1
        codes_total = 1 << (n * k)
        shifts = np.arange(k, dtype=np.int64) * n
        for rgs in rgs_partitions(n):
            blocks = blocks_from_rgs(rgs)
            sbm = np.array([blocks[j] for j in rgs], dtype=np.int64)
            start = 0
            while start < codes_total:
                stop = min(start + _CHUNK, codes_total)
                if spec.limit is not None:
                    stop = min(stop, start + (spec.limit - checked))
                    if stop <= start:
                        return checked, True, None
                codes = np.arange(start, stop, dtype=np.int64)
                vals = (codes[:, None] >> shifts[None, :]) & full
                out = kernels.eval_chunk(program, sbm, vals)
                bad = np.nonzero(out != full)[0]
                if bad.size:
                    idx = int(bad[0])
                    checked += idx + 1
                    model = _model_from_code(n, blocks, spec.atoms, start + idx)
                    state = model.states[_lowest_zero(int(out[idx]), n)]
                    return checked, False, (model, state)
                checked += stop - start
                start = stop
    return checked, False, None


def _lowest_zero(mask: Mask, n: int) -> int:
    gap = ~mask & ((1 << n) - 1)
    return (gap & -gap).bit_length() - 1


def check_equivalence(
    left: Formula, right: Formula, spec: EnumerationSpec, engine: str | None = None
) -> Verdict:
    """Bounded search for a model separating the two formulas."""
    return find_countermodel(Iff(left, right), spec, engine)


# Instantiation corpus for schema sweeps: all modal depth <= 2, two atoms.
CORPUS_TEXTS = (
    "p",
    "q",
    "~p",
    "p & q",
    "p | q",
    "p -> q",
    "E p",
    "E (p -> q)",
    "S p",
    "S (p & ~q)",
    "A p",
    "A (S p -> p)",
)


def corpus_formulas() -> tuple[Formula, ...]:
    return tuple(parse(s) for s in CORPUS_TEXTS)
