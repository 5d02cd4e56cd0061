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

A size-n slice therefore holds exactly bell(n) * 2^(n*k) models.  One
generator, _ranges, walks that order as ranges of valuation codes (one
partition, at most _CHUNK codes each) and is the only place that applies
the spec's limit.  find_countermodel is one loop over those ranges; the
engines differ only in how they compute the formula's extension in each
model of a range: 'numpy' (the default) runs the compiled kernel from
.kernels on the whole range, 'python' builds each ExpertiseModel and
evaluates it through .semantics, and is the reference the tests compare
the kernel with.  Every witness found is re-verified with the
literal-clause evaluator before the Verdict is built, so a kernel bug
cannot produce a bogus countermodel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import kernels
from .formula import Formula, Iff, is_atom_name, parse, render
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
    while True:
        yield tuple(rgs)
        # the successor bumps the rightmost entry that may grow, then
        # restarts everything after it at block 0
        i = n - 1
        while i > 0 and rgs[i] > max(rgs[:i]):
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        rgs[i + 1 :] = [0] * (n - 1 - i)


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


def _ranges(
    spec: EnumerationSpec, sizes: Iterable[int]
) -> Iterator[tuple[int, tuple[Mask, ...], tuple[int, ...], range]]:
    """The models of the given sizes in enumeration order, as
    (n, blocks, rgs, codes): one partition and a range of at most _CHUNK
    valuation codes.  Stops after spec.limit models in all."""
    left = spec.limit
    for n in sizes:
        codes_total = 1 << (n * len(spec.atoms))
        for rgs in rgs_partitions(n):
            blocks = blocks_from_rgs(rgs)
            for start in range(0, codes_total, _CHUNK):
                stop = min(start + _CHUNK, codes_total)
                if left is not None:
                    if left == 0:
                        return
                    stop = min(stop, start + left)
                    left -= stop - start
                yield n, blocks, rgs, range(start, stop)


def enumerate_models(spec: EnumerationSpec) -> Iterator[ExpertiseModel]:
    """All models with exactly spec.n_states states, in enumeration order;
    at most spec.limit of them."""
    for n, blocks, _, codes in _ranges(spec, (spec.n_states,)):
        for code in codes:
            yield _model_from_code(n, blocks, spec.atoms, code)


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


def find_countermodel(
    formula: Formula, spec: EnumerationSpec, engine: str | None = None
) -> Verdict:
    """First model in enumeration order falsifying the formula, if any.

    The witness state is the least state of that model where the formula
    fails.  Each range of models from _ranges is evaluated whole, by the
    kernel (numpy) or model by model (python), and then reduced to its
    least falsifying index, so the result is identical across engines and
    range sizes.  compile_program is the input check for both engines.
    """
    started = time.perf_counter()
    program = kernels.compile_program(formula, spec.atoms)
    engine = resolve_engine(engine)
    checked = 0
    hit = None
    for n, blocks, rgs, codes in _ranges(spec, range(1, spec.n_states + 1)):
        full = (1 << n) - 1
        if engine == "numpy":
            sbm = np.array([blocks[j] for j in rgs], dtype=np.int64)
            column = np.arange(codes.start, codes.stop, dtype=np.int64)[:, None]
            shifts = np.arange(len(spec.atoms), dtype=np.int64) * n
            out = kernels.eval_chunk(program, sbm, (column >> shifts) & full)
        else:
            models = (_model_from_code(n, blocks, spec.atoms, c) for c in codes)
            out = np.array([extension(m, formula) for m in models], dtype=np.int64)
        bad = np.nonzero(out != full)[0]
        if bad.size:
            idx = int(bad[0])
            checked += idx + 1
            model = _model_from_code(n, blocks, spec.atoms, codes[idx])
            hit = model, model.states[_lowest_zero(int(out[idx]), n)]
            break
        checked += len(codes)
    stats = SearchStats(
        models_checked=checked,
        truncated=hit is None and checked < spec.total_count(),
        elapsed_s=time.perf_counter() - started,
        engine=engine,
    )
    if hit is None:
        return Verdict.valid_up_to(formula, spec, stats)
    return Verdict.found(formula, spec, stats, *hit)


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
