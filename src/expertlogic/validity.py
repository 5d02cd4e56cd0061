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

A size-n slice therefore holds exactly bell(n) * 2^(n*k) models, and the
model of size n, partition rank r (its position in RGS order) and code c
is at position (models of sizes below n) + r * 2^(n*k) + c.

Symmetry.  E, S and A read a model only through its partition's blocks
and the whole space, so renaming the states maps every model to one with
the same truth values at the renamed states.  Two partitions with the
same multiset of block sizes (the same shape) are renamings of each
other, and the valuations run through every code, so one has a
countermodel exactly when the other has.  The first partition of a shape
in RGS order is its representative: the contiguous RGS with blocks in
non-increasing size (0001122 for 3 + 2 + 2).  Every partition before the
first representative that has a countermodel has a shape whose
representative comes even earlier and has none; so that representative
holds the size's enumeration-least countermodel, and scanning the
representatives alone (bell(n) partitions become p(n) shapes: 877 become
15 at 7 states) finds the same witness at the same position.  The bitslice
engine scans representatives; the python engine walks every partition,
so the two check each other.

Each engine walks the enumeration on its own.  'python' (the reference
the tests compare the kernel with) is the definition read in order: it
decodes every model of every size, partition and code one by one
(_models), cuts the walk after spec.limit models and evaluates each
through .semantics until one fails, with no kernel function but the
input check, kernels.compile_program (kernels.compile_instances for a
sweep).  'bitslice' (the default) walks each size's shape
representatives in rank order and, for each, its valuation codes in
windows of 2^w codes, w = min(n*k, kernels.WINDOW_BITS), in code order:
that is the enumeration order.  A representative's blocks are
contiguous, so the kernel takes the partition as its block ends.  Each
window is one kernels.eval_chunk call, which returns the rows of the
roots that fail in it; a root's least code where some row is clear is
its first falsifying model there.  The walk applies the limit twice: it
stops at the first window whose first position is at or past it, and it
ignores a falsifying model at or past it.  Both walks return the witness
model alone, and Verdict.of_walk names its state with the literal-clause
evaluator, so a kernel bug cannot produce a bogus countermodel.

Many formulas, one walk.  find_countermodels compiles several formulas
into one program, one root each, and walk searches every root on the
engine named; it holds the only test of an engine's name.  The bitslice
walk evaluates each window once for all the roots.  The windows, their
order, the positions and the limit depend on the bound alone, never on
the formula, and the kernel reports each root's rows in a window exactly
as a program of that formula alone would.  A formula retires at its first
falsifying model, or at the limit, with the models checked and evaluated
at that moment, which are the counts its own walk stops with, since its
own walk would have visited the same windows up to there; the program is
then pruned to the roots still live (kernels.prune drops the ops no live
root reads), so a retired formula costs nothing more, and nothing is
compiled again.  Each verdict, its counts and witness included, therefore
equals the formula's own search.  The python walk searches each root's
formula on its own, and asks the caller for it by the root's position.
So proofs.soundness_sweep hands walk a schema's instances compiled from
the template (kernels.compile_instances) and a function that builds
instance i, which only the python walk calls; the sweep builds a Verdict
(Verdict.of_walk) only for an instance with a countermodel.
"""

from __future__ import annotations

import time
from functools import cache, reduce
from itertools import chain, islice
from operator import and_
from typing import Iterable, Iterator, Sequence

from . import kernels
from .formula import Formula, Iff, Record, is_atom_name, parse, render
from .model import ExpertiseModel, Mask, Partition, braced, model_to_dict
from .semantics import extension

ENGINES = ("bitslice", "python")


def resolve_engine(requested: str | None = None) -> str:
    """The engine a search runs on: the one named, else bitslice."""
    name = requested or "bitslice"
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r} (use one of {', '.join(ENGINES)})")
    return name


@cache
def bell_number(n: int) -> int:
    """Number of partitions of an n-element set: the restricted growth
    strings of n entries, a 0 and n - 1 more (_tails; at n = 0 the one row
    of _tails(0) gives the 1)."""
    return _tails(n)[n - 1][0]


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


def _shapes(n: int, most: int) -> Iterator[tuple[int, ...]]:
    """Partitions of the integer n into parts of at most `most`, each in
    non-increasing order, largest first part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most), 0, -1):
        for rest in _shapes(n - first, first):
            yield (first, *rest)


def _tails(n: int) -> list[list[int]]:
    """tails[r][m], for r < max(n, 1) and m <= n - r: the restricted
    growth strings of r more entries after a prefix whose largest block
    index is m.  Its two callers are cached, so it runs at most twice per
    n."""
    tails = [[1] * (n + 1)]
    for r in range(1, n):
        prev = tails[-1]
        tails.append([(m + 1) * prev[m] + prev[m + 1] for m in range(n + 1 - r)])
    return tails


@cache
def _representatives(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(rank, rgs) of the first partition in RGS order of each block-size
    shape of n states, in rank order; rank is the position in
    rgs_partitions(n).  Computed without walking the partitions: the
    representative of a shape is the contiguous RGS with blocks in
    non-increasing size, and its rank sums, over each entry, the strings
    that agree before it and have a smaller value there."""
    tails = _tails(n)
    reps = []
    for shape in _shapes(n, n):
        rgs = tuple(j for j, size in enumerate(shape) for _ in range(size))
        rank = top = 0
        for i, v in enumerate(rgs[1:], 1):
            rank += sum(tails[n - i - 1][max(top, u)] for u in range(v))
            top = max(top, v)
        reps.append((rank, rgs))
    return tuple(reps)


@cache
def _block_ends(rgs: tuple[int, ...]) -> memoryview:
    """The block ends of a contiguous partition, as kernels.eval_chunk
    takes them: a memoryview, whose .shape perfbench/spans.py reads as
    rows."""
    n = len(rgs)
    return memoryview(
        bytes(i for i in range(1, n + 1) if i == n or rgs[i] != rgs[i - 1])
    )


# The most kernel calls a bound may plan.  A full window of 2^18 codes took
# 0.13-0.22 ms for formulas of 5 to 9 ops (2 cores, Python 3.11.7), so the
# cap is 2-4 minutes of search: 9 states over three atoms plan 16,917 calls
# (2-4 s), 12 states over three atoms 22.2 million (about an hour).
MAX_PLANNED_CALLS = 1 << 20


def planned_calls(n_states: int, n_atoms: int) -> int:
    """The kernels.eval_chunk calls of a kernel_walk through sizes
    1..n_states over n_atoms atoms in which no root fails: p(n) shape
    representatives of each size n, each walked in
    2^max(0, n * n_atoms - kernels.WINDOW_BITS) windows.  p(n), the number
    of _representatives(n), comes from Euler's pentagonal number
    recurrence without listing the shapes.  The sum stops at the first
    size where it passes MAX_PLANNED_CALLS, so above the cap it is a lower
    bound, and a bound of any size is planned in well under a
    millisecond."""
    shapes = [1]  # shapes[m] = p(m); p(0) = 1
    calls = 0
    for n in range(1, n_states + 1):
        p, j = 0, 1
        while (g := j * (3 * j - 1) // 2) <= n:
            term = shapes[n - g] + (shapes[n - g - j] if g + j <= n else 0)
            p += term if j % 2 else -term
            j += 1
        shapes.append(p)
        calls += p << max(0, n * n_atoms - kernels.WINDOW_BITS)
        if calls > MAX_PLANNED_CALLS:
            break
    return calls


def check_plan(search: str, calls: int) -> None:
    """Refuse a search that plans more than MAX_PLANNED_CALLS kernel
    calls, with a ValueError that names the search and its plan."""
    if calls > MAX_PLANNED_CALLS:
        raise ValueError(
            f"{search} plans at least {calls:,} kernel calls, above the cap of "
            f"{MAX_PLANNED_CALLS:,}; search fewer states or atoms"
        )


class EnumerationSpec(Record):
    """Bound for a search: up to n_states states, valuations over atoms,
    and at most `limit` models decided when a limit is given.

    A bound is admitted when its planned_calls, the kernel calls of a
    whole walk on the default engine, are at most MAX_PLANNED_CALLS; the
    limit does not count, since every report gives the whole bound's
    search space.  So the state count a bound admits depends on its atoms:
    48, 26, 15, 10, 8, 6 and 5 states for 0 to 6 atoms.  The python engine
    walks the same bound, far more slowly.
    """

    n_states: int
    atoms: tuple[str, ...]
    limit: int | None = None

    def __init__(self, n_states, atoms, limit=None):
        if n_states < 1:
            raise ValueError("need at least one state")
        atoms = tuple(atoms)
        if len(set(atoms)) != len(atoms):
            raise ValueError("search atoms must be distinct")
        for a in atoms:
            if not is_atom_name(a):
                raise ValueError(f"invalid atom name {a!r}")
        check_plan(
            f"the bound of {n_states} states over atoms {braced(atoms)}",
            planned_calls(n_states, len(atoms)),
        )
        if limit is not None and limit < 1:
            raise ValueError("limit must be positive")
        values = self.__dict__
        values["n_states"] = n_states
        values["atoms"] = atoms
        values["limit"] = limit

    def size_count(self, n: int) -> int:
        """Models with exactly n states under this spec."""
        return bell_number(n) << (n * len(self.atoms))

    def total_count(self) -> int:
        return sum(self.size_count(n) for n in range(1, self.n_states + 1))

    def to_report(self) -> dict:
        """The bound as the reports print it."""
        return {"n_states": self.n_states, "atoms": list(self.atoms)}


def _models(
    n: int,
    atoms: tuple[str, ...],
    rgss: Iterable[tuple[int, ...]],
    codes: Sequence[int],
) -> Iterator[ExpertiseModel]:
    """The models of n states with the given partitions (as restricted
    growth strings) and valuation codes over atoms, partition-major and
    then by code, with one Partition built per partition."""
    states = tuple(f"x{i}" for i in range(n))
    full = (1 << n) - 1
    for rgs in rgss:
        partition = Partition.from_blocks(blocks_from_rgs(rgs))
        for code in codes:
            valuation = tuple(
                (atom, (code >> (j * n)) & full) for j, atom in enumerate(atoms)
            )
            yield ExpertiseModel(states, partition, valuation)


def _size_models(n: int, atoms: tuple[str, ...]) -> Iterator[ExpertiseModel]:
    """Every model of exactly n states over atoms, in enumeration order."""
    return _models(n, atoms, rgs_partitions(n), range(1 << (n * len(atoms))))


def enumerate_models(spec: EnumerationSpec) -> Iterator[ExpertiseModel]:
    """All models with exactly spec.n_states states, in enumeration order;
    at most spec.limit of them."""
    return islice(_size_models(spec.n_states, spec.atoms), spec.limit)


class SearchStats(Record):
    """models_checked counts the models decided, in enumeration order: up
    to and including the witness, or up to the limit or the bound.
    models_evaluated counts the models the engine actually evaluated; the
    bitslice engine evaluates only each shape's representative partition, so
    it may be far below models_checked."""

    models_checked: int
    truncated: bool
    elapsed_s: float
    engine: str
    models_evaluated: int = 0

    def __init__(self, models_checked, truncated, elapsed_s, engine, models_evaluated=0):
        values = self.__dict__
        values["models_checked"] = models_checked
        values["truncated"] = truncated
        values["elapsed_s"] = elapsed_s
        values["engine"] = engine
        values["models_evaluated"] = models_evaluated


# how a report says that the limit cut its search
TRUNCATED_NOTE = "search truncated before the bound"


def is_truncated(result: _Result, total: int) -> bool:
    """Whether the limit cut a walk's result short of the bound's total."""
    return result[2] is None and result[0] < total


class Verdict(Record):
    """Outcome of a bounded search, with a re-verified witness if any.

    status is 'countermodel-found' or 'valid-up-to-bound'.  Construct
    through of_walk(), which names the witness state by the literal-clause
    evaluator and refuses to build a Verdict on a witness model that
    satisfies the formula at every state.
    """

    status: str
    formula: Formula
    spec: EnumerationSpec
    stats: SearchStats
    witness_model: ExpertiseModel | None = None
    witness_state: str | None = None

    def __init__(
        self, status, formula, spec, stats, witness_model=None, witness_state=None
    ):
        values = self.__dict__
        values["status"] = status
        values["formula"] = formula
        values["spec"] = spec
        values["stats"] = stats
        values["witness_model"] = witness_model
        values["witness_state"] = witness_state

    @classmethod
    def of_walk(cls, formula, spec, result, elapsed, engine) -> "Verdict":
        """The verdict of a walk's result for the formula, (models
        checked, models evaluated, witness model or None), from a search
        that took `elapsed` seconds: the witness state is the model's least
        state where the literal clauses make the formula false."""
        checked, evaluated, model = result
        truncated = is_truncated(result, spec.total_count())
        stats = SearchStats(checked, truncated, elapsed, engine, evaluated)
        if model is None:
            return cls("valid-up-to-bound", formula, spec, stats)
        missing = model.full_mask & ~extension(model, formula, mode="literal")
        if not missing:
            raise RuntimeError(
                "search returned a witness that does not falsify the formula"
            )
        state = model.states[(missing & -missing).bit_length() - 1]
        return cls("countermodel-found", formula, spec, stats, model, state)

    def summary(self) -> str:
        """One-line verdict; the wording of the bounded case is fixed."""
        atoms = braced(self.spec.atoms)
        checked = (
            f"checked {self.stats.models_checked} of "
            f"{self.spec.total_count()} models"
        )
        if self.status == "countermodel-found":
            return (
                f"countermodel found: {self.witness_model.n} states, falsified at "
                f"state {self.witness_state} ({checked}, atoms {atoms})"
            )
        note = f"; {TRUNCATED_NOTE}" if self.stats.truncated else ""
        return (
            f"no countermodel with ≤ {self.spec.n_states} states "
            f"(atoms {atoms}; {checked}{note})"
        )

    def witness_report(self) -> dict | None:
        """The witness as the reports print it: its model and state."""
        if self.witness_model is None:
            return None
        return {"model": model_to_dict(self.witness_model), "state": self.witness_state}

    def to_report(self, include_timing: bool = False) -> dict:
        doc = {
            "formula": render(self.formula),
            "status": self.status,
            "bound": self.spec.to_report(),
            "search_space": self.spec.total_count(),
            "models_checked": self.stats.models_checked,
            "truncated": self.stats.truncated,
            "engine": self.stats.engine,
            "witness": self.witness_report(),
        }
        if include_timing:
            doc["elapsed_s"] = self.stats.elapsed_s
            doc["models_evaluated"] = self.stats.models_evaluated
        return doc


def find_countermodel(
    formula: Formula, spec: EnumerationSpec, engine: str | None = None
) -> Verdict:
    """First model in enumeration order falsifying the formula, if any.

    The witness state is the least state of that model where the formula
    fails.  The python engine walks every model, in order, up to the first
    falsifying one or the limit; the bitslice engine evaluates the shape
    representatives' code windows with the kernel, stops at the first
    window that starts at or past the limit and drops a falsifying model
    at or past it.  By the symmetry argument in the module docstring both
    find the same model at the same position, so the result is identical
    across engines and window sizes.  compile_program is the input check
    for both engines.
    """
    return find_countermodels([formula], spec, engine)[0]


def find_countermodels(
    formulas: Iterable[Formula], spec: EnumerationSpec, engine: str | None = None
) -> list[Verdict]:
    """find_countermodel of each formula, in order, from one walk of their
    program (walk).  Each verdict, its counts included, equals that
    formula's own search (module docstring).  Every verdict's elapsed_s is
    the time of the whole call up to the witness re-checks.
    """
    started = time.perf_counter()
    formulas = tuple(formulas)
    program = kernels.compile_program(formulas, spec.atoms)
    engine = resolve_engine(engine)
    results, _ = walk(program, spec, engine, formulas.__getitem__)
    elapsed = time.perf_counter() - started
    return [
        Verdict.of_walk(f, spec, r, elapsed, engine)
        for f, r in zip(formulas, results)
    ]


def walk(
    program: kernels.Program, spec: EnumerationSpec, engine: str, formula_of
) -> tuple[list[_Result], int]:
    """(models checked, models evaluated, witness or None) of each root of
    a program compiled over spec.atoms, searched on the engine named, and
    the models the call evaluated.

    This is the one place that tells the engines apart.  bitslice walks
    the program once for all its roots (kernel_walk), and the call
    evaluates what its longest-lived root did.  python searches
    formula_of(i), the formula of root i, on its own for each root
    (_reference_walk), and the call evaluates the sum.  Either walk checks
    all of the search space, or the first spec.limit models of it.
    """
    total = spec.total_count()
    limit = total if spec.limit is None else min(spec.limit, total)
    if engine == "bitslice":
        return kernel_walk(program, spec, limit)
    results = [_reference_walk(formula_of(i), spec, limit) for i in range(len(program.roots))]
    return results, sum(r[1] for r in results)


_Result = tuple[int, int, "ExpertiseModel | None"]


def _reference_walk(formula: Formula, spec: EnumerationSpec, limit: int) -> _Result:
    """(models checked, models evaluated, witness or None): the first
    `limit` models in enumeration order, each evaluated through
    semantics.extension until one falls short of the whole space."""
    models = chain.from_iterable(
        _size_models(n, spec.atoms) for n in range(1, spec.n_states + 1)
    )
    for checked, model in enumerate(islice(models, limit), 1):
        if extension(model, formula) != model.full_mask:
            return checked, checked, model
    return limit, limit, None


def kernel_walk(
    program: kernels.Program, spec: EnumerationSpec, limit: int
) -> tuple[list[_Result], int]:
    """(models checked, models evaluated, witness or None) of each root of
    a program compiled over spec.atoms, and the models the walk evaluated:
    each size's shape representatives in rank order, each one's codes in
    windows in code order, each window evaluated whole by the kernel;
    positions before `limit` only.  A root retires at its first falsifying
    model or at the limit, with the counts of that moment, and the program
    is pruned to the roots still live; the walk ends with its last root."""
    if not program.roots:
        return [], 0
    results: list = [None] * len(program.roots)
    live = list(range(len(program.roots)))  # each current root's first index
    k = len(spec.atoms)
    first = evaluated = 0
    for n in range(1, spec.n_states + 1):
        w = min(n * k, kernels.WINDOW_BITS)
        codes_total = 1 << (n * k)
        for rank, rgs in _representatives(n):
            ends = _block_ends(rgs)
            for start in range(0, codes_total, 1 << w):
                position = first + rank * codes_total + start
                if position >= limit:
                    return [r or (limit, evaluated, None) for r in results], evaluated
                planes = kernels.atom_planes(n, k, start, w)
                failing = kernels.eval_chunk(program, planes, ends)
                evaluated += 1 << w
                if not failing:
                    continue  # every live root holds in the whole window
                for i, root in zip(live, program.roots):
                    rows = failing.get(root)
                    if rows is None:
                        continue
                    fails = planes[-1] ^ reduce(and_, rows)
                    t = (fails & -fails).bit_length() - 1
                    if position + t >= limit:
                        results[i] = (limit, evaluated, None)
                        continue
                    model = next(_models(n, spec.atoms, (rgs,), (start + t,)))
                    results[i] = (position + t + 1, evaluated, model)
                keep = [j for j, i in enumerate(live) if results[i] is None]
                if not keep:
                    return results, evaluated
                program = kernels.prune(program, keep)
                live = [live[j] for j in keep]
        first += spec.size_count(n)
    return [r or (limit, evaluated, None) for r in results], evaluated


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
