"""Bit-sliced evaluation kernel for the bounded search.

One or more formulas are compiled together into a program: one op per
distinct subformula across all of them, in formula.subformulas order
(children first), so a subformula that recurs, in one formula or in
several, is evaluated once.  Op t writes slot t and reads its operands
from earlier slots by index; each formula's root is the slot of its
whole, recorded in Program.roots.  The Program constructor works out
the rest from the ops and roots: each op's polarity (below) and the
slots it is the last reader of (a root that no op reads is its own last
reader), which eval_chunk drops after the op, so only the live part of
the program holds memory.

An op is its key (opcode, a, b), and the compiler gives each distinct
key one slot.  Nodes are interned, so two keys are equal exactly when
their nodes are: a node needs no other identity than its key.  So
compile_instances compiles every instance of a proof schema over a
corpus from the template, each metavariable standing for its corpus
formula's slot, into the program compile_program would make of the
instances, without building one of them.  Both walks emit their ops
through one routine, _Ops.emit, which assigns slots and runs the input
check.  prune cuts a program down to some of its roots: it selects the
ops that some kept root reads and numbers them again, which is what a
search does when a formula retires, instead of compiling the formulas
still live again.

eval_chunk runs the ops up to each root in turn (Program.stops, the
distinct roots in slot order) and reduces that root there, before its
slot can be freed.  It returns the rows of the roots that fail somewhere
in the window, by root slot; a root that holds at every state of every
model of the window is left out and keeps no rows.  So the many formulas
of one call cost one pass over the window's ops and memory for the live
slots only, not a window of rows per formula.

The layout is bit-sliced (Biham, "A fast new DES implementation in
software", FSE 1997): each bit of a word belongs to a different model,
and the word is a Python int, so one int op evaluates every model of a
window at once.  A window is 2^w consecutive valuation codes, starting
at a multiple of 2^w, under one partition of n states; bit t of a value
is the model with code start + t.  Code bit j*n + i is atom j's value at
state i, so an atom's rows are constants of the window: for code bits
below w a fixed periodic int (bit t is bit b of t), for higher bits
all-ones or zero (atom_planes).

The partition is given by its block ends, and its blocks are contiguous
runs of states, as the search's shape representatives are.  A value's
shape says what it holds:

    int     the same at every state (T, E, A)
    list    one int per block (S), or one int per state (an atom)

~ keeps its operand's shape and & takes the finer of its operands', so
a value is never wider than its op needs.  A list is per block when it
is shorter than n.  When every block is one state the two lists have the
same length and the same bits, so either reading is right: S is then the
identity and no block is split.

Each op also has a static polarity, recorded in Program.negated: the slot
of a negated op holds the complement of the op's value.  So ~ costs
nothing, since it shares its operand's slot with the polarity flipped,
and the other ops read complements by De Morgan: ~u & ~v is stored as
u | v, u & ~v as u ^ (u & v), S ~u as the per-block AND of u and A ~u as
the OR of u's rows, both negated; E reads a block as split in either
polarity.  A derived connective thus costs one row op (|) or two (->)
instead of four or three.

Opcodes, as (opcode, a, b) with slot[a] and slot[b] the operands::

    OP_ATOM  the rows of atom column a (a == -1 gives the whole window: T)
    OP_NOT   ~slot[a]
    OP_AND   slot[a] & slot[b]
    OP_E     AND over blocks of (all rows | ~any row): ||f|| is a union
             of blocks exactly when no block is split
    OP_S     per block, the OR of the block's rows
    OP_A     AND over rows of slot[a]

Unary ops repeat their operand in b.  Each op costs O(n) int ops.  The
test suite pins the kernel to the pure-Python evaluators in semantics.

Memory.  A window's ints are freed when its call ends, and glibc's malloc
gives a free heap top larger than its trim threshold (128 KiB at start)
back to the system.  Without care every window then faults the same
pages in again.  Freeing a block that malloc served by mmap raises the
mmap threshold to that block's size and the trim threshold to twice that
(the dynamic mmap threshold of mallopt(3)).  So importing this module
allocates and frees one zeroed 8 MiB block, larger than any int a window
holds (at most 2^WINDOW_BITS bits, 32 KiB).  From then on the search's
ints come from the heap, and their pages stay mapped.  The block comes
from calloc and is never written, so it costs no resident memory, and an
allocator without that rule ignores it.  What it buys, measured with
Python 3.11 and glibc on 2 cores:

* within a search: four valid schema instances of 40-50 nodes over
  {p, q, r} at 8 states (windows of 2^18 codes) took 1.7-2.2 s in all,
  against 2.7-3.7 s and about 650,000 more minor faults without it;
* between searches: p -> S p at 6 states over {p, q, r} faults no page,
  against about 70 per search without it.

The frees lists buy memory, not speed: on those four instances the peak
RSS is 16.1 MB with them and 17.1 MB without, in about the same time.
On small searches (500 random depth-5 formulas at 4 states) the time
with and without them is the same within noise.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import compress, product
from operator import and_, or_, xor

from .formula import (
    And,
    Atom,
    Formula,
    ModalA,
    ModalE,
    ModalS,
    Not,
    Record,
    Top,
    subformulas,
)

OP_ATOM = 0
OP_NOT = 1
OP_AND = 2
OP_E = 3
OP_S = 4
OP_A = 5

_OPCODE = {Not: OP_NOT, And: OP_AND, ModalE: OP_E, ModalS: OP_S, ModalA: OP_A}

# log2 of the most codes one eval_chunk call evaluates
WINDOW_BITS = 18

# keeps freed window pages mapped, within a search and between searches
# (module docstring)
bytes(8 << 20)


class Program(Record):
    """Formulas as (opcode, a, b) ops over the atom columns they were
    compiled for, and roots[i] the slot of formula i (formulas that are
    equal share one).

    The constructor keeps what eval_chunk reads besides the fields in the
    instance's __dict__, where equality and hashing ignore it.  negated[t]
    is op t's polarity, whether slot t holds the complement of op t's
    value: ~ flips its operand's, E is never negated, and &, S and A are
    negated iff every operand is.  frees[t] lists the slots whose last
    reader is op t, a root that no op reads among them at its own op, and
    stops the distinct roots in ascending order.
    """

    ops: tuple[tuple[int, int, int], ...]
    roots: tuple[int, ...]

    def __init__(self, ops, roots):
        negated: list[bool] = []
        last_reader: dict[int, int] = {}
        for t, (op, a, b) in enumerate(ops):
            if op == OP_ATOM:
                negated.append(False)
                continue
            if op == OP_NOT:
                negated.append(not negated[a])
            else:
                negated.append(op != OP_E and negated[a] and negated[b])
            last_reader[a] = last_reader[b] = t
        for r in roots:
            last_reader.setdefault(r, r)
        frees: list[tuple[int, ...]] = [()] * len(ops)
        for s, t in last_reader.items():
            frees[t] += (s,)
        values = self.__dict__
        values["ops"] = ops
        values["roots"] = roots
        values["negated"] = tuple(negated)
        values["frees"] = tuple(frees)
        values["stops"] = tuple(sorted(set(roots)))


class _Ops:
    """A program being compiled: the slot of each op key, in slot order.

    Nodes are interned, so two nodes are equal exactly when they have the
    same type and equal fields; by induction over the children, two nodes
    compile to the same key (opcode, a, b) exactly when they are equal.  So
    a key seen before is the node seen before, and it keeps its one slot
    without the node being looked up, or ever built.
    """

    __slots__ = ("atom_order", "loose", "slots")

    def __init__(self, atom_order):
        self.atom_order = atom_order
        self.loose: set[str] = set()
        self.slots: dict[tuple[int, int, int], int] = {}

    def emit(self, nodes, slot: dict) -> None:
        """Record in `slot` the slot of each of `nodes`, children before
        parents, reading each node's children's slots from `slot`; a node
        whose key is new gets a new op.

        This is the bounded search's input check.  A node outside E/S/A (K,
        or a proof metavariable) is rejected as soon as it is met; an atom
        outside the atom columns is kept in `loose` for program() to
        report.  The constant T needs no column: it compiles to an atom op
        reading column -1, the whole window.
        """
        column_of = self.atom_order.index
        slots = self.slots
        add = slots.setdefault
        for g in nodes:
            kind = type(g)
            code = _OPCODE.get(kind)
            if code is not None:
                key = (code, slot[g.children[0]], slot[g.children[-1]])
            elif kind is Atom:
                try:
                    column = column_of(g.name)
                except ValueError:
                    self.loose.add(g.name)
                    column = -1
                key = (OP_ATOM, column, column)
            elif kind is Top:
                key = (OP_ATOM, -1, -1)
            else:
                raise ValueError("bounded search covers only E/S/A formulas")
            slot[g] = add(key, len(slots))

    def program(self, roots) -> Program:
        """The ops so far as a program with the given root slots; an
        error, naming every one of them sorted, if some atom had no
        column."""
        if self.loose:
            raise ValueError(
                "formula mentions atoms outside the search valuations: "
                + ", ".join(sorted(self.loose))
            )
        return Program(tuple(self.slots), tuple(roots))


def compile_program(formulas, atom_order) -> Program:
    """One op per distinct node of K-free formulas, over the given atom
    columns, with one root per formula, in the order given.

    This is the bounded search's input check (_Ops.emit): a node outside
    E/S/A is rejected as soon as the walk meets it, atoms outside
    `atom_order` after the walk, all of them across the formulas, sorted.
    """
    ops = _Ops(atom_order)
    slot: dict[Formula, int] = {}
    ops.emit(subformulas(*formulas), slot)
    return ops.program(tuple(map(slot.__getitem__, formulas)))


def compile_instances(template, metas, corpus, atom_order) -> Program:
    """compile_program of every instance of a template, without building
    one: a root for each way of putting corpus formulas for the template's
    leaves `metas`, in itertools.product(corpus, repeat=len(metas)) order.

    The corpus is compiled once, then the template's other nodes are
    compiled once per substitution, with each of `metas` standing for its
    corpus formula's slot.  An instance node and the ops already emitted
    meet by key (_Ops), so the program has one op per distinct node across
    the instances, as compile_program of the instances has, and the same
    input check.
    """
    ops = _Ops(atom_order)
    slot: dict[Formula, int] = {}
    if metas:
        ops.emit(subformulas(*corpus), slot)
    corpus_slots = [slot[f] for f in corpus]
    steps = [g for g in subformulas(template) if g not in metas]
    roots = []
    for picks in product(corpus_slots, repeat=len(metas)):
        slot.update(zip(metas, picks))
        ops.emit(steps, slot)
        roots.append(slot[template])
    return ops.program(roots)


def prune(program: Program, keep) -> Program:
    """The program for its roots at the positions `keep`, in that order:
    the ops that no kept root reads are dropped, and the rest keep their
    order and are numbered again.  Each kept root's rows in a window are
    what they were."""
    ops = program.ops
    roots = [program.roots[i] for i in keep]
    top = max(roots, default=-1)
    needed = bytearray(top + 1)
    for r in roots:
        needed[r] = 1
    for t in range(top, -1, -1):
        if needed[t]:
            op, a, b = ops[t]
            if op != OP_ATOM:
                needed[a] = needed[b] = 1
    renumbered = [0] * (top + 1)
    kept: list[tuple[int, int, int]] = []
    for t in compress(range(top + 1), needed):
        op, a, b = ops[t]
        renumbered[t] = len(kept)
        if op != OP_ATOM:
            a, b = renumbered[a], renumbered[b]
        kept.append((op, a, b))
    return Program(tuple(kept), tuple([renumbered[r] for r in roots]))


@cache
def _low_planes(w: int) -> tuple[int, ...]:
    """For a window of 2^w codes, the int whose bit t is bit b of t, for
    each b < w, then the whole window.  Built by doubling: a period of
    2^b zeros and 2^b ones, copied up to 2^w bits."""
    size = 1 << w
    planes = []
    for b in range(w):
        p = ((1 << (1 << b)) - 1) << (1 << b)
        width = 2 << b
        while width < size:
            p |= p << width
            width <<= 1
        planes.append(p)
    planes.append((1 << size) - 1)
    return tuple(planes)


def atom_planes(n: int, k: int, start: int, w: int) -> list[int]:
    """The rows of k atoms over n states in the window of 2^w codes from
    `start` (a multiple of 2^w, and w at most n*k): code bit j*n + i at
    index j*n + i, then the whole window at index -1."""
    low = _low_planes(w)
    full = low[-1]
    high = [full if start >> b & 1 else 0 for b in range(w, n * k)]
    return [*low[:-1], *high, full]


def eval_chunk(program: Program, planes: list[int], ends) -> dict:
    """{root slot: rows} over one window for the roots that fail at some
    state of some model in the window, and nothing for a root that holds
    throughout, so {} when every root does.  rows is one int per state, or
    a single row that stands for every state when the root is held as one
    int.  planes come from atom_planes, ends are the partition's block
    ends (state i is in the block that ends first past i)."""
    n = ends[-1]
    full = planes[-1]
    spans = list(zip([0, *ends], ends))
    blocks = len(spans)
    negated = program.negated
    ops = program.ops
    frees = program.frees
    slots: list = [None] * len(ops)
    failing = {}
    done = 0
    # every op up to the next root, then that root, reduced before its
    # slot can be freed
    for root in program.stops:
        for t in range(done, root + 1):
            op, a, b = ops[t]
            if op == OP_ATOM:
                # an atom reads no slot, and its rows are the planes' own
                # ints, so an atom root that no op reads may keep them
                slots[t] = ext = full if a < 0 else planes[a * n : a * n + n]
                continue
            x = slots[a]
            if op == OP_NOT:
                ext = x
            elif op == OP_AND:
                y = slots[b]
                if negated[a] == negated[b]:
                    f = or_ if negated[a] else and_
                else:
                    f = _and_not
                    if negated[a]:
                        x, y = y, x
                if type(x) is int and type(y) is int:
                    ext = f(x, y)
                elif type(x) is int or type(y) is int or len(x) != len(y):
                    ext = _broadcast(f, x, y, spans)
                elif f is _and_not:
                    # _and_not row by row, without a Python call per row
                    ext = list(map(xor, x, map(and_, x, y)))
                else:
                    ext = list(map(f, x, y))
            elif op == OP_A:
                ext = x if type(x) is int else reduce(or_ if negated[a] else and_, x)
            elif type(x) is int or len(x) == blocks:
                # the same on each block: S keeps it and E finds no block split
                ext = x if op == OP_S else full
            elif op == OP_S:
                f = and_ if negated[a] else or_
                ext = [reduce(f, x[s:e]) for s, e in spans]
            else:
                split = 0
                for s, e in spans:
                    if e - s > 1:
                        rows = x[s:e]
                        split |= reduce(or_, rows) ^ reduce(and_, rows)
                ext = full ^ split
            slots[t] = ext
            for s in frees[t]:
                slots[s] = None
        rows = _failing_rows(ext, negated[root], full, spans, n)
        if rows is not None:
            failing[root] = rows
        done = root + 1
    return failing


def _failing_rows(x, negated: bool, full: int, spans, n: int) -> list[int] | None:
    """A root's value x as rows of its own polarity, one per state or one
    standing for every state; None when every row is the whole window."""
    if type(x) is int:
        x = full ^ x if negated else x
        return None if x == full else [x]
    if negated:
        if not reduce(or_, x):
            return None
        x = list(map(full.__xor__, x))
    elif reduce(and_, x) == full:
        return None
    if len(x) < n:
        x = [v for v, (s, e) in zip(x, spans) for _ in range(s, e)]
    return x


def _and_not(u: int, v: int) -> int:
    """u & ~v, without the negative int that ~v would make."""
    return u ^ (u & v)


def _broadcast(f, x, y, spans) -> list[int]:
    """f(x, y) row by row for operands of different shapes, the coarser
    one repeated over the finer one's rows."""
    if type(x) is int:
        return [f(x, v) for v in y]
    if type(y) is int:
        return [f(u, y) for u in x]
    if len(x) < len(y):
        return [f(u, v) for u, (s, e) in zip(x, spans) for v in y[s:e]]
    return [f(u, v) for v, (s, e) in zip(y, spans) for u in x[s:e]]
