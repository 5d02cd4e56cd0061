"""Bit-sliced evaluation kernel for the bounded search.

A formula is compiled once into a program: one op per distinct
subformula, in formula.subformulas order (children first), so a
subformula that recurs is evaluated once.  Op t writes slot t and reads
its operands from earlier slots by index; the last slot holds the
formula's extension.  compile_program also records, for each op, the
slots it is the last reader of, and eval_chunk drops those slots after
the op, so only the live part of the program holds memory.

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
back to the system.  Without care the next search then faults the same
pages in again: about 60 minor faults per search for p -> S p at 6
states over {p, q, r} or over {p, q, r, s}, against none with the step
below.  Freeing a block that malloc served by mmap raises the mmap
threshold to that block's size and the trim threshold to twice that
(the dynamic mmap threshold of mallopt(3)).  So importing this module allocates and frees
one zeroed 8 MiB block, larger than any int a window holds (at most
2^WINDOW_BITS bits, 32 KiB).  From then on the search's ints come from
the heap, and their pages stay mapped for the next search.  The block
comes from calloc and is never written, so it costs no resident memory,
and an allocator without that rule ignores it.
"""

from __future__ import annotations

from functools import cache, reduce
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

# keeps freed window pages mapped between searches (module docstring)
bytes(8 << 20)


class Program(Record):
    """One formula as (opcode, a, b) ops, fixed to an atom order.

    negated[t] is op t's polarity: whether slot t holds the complement of
    op t's value.  frees[t] lists the slots whose last reader is op t; the
    root's slot is never freed.
    """

    ops: tuple[tuple[int, int, int], ...]
    atom_order: tuple[str, ...]
    frees: tuple[tuple[int, ...], ...]
    negated: tuple[bool, ...]

    def __init__(self, ops, atom_order, frees, negated):
        values = self.__dict__
        values["ops"] = ops
        values["atom_order"] = atom_order
        values["frees"] = frees
        values["negated"] = negated


def compile_program(f: Formula, atom_order) -> Program:
    """One op per distinct node of a K-free formula, over the given atom
    columns.

    This is the bounded search's input check.  A node outside E/S/A (K,
    or a proof metavariable) is rejected as soon as the walk meets it;
    atoms outside `atom_order` are rejected after the walk, all of them,
    sorted.  The constant T needs no column: it compiles to an atom op
    reading column -1, the whole window.
    """
    index = {a: i for i, a in enumerate(atom_order)}
    slot: dict[Formula, int] = {}
    ops: list[tuple[int, int, int]] = []
    negated: list[bool] = []
    last_reader: dict[int, int] = {}
    loose: set[str] = set()
    for g in subformulas(f):
        kind = type(g)
        if kind is Atom:
            column = index.get(g.name, -1)
            if column < 0:
                loose.add(g.name)
            op, neg = (OP_ATOM, column, column), False
        elif kind is Top:
            op, neg = (OP_ATOM, -1, -1), False
        elif kind in _OPCODE:
            a, b = slot[g.children[0]], slot[g.children[-1]]
            last_reader[a] = last_reader[b] = len(ops)
            op = (_OPCODE[kind], a, b)
            # ~ flips its operand's polarity, E is never negated, and &, S
            # and A are negated iff every operand is
            if kind is Not:
                neg = not negated[a]
            else:
                neg = kind is not ModalE and negated[a] and negated[b]
        else:
            raise ValueError("bounded search covers only E/S/A formulas")
        slot[g] = len(ops)
        ops.append(op)
        negated.append(neg)
    if loose:
        raise ValueError(
            "formula mentions atoms outside the search valuations: "
            + ", ".join(sorted(loose))
        )
    frees: list[tuple[int, ...]] = [()] * len(ops)
    for s, t in last_reader.items():
        frees[t] += (s,)
    return Program(
        ops=tuple(ops),
        atom_order=tuple(atom_order),
        frees=tuple(frees),
        negated=tuple(negated),
    )


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


def eval_chunk(program: Program, planes: list[int], ends) -> list[int]:
    """The root's rows over one window: planes from atom_planes, ends the
    partition's block ends (state i is in the block that ends first past
    i).  A root held per state or per block comes back as one int per
    state; a root held as one int as a single row that stands for every
    state."""
    n = ends[-1]
    full = planes[-1]
    spans = list(zip([0, *ends], ends))
    blocks = len(spans)
    negated = program.negated
    slots: list = [None] * len(program.ops)
    for t, (op, a, b) in enumerate(program.ops):
        if op == OP_ATOM:
            slots[t] = full if a < 0 else planes[a * n : a * n + n]
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
        for s in program.frees[t]:
            slots[s] = None
    root = slots[-1]
    if type(root) is int:
        root = [root]
    elif len(root) < n:
        root = [v for v, (s, e) in zip(root, spans) for _ in range(s, e)]
    return list(map(full.__xor__, root)) if negated[-1] else root


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
