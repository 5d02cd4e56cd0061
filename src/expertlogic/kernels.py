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
so one word op evaluates 64 models.  A slot is a uint64 array of shape
(P, n, W) for a batch of P partitions of n states and a window of W
words of valuation codes.  In row i, bit t of word w says whether state
i is in the extension of the model with valuation code 64*(first + w) + t
under partition p.  Code bit j*n + i is atom j's value at state i, so an
atom's rows are constants: for code bits below 6 a fixed word (0xAAAA...,
0xCCCC..., 0xF0F0..., ...), for higher bits a pattern of all-ones and
all-zero words (atom_planes).  Rows or partitions that do not vary are
kept as axes of length 1 and broadcast: an atom is (1, n, W), and E and A
give (P, 1, W).

Opcodes, as (opcode, a, b) with slot[a] and slot[b] the operands::

    OP_ATOM  slot = planes[a]        (a == -1 gives the whole space: T)
    OP_NOT   ~slot[a]
    OP_AND   slot[a] & slot[b]
    OP_E     AND over rows of ~(S slot[a] ^ slot[a]): ||f|| is a union
             of blocks exactly when it equals its block-closure
    OP_S     block-closure: row i is the OR of the rows in i's block,
             selected by the all-ones/all-zero (P, n, n) mask `same`
    OP_A     AND over rows of slot[a]

Unary ops repeat their operand in b.  Bits of a word past the end of the
code space are evaluated like any other; first_failure, which reduces a
root slot to the least falsified model and its least falsified state,
ignores them.  The test suite pins the kernel to the pure-Python
evaluators in semantics.

Memory.  validity imports this module, and numpy with it, at the first
search, so the other commands never load numpy.  A batch's arrays are
freed when it ends, and glibc's malloc gives a free heap top larger than
its trim threshold (128 KiB at start) back to the system.  Without care
the next search then faults the same pages in again: 1,600 to 2,300
minor faults per search for p -> S p at 6 states over {p, q, r}, against
none with the step below.  Freeing a block that malloc served by mmap
raises the mmap threshold to that block's size and the trim threshold to
twice that (the dynamic mmap threshold of mallopt(3)).  So importing this
module allocates and frees one 8 MiB block, larger than any array a
batch allocates; atom_planes is the largest, at most k * validity._BUDGET
words, 6 MiB at 48 atoms.  From then on every batch array comes from the
heap, and its pages stay mapped for the next search.  The block is never
written, so it costs no resident memory, and an allocator without that
rule ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formula import (
    And,
    Atom,
    Formula,
    ModalA,
    ModalE,
    ModalS,
    Not,
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

# keeps freed batch pages mapped between searches (module docstring)
np.empty(8 << 20, dtype=np.uint8)

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# for code bits b < 6, the word whose bit t is bit b of t: 0xAAAA...,
# 0xCCCC..., 0xF0F0..., 0xFF00..., 0xFFFF0000..., 0xFFFFFFFF00000000
_LOW_WORDS = np.array(
    [sum(1 << t for t in range(64) if t >> b & 1) for b in range(6)], dtype=np.uint64
)


@dataclass(frozen=True)
class Program:
    """One formula as (opcode, a, b) ops, fixed to an atom order.

    frees[t] lists the slots whose last reader is op t; the root's slot is
    never freed.
    """

    ops: tuple[tuple[int, int, int], ...]
    atom_order: tuple[str, ...]
    frees: tuple[tuple[int, ...], ...]


def compile_program(f: Formula, atom_order) -> Program:
    """One op per distinct node of a K-free formula, over the given atom
    columns.

    This is the bounded search's input check.  A node outside E/S/A (K,
    or a proof metavariable) is rejected as soon as the walk meets it;
    atoms outside `atom_order` are rejected after the walk, all of them,
    sorted.  The constant T needs no column: it compiles to an atom op
    reading column -1, the whole space.
    """
    index = {a: i for i, a in enumerate(atom_order)}
    slot: dict[Formula, int] = {}
    ops: list[tuple[int, int, int]] = []
    last_reader: dict[int, int] = {}
    loose: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, Top):
            ops.append((OP_ATOM, -1, -1))
        elif isinstance(g, Atom):
            column = index.get(g.name, -1)
            if g.name not in index:
                loose.add(g.name)
            ops.append((OP_ATOM, column, column))
        elif type(g) in _OPCODE:
            a, b = slot[g.children[0]], slot[g.children[-1]]
            last_reader[a] = last_reader[b] = len(ops)
            ops.append((_OPCODE[type(g)], a, b))
        else:
            raise ValueError("bounded search covers only E/S/A formulas")
        slot[g] = len(ops) - 1
    if loose:
        raise ValueError(
            "formula mentions atoms outside the search valuations: "
            + ", ".join(sorted(loose))
        )
    frees: list[tuple[int, ...]] = [()] * len(ops)
    for s, t in last_reader.items():
        frees[t] += (s,)
    return Program(ops=tuple(ops), atom_order=tuple(atom_order), frees=tuple(frees))


def atom_planes(n: int, k: int, first: int, words: int) -> np.ndarray:
    """The rows of k atoms over n states in the code window of `words`
    words starting at word `first`, as a (k, n, words) uint64 array."""
    bits = n * k
    planes = np.empty((bits, words), dtype=np.uint64)
    low = min(bits, 6)
    planes[:low] = _LOW_WORDS[:low, None]
    if bits > 6:
        w = np.arange(first, first + words, dtype=np.uint64)
        high = np.arange(bits - 6, dtype=np.uint64)[:, None]
        planes[6:] = ((w >> high) & np.uint64(1)) * _ALL_ONES
    return planes.reshape(k, n, words)


def same_block(rgss) -> np.ndarray:
    """The (P, n, n) mask of P partitions given as restricted growth
    strings: all-ones where states i and j share a block, else zero."""
    r = np.asarray(rgss)
    return np.where(r[:, :, None] == r[:, None, :], _ALL_ONES, np.uint64(0))


def _saturate(f: np.ndarray, same: np.ndarray) -> np.ndarray:
    # one column of the mask at a time, so no temporary outgrows a slot;
    # a slot with one row is the same at every state, hence its own closure
    if f.shape[1] == 1:
        return f
    out = same[:, :, 0, None] & f[:, None, 0]
    for j in range(1, f.shape[1]):
        out |= same[:, :, j, None] & f[:, None, j]
    return out


def eval_chunk(program: Program, planes: np.ndarray, same: np.ndarray) -> np.ndarray:
    """Extensions of the compiled formula across a batch: planes from
    atom_planes, same from same_block.  Returns the root's slot, of shape
    (P or 1, n or 1, W)."""
    words = planes.shape[-1]
    slots: list[np.ndarray | None] = [None] * len(program.ops)
    for t, (op, a, b) in enumerate(program.ops):
        if op == OP_ATOM:
            ext = planes[None, a] if a >= 0 else np.full((1, 1, words), _ALL_ONES)
        elif op == OP_NOT:
            ext = ~slots[a]
        elif op == OP_AND:
            ext = slots[a] & slots[b]
        elif op == OP_S:
            ext = _saturate(slots[a], same)
        elif op == OP_E:
            f = slots[a]
            ext = np.bitwise_and.reduce(~(_saturate(f, same) ^ f), axis=1, keepdims=True)
        else:
            ext = np.bitwise_and.reduce(slots[a], axis=1, keepdims=True)
        slots[t] = ext
        for s in program.frees[t]:
            slots[s] = None
    return slots[-1]


def first_failure(out: np.ndarray, per: int) -> tuple[int, int] | None:
    """The least model of a batch where the root slot `out` is not the
    whole space, as (position, state): the position counts partition-major
    and then by code, with `per` codes in each partition's window, and the
    state is the least one outside the extension.  None if every model
    holds.  Bits of a one-word window past `per` are ignored."""
    fails = ~np.bitwise_and.reduce(out, axis=1)
    if per < 64:
        fails &= np.uint64((1 << per) - 1)
    ps, ws = fails.nonzero()
    if not ps.size:
        return None
    p, w = int(ps[0]), int(ws[0])
    word = int(fails[p, w])
    t = (word & -word).bit_length() - 1
    rows = out[p, :, w].tolist()
    return p * per + w * 64 + t, next(i for i, r in enumerate(rows) if not r >> t & 1)

