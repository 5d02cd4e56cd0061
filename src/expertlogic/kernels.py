"""Batch evaluation kernel for the bounded search.

A formula is compiled once into a program over int64 extension masks
(bit i = state i): one op per distinct subformula, in formula.subformulas
order (children first), so a subformula that recurs is evaluated once.
Op t writes slot t and reads its operands from earlier slots by index;
the last slot holds the formula's extension.  A chunk of work is one
partition, given as the per-state block mask `sbm`, crossed with a batch
of valuations `vals` (row = model, column = atom).  eval_chunk returns the
formula's extension in each model; the search layers on top never look
inside.

Opcodes, as (opcode, a, b) with slot[a] and slot[b] the operands::

    OP_ATOM  slot = vals[model, a]   (a == -1 gives the empty set)
    OP_NOT   complement of slot[a] within the space
    OP_AND   slot[a] & slot[b]
    OP_E     whole space if slot[a] is a union of blocks, else empty
    OP_S     block-closure of slot[a] (union of blocks meeting it)
    OP_A     whole space if slot[a] is the whole space, else empty

Unary ops repeat their operand in b.  The test suite pins the kernel to
the pure-Python evaluators in semantics.
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
    RESERVED_TOP_ATOM,
    subformulas,
)

OP_ATOM = 0
OP_NOT = 1
OP_AND = 2
OP_E = 3
OP_S = 4
OP_A = 5

_OPCODE = {Not: OP_NOT, And: OP_AND, ModalE: OP_E, ModalS: OP_S, ModalA: OP_A}


@dataclass(frozen=True)
class Program:
    """One formula as (opcode, a, b) ops, fixed to an atom order."""

    ops: tuple[tuple[int, int, int], ...]
    atom_order: tuple[str, ...]


def compile_program(f: Formula, atom_order) -> Program:
    """One op per distinct node of a K-free formula, over the given atom
    columns.

    This is the bounded search's input check.  A node outside E/S/A (K,
    or a proof metavariable) is rejected as soon as the walk meets it;
    atoms outside `atom_order` are rejected after the walk, all of them,
    sorted.  The reserved 'top' introduced by the T/F sugar needs no
    column: it compiles to the constant empty set (its value cancels out
    of T and F either way).
    """
    index = {RESERVED_TOP_ATOM: -1, **{a: i for i, a in enumerate(atom_order)}}
    slot: dict[Formula, int] = {}
    ops: list[tuple[int, int, int]] = []
    loose: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            column = index.get(g.name, -1)
            if g.name not in index:
                loose.add(g.name)
            ops.append((OP_ATOM, column, column))
        elif type(g) in _OPCODE:
            ops.append((_OPCODE[type(g)], slot[g.children[0]], slot[g.children[-1]]))
        else:
            raise ValueError("bounded search covers only E/S/A formulas")
        slot[g] = len(ops) - 1
    if loose:
        raise ValueError(
            "formula mentions atoms outside the search valuations: "
            + ", ".join(sorted(loose))
        )
    return Program(ops=tuple(ops), atom_order=tuple(atom_order))


def eval_chunk(program: Program, sbm: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Extensions of the compiled formula across one partition x batch."""
    n = sbm.shape[0]
    full = np.int64((1 << n) - 1)
    count = vals.shape[0]
    slots: list[np.ndarray] = []
    for op, a, b in program.ops:
        if op == OP_ATOM:
            ext = vals[:, a] if a >= 0 else np.zeros(count, dtype=np.int64)
        elif op == OP_NOT:
            ext = full & ~slots[a]
        elif op == OP_AND:
            ext = slots[a] & slots[b]
        elif op == OP_A:
            ext = np.where(slots[a] == full, full, np.int64(0))
        else:
            sat = np.zeros(count, dtype=np.int64)
            for i in range(n):
                sat |= ((slots[a] >> i) & 1) * sbm[i]
            ext = sat if op == OP_S else np.where(sat == slots[a], full, np.int64(0))
        slots.append(ext)
    return slots[-1]
