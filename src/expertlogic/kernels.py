"""Batch evaluation kernels for the bounded search.

A formula is compiled once into a postfix program over int64 extension
masks (bit i = state i).  A chunk of work is one partition, given as the
per-state block mask `sbm`, crossed with a batch of valuations `vals`
(row = model, column = atom).  The kernel writes the formula's extension
in each model to `out`; the search layers on top never look inside.

Opcodes::

    PUSH_ATOM a   push vals[model, a]        (a == -1 pushes the empty set)
    NOT           complement within the space
    AND           intersect
    OP_E          whole space if the top is a union of blocks, else empty
    OP_S          block-closure of the top (union of blocks meeting it)
    OP_A          whole space if the top is the whole space, else empty

Two interchangeable implementations: a numba @njit(parallel=True) kernel
that walks models in prange, and a vectorised numpy fallback.
validity.resolve_engine picks one: an explicit argument, then the
EXPERTLOGIC_KERNEL environment variable, then 'numba' when importable.
Both produce identical outputs, and the test suite pins them to the
pure-Python evaluator in semantics.
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
    in_expertise_language,
)

try:
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

ENGINE_ENV = "EXPERTLOGIC_KERNEL"

OP_PUSH_ATOM = 0
OP_NOT = 1
OP_AND = 2
OP_E = 3
OP_S = 4
OP_A = 5

_OPCODE = {Not: OP_NOT, And: OP_AND, ModalE: OP_E, ModalS: OP_S, ModalA: OP_A}


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if HAVE_NUMBA else ("numpy",)


@dataclass(frozen=True)
class Program:
    """Postfix form of one formula, fixed to an atom order."""

    ops: np.ndarray
    args: np.ndarray
    stack_need: int
    atom_order: tuple[str, ...]


def compile_program(f: Formula, atom_order) -> Program:
    """Flatten a K-free formula to postfix over the given atom columns.

    Atoms outside `atom_order` are rejected, except the reserved 'top'
    introduced by the T/F sugar, which compiles to the constant empty set
    (its value cancels out of T and F either way).
    """
    if not in_expertise_language(f):
        raise ValueError("kernels evaluate only E/S/A formulas")
    index = {a: i for i, a in enumerate(atom_order)}
    ops: list[int] = []
    args: list[int] = []

    # nodes still to emit, each under the opcodes of the operators that
    # wait for it: postfix order, children left to right before their parent
    stack: list[Formula | int] = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, int):
            ops.append(g)
            args.append(0)
        elif isinstance(g, Atom):
            if g.name in index:
                ops.append(OP_PUSH_ATOM)
                args.append(index[g.name])
            elif g.name == RESERVED_TOP_ATOM:
                ops.append(OP_PUSH_ATOM)
                args.append(-1)
            else:
                raise ValueError(
                    f"atom {g.name!r} is not bound to a column in {atom_order}"
                )
        else:
            stack.append(_OPCODE[type(g)])
            stack.extend(reversed(g.children))
    depth = need = 0
    for op in ops:
        if op == OP_PUSH_ATOM:
            depth += 1
            need = max(need, depth)
        elif op == OP_AND:
            depth -= 1
    return Program(
        ops=np.asarray(ops, dtype=np.int64),
        args=np.asarray(args, dtype=np.int64),
        stack_need=need,
        atom_order=tuple(atom_order),
    )


if HAVE_NUMBA:

    @njit(parallel=True, cache=True)
    def _eval_numba(ops, args, sbm, vals, full, stack_need, out):  # pragma: no cover
        n = sbm.shape[0]
        for m in prange(out.shape[0]):
            stack = np.empty(stack_need, np.int64)
            sp = 0
            for t in range(ops.shape[0]):
                op = ops[t]
                if op == 0:  # PUSH_ATOM
                    a = args[t]
                    stack[sp] = vals[m, a] if a >= 0 else 0
                    sp += 1
                elif op == 1:  # NOT
                    stack[sp - 1] = full & ~stack[sp - 1]
                elif op == 2:  # AND
                    stack[sp - 2] = stack[sp - 2] & stack[sp - 1]
                    sp -= 1
                elif op == 5:  # A
                    stack[sp - 1] = full if stack[sp - 1] == full else 0
                else:  # E and S share the block-closure
                    ext = stack[sp - 1]
                    sat = 0
                    for i in range(n):
                        if (ext >> i) & 1:
                            sat |= sbm[i]
                    if op == 4:
                        stack[sp - 1] = sat
                    else:
                        stack[sp - 1] = full if sat == ext else 0
            out[m] = stack[0]


def _eval_numpy(ops, args, sbm, vals, full, stack_need, out):
    count = vals.shape[0]
    n = sbm.shape[0]
    stack = np.empty((stack_need, count), dtype=np.int64)
    sp = 0
    for t in range(len(ops)):
        op = int(ops[t])
        if op == OP_PUSH_ATOM:
            a = int(args[t])
            stack[sp] = vals[:, a] if a >= 0 else 0
            sp += 1
        elif op == OP_NOT:
            np.bitwise_and(full, ~stack[sp - 1], out=stack[sp - 1])
        elif op == OP_AND:
            np.bitwise_and(stack[sp - 2], stack[sp - 1], out=stack[sp - 2])
            sp -= 1
        elif op == OP_A:
            top = stack[sp - 1]
            stack[sp - 1] = np.where(top == full, np.int64(full), np.int64(0))
        else:
            ext = stack[sp - 1]
            sat = np.zeros(count, dtype=np.int64)
            for i in range(n):
                sat |= ((ext >> i) & 1) * sbm[i]
            if op == OP_S:
                stack[sp - 1] = sat
            else:
                stack[sp - 1] = np.where(sat == ext, np.int64(full), np.int64(0))
    out[:] = stack[0]


def eval_chunk(
    program: Program, sbm: np.ndarray, vals: np.ndarray, backend: str
) -> np.ndarray:
    """Extensions of the compiled formula across one partition x batch."""
    n = sbm.shape[0]
    full = np.int64((1 << n) - 1)
    out = np.empty(vals.shape[0], dtype=np.int64)
    if backend == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba backend requested but numba is not importable")
        _eval_numba(program.ops, program.args, sbm, vals, full, program.stack_need, out)
    elif backend == "numpy":
        _eval_numpy(program.ops, program.args, sbm, vals, full, program.stack_need, out)
    else:
        raise ValueError(f"unknown kernel backend {backend!r}")
    return out
