"""The compiled batch kernel against the reference evaluators.

eval_chunk must agree bit for bit with the pure-Python evaluators in
semantics on every model it can express.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from expertlogic.formula import And, Atom, parse, to_knowledge_form
from expertlogic.kernels import (
    OP_AND,
    OP_ATOM,
    OP_E,
    OP_NOT,
    OP_S,
    compile_program,
    eval_chunk,
)
from expertlogic.model import ExpertiseModel, Partition, to_s5_model
from expertlogic.proofs import PHI
from expertlogic.semantics import extension, extension_relational

from reference import ref_partitions
from strategies import formulas

BATTERY = [
    "p",
    "~p",
    "p & q",
    "p | q",
    "p -> q",
    "T",
    "F",
    "E p",
    "E (p -> q)",
    "S p",
    "S (p & ~q)",
    "~S ~p",
    "A p",
    "A (S p -> p)",
    "E p & ~E q",
    "E (p -> q) -> E p -> E q",
]


def _states(n):
    return tuple(f"x{i}" for i in range(n))


def _partition_from_sets(blocks, states):
    index = {s: i for i, s in enumerate(states)}
    masks = []
    for block in blocks:
        m = 0
        for s in block:
            m |= 1 << index[s]
        masks.append(m)
    return Partition.from_blocks(masks)


def _sbm(partition, n):
    return np.asarray([partition.block_of(1 << i) for i in range(n)], dtype=np.int64)


class TestCompile:
    def test_postfix_order(self):
        prog = compile_program(parse("E p & ~q"), ("p", "q"))
        assert prog.ops == (
            (OP_ATOM, 0, 0),
            (OP_E, 0, 0),
            (OP_ATOM, 1, 1),
            (OP_NOT, 2, 2),
            (OP_AND, 1, 3),
        )
        assert prog.atom_order == ("p", "q")

    def test_atom_columns_follow_given_order(self):
        prog = compile_program(parse("q & p"), ("q", "p"))
        assert [a for op, a, _ in prog.ops if op == OP_ATOM] == [0, 1]

    def test_constants_use_reserved_column(self):
        prog = compile_program(parse("T"), ("p",))
        assert [a for op, a, _ in prog.ops if op == OP_ATOM] == [-1]

    def test_repeated_subformulas_compile_once(self):
        # p, q, p & q, q & (p & q), and the whole: the inner p and q reuse
        # the slots of the outer ones
        prog = compile_program(parse("p & (q & (p & q))"), ("p", "q"))
        assert prog.ops == (
            (OP_ATOM, 0, 0),
            (OP_ATOM, 1, 1),
            (OP_AND, 0, 1),
            (OP_AND, 1, 2),
            (OP_AND, 0, 3),
        )

    def test_unbound_atom_rejected(self):
        with pytest.raises(ValueError, match="outside the search valuations"):
            compile_program(parse("p & r"), ("p", "q"))

    def test_knowledge_operator_rejected(self):
        with pytest.raises(ValueError, match="E/S/A"):
            compile_program(parse("K p"), ("p",))

    def test_schema_metavariable_rejected(self):
        with pytest.raises(ValueError, match="E/S/A"):
            compile_program(And(Atom("p"), PHI), ("p",))

    def test_s_and_e_are_distinct_opcodes(self):
        prog = compile_program(parse("E S p"), ("p",))
        assert [op for op, _, _ in prog.ops] == [OP_ATOM, OP_S, OP_E]


class TestAgainstSemantics:
    def test_matches_extension_on_all_tiny_models(self):
        atoms = ("p", "q")
        programs = [compile_program(parse(t), atoms) for t in BATTERY]
        for n in (1, 2, 3):
            states = _states(n)
            codes = np.arange(1 << (n * len(atoms)), dtype=np.int64)
            shifts = np.asarray([j * n for j in range(len(atoms))], dtype=np.int64)
            full = (1 << n) - 1
            vals = (codes[:, None] >> shifts[None, :]) & full
            for blocks in ref_partitions(set(states)):
                partition = _partition_from_sets(blocks, states)
                sbm = _sbm(partition, n)
                models = [
                    ExpertiseModel(
                        states,
                        partition,
                        tuple(
                            (a, int(vals[m, j])) for j, a in enumerate(atoms)
                        ),
                    )
                    for m in range(len(codes))
                ]
                for text, prog in zip(BATTERY, programs):
                    out = eval_chunk(prog, sbm, vals)
                    f = parse(text)
                    for m, model in enumerate(models):
                        assert out[m] == extension(model, f), (
                            text,
                            n,
                            blocks,
                            int(vals[m, 0]),
                            int(vals[m, 1]),
                        )

    def test_repeated_runs_are_identical(self):
        prog = compile_program(parse("E (p -> q) -> E p -> E q"), ("p", "q"))
        states = _states(3)
        partition = _partition_from_sets([{"x0", "x1"}, {"x2"}], states)
        sbm = _sbm(partition, 3)
        vals = (np.arange(64, dtype=np.int64)[:, None] >> np.asarray([0, 3])) & 7
        first = eval_chunk(prog, sbm, vals)
        second = eval_chunk(prog, sbm, vals)
        assert np.array_equal(first, second)


ATOMS = ("p", "q", "r")


@st.composite
def batches(draw):
    """(n <= 3, a random partition of n states, a few valuation rows over
    ATOMS)."""
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: dict[int, int] = {}
    for i, label in enumerate(labels):
        blocks[label] = blocks.get(label, 0) | 1 << i
    row = st.lists(st.integers(0, (1 << n) - 1), min_size=len(ATOMS), max_size=len(ATOMS))
    vals = draw(st.lists(row, min_size=1, max_size=8))
    return n, Partition.from_blocks(list(blocks.values())), np.asarray(vals, dtype=np.int64)


@given(formulas(ATOMS, with_k=False), batches())
def test_eval_chunk_matches_both_evaluators(f, batch):
    """Bit for bit against the literal clauses and against the knowledge
    form on the induced relational model."""
    n, partition, vals = batch
    out = eval_chunk(compile_program(f, ATOMS), _sbm(partition, n), vals)
    knowledge = to_knowledge_form(f)
    for row, ext in zip(vals.tolist(), out.tolist()):
        model = ExpertiseModel(_states(n), partition, tuple(zip(ATOMS, row)))
        assert ext == extension(model, f, mode="literal")
        assert ext == extension_relational(to_s5_model(model), knowledge)
