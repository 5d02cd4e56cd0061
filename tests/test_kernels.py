"""Compiled batch kernels against the reference evaluator.

The two kernel backends (numba, numpy) must agree bit for bit with the
pure-Python evaluator in semantics on every model they can express.
"""

import numpy as np
import pytest
from hypothesis import given

from expertlogic.formula import parse
from expertlogic.kernels import (
    HAVE_NUMBA,
    OP_A,
    OP_AND,
    OP_E,
    OP_NOT,
    OP_PUSH_ATOM,
    OP_S,
    available_backends,
    compile_program,
    eval_chunk,
)
from expertlogic.model import ExpertiseModel, Partition
from expertlogic.semantics import extension

from reference import ref_partitions, ref_postfix
from strategies import formulas

BACKENDS = available_backends()

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
        assert prog.ops.tolist() == [OP_PUSH_ATOM, OP_E, OP_PUSH_ATOM, OP_NOT, OP_AND]
        assert prog.args.tolist() == [0, 0, 1, 0, 0]
        assert prog.stack_need == 2
        assert prog.atom_order == ("p", "q")

    def test_atom_columns_follow_given_order(self):
        prog = compile_program(parse("q & p"), ("q", "p"))
        pushes = prog.args[prog.ops == OP_PUSH_ATOM]
        assert pushes.tolist() == [0, 1]

    def test_constants_use_reserved_column(self):
        prog = compile_program(parse("T"), ("p",))
        pushes = prog.args[prog.ops == OP_PUSH_ATOM]
        assert (pushes == -1).all()

    def test_stack_need_grows_with_conjunction_width(self):
        prog = compile_program(parse("p & (q & (p & q))"), ("p", "q"))
        assert prog.stack_need == 4

    def test_unbound_atom_rejected(self):
        with pytest.raises(ValueError, match="not bound"):
            compile_program(parse("p & r"), ("p", "q"))

    def test_knowledge_operator_rejected(self):
        with pytest.raises(ValueError, match="E/S/A"):
            compile_program(parse("K p"), ("p",))

    def test_s_and_e_are_distinct_opcodes(self):
        prog = compile_program(parse("E S p"), ("p",))
        assert prog.ops.tolist() == [OP_PUSH_ATOM, OP_S, OP_E]


class TestAgainstSemantics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_extension_on_all_tiny_models(self, backend):
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
                    out = eval_chunk(prog, sbm, vals, backend)
                    f = parse(text)
                    for m, model in enumerate(models):
                        assert out[m] == extension(model, f), (
                            backend,
                            text,
                            n,
                            blocks,
                            int(vals[m, 0]),
                            int(vals[m, 1]),
                        )

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not importable")
    def test_backends_agree_on_a_large_batch(self):
        atoms = ("p", "q")
        n = 4
        states = _states(n)
        partition = _partition_from_sets([{"x0", "x2"}, {"x1"}, {"x3"}], states)
        sbm = _sbm(partition, n)
        codes = np.arange(1 << (n * len(atoms)), dtype=np.int64)
        shifts = np.asarray([0, n], dtype=np.int64)
        vals = (codes[:, None] >> shifts[None, :]) & ((1 << n) - 1)
        for text in BATTERY:
            prog = compile_program(parse(text), atoms)
            a = eval_chunk(prog, sbm, vals, "numba")
            b = eval_chunk(prog, sbm, vals, "numpy")
            assert np.array_equal(a, b), text

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_repeated_runs_are_identical(self, backend):
        prog = compile_program(parse("E (p -> q) -> E p -> E q"), ("p", "q"))
        states = _states(3)
        partition = _partition_from_sets([{"x0", "x1"}, {"x2"}], states)
        sbm = _sbm(partition, 3)
        vals = (np.arange(64, dtype=np.int64)[:, None] >> np.asarray([0, 3])) & 7
        first = eval_chunk(prog, sbm, vals, backend)
        second = eval_chunk(prog, sbm, vals, backend)
        assert np.array_equal(first, second)

    def test_unknown_backend_rejected(self):
        prog = compile_program(parse("p"), ("p",))
        sbm = np.asarray([1], dtype=np.int64)
        vals = np.asarray([[1]], dtype=np.int64)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            eval_chunk(prog, sbm, vals, "fortran")


OPCODE = {
    "push": OP_PUSH_ATOM,
    "Not": OP_NOT,
    "And": OP_AND,
    "ModalE": OP_E,
    "ModalS": OP_S,
    "ModalA": OP_A,
}


@given(formulas(with_k=False))
def test_program_matches_recursive_postfix(f):
    atoms = ("p", "q", "r")
    prog = compile_program(f, atoms)
    listing, need = ref_postfix(f, atoms)
    assert prog.ops.tolist() == [OPCODE[mnemonic] for mnemonic, _ in listing]
    assert prog.args.tolist() == [column for _, column in listing]
    assert prog.stack_need == need
