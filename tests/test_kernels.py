"""The compiled batch kernel against the reference evaluators.

eval_chunk must agree bit for bit with the pure-Python evaluators in
semantics on every model it can express: bit t of word w in row i of
partition p is state i under that partition and the valuation code
64 * (first + w) + t, where atom j's extension is bits [j*n, (j+1)*n) of
the code.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from expertlogic.formula import And, Atom, parse, subformulas, to_knowledge_form
from expertlogic.kernels import (
    OP_AND,
    OP_ATOM,
    OP_E,
    OP_NOT,
    OP_S,
    atom_planes,
    compile_program,
    eval_chunk,
    same_block,
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


def _model(n, rgs, atoms, code):
    blocks: dict[int, int] = {}
    for i, label in enumerate(rgs):
        blocks[label] = blocks.get(label, 0) | 1 << i
    full = (1 << n) - 1
    valuation = tuple((a, (code >> (j * n)) & full) for j, a in enumerate(atoms))
    return ExpertiseModel(_states(n), Partition.from_blocks(blocks.values()), valuation)


def _extension_at(out, p, w, t):
    """The extension held by bit t of word w in partition p of a kernel
    result, as a state mask (rows and partitions may be broadcast)."""
    rows = out[p if out.shape[0] > 1 else 0, :, w].tolist()
    if len(rows) == 1:
        return -(rows[0] >> t & 1)  # every state or none
    return sum((r >> t & 1) << i for i, r in enumerate(rows))


def _run(prog, n, rgss, first, words):
    planes = atom_planes(n, len(prog.atom_order), first, words)
    return eval_chunk(prog, planes, same_block(rgss))


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

    def test_constant_true_is_one_op_holding_the_whole_space(self):
        prog = compile_program(parse("T"), ("p",))
        assert prog.ops == ((OP_ATOM, -1, -1),)
        out = _run(prog, 2, [(0, 1), (0, 0)], 0, 1)
        assert (out == np.uint64(0xFFFF_FFFF_FFFF_FFFF)).all()

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

    def test_slots_are_freed_by_their_last_reader(self):
        # p, q, p & q, q & (p & q), p & (q & (p & q)): p is last read by
        # op 4, q by op 3, p & q by op 3, q & (p & q) by op 4
        prog = compile_program(parse("p & (q & (p & q))"), ("p", "q"))
        assert [sorted(f) for f in prog.frees] == [[], [], [], [1, 2], [0, 3]]


@given(formulas(("p", "q", "r"), with_k=False))
def test_every_slot_but_the_root_is_freed_once_after_its_last_read(f):
    prog = compile_program(f, ("p", "q", "r"))
    last = {}
    for t, (op, a, b) in enumerate(prog.ops):
        if op != OP_ATOM:
            last[a] = last[b] = t
    freed = sorted(s for frees in prog.frees for s in frees)
    assert freed == sorted(last)
    assert len(prog.ops) - 1 not in freed
    for t, frees in enumerate(prog.frees):
        assert all(last[s] == t for s in frees)
    assert len(prog.ops) == len(list(subformulas(f)))


class TestAgainstSemantics:
    def test_matches_extension_on_all_tiny_models(self):
        """All partitions of up to 3 states as one batch each, over {p, q}:
        4 and 16 codes leave most of the word past the code space, 64
        fill it."""
        for n in (1, 2, 3):
            self._check_window(n, 0, 1)

    @pytest.mark.parametrize("first, words", [(0, 4), (2, 2), (3, 1)])
    def test_matches_extension_on_a_multi_word_window(self, first, words):
        # 4 states over {p, q}: 256 codes, 4 words
        self._check_window(4, first, words)

    def _check_window(self, n, first, words):
        """Every partition of n states in one batch, every code of the
        window, every formula of the battery."""
        atoms = ("p", "q")
        states = _states(n)
        rgss = [
            _canonical([next(j for j, b in enumerate(blocks) if s in b) for s in states])
            for blocks in ref_partitions(set(states))
        ]
        codes = range(first * 64, min(1 << (n * len(atoms)), (first + words) * 64))
        models = [[_model(n, rgs, atoms, c) for c in codes] for rgs in rgss]
        for text in BATTERY:
            f = parse(text)
            out = _run(compile_program(f, atoms), n, rgss, first, words)
            for p, row in enumerate(models):
                for c, model in zip(codes, row):
                    w, t = divmod(c - first * 64, 64)
                    assert _extension_at(out, p, w, t) & model.full_mask == extension(
                        model, f
                    ), (text, rgss[p], c)

    def test_repeated_runs_are_identical(self):
        prog = compile_program(parse("E (p -> q) -> E p -> E q"), ("p", "q"))
        rgss = [(0, 0, 1), (0, 1, 2)]
        first = _run(prog, 3, rgss, 0, 1)
        second = _run(prog, 3, rgss, 0, 1)
        assert np.array_equal(first, second)


ATOMS = ("p", "q", "r")


@st.composite
def batches(draw):
    """(n <= 3, a few partitions of n states as restricted growth strings,
    a window of the code space over ATOMS, and some codes in it).  Code
    spaces of 8 and 64 codes fit one word; 512 codes take 8 words."""
    n = draw(st.integers(1, 3))
    rgs = st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(_canonical)
    rgss = draw(st.lists(rgs, min_size=1, max_size=4))
    total_words = max(1, (1 << (n * len(ATOMS))) >> 6)
    first = draw(st.integers(0, total_words - 1))
    words = draw(st.integers(1, total_words - first))
    size = min(1 << (n * len(ATOMS)), words * 64)
    codes = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8))
    return n, rgss, first, words, codes


def _canonical(labels):
    """The restricted growth string of the partition the labels induce."""
    seen: dict[int, int] = {}
    return tuple(seen.setdefault(label, len(seen)) for label in labels)


@given(formulas(ATOMS, with_k=False), batches())
def test_eval_chunk_matches_both_evaluators(f, batch):
    """Bit for bit against the literal clauses and against the knowledge
    form on the induced relational model."""
    n, rgss, first, words, offsets = batch
    out = _run(compile_program(f, ATOMS), n, rgss, first, words)
    assert out.shape[2] == words and out.shape[0] in (1, len(rgss))
    knowledge = to_knowledge_form(f)
    for p, rgs in enumerate(rgss):
        for offset in offsets:
            model = _model(n, rgs, ATOMS, first * 64 + offset)
            ext = _extension_at(out, p, *divmod(offset, 64)) & model.full_mask
            assert ext == extension(model, f, mode="literal")
            assert ext == extension_relational(to_s5_model(model), knowledge)
