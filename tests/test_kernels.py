"""The compiled window kernel against the reference evaluators.

eval_chunk must agree bit for bit with the pure-Python evaluators in
semantics on every model it can express: bit t of row i is state i under
the partition with the given block ends and the valuation code start + t,
where atom j's extension is bits [j*n, (j+1)*n) of the code.  A root that
is the same at every state comes back as a single row, and a root that
holds throughout the window does not come back.
"""

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given

from expertlogic.formula import And, Atom, parse, subformulas, to_knowledge_form
from expertlogic.kernels import (
    OP_AND,
    OP_ATOM,
    OP_E,
    OP_NOT,
    OP_S,
    WINDOW_BITS,
    atom_planes,
    compile_program,
    eval_chunk,
)
from expertlogic.model import ExpertiseModel, Partition, to_s5_model
from expertlogic.proofs import PHI
from expertlogic.semantics import extension, extension_relational

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
    "S p & q",
    "S S p | E q",
    "A S ~p <-> S E p",
    "S p -> q",
    "q -> S p",
    "~S p & ~q",
    "E q -> p",
    "p | A ~q",
    "S ~p -> ~A ~S q",
]


def _states(n):
    return tuple(f"x{i}" for i in range(n))


def _compositions(n):
    """Block ends of every partition of n states into contiguous runs."""
    return [
        tuple(i for i in range(1, n + 1) if i == n or cuts >> (i - 1) & 1)
        for cuts in range(1 << (n - 1))
    ]


def _model(n, ends, atoms, code):
    starts = (0, *ends[:-1])
    blocks = [((1 << e) - 1) ^ ((1 << s) - 1) for s, e in zip(starts, ends)]
    full = (1 << n) - 1
    valuation = tuple((a, (code >> (j * n)) & full) for j, a in enumerate(atoms))
    return ExpertiseModel(_states(n), Partition.from_blocks(blocks), valuation)


def _extension_at(rows, t):
    """The extension held by bit t of a kernel result, as a state mask (a
    single row stands for every state)."""
    if len(rows) == 1:
        return -(rows[0] >> t & 1)  # every state or none
    return sum((r >> t & 1) << i for i, r in enumerate(rows))


def _run(prog, n, k, ends, start, w):
    """The rows of the program's one root; a root that holds in the whole
    window is missing from the kernel's result, read here as one row that
    is the whole window at every state."""
    planes = atom_planes(n, k, start, w)
    [root] = prog.roots
    failing = eval_chunk(prog, planes, ends)
    assert failing.keys() <= {root}
    return failing.get(root, [planes[-1]])


class TestCompile:
    def test_postfix_order(self):
        prog = compile_program([parse("E p & ~q")], ("p", "q"))
        assert prog.ops == (
            (OP_ATOM, 0, 0),
            (OP_E, 0, 0),
            (OP_ATOM, 1, 1),
            (OP_NOT, 2, 2),
            (OP_AND, 1, 3),
        )

    def test_atom_columns_follow_given_order(self):
        prog = compile_program([parse("q & p")], ("q", "p"))
        assert [a for op, a, _ in prog.ops if op == OP_ATOM] == [0, 1]

    def test_constants_use_reserved_column(self):
        prog = compile_program([parse("T")], ("p",))
        assert [a for op, a, _ in prog.ops if op == OP_ATOM] == [-1]

    def test_constant_true_is_one_op_holding_the_whole_space(self):
        prog = compile_program([parse("T")], ("p",))
        assert prog.ops == ((OP_ATOM, -1, -1),)
        for ends in ((1, 2), (2,)):
            assert _run(prog, 2, 1, ends, 0, 2) == [0b1111]

    def test_repeated_subformulas_compile_once(self):
        # p, q, p & q, q & (p & q), and the whole: the inner p and q reuse
        # the slots of the outer ones
        prog = compile_program([parse("p & (q & (p & q))")], ("p", "q"))
        assert prog.ops == (
            (OP_ATOM, 0, 0),
            (OP_ATOM, 1, 1),
            (OP_AND, 0, 1),
            (OP_AND, 1, 2),
            (OP_AND, 0, 3),
        )

    def test_unbound_atom_rejected(self):
        with pytest.raises(ValueError, match="outside the search valuations"):
            compile_program([parse("p & r")], ("p", "q"))

    def test_knowledge_operator_rejected(self):
        with pytest.raises(ValueError, match="E/S/A"):
            compile_program([parse("K p")], ("p",))

    def test_schema_metavariable_rejected(self):
        with pytest.raises(ValueError, match="E/S/A"):
            compile_program([And(Atom("p"), PHI)], ("p",))

    def test_a_copy_keeps_what_the_kernel_reads(self):
        # negated, frees and stops are not fields, yet a copied program
        # must still run
        prog = compile_program([parse("p -> S p"), parse("E q")], ("p", "q"))
        twin = pickle.loads(pickle.dumps(prog))
        for name in ("negated", "frees", "stops"):
            assert getattr(twin, name) == getattr(prog, name)
        planes = atom_planes(2, 2, 0, 4)
        assert eval_chunk(twin, planes, (2,)) == eval_chunk(prog, planes, (2,))

    def test_s_and_e_are_distinct_opcodes(self):
        prog = compile_program([parse("E S p")], ("p",))
        assert [op for op, _, _ in prog.ops] == [OP_ATOM, OP_S, OP_E]

    def test_slots_are_freed_by_their_last_reader(self):
        # p, q, p & q, q & (p & q), p & (q & (p & q)): p is last read by
        # op 4, q by op 3, p & q by op 3, q & (p & q) by op 4, and the
        # root, which no op reads, by itself once it is reduced
        prog = compile_program([parse("p & (q & (p & q))")], ("p", "q"))
        assert [sorted(f) for f in prog.frees] == [[], [], [], [1, 2], [0, 3, 4]]

    @pytest.mark.parametrize(
        "text, negated",
        [
            ("~p", (False, True)),
            ("~~p", (False, True, False)),
            ("p | q", (False, True, False, True, True, False)),
            ("p -> q", (False, False, True, False, True)),
            ("S ~p", (False, True, True)),
            ("A ~p", (False, True, True)),
            ("E ~p", (False, True, False)),
        ],
    )
    def test_polarity(self, text, negated):
        # ~ flips its operand's polarity, & of two complements is one, S
        # and A keep their operand's, and E is never one
        assert compile_program([parse(text)], ("p", "q")).negated == negated


@given(st.lists(formulas(("p", "q", "r"), with_k=False), min_size=1, max_size=4))
def test_every_slot_is_freed_once_after_its_last_read(fs):
    # a slot some op reads is freed by its last reader; a root no op reads
    # is freed by its own op, after eval_chunk has reduced it
    prog = compile_program(fs, ("p", "q", "r"))
    last = {}
    for t, (op, a, b) in enumerate(prog.ops):
        if op != OP_ATOM:
            last[a] = last[b] = t
    for r in prog.roots:
        last.setdefault(r, r)
    freed = sorted(s for frees in prog.frees for s in frees)
    assert freed == sorted(last)
    for t, frees in enumerate(prog.frees):
        assert all(last[s] == t for s in frees)
    assert len(prog.ops) == len(list(subformulas(*fs)))
    assert prog.stops == tuple(sorted(set(prog.roots)))
    # the last op is always a root: no op is evaluated for nothing
    assert prog.stops[-1] == len(prog.ops) - 1


class TestShapes:
    """Each value is as narrow as its op needs: one int when it is the same
    at every state, one per block for S, one per state otherwise.  The
    rows come from 4 states in blocks (2, 4) over {p, q}, in one window of
    2^8 codes, so they are too large for CPython's cached small ints and
    `is` tells one repeated row from equal ones."""

    @staticmethod
    def _rows(text):
        return _run(compile_program([parse(text)], ("p", "q")), 4, 2, (2, 4), 0, 8)

    @pytest.mark.parametrize("text", ["E p", "A (S p -> p)", "S A p"])
    def test_a_root_the_same_at_every_state_is_one_row(self, text):
        assert len(self._rows(text)) == 1

    @pytest.mark.parametrize("text", ["S p & S q", "S p & ~S q"])
    def test_a_per_block_root_is_one_int_per_block(self, text):
        rows = self._rows(text)
        assert rows[0] is rows[1] and rows[2] is rows[3]
        assert rows[1] is not rows[2]

    def test_a_per_state_root_is_one_int_per_state(self):
        rows = self._rows("p & S q")
        assert len({id(r) for r in rows}) == 4


class TestAtomPlanes:
    @pytest.mark.parametrize("w", range(8))
    def test_low_code_bits_are_periodic(self, w):
        # below w, code bit b of the window's codes; the last plane is
        # the whole window
        planes = atom_planes(1, w, 0, w)
        assert len(planes) == w + 1
        for b, plane in enumerate(planes[:-1]):
            assert plane == sum(1 << t for t in range(1 << w) if t >> b & 1)
        assert planes[-1] == (1 << (1 << w)) - 1

    def test_high_code_bits_are_constant_in_a_window(self):
        # 2 states over 3 atoms, windows of 2^2 codes: code bits 2-5 come
        # from the window's start
        for start in range(0, 64, 4):
            planes = atom_planes(2, 3, start, 2)
            assert planes[:2] == [0b1010, 0b1100]
            assert planes[2:6] == [0b1111 if start >> b & 1 else 0 for b in range(2, 6)]

    def test_the_widest_window_has_the_cap_bits(self):
        planes = atom_planes(6, 3, 0, WINDOW_BITS)
        assert planes[-1].bit_length() == 1 << WINDOW_BITS
        assert all(p.bit_length() <= 1 << WINDOW_BITS for p in planes)


class TestAgainstSemantics:
    def test_matches_extension_on_all_tiny_models(self):
        """Every contiguous partition of up to 3 states over {p, q}, each
        with its whole code space as one window."""
        for n in (1, 2, 3):
            self._check_windows(n, 2 * n, range(1))

    @pytest.mark.parametrize("first, words", [(0, 4), (2, 2), (3, 1)])
    def test_matches_extension_on_a_multi_word_window(self, first, words):
        # 4 states over {p, q}: 256 codes in four windows of 64
        self._check_windows(4, 6, range(first, first + words))

    def _check_windows(self, n, w, windows):
        """Every contiguous partition of n states, every code of each
        window of 2^w codes, every formula of the battery."""
        atoms = ("p", "q")
        for ends in _compositions(n):
            for window in windows:
                start = window << w
                models = [_model(n, ends, atoms, start + t) for t in range(1 << w)]
                for text in BATTERY:
                    f = parse(text)
                    rows = _run(compile_program([f], atoms), n, len(atoms), ends, start, w)
                    assert len(rows) in (1, n)
                    for t, model in enumerate(models):
                        assert _extension_at(rows, t) & model.full_mask == extension(
                            model, f
                        ), (text, ends, start + t)

    def test_repeated_runs_are_identical(self):
        prog = compile_program([parse("E (p -> q) -> E p -> E q")], ("p", "q"))
        for ends in ((2, 3), (1, 2, 3)):
            assert _run(prog, 3, 2, ends, 0, 6) == _run(prog, 3, 2, ends, 0, 6)


ATOMS = ("p", "q", "r")


@st.composite
def windows(draw):
    """(n <= 4, block ends of a contiguous partition of n states, a window
    of 2^w codes over ATOMS, and some codes in it).  w runs from one code
    to the whole code space, so most draws cut the code space into
    several windows."""
    n = draw(st.integers(1, 4))
    ends = draw(st.sampled_from(_compositions(n)))
    w = draw(st.integers(0, min(n * len(ATOMS), 8)))
    start = draw(st.integers(0, (1 << (n * len(ATOMS) - w)) - 1)) << w
    offsets = draw(st.lists(st.integers(0, (1 << w) - 1), min_size=1, max_size=8))
    return n, ends, start, w, offsets


@given(st.lists(formulas(ATOMS, with_k=False), min_size=1, max_size=4), windows())
def test_each_root_of_a_shared_program_gets_its_own_rows(fs, window):
    """One program for several formulas gives each root the rows that the
    formula's own program gives, or leaves it out as that program does;
    the list also repeats a formula and adds two of its subformulas after
    it, so roots share slots and come out of slot order."""
    n, ends, start, w, _ = window
    fs = [*fs, fs[0], *list(subformulas(fs[0]))[:2]]
    planes = atom_planes(n, len(ATOMS), start, w)
    prog = compile_program(fs, ATOMS)
    failing = eval_chunk(prog, planes, ends)
    assert failing.keys() <= set(prog.roots)
    together = [failing.get(r) for r in prog.roots]
    alone = []
    for f in fs:
        own = compile_program([f], ATOMS)
        alone.append(eval_chunk(own, planes, ends).get(own.roots[0]))
    assert together == alone


@given(formulas(ATOMS, with_k=False), windows())
def test_eval_chunk_matches_both_evaluators(f, window):
    """Bit for bit against the literal clauses and against the knowledge
    form on the induced relational model."""
    n, ends, start, w, offsets = window
    rows = _run(compile_program([f], ATOMS), n, len(ATOMS), ends, start, w)
    assert len(rows) in (1, n)
    assert all(0 <= r < 1 << (1 << w) for r in rows)
    knowledge = to_knowledge_form(f)
    for offset in offsets:
        model = _model(n, ends, ATOMS, start + offset)
        ext = _extension_at(rows, offset) & model.full_mask
        assert ext == extension(model, f, mode="literal")
        assert ext == extension_relational(to_s5_model(model), knowledge)
