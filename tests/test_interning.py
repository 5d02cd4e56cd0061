"""Hash-consed formulas: deep inputs, shared subformulas, the intern table.

Every test here runs at the interpreter's default recursion limit, so an
input nested thousands of levels deep fails if any walk over formulas
recurses on their depth.  Sizes are asserted as node counts, never as
wall times.
"""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from expertlogic import formula
from expertlogic.formula import (
    Atom,
    atom_names,
    in_expertise_language,
    modal_depth,
    parse,
    render,
    subformulas,
    to_knowledge_form,
)
from expertlogic.kernels import atom_planes, compile_program, eval_chunk
from expertlogic.model import ExpertiseModel, Partition
from expertlogic.semantics import extension, holds

NEGATIONS = "~" * 3000 + "p"

# text, distinct nodes
DEEP = {
    "3000 negations": (NEGATIONS, 3001),
    "2000 parentheses": ("(" * 2000 + "p" + ")" * 2000, 1),
    # per link: an atom, the ~ of the rest, the & and the outer ~
    "1500-atom implication chain": (" -> ".join(f"a{i}" for i in range(1500)), 1500 + 3 * 1499),
    "1500 stacked E": ("E " * 1500 + "p", 1501),
}

# 18 nested <->, 145 characters: each level adds a fresh atom and 7 nodes
# around it, so 145 distinct nodes, but <-> copies both of its sides and the
# tree has 2,621,431 nodes
SHARED_ATOMS = "abcdefghijklmnopqrs"
SHARED = SHARED_ATOMS[0]
for _atom in SHARED_ATOMS[1:]:
    SHARED = f"({SHARED}) <-> {_atom}"


def _tree_size(f):
    size = {}
    for g in subformulas(f):
        size[g] = 1 + sum(size[c] for c in g.children)
    return size[f]


@pytest.mark.parametrize("text,nodes", DEEP.values(), ids=DEEP.keys())
def test_deep_input_parses_renders_and_round_trips(text, nodes):
    f = parse(text)
    assert sum(1 for _ in subformulas(f)) == nodes
    assert parse(render(f)) == f


def test_deep_input_keeps_its_structure():
    assert modal_depth(parse(DEEP["1500 stacked E"][0])) == 1500
    assert parse(DEEP["2000 parentheses"][0]) == Atom("p")
    assert render(parse(NEGATIONS)) == NEGATIONS


@pytest.mark.parametrize("command,code", [("translate", 0), ("countermodel", 1)])
def test_cli_answers_on_deep_input(command, code):
    # an even number of negations: the formula is p, which is falsifiable
    line = {"translate": "knowledge form:", "countermodel": "countermodel found:"}
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "expertlogic", command, NEGATIONS],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith(line[command]), proc.stdout[:200]


def test_separately_parsed_deep_formulas_are_equal():
    left, right = parse(NEGATIONS), parse(" " + NEGATIONS)
    assert left == right
    assert hash(left) == hash(right)
    assert left != parse("~" + NEGATIONS)


def test_shared_subformulas_are_visited_once():
    f = parse(SHARED)
    assert len(SHARED) == 145
    assert sum(1 for _ in subformulas(f)) == 145
    assert _tree_size(f) == 2_621_431
    assert atom_names(f) == set(SHARED_ATOMS)
    assert in_expertise_language(f)
    assert parse(render(f)) == f
    assert to_knowledge_form(f) == f  # no modal operator to translate
    # every atom true at x0 and false at x1: a chain of k <-> over false
    # atoms is true exactly when k is odd, and here k = 18
    model = ExpertiseModel(
        ("x0", "x1"),
        Partition.from_blocks([0b01, 0b10]),
        tuple((atom, 0b01) for atom in SHARED_ATOMS),
    )
    assert extension(model, f) == 0b01
    assert extension(model, f, mode="literal") == 0b01
    assert holds(model, "x0", f)
    assert not holds(model, "x1", f)


def test_shared_formula_compiles_to_one_op_per_node():
    f = parse(SHARED)
    prog = compile_program([f], tuple(SHARED_ATOMS))
    assert len(prog.ops) == 145
    # 32 independently seeded valuations of the 19 atoms over two states,
    # in one block: each a seeded window of 64 of the 2^38 codes and a
    # seeded bit
    rng = random.Random(0)
    for _ in range(32):
        start = rng.randrange(1 << 32) << 6
        t = rng.randrange(64)
        planes = atom_planes(2, len(SHARED_ATOMS), start, 6)
        # left out: the formula holds at both states of every model of the
        # window
        rows = eval_chunk(prog, planes, (2,)).get(prog.roots[0], [planes[-1]])
        code = start + t
        model = ExpertiseModel(
            ("x0", "x1"),
            Partition.from_blocks([0b11]),
            tuple((a, (code >> (2 * j)) & 0b11) for j, a in enumerate(SHARED_ATOMS)),
        )
        rows = rows * 2 if len(rows) == 1 else rows
        assert sum((r >> t & 1) << i for i, r in enumerate(rows)) == extension(model, f)


def test_intern_table_holds_nodes_weakly():
    gc.collect()
    before = len(formula._NODES)
    kept = [parse(f"v{i} & ~w{i}") for i in range(10_000)]
    # four new nodes each: v_i, w_i, ~w_i and the conjunction
    assert len(formula._NODES) == before + 40_000
    del kept
    gc.collect()
    assert len(formula._NODES) == before


def test_equal_structure_is_one_node():
    assert parse("p & q") is parse("(p & q)")
    assert parse("p -> q") is parse("~(p & ~q)")
    with pytest.raises(AttributeError):
        parse("p").name = "q"


def test_copies_and_pickles_are_the_interned_node():
    f = parse("E (p -> q) & ~S r")
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert repr(f) == (
        "And(left=ModalE(child=Not(child=And(left=Atom(name='p'), "
        "right=Not(child=Atom(name='q'))))), right=Not(child=ModalS(child=Atom(name='r'))))"
    )
