"""Independent logic the benchmark checks the program against.

Nothing here imports the program.  Formulas are the benchmark's own
tuples, with the sugar kept as nodes so the clauses below read as the
paper states them::

    ("atom", name)  ("T",)  ("F",)  ("meta", name)
    ("not", a)  ("and", a, b)  ("or", a, b)  ("imp", a, b)  ("iff", a, b)
    ("E", a)  ("S", a)  ("A", a)  ("K", a)

The witness evaluator applies the literal clauses over frozensets of
state names and the fully materialised expertise family, as the repo's
test oracle does.  The reference search applies the same literal clauses
to bitmasks, and walks the documented enumeration order: sizes ascending,
partitions in lexicographic restricted-growth order, valuations as one
counter whose atom j occupies bits [j*n, (j+1)*n).
"""

from __future__ import annotations

import random
import re
from itertools import combinations
from math import comb

MODALS = ("E", "S", "A", "K")
BINARY = ("and", "or", "imp", "iff")
_INFIX = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


# --- concrete syntax ---------------------------------------------------------

def render(f) -> str:
    """Fully parenthesised text in the program's concrete grammar."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind in ("T", "F"):
        return kind
    if kind == "not":
        return "~" + render(f[1])
    if kind in MODALS:
        return f"{kind} {render(f[1])}"
    return f"({render(f[1])} {_INFIX[kind]} {render(f[2])})"


_TOKEN = re.compile(r"\s*(<->|->|[()~&|]|[ESAK]\^?|[TF]|[a-z][a-z0-9_]*)")


def parse(text: str):
    """Recursive descent over the grammar in the program's README."""
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenise {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = [0]

    def peek():
        return tokens[at[0]]

    def take(expected=None):
        tok = tokens[at[0]]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r} in {text!r}")
        at[0] += 1
        return tok

    def iff():
        left = imp()
        if peek() == "<->":
            take()
            return ("iff", left, imp())
        return left

    def imp():
        left = disj()
        if peek() == "->":
            take()
            return ("imp", left, imp())
        return left

    def disj():
        f = conj()
        while peek() == "|":
            take()
            f = ("or", f, conj())
        return f

    def conj():
        f = unary()
        while peek() == "&":
            take()
            f = ("and", f, unary())
        return f

    def unary():
        tok = take()
        if tok == "~":
            return ("not", unary())
        if tok.rstrip("^") in MODALS:
            child = unary()
            if tok.endswith("^"):
                return ("not", (tok[0], ("not", child)))
            return (tok, child)
        if tok in ("T", "F"):
            return (tok,)
        if tok == "(":
            f = iff()
            take(")")
            return f
        if re.fullmatch(r"[a-z][a-z0-9_]*", tok):
            return ("atom", tok)
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    f = iff()
    take("")
    return f


def atoms_of(f) -> set[str]:
    if f[0] == "atom":
        return {f[1]}
    out = set()
    for child in f[1:]:
        if isinstance(child, tuple):
            out |= atoms_of(child)
    return out


def operators_of(f) -> set[str]:
    out = {f[0]}
    for child in f[1:]:
        if isinstance(child, tuple):
            out |= operators_of(child)
    return out


def size_of(f) -> int:
    return 1 + sum(size_of(c) for c in f[1:] if isinstance(c, tuple))


def depth_of(f) -> int:
    kids = [c for c in f[1:] if isinstance(c, tuple)]
    return 1 + max((depth_of(c) for c in kids), default=0)


def substitute(template, subst):
    if template[0] == "meta":
        return subst[template[1]]
    return (template[0],) + tuple(
        substitute(c, subst) if isinstance(c, tuple) else c for c in template[1:]
    )


def metavariables(template) -> list[str]:
    if template[0] == "meta":
        return [template[1]]
    seen: list[str] = []
    for c in template[1:]:
        if isinstance(c, tuple):
            for name in metavariables(c):
                if name not in seen:
                    seen.append(name)
    return seen


_PHI, _PSI = ("meta", "phi"), ("meta", "psi")

# The paper's eight axiom schemas, and the distribution law that fails.
SCHEMAS = {
    "K_S": ("imp", ("and", ("S", _PHI), ("not", ("S", _PSI))), ("S", ("and", _PHI, ("not", _PSI)))),
    "T_S": ("imp", _PHI, ("S", _PHI)),
    "5_S": ("imp", ("S", ("not", ("S", _PHI))), ("not", ("S", _PHI))),
    "K_A": ("imp", ("A", ("imp", _PHI, _PSI)), ("imp", ("A", _PHI), ("A", _PSI))),
    "T_A": ("imp", ("A", _PHI), _PHI),
    "5_A": ("imp", ("not", ("A", _PHI)), ("A", ("not", ("A", _PHI)))),
    "ES": ("iff", ("E", _PHI), ("A", ("imp", ("S", _PHI), _PHI))),
    "Inc": ("imp", ("A", _PHI), ("not", ("S", ("not", _PHI)))),
}
INVALID_SCHEMAS = {
    "E_dist": ("imp", ("E", ("imp", _PHI, _PSI)), ("imp", ("E", _PHI), ("E", _PSI))),
}


# --- enumeration order ---------------------------------------------------------

def bell(n: int) -> int:
    """Bell numbers by B(m+1) = sum_j C(m, j) B(j)."""
    b = [1]
    for m in range(n):
        b.append(sum(comb(m, j) * b[j] for j in range(m + 1)))
    return b[n]


def size_count(n: int, k: int) -> int:
    return bell(n) * 2 ** (n * k)


def total_count(n_max: int, k: int) -> int:
    """Models of 1..n_max states with k atoms: sum_n Bell(n) 2^(n k)."""
    return sum(size_count(n, k) for n in range(1, n_max + 1))


_RGS: dict[int, list[tuple[int, ...]]] = {}


def rgs_list(n: int) -> list[tuple[int, ...]]:
    """Restricted growth strings of length n in lexicographic order."""
    if n not in _RGS:
        out: list[tuple[int, ...]] = []

        def rec(prefix, top):
            if len(prefix) == n:
                out.append(tuple(prefix))
                return
            for j in range(top + 2):
                rec(prefix + [j], max(top, j))

        rec([0], 0)
        _RGS[n] = out
    return _RGS[n]


def witness_position(witness: dict, atoms) -> int:
    """1-based index of a reported witness model in the enumeration order.

    The program's models_checked for a found countermodel must equal it.
    """
    model = witness["model"]
    states = model["states"]
    n, k = len(states), len(atoms)
    if states != [f"x{i}" for i in range(n)]:
        raise ValueError(f"witness states are not x0..x{n - 1}: {states}")
    label = {}
    block_of = {}
    for b, block in enumerate(model["partition"]):
        for s in block:
            block_of[s] = b
    rgs = []
    for s in states:
        b = block_of[s]
        label.setdefault(b, len(label))
        rgs.append(label[b])
    code = 0
    for j, a in enumerate(atoms):
        for s in model["valuation"].get(a, []):
            code |= 1 << (j * n + states.index(s))
    rank = rgs_list(n).index(tuple(rgs))
    return total_count(n - 1, k) + rank * 2 ** (n * k) + code + 1


# --- literal evaluation over sets ---------------------------------------------

class SetModel:
    """States, the materialised expertise family and a valuation, as sets."""

    def __init__(self, states, family, valuation):
        self.states = tuple(states)
        self.universe = frozenset(self.states)
        self.family = frozenset(frozenset(m) for m in family)
        self.valuation = {a: frozenset(v) for a, v in valuation.items()}

    @classmethod
    def from_partition(cls, states, blocks, valuation):
        blocks = [frozenset(b) for b in blocks]
        family = set()
        for r in range(len(blocks) + 1):
            for combo in combinations(blocks, r):
                family.add(frozenset().union(*combo))
        return cls(states, family, valuation)

    @classmethod
    def from_document(cls, doc):
        """A model file's JSON object, in either of its two forms."""
        if "partition" in doc:
            return cls.from_partition(doc["states"], doc["partition"], doc.get("valuation", {}))
        return cls(doc["states"], doc["expertise"], doc.get("valuation", {}))

    def cell(self, x) -> frozenset:
        """Smallest family member containing x: the states linked to x."""
        out = self.universe
        for m in self.family:
            if x in m:
                out &= m
        return out

    def extension(self, f) -> frozenset:
        kind = f[0]
        u = self.universe
        if kind == "atom":
            return self.valuation.get(f[1], frozenset())
        if kind == "T":
            return u
        if kind == "F":
            return frozenset()
        if kind == "not":
            return u - self.extension(f[1])
        if kind in BINARY:
            a, b = self.extension(f[1]), self.extension(f[2])
            test = {
                "and": lambda x: x in a and x in b,
                "or": lambda x: x in a or x in b,
                "imp": lambda x: x not in a or x in b,
                "iff": lambda x: (x in a) == (x in b),
            }[kind]
            return frozenset(x for x in self.states if test(x))
        e = self.extension(f[1])
        if kind == "E":
            return u if e in self.family else frozenset()
        if kind == "S":
            return frozenset(
                x for x in self.states if all(x in m for m in self.family if e <= m)
            )
        if kind == "A":
            return u if e == u else frozenset()
        if kind == "K":
            return frozenset(x for x in self.states if self.cell(x) <= e)
        raise ValueError(f"no clause for {kind!r}")


def check_witness(f, witness: dict) -> str | None:
    """Why a reported witness is wrong, or None when it is right.

    The witness must falsify f at its state, and every earlier state of the
    model must satisfy f (the reported state is the least falsifying one).
    """
    model = witness["model"]
    sm = SetModel.from_partition(model["states"], model["partition"], model["valuation"])
    ext = sm.extension(f)
    state = witness["state"]
    if state in ext:
        return f"witness state {state} satisfies the formula"
    for s in sm.states[: sm.states.index(state)]:
        if s not in ext:
            return f"state {s} before witness state {state} already falsifies it"
    return None


# --- reference search ----------------------------------------------------------

def _compile(f, atoms):
    """Postfix program over interned subformulas (each computed once)."""
    index: dict = {}
    code: list = []

    def node(g):
        if g in index:
            return index[g]
        kind = g[0]
        if kind == "atom":
            op = ("atom", atoms.index(g[1]))
        elif kind in ("T", "F"):
            op = (kind,)
        elif kind in BINARY:
            op = (kind, node(g[1]), node(g[2]))
        else:
            op = (kind, node(g[1]))
        index[g] = len(code)
        code.append(op)
        return index[g]

    node(f)
    return code


def _families(n):
    """For each partition of n states in order: (rgs, family masks)."""
    out = []
    for rgs in rgs_list(n):
        blocks = [0] * (max(rgs) + 1)
        for i, b in enumerate(rgs):
            blocks[b] |= 1 << i
        family = []
        for r in range(len(blocks) + 1):
            for combo in combinations(blocks, r):
                m = 0
                for b in combo:
                    m |= b
                family.append(m)
        out.append((rgs, family))
    return out


def reference_search(f, atoms, n_max: int):
    """First falsifying model in enumeration order, by the literal clauses.

    Returns (position, n, rgs, code, least falsifying state index), or None
    when no model of at most n_max states falsifies f.  `atoms` must cover
    the formula's atoms.
    """
    atoms = list(atoms)
    prog = _compile(f, atoms)
    k = len(atoms)
    position = 0
    for n in range(1, n_max + 1):
        full = (1 << n) - 1
        codes = 1 << (n * k)
        for rgs, family in _families(n):
            fam_set = set(family)
            blocks = {}
            for i, b in enumerate(rgs):
                blocks[b] = blocks.get(b, 0) | (1 << i)
            cell = [blocks[b] for b in rgs]
            for c in range(codes):
                position += 1
                vals = [(c >> (j * n)) & full for j in range(k)]
                ext = _run(prog, vals, full, family, fam_set, cell, n)
                if ext != full:
                    gap = ~ext & full
                    return position, n, rgs, c, (gap & -gap).bit_length() - 1
    return None


def _run(prog, vals, full, family, fam_set, cell, n):
    v = [0] * len(prog)
    for t, op in enumerate(prog):
        kind = op[0]
        if kind == "atom":
            r = vals[op[1]]
        elif kind == "T":
            r = full
        elif kind == "F":
            r = 0
        elif kind == "not":
            r = full & ~v[op[1]]
        elif kind == "and":
            r = v[op[1]] & v[op[2]]
        elif kind == "or":
            r = v[op[1]] | v[op[2]]
        elif kind == "imp":
            r = (full & ~v[op[1]]) | v[op[2]]
        elif kind == "iff":
            r = full & ~(v[op[1]] ^ v[op[2]])
        elif kind == "E":
            r = full if v[op[1]] in fam_set else 0
        elif kind == "S":
            e = v[op[1]]
            r = full
            for m in family:
                if e & ~m == 0:
                    r &= m
        elif kind == "A":
            r = full if v[op[1]] == full else 0
        else:  # K: the states whose cell lies inside the extension
            e = v[op[1]]
            r = 0
            for i in range(n):
                if cell[i] & ~e == 0:
                    r |= 1 << i
        v[t] = r
    return v[-1]


def witness_of(hit, atoms) -> dict:
    """A reference-search hit in the program's witness report layout."""
    _, n, rgs, code, state = hit
    states = [f"x{i}" for i in range(n)]
    blocks: dict[int, list[str]] = {}
    for i, b in enumerate(rgs):
        blocks.setdefault(b, []).append(states[i])
    valuation = {
        a: [states[i] for i in range(n) if (code >> (j * n + i)) & 1]
        for j, a in enumerate(atoms)
    }
    return {
        "model": {
            "states": states,
            "partition": [blocks[b] for b in sorted(blocks)],
            "valuation": valuation,
        },
        "state": states[state],
    }


# --- seeded formula generation -------------------------------------------------

# Operator weights of the conjecture generator.  Modal operators are
# frequent, so most conjectures are refuted by a one-state model, a tenth
# need two or more states, and about one in ten is valid up to the bound.
_GEN_OPS = (
    ("not", 3), ("and", 2), ("or", 2), ("imp", 3), ("iff", 1),
    ("E", 2), ("S", 3), ("A", 2),
)


def random_formula(rng: random.Random, atoms, depth: int):
    """A formula of at most `depth` levels over `atoms` and E, S, A."""
    if depth <= 1 or rng.random() < 0.2:
        return ("atom", rng.choice(atoms))
    names = [op for op, _ in _GEN_OPS]
    weights = [w for _, w in _GEN_OPS]
    op = rng.choices(names, weights)[0]
    if op in BINARY:
        return (op, random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))
    return (op, random_formula(rng, atoms, depth - 1))


def eliminate_expertise(f):
    """E a becomes A (S a -> a), recursively: the paper's ES axiom."""
    if f[0] in ("atom", "T", "F"):
        return f
    kids = tuple(eliminate_expertise(c) for c in f[1:])
    if f[0] == "E":
        return ("A", ("imp", ("S", kids[0]), kids[0]))
    return (f[0],) + kids

