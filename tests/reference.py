"""Naive reference implementations used as test oracles.

Everything here follows the defining clauses literally over frozensets of
state names and fully materialised expertise families.  None of it touches
the package's bitmask or kernel machinery (only the shared syntax tree), so
agreement between the two is meaningful evidence rather than a tautology.
"""

from itertools import combinations

from expertlogic.formula import And, Atom, ModalA, ModalE, ModalK, ModalS, Not, Top


def ref_partitions(states):
    """All set partitions of `states`, as frozensets of frozenset blocks.

    First-element recursion: partition the rest, then either add the first
    state to an existing block or give it a block of its own.  Independent
    of the package's restricted-growth-string enumerator.
    """
    states = list(states)

    def rec(i):
        if i == len(states):
            yield []
            return
        x = states[i]
        for part in rec(i + 1):
            for j in range(len(part)):
                yield part[:j] + [part[j] | {x}] + part[j + 1 :]
            yield part + [{x}]

    for part in rec(0):
        yield frozenset(frozenset(b) for b in part)


def ref_family_from_partition(blocks):
    """All unions of subcollections of blocks (the empty union included)."""
    blocks = list(blocks)
    fam = set()
    for r in range(len(blocks) + 1):
        for combo in combinations(blocks, r):
            fam.add(frozenset().union(*combo) if combo else frozenset())
    return fam


def ref_partition_from_family(states, family):
    """Blocks as 'smallest family member containing x', literally."""
    blocks = set()
    for x in states:
        cell = frozenset(states)
        for member in family:
            if x in member:
                cell &= member
        blocks.add(cell)
    return frozenset(blocks)


def ref_family_laws(states, family):
    """Names of the closure laws violated by `family`: subset of
    {'whole-set', 'complements', 'intersections'}."""
    family = {frozenset(a) for a in family}
    universe = frozenset(states)
    broken = set()
    if universe not in family:
        broken.add("whole-set")
    for a in family:
        if universe - a not in family:
            broken.add("complements")
    for a in family:
        for b in family:
            if a & b not in family:
                broken.add("intersections")
    return broken


def ref_extension(states, family, valuation, f):
    return frozenset(x for x in states if ref_eval(states, family, valuation, x, f))


def ref_eval(states, family, valuation, x, f):
    """Literal truth clauses over a materialised expertise family."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Atom):
        return x in valuation.get(f.name, frozenset())
    if isinstance(f, Not):
        return not ref_eval(states, family, valuation, x, f.child)
    if isinstance(f, And):
        return ref_eval(states, family, valuation, x, f.left) and ref_eval(
            states, family, valuation, x, f.right
        )
    if isinstance(f, ModalE):
        return ref_extension(states, family, valuation, f.child) in {
            frozenset(a) for a in family
        }
    if isinstance(f, ModalS):
        ext = ref_extension(states, family, valuation, f.child)
        return all(x in a for a in family if ext <= frozenset(a))
    if isinstance(f, ModalA):
        return ref_extension(states, family, valuation, f.child) == frozenset(states)
    raise ValueError(f"no expertise-model clause for {type(f).__name__}")


def ref_eval_relational(states, succ, valuation, x, f):
    """Truth at x in a relational model; succ maps state -> set of states."""
    if isinstance(f, Top):
        return True
    if isinstance(f, Atom):
        return x in valuation.get(f.name, frozenset())
    if isinstance(f, Not):
        return not ref_eval_relational(states, succ, valuation, x, f.child)
    if isinstance(f, And):
        return ref_eval_relational(
            states, succ, valuation, x, f.left
        ) and ref_eval_relational(states, succ, valuation, x, f.right)
    if isinstance(f, ModalK):
        return all(ref_eval_relational(states, succ, valuation, y, f.child) for y in succ[x])
    if isinstance(f, ModalA):
        return all(ref_eval_relational(states, succ, valuation, y, f.child) for y in states)
    raise ValueError(f"no relational clause for {type(f).__name__}")


def ref_tautology(f):
    """Truth-table tautology test, abstracting modal subtrees as letters."""
    letters = {}

    def register(g):
        # full walk: evaluation short-circuits, registration must not
        if isinstance(g, (Atom, ModalE, ModalS, ModalA, ModalK)):
            letters.setdefault(g, len(letters))
        elif isinstance(g, Top):
            pass
        elif isinstance(g, Not):
            register(g.child)
        else:
            register(g.left)
            register(g.right)

    def ev(g, row):
        if isinstance(g, Top):
            return True
        if isinstance(g, (Atom, ModalE, ModalS, ModalA, ModalK)):
            return bool((row >> letters[g]) & 1)
        if isinstance(g, Not):
            return not ev(g.child, row)
        return ev(g.left, row) and ev(g.right, row)

    register(f)
    return all(ev(f, row) for row in range(1 << len(letters)))

