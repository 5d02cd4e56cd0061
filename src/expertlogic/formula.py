"""Syntax of the expertise/soundness modal language.

Concrete grammar (the contract for every CLI argument and file field that
holds a formula)::

    formula := iff
    iff     := imp ( '<->' imp )?            non-associative
    imp     := or ( '->' imp )?              right-associative
    or      := and ( '|' and )*              left-associative
    and     := unary ( '&' unary )*          left-associative
    unary   := ('~' | 'E' | 'S' | 'A' | 'K' | 'E^' | 'S^' | 'A^' | 'K^') unary
             | 'T' | 'F' | atom | '(' formula ')'
    atom    := /[a-z][a-z0-9_]*/

Unary operators bind tightest, then '&', then '|', then '->', then '<->'.
Whitespace is insignificant between tokens.

parse() splits the text into tokens with one regex scan (one findall),
looks each token's kind up in a table, and reads the tokens in one
operator-precedence loop over explicit stacks.  Malformed text raises
FormulaSyntaxError, whose message ends in the 1-based column of the
offending token (its .position is the 0-based offset, after any whitespace
before the token; the end of input is at len(text)).  A character that
starts no token is reported before any grammar error, wherever the latter
comes: 'p q $' fails at the '$', not at the 'q'.  Only ASCII a-z start an
atom, and a capital letter that is no operator ('B p', 'É') raises
UnknownOperatorError rather than a generic syntax error.  Columns are
worked out only when an error is raised.

Everything is desugared at parse time onto eight core constructors: Top
(the constant true), Atom, Not, And, ModalE (objective expertise), ModalS
(soundness), ModalA (universal quantification over states) and ModalK
(knowledge, used only on the relational side of the translation).  Derived
forms::

    a | b    ==  ~(~a & ~b)
    a -> b   ==  ~(a & ~b)
    a <-> b  ==  (a -> b) & (b -> a)
    F        ==  ~T
    Op^ a    ==  ~Op ~a             for Op in E, S, A, K

Nodes are hash-consed: building a node with the type and fields of a live
node returns that node, so a formula is a DAG in which each distinct
subformula exists once, `==` is identity and hashing is O(1).  The intern
table holds nodes weakly; a node lives as long as a caller or a parent
holds it.  subformulas(f) is the one traversal: an explicit-stack loop that
yields each distinct node of f once, children before parents and left
before right.  Every other walk (the renderer, the structural helpers, the
translations, and the evaluators and proof checks built on this module) is
a loop over it that fills a dict keyed by node, and the parser's stacks
are explicit, so no function recurses on a formula's depth.

render() inverts the sugar for F, '|', '->' and '<->' but never for the
duals, and prints the minimal spacing/parenthesisation used throughout the
docs; parse(render(f)) == f for every core tree f.

Record, the base of the package's immutable value classes (models,
verdicts, proof objects), lives here because every module imports this
one.
"""

from __future__ import annotations

import functools
import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from itertools import islice

# (node type, *fields) -> weak reference to the live node with those fields
_NODES: dict[tuple, weakref.ref] = {}
_NODES_LOCK = threading.Lock()
# what Formula.__new__ calls, bound once: a global name is one lookup
# where `weakref.ref` or `object.__new__` is two
_lookup, _allocate, _set_slot = _NODES.get, object.__new__, object.__setattr__
_weak_ref, _partial = weakref.ref, functools.partial


def _forget(
    key: tuple, ref: weakref.ref, _remove=_remove_dead_weakref, _nodes=_NODES
) -> None:
    """Called when a node dies: drop its entry unless a new node took the key.

    _remove_dead_weakref deletes the entry only while it is a dead
    reference, in one step, so it needs no lock.  Both are bound as
    defaults, so a node that dies while the interpreter shuts down, after
    the module's globals are cleared, still finds them.
    """
    _remove(_nodes, key)


class Formula:
    """Base class of the syntax-tree node types.

    A node type lists its fields, at most two, in __slots__ and is built
    from them positionally.  `children` is the tuple of fields that are
    subformulas: all of them, except for leaves (`_leaf`), whose one field
    is a name.  Nodes are immutable and interned.
    """

    __slots__ = ("children", "__weakref__")
    _leaf = False

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _lookup(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        names = cls.__slots__
        if len(fields) != len(names):
            raise TypeError(
                f"{cls.__name__} takes {len(names)} argument(s), got {len(fields)}"
            )
        with _NODES_LOCK:
            # another thread may have built it since the lookup above
            ref = _lookup(key)
            node = None if ref is None else ref()
            if node is None:
                node = _allocate(cls)
                if cls._leaf:
                    _set_slot(node, names[0], fields[0])
                    _set_slot(node, "children", ())
                else:
                    _set_slot(node, "children", fields)
                    if fields:  # one child, or two
                        _set_slot(node, names[0], fields[0])
                        if len(fields) == 2:
                            _set_slot(node, names[1], fields[1])
                _NODES[key] = _weak_ref(node, _partial(_forget, key))
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        # pickling and copying build the node again through the intern table
        return type(self), tuple(getattr(self, name) for name in type(self).__slots__)

    def __repr__(self) -> str:
        text: dict[Formula, str] = {}
        for g in subformulas(self):
            values = [repr(g.name)] if g._leaf else [text[c] for c in g.children]
            fields = ", ".join(f"{n}={v}" for n, v in zip(type(g).__slots__, values))
            text[g] = f"{type(g).__name__}({fields})"
        return text[self]


class Top(Formula):
    """The constant true, which holds at every state of every model."""

    __slots__ = ()


class Atom(Formula):
    __slots__ = ("name",)
    _leaf = True


class Not(Formula):
    __slots__ = ("child",)


class And(Formula):
    __slots__ = ("left", "right")


class ModalE(Formula):
    __slots__ = ("child",)


class ModalS(Formula):
    __slots__ = ("child",)


class ModalA(Formula):
    __slots__ = ("child",)


class ModalK(Formula):
    __slots__ = ("child",)


class Record:
    """Base of the package's immutable value classes (models, search
    verdicts, proof objects).

    A subclass declares its fields as annotations, in order; a class
    attribute of the same name is the field's default.  An instance keeps
    its fields in its __dict__ and refuses assignment and deletion.  ==
    and hash compare the tuple of field values, and only between
    instances of one class.

    The inherited __init__ binds positional and keyword arguments to the
    fields.  A class that checks its fields, or that every search builds,
    defines a plain __init__ that fills self.__dict__ itself.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: vars(cls)[f] for f in cls._fields if f in vars(cls)}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        # a keyword must name a field that no positional argument filled
        if len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{name}() got too many or unexpected arguments")
        given = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        missing = [f for f in fields if f not in given]
        if missing:
            raise TypeError(f"{name}() is missing argument(s): {', '.join(missing)}")
        self.__dict__.update((f, given[f]) for f in fields)

    def _values(self) -> tuple:
        values = self.__dict__
        return tuple([values[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


_OPERATOR_LETTERS = {"E": ModalE, "S": ModalS, "A": ModalA, "K": ModalK}
_MODAL_LETTER = {t: letter for letter, t in _OPERATOR_LETTERS.items()}
_MODAL_TYPES = tuple(_MODAL_LETTER)


def subformulas(*roots: Formula):
    """Yield each distinct node of the roots once, children before parents
    and left before right (the order in which a post-order walk of the
    roots, one after the other, first finishes them).
    """
    done: set[Formula] = set()
    for f in roots:
        stack: list[Formula | None] = [f]
        while stack:
            g = stack.pop()
            if g is None:  # the node below it has all its children done
                g = stack.pop()
                done.add(g)
                yield g
            elif g not in done:
                stack += (g, None)
                for c in reversed(g.children):
                    if c not in done:
                        stack.append(c)


def rebuild(f: Formula, rules: dict) -> Formula:
    """Rebuild f bottom-up, once per distinct node.

    A node whose type has a rule becomes rules[type](node, *new children);
    any other node is made again from its new children (a leaf stays as it
    is).
    """
    out: dict[Formula, Formula] = {}
    for g in subformulas(f):
        kids = [out[c] for c in g.children]
        rule = rules.get(type(g))
        if rule is not None:
            out[g] = rule(g, *kids)
        else:
            out[g] = type(g)(*kids) if kids else g
    return out[f]


# --- derived connectives -------------------------------------------------

def Or(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def Imp(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def Iff(left: Formula, right: Formula) -> Formula:
    return And(Imp(left, right), Imp(right, left))


TOP: Formula = Top()
BOT: Formula = Not(TOP)


# --- errors ---------------------------------------------------------------

class FormulaSyntaxError(ValueError):
    """Malformed formula text.  .position is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class UnknownOperatorError(FormulaSyntaxError):
    """A capital letter other than E, S, A, K, T, F in operator position."""


# --- atoms ----------------------------------------------------------------

_TOKEN_ATOM = re.compile(r"[a-z][a-z0-9_]*")


def is_atom_name(text: str) -> bool:
    """True when `text` is a legal atom token."""
    return _TOKEN_ATOM.fullmatch(text) is not None


# --- infix connectives -------------------------------------------------------

def split_imp(f: Formula) -> tuple[Formula, Formula] | None:
    """Recognise the desugared a -> b, returning (a, b)."""
    if isinstance(f, Not) and isinstance(f.child, And) and isinstance(f.child.right, Not):
        return f.child.left, f.child.right.child
    return None


def split_or(f: Formula) -> tuple[Formula, Formula] | None:
    if (
        isinstance(f, Not)
        and isinstance(f.child, And)
        and isinstance(f.child.left, Not)
        and isinstance(f.child.right, Not)
    ):
        return f.child.left.child, f.child.right.child
    return None


def split_iff(f: Formula) -> tuple[Formula, Formula] | None:
    if not isinstance(f, And):
        return None
    fwd = split_imp(f.left)
    bwd = split_imp(f.right)
    if fwd is not None and bwd is not None and fwd == (bwd[1], bwd[0]):
        return fwd
    return None


# symbol -> (strength, associativity, constructor, recogniser): a higher
# strength binds tighter, associativity is "left", "right" or None (none),
# and the recogniser inverts the constructor.  The renderer tries them in
# this order, so a tree that reads as both a disjunction and an implication
# (~a -> b is ~(~a & ~b)) prints as the disjunction, and a biconditional
# prints as one rather than as a conjunction.
_INFIX = {
    "<->": (1, None, Iff, split_iff),
    "|": (3, "left", Or, split_or),
    "->": (2, "right", Imp, split_imp),
    "&": (4, "left", And, lambda f: (f.left, f.right) if isinstance(f, And) else None),
}
# strengths of printed prefix forms and of leaves, above every connective
_UNARY, _LEAF = 5, 6


# --- parser ---------------------------------------------------------------

# one token after optional whitespace: a connective or parenthesis, an
# operator letter with its optional dual mark, a constant, an atom, or any
# other character, which starts no token
_SCAN = re.compile(rf"\s*(<->|->|[()~&|]|[ESAK]\^?|[TF]|{_TOKEN_ATOM.pattern}|\S)")


def _dual(ctor):
    return lambda f: Not(ctor(Not(f)))


# prefix operator -> the function it applies to its operand
_PREFIXES = {
    "~": Not,
    **_OPERATOR_LETTERS,
    **{f"{letter}^": _dual(ctor) for letter, ctor in _OPERATOR_LETTERS.items()},
}
_CONSTANTS = {"T": TOP, "F": BOT}
# every token but an atom -> its kind; a token missing here is an atom when
# it starts with a-z, and otherwise a character that starts no token
_KINDS = {
    **dict.fromkeys(_PREFIXES, "prefix"),
    **dict.fromkeys(_INFIX, "infix"),
    **dict.fromkeys(_CONSTANTS, "constant"),
    "(": "(",
    ")": ")",
}


def _error(text: str, tokens: list[str], i: int, message: str) -> FormulaSyntaxError:
    """The error for `message` at token i, or at the end of input when i is
    len(tokens).  The tokens before i all start a token, so the first one
    from i on that does not is the text's first bad character, and its
    error replaces the message.  Only here are columns worked out."""
    cls = FormulaSyntaxError
    for j in range(i, len(tokens)):
        c = tokens[j]
        if c not in _KINDS and not "a" <= c[0] <= "z":
            i = j
            if c in "-<":
                message = f"expected {'->' if c == '-' else '<->'!r}"
            elif c.isupper():
                cls, message = UnknownOperatorError, f"unknown operator {c!r}"
            else:
                message = f"unexpected character {c!r}"
            break
    if i == len(tokens):
        return cls(message, len(text))
    return cls(message, next(islice(_SCAN.finditer(text), i, None)).start(1))


def parse(text: str) -> Formula:
    """Parse concrete syntax into a core tree (all sugar eliminated).

    One findall splits the text into tokens, and one operator-precedence
    loop over explicit stacks reads them: `operands` holds finished
    subformulas, `pending` the prefix operators, infix connectives and open
    parentheses not yet applied.  On malformed text the first character
    that starts no token is reported before any grammar error; an unknown
    capital letter raises UnknownOperatorError.
    """
    tokens = _SCAN.findall(text)
    operands: list[Formula] = []
    pending: list[str] = []
    depth = 0  # the open parentheses in pending
    want_operand = True
    for i, tok in enumerate(tokens):
        kind = _KINDS.get(tok)
        if want_operand:
            if kind == "prefix" or kind == "(":
                pending.append(tok)
                depth += kind == "("
                continue
            if kind == "constant":
                f = _CONSTANTS[tok]
            elif kind is None and "a" <= tok[0] <= "z":
                f = Atom(tok)
            else:
                raise _error(text, tokens, i, f"unexpected {tok!r}")
        elif kind == "infix":
            strength, assoc, _, _ = _INFIX[tok]
            # apply the waiting connectives that bind at least this tightly
            strength += assoc != "left"
            while pending and pending[-1] in _INFIX and _INFIX[pending[-1]][0] >= strength:
                right = operands.pop()
                operands[-1] = _INFIX[pending.pop()][2](operands[-1], right)
            if assoc is None and pending and pending[-1] == tok:
                raise _error(
                    text, tokens, i, f"{tok!r} is non-associative, parenthesise one side"
                )
            pending.append(tok)
            want_operand = True
            continue
        elif kind == ")" and depth:
            while pending[-1] != "(":
                right = operands.pop()
                operands[-1] = _INFIX[pending.pop()][2](operands[-1], right)
            pending.pop()
            depth -= 1
            f = operands.pop()
        elif depth:
            raise _error(text, tokens, i, "expected ')'")
        else:
            raise _error(text, tokens, i, f"unexpected {tok!r} after formula")
        # f is a finished operand: apply the prefix operators just before it
        while pending and (apply := _PREFIXES.get(pending[-1])) is not None:
            pending.pop()
            f = apply(f)
        operands.append(f)
        want_operand = False
    if want_operand:
        raise _error(text, tokens, len(tokens), "unexpected end of input")
    if depth:
        raise _error(text, tokens, len(tokens), "expected ')'")
    while pending:
        right = operands.pop()
        operands[-1] = _INFIX[pending.pop()][2](operands[-1], right)
    return operands[0]


# --- renderer ---------------------------------------------------------------

def _wrap(text: str, needed: bool) -> str:
    return f"({text})" if needed else text


def _render_node(f: Formula, out: dict[Formula, tuple[str, int]]) -> tuple[str, int]:
    """Text and strength of f, given those of its subformulas in `out`."""
    if f == TOP:
        return "T", _LEAF
    if f == BOT:
        return "F", _LEAF
    if isinstance(f, Atom):
        return f.name, _LEAF
    for symbol, (strength, assoc, _, split) in _INFIX.items():
        pair = split(f)
        if pair is not None:
            (ls, lp), (rs, rp) = out[pair[0]], out[pair[1]]
            left = _wrap(ls, lp < strength or lp == strength and assoc != "left")
            right = _wrap(rs, rp < strength or rp == strength and assoc != "right")
            return f"{left} {symbol} {right}", strength
    if isinstance(f, Not):
        cs, cp = out[f.child]
        return f"~{_wrap(cs, cp < _UNARY)}", _UNARY
    if isinstance(f, _MODAL_TYPES):
        cs, cp = out[f.child]
        needed = cp < _UNARY or isinstance(f.child, _MODAL_TYPES)
        return f"{_MODAL_LETTER[type(f)]} {_wrap(cs, needed)}", _UNARY
    raise TypeError(f"not a formula node: {f!r}")


def render(f: Formula) -> str:
    """Concrete syntax for a core tree; parse(render(f)) == f."""
    out: dict[Formula, tuple[str, int]] = {}
    for g in subformulas(f):
        out[g] = _render_node(g, out)
    return out[f][0]


# --- structural helpers ------------------------------------------------------

def atom_names(f: Formula) -> frozenset[str]:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))


def modal_depth(f: Formula) -> int:
    depth: dict[Formula, int] = {}
    for g in subformulas(f):
        below = max((depth[c] for c in g.children), default=0)
        depth[g] = below + isinstance(g, _MODAL_TYPES)
    return depth[f]


def _operators(f: Formula) -> set[type]:
    return {type(g) for g in subformulas(f) if isinstance(g, _MODAL_TYPES)}


def in_expertise_language(f: Formula) -> bool:
    """True when f uses only E, S and A (evaluable on expertise models)."""
    return ModalK not in _operators(f)


def in_sa_fragment(f: Formula) -> bool:
    """True when f uses only S and A (no expertise or knowledge operator)."""
    return not ({ModalE, ModalK} & _operators(f))


def in_ka_fragment(f: Formula) -> bool:
    """True when f uses only K and A (evaluable on relational models)."""
    return not ({ModalE, ModalS} & _operators(f))


# --- translations ----------------------------------------------------------

def to_knowledge_form(f: Formula) -> Formula:
    """Rewrite an E/S/A formula into the K/A fragment.

    Expertise about a formula becomes 'wherever it holds, it is known'
    (A (f -> K f)); soundness becomes compatibility with knowledge (~K ~f).
    Together with to_s5_model this preserves truth state by state.
    """
    if not in_expertise_language(f):
        raise ValueError("formula already mentions K; nothing to translate")
    return rebuild(
        f,
        {
            ModalE: lambda g, t: ModalA(Imp(t, ModalK(t))),
            ModalS: lambda g, t: Not(ModalK(Not(t))),
        },
    )


def eliminate_expertise(f: Formula) -> Formula:
    """Rewrite E away inside the source language itself.

    Each E g becomes A (S g' -> g'): a formula is a matter of expertise
    exactly when every state whose soundness claim for it holds actually
    satisfies it.  S, A and the propositional structure are untouched, so
    the result lands in the S/A fragment.
    """
    if not in_expertise_language(f):
        raise ValueError("K has no expertise reading; formula must be K-free")
    return rebuild(f, {ModalE: lambda g, h: ModalA(Imp(ModalS(h), h))})
