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
Whitespace is insignificant between tokens.  An unknown capital letter in
operator position ('B p') raises UnknownOperatorError rather than a generic
syntax error.

Everything is desugared at parse time onto seven core constructors: Atom,
Not, And, ModalE (objective expertise), ModalS (soundness), ModalA
(universal quantification over states) and ModalK (knowledge, used only on
the relational side of the translation).  Derived forms::

    a | b    ==  ~(~a & ~b)
    a -> b   ==  ~(a & ~b)
    a <-> b  ==  (a -> b) & (b -> a)
    T        ==  top | ~top         (reserved-but-ordinary atom 'top';
    F        ==  ~T                  a user atom 'top' collides harmlessly)
    Op^ a    ==  ~Op ~a             for Op in E, S, A, K

Nodes are hash-consed: building a node with the type and fields of a live
node returns that node, so a formula is a DAG in which each distinct
subformula exists once, `==` is identity and hashing is O(1).  The intern
table holds nodes weakly; a node lives as long as a caller or a parent
holds it.  subformulas(f) is the one traversal: an explicit-stack loop that
yields each distinct node of f once, children before parents and left
before right.  Every other walk (the renderer, the structural helpers, the
translations, and the evaluators and proof checks built on this module) is
a loop over it that fills a dict keyed by node, and the parser works with
explicit operator stacks, so no function recurses on a formula's depth.

render() inverts the sugar for T, F, '|', '->' and '<->' but never for the
duals, and prints the minimal spacing/parenthesisation used throughout the
docs; parse(render(f)) == f for every core tree f.
"""

from __future__ import annotations

import functools
import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from typing import NamedTuple

# (node type, *fields) -> weak reference to the live node with those fields
_NODES: dict[tuple, weakref.ref] = {}
_NODES_LOCK = threading.Lock()


def _forget(key: tuple, ref: weakref.ref) -> None:
    """Called when a node dies: drop its entry unless a new node took the key.

    _remove_dead_weakref deletes the entry only while it is a dead
    reference, in one step, so it needs no lock.
    """
    _remove_dead_weakref(_NODES, key)


class Formula:
    """Base class of the syntax-tree node types.

    A node type lists its fields in __slots__ and is built from them
    positionally.  `children` is the tuple of fields that are subformulas:
    all of them, except for leaves (`_leaf`), whose one field is a name.
    Nodes are immutable and interned.
    """

    __slots__ = ("children", "__weakref__")
    _leaf = False

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _NODES.get(key)
        node = None if ref is None else ref()
        if node is not None:
            return node
        if len(fields) != len(cls.__slots__):
            raise TypeError(
                f"{cls.__name__} takes {len(cls.__slots__)} argument(s), got {len(fields)}"
            )
        with _NODES_LOCK:
            # another thread may have built it since the lookup above
            ref = _NODES.get(key)
            node = None if ref is None else ref()
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(cls.__slots__, fields):
                    object.__setattr__(node, name, value)
                object.__setattr__(node, "children", () if cls._leaf else fields)
                _NODES[key] = weakref.ref(node, functools.partial(_forget, key))
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


_MODAL_TYPES = (ModalE, ModalS, ModalA, ModalK)
_MODAL_LETTER = {ModalE: "E", ModalS: "S", ModalA: "A", ModalK: "K"}


def subformulas(f: Formula):
    """Yield each distinct node of f once, children before parents and left
    before right (the order in which a post-order walk first finishes them).
    """
    done: set[Formula] = set()
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


RESERVED_TOP_ATOM = "top"
TOP: Formula = Or(Atom(RESERVED_TOP_ATOM), Not(Atom(RESERVED_TOP_ATOM)))
BOT: Formula = Not(TOP)


# --- errors ---------------------------------------------------------------

class FormulaSyntaxError(ValueError):
    """Malformed formula text.  .position is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position + 1})")
        self.position = position


class UnknownOperatorError(FormulaSyntaxError):
    """A capital letter other than E, S, A, K, T, F in operator position."""


# --- tokenizer ------------------------------------------------------------

_TOKEN_ATOM = re.compile(r"[a-z][a-z0-9_]*")


def is_atom_name(text: str) -> bool:
    """True when `text` is a legal atom token."""
    return _TOKEN_ATOM.fullmatch(text) is not None

_OPERATOR_LETTERS = {"E": ModalE, "S": ModalS, "A": ModalA, "K": ModalK}


class _Token(NamedTuple):
    kind: str  # one of ( ) ~ & | -> <-> modal const atom eof
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()~&|":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c == "-":
            if text.startswith("->", i):
                tokens.append(_Token("->", "->", i))
                i += 2
                continue
            raise FormulaSyntaxError("expected '->'", i)
        if c == "<":
            if text.startswith("<->", i):
                tokens.append(_Token("<->", "<->", i))
                i += 3
                continue
            raise FormulaSyntaxError("expected '<->'", i)
        if c in _OPERATOR_LETTERS:
            if i + 1 < n and text[i + 1] == "^":
                tokens.append(_Token("modal", c + "^", i))
                i += 2
            else:
                tokens.append(_Token("modal", c, i))
                i += 1
            continue
        if c in ("T", "F"):
            tokens.append(_Token("const", c, i))
            i += 1
            continue
        if c.isupper():
            raise UnknownOperatorError(f"unknown operator {c!r}", i)
        m = _TOKEN_ATOM.match(text, i)
        if m:
            tokens.append(_Token("atom", m.group(), i))
            i = m.end()
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


# --- parser ---------------------------------------------------------------

# infix connective -> (binding strength, constructor); higher binds tighter.
# '&' and '|' associate to the left, '->' to the right, '<->' not at all.
_INFIX = {"&": (4, And), "|": (3, Or), "->": (2, Imp), "<->": (1, Iff)}
_LEFT_ASSOCIATIVE = ("&", "|")


def _apply_prefixes(operands: list[Formula], pending: list[_Token]) -> None:
    """Apply the unary operators waiting directly before the last operand."""
    while pending and pending[-1].kind in ("~", "modal"):
        tok = pending.pop()
        f = operands[-1]
        if tok.kind == "~":
            f = Not(f)
        else:
            ctor = _OPERATOR_LETTERS[tok.text[0]]
            f = Not(ctor(Not(f))) if tok.text.endswith("^") else ctor(f)
        operands[-1] = f


def _reduce(operands: list[Formula], pending: list[_Token], strength: int) -> None:
    """Apply the waiting infix connectives that bind at least this tightly."""
    while pending and pending[-1].kind in _INFIX and _INFIX[pending[-1].kind][0] >= strength:
        right = operands.pop()
        operands[-1] = _INFIX[pending.pop().kind][1](operands[-1], right)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a core tree (all sugar eliminated).

    Operator precedence over explicit stacks: `operands` holds finished
    subformulas, `pending` the operators and open parentheses not yet
    applied.
    """
    operands: list[Formula] = []
    pending: list[_Token] = []
    open_parens = 0
    want_operand = True
    for tok in _tokenize(text):
        kind = tok.kind
        if want_operand:
            if kind in ("~", "modal", "("):
                open_parens += kind == "("
                pending.append(tok)
                continue
            if kind == "atom":
                operands.append(Atom(tok.text))
            elif kind == "const":
                operands.append(TOP if tok.text == "T" else BOT)
            elif kind == "eof":
                raise FormulaSyntaxError("unexpected end of input", tok.pos)
            else:
                raise FormulaSyntaxError(f"unexpected {tok.text!r}", tok.pos)
            _apply_prefixes(operands, pending)
            want_operand = False
        elif kind in _INFIX:
            strength = _INFIX[kind][0]
            _reduce(operands, pending, strength + (kind not in _LEFT_ASSOCIATIVE))
            if kind == "<->" and pending and pending[-1].kind == "<->":
                raise FormulaSyntaxError(
                    "'<->' is non-associative, parenthesise one side", tok.pos
                )
            pending.append(tok)
            want_operand = True
        elif kind == ")" and open_parens:
            _reduce(operands, pending, 0)
            pending.pop()  # the matching '('
            open_parens -= 1
            _apply_prefixes(operands, pending)
        elif open_parens:
            raise FormulaSyntaxError("expected ')'", tok.pos)
        elif kind == "eof":
            _reduce(operands, pending, 0)
            return operands[0]
        else:
            raise FormulaSyntaxError(f"unexpected {tok.text!r} after formula", tok.pos)


# --- renderer ---------------------------------------------------------------

# precedence of a printed form, higher binds tighter
_P_IFF, _P_IMP, _P_OR, _P_AND, _P_UNARY, _P_ATOM = range(6)


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


def _wrap(text: str, needed: bool) -> str:
    return f"({text})" if needed else text


def _render_node(f: Formula, out: dict[Formula, tuple[str, int]]) -> tuple[str, int]:
    """Text and precedence of f, given those of its subformulas in `out`."""
    if f == TOP:
        return "T", _P_ATOM
    if f == BOT:
        return "F", _P_ATOM
    if isinstance(f, Atom):
        return f.name, _P_ATOM
    if isinstance(f, And):
        pair = split_iff(f)
        if pair is not None:
            ls, lp = out[pair[0]]
            rs, rp = out[pair[1]]
            return (
                f"{_wrap(ls, lp <= _P_IFF)} <-> {_wrap(rs, rp <= _P_IFF)}",
                _P_IFF,
            )
        ls, lp = out[f.left]
        rs, rp = out[f.right]
        return f"{_wrap(ls, lp < _P_AND)} & {_wrap(rs, rp <= _P_AND)}", _P_AND
    if isinstance(f, Not):
        pair = split_or(f)
        if pair is not None:
            ls, lp = out[pair[0]]
            rs, rp = out[pair[1]]
            return f"{_wrap(ls, lp < _P_OR)} | {_wrap(rs, rp <= _P_OR)}", _P_OR
        pair = split_imp(f)
        if pair is not None:
            ls, lp = out[pair[0]]
            rs, rp = out[pair[1]]
            return f"{_wrap(ls, lp <= _P_IMP)} -> {_wrap(rs, rp < _P_IMP)}", _P_IMP
        cs, cp = out[f.child]
        return f"~{_wrap(cs, cp < _P_UNARY)}", _P_UNARY
    if isinstance(f, _MODAL_TYPES):
        cs, cp = out[f.child]
        needed = cp < _P_UNARY or isinstance(f.child, _MODAL_TYPES)
        return f"{_MODAL_LETTER[type(f)]} {_wrap(cs, needed)}", _P_UNARY
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
