"""Abstract syntax for the two-sorted object language.

The language talks about natural numbers and one-place number functions
(points of Baire space).  Lower-case identifiers are number variables,
`@`-prefixed identifiers range over functions, so a name alone tells its
sort and names of the two sorts never clash.

Terms, functors and formulas are immutable dataclasses, so syntax trees can
be hashed, cached and compared structurally.  Substitution is
capture-avoiding; bound variables are renamed with trailing apostrophes when
a clash forces it.

Every pass that only recurses through the tree is written once against one
table, `_SHAPES`, which gives each of the 23 node classes its child fields
and, for a binder, the sort of the variable it binds:

- `children(node)` is the tuple of child nodes in field order.  `Zero` and
  the variables have none; a binder's `var` is a name, not a child.
- A binder scopes over its last child only: the bound of `BForallN` and
  `BExistsN` lies outside the scope.  `binds(node)` is the sort it binds,
  None for any other node.
- `rebuild(node, kids, var=None)` is a node of the same class with `kids`
  as children, binding `var` if given, else its old variable, so
  `rebuild(n, children(n)) == n`.  A leaf comes back as it is.

A node class missing from the table makes these raise TypeError.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .errors import BairelabError


class SortError(BairelabError):
    """A variable name was used at the wrong sort."""


NUM_NAME = re.compile(r"[a-z][a-z0-9_']*\Z")
FUN_NAME = re.compile(r"@[a-z][a-z0-9_']*\Z")


def check_num_name(name: str) -> str:
    if not NUM_NAME.match(name):
        raise SortError(f"invalid number variable name: {name!r}")
    return name


def check_fun_name(name: str) -> str:
    if not FUN_NAME.match(name):
        raise SortError(f"invalid function variable name: {name!r}")
    return name


class Sort(Enum):
    NUM = "num"
    FUN = "fun"


class _Binder:
    """Checks a binder's variable against the sort `_SHAPES` gives it."""

    def __post_init__(self) -> None:
        if _SHAPES[type(self)][1] is Sort.NUM:
            check_num_name(self.var)
        else:
            check_fun_name(self.var)


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class Succ(Term):
    arg: Term


@dataclass(frozen=True)
class NumVar(Term):
    name: str

    def __post_init__(self) -> None:
        check_num_name(self.name)


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Apply(Term):
    """Application of a functor to a number term."""

    fn: "Functor"
    arg: Term


@dataclass(frozen=True)
class Pair(Term):
    """The 2^a * 3^b pairing of two numbers."""

    left: Term
    right: Term


@dataclass(frozen=True)
class SeqExt(Term):
    """One-step extension of a coded finite sequence by a number."""

    seq: Term
    item: Term


@dataclass(frozen=True)
class PrefixCode(Term):
    """Code of the length-`length` initial segment of a function."""

    fn: "Functor"
    length: Term


# ---------------------------------------------------------------------------
# functors


@dataclass(frozen=True)
class Functor:
    pass


@dataclass(frozen=True)
class FnVar(Functor):
    name: str

    def __post_init__(self) -> None:
        check_fun_name(self.name)


@dataclass(frozen=True)
class Lambda(_Binder, Functor):
    var: str
    body: Term


@dataclass(frozen=True)
class ContApply(Functor):
    """Continuous application of one function to another.

    The result is again a number function; evaluation is partial and
    handled by the realizability machinery, the syntax is just a former.
    """

    fn: Functor
    arg: Functor


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class ForallN(_Binder, Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ExistsN(_Binder, Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ForallF(_Binder, Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ExistsF(_Binder, Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class BForallN(_Binder, Formula):
    """Number quantifier bounded by a term: forall var < bound. body."""

    var: str
    bound: Term
    body: Formula


@dataclass(frozen=True)
class BExistsN(_Binder, Formula):
    var: str
    bound: Term
    body: Formula


# ---------------------------------------------------------------------------
# numerals


def numeral(n: int) -> Term:
    if n < 0:
        raise ValueError("numerals denote naturals")
    t: Term = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


# 0 = 1, the false equation standing for falsum
FALSUM = Eq(Zero(), Succ(Zero()))


def numeral_value(t: Term) -> int | None:
    """The natural a term denotes if it is a bare successor tower, else None."""
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.arg
    return n if isinstance(t, Zero) else None


# ---------------------------------------------------------------------------
# traversal

Node = Term | Functor | Formula

# class -> (child fields in order, sort bound in the last child or None)
_SHAPES: dict[type, tuple[tuple[str, ...], Sort | None]] = {
    Zero: ((), None),
    Succ: (("arg",), None),
    NumVar: ((), None),
    Add: (("left", "right"), None),
    Mul: (("left", "right"), None),
    Apply: (("fn", "arg"), None),
    Pair: (("left", "right"), None),
    SeqExt: (("seq", "item"), None),
    PrefixCode: (("fn", "length"), None),
    FnVar: ((), None),
    Lambda: (("body",), Sort.NUM),
    ContApply: (("fn", "arg"), None),
    Eq: (("left", "right"), None),
    And: (("left", "right"), None),
    Or: (("left", "right"), None),
    Imp: (("left", "right"), None),
    Not: (("body",), None),
    ForallN: (("body",), Sort.NUM),
    ExistsN: (("body",), Sort.NUM),
    ForallF: (("body",), Sort.FUN),
    ExistsF: (("body",), Sort.FUN),
    BForallN: (("bound", "body"), Sort.NUM),
    BExistsN: (("bound", "body"), Sort.NUM),
}

_VARS = (NumVar, FnVar)


def _getter(fields: tuple[str, ...]):
    """node -> tuple of its `fields`, in C where attrgetter allows."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(*fields)
        return lambda node: (get(node),)
    return lambda node: ()


_CHILDREN = {cls: _getter(fields) for cls, (fields, _) in _SHAPES.items()}


def _shape(node: Node) -> tuple[tuple[str, ...], Sort | None]:
    try:
        return _SHAPES[type(node)]
    except KeyError:
        raise TypeError(f"unknown node: {node!r}") from None


def children(node: Node) -> tuple[Node, ...]:
    """The child nodes in field order; a binder's scope is its last child."""
    try:
        get = _CHILDREN[type(node)]
    except KeyError:
        raise TypeError(f"unknown node: {node!r}") from None
    return get(node)


def binds(node: Node) -> Sort | None:
    """The sort of the variable a binder binds, or None for other nodes."""
    return _shape(node)[1]


def rebuild(node: Node, kids: tuple[Node, ...], var: str | None = None) -> Node:
    """A node of the same class with `kids` as children; a binder binds
    `var` if given, else its old variable.  Leaves come back unchanged."""
    fields, sort = _shape(node)
    if not fields:
        return node
    if sort is None:
        return type(node)(*kids)
    return type(node)(node.var if var is None else var, *kids)


def tree_depth(node: Node) -> int:
    """Levels in the tree, 1 for a leaf; counted level by level, without
    recursion, so it is safe on trees of any depth."""
    level, depth = [node], 0
    while level:
        depth += 1
        level = [k for n in level for k in children(n)]
    return depth


def _var(name: str) -> NumVar | FnVar:
    return FnVar(name) if name.startswith("@") else NumVar(name)


# ---------------------------------------------------------------------------
# free variables


def _free_names(node: Node) -> set[str]:
    """Free variable names of both sorts (the `@` tells them apart)."""
    out: set[str] = set()

    def walk(n: Node, bound: frozenset[str]) -> None:
        if isinstance(n, _VARS):
            if n.name not in bound:
                out.add(n.name)
            return
        kids = children(n)
        if binds(n) is not None:
            *kids, body = kids
            walk(body, bound | {n.var})
        for k in kids:
            walk(k, bound)

    walk(node, frozenset())
    return out


def free_vars(node: Node) -> tuple[frozenset[str], frozenset[str]]:
    """Free (number, function) variable names of any syntax node."""
    names = _free_names(node)
    funs = frozenset(n for n in names if n.startswith("@"))
    return frozenset(names) - funs, funs


def _fresh(base: str, avoid: frozenset[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# substitution
#
# One engine serves both public entry points.  env maps variable names
# (number names plain, function names with the @) to replacement nodes;
# avoid holds the names a renamed binder must dodge.


def _subst(node: Node, env: dict[str, Node], avoid: frozenset[str]) -> Node:
    if not env:
        return node
    if isinstance(node, _VARS):
        return env.get(node.name, node)
    kids = children(node)
    if binds(node) is None:
        return rebuild(node, tuple([_subst(k, env, avoid) for k in kids]))
    *outer, body = kids
    outer = [_subst(k, env, avoid) for k in outer]
    v = node.var
    free = _free_names(body)
    inner = {k: x for k, x in env.items() if k != v and k in free}
    # capture: the binder's own variable is free in a replacement that applies
    if any(v in _free_names(x) for x in inner.values()):
        v2 = _fresh(v, avoid | _ranging_names(inner) | free | {v})
        body = _subst(body, {v: _var(v2)}, frozenset({v2}))
        v = v2
    if inner:
        body = _subst(body, inner, avoid | {v})
    return rebuild(node, (*outer, body), v)


def _ranging_names(env: dict[str, Node]) -> frozenset[str]:
    return frozenset().union(*map(_free_names, env.values()))


def subst_num(node: Node, var: str, replacement: Term) -> Node:
    """Substitute a term for a free number variable, avoiding capture."""
    check_num_name(var)
    return _subst(node, {var: replacement}, frozenset(_free_names(replacement)))


def subst_fun(node: Node, var: str, replacement: Functor) -> Node:
    """Substitute a functor for a free function variable, avoiding capture."""
    check_fun_name(var)
    return _subst(node, {var: replacement}, frozenset(_free_names(replacement)))


# ---------------------------------------------------------------------------
# alpha equivalence and canonical renaming


def alpha_eq(a: Node, b: Node) -> bool:
    """Structural equality up to renaming of bound variables."""

    def go(x: Node, y: Node, ex: dict[str, str], ey: dict[str, str], d: int) -> bool:
        if type(x) is not type(y):
            return False
        if isinstance(x, _VARS):
            return ex.get(x.name, x.name) == ey.get(y.name, y.name)
        xs, ys = children(x), children(y)
        if binds(x) is None:
            return all(go(p, q, ex, ey, d) for p, q in zip(xs, ys))
        tag = f"#{d}"
        return all(go(p, q, ex, ey, d) for p, q in zip(xs[:-1], ys[:-1])) and go(
            xs[-1], ys[-1], {**ex, x.var: tag}, {**ey, y.var: tag}, d + 1
        )

    return go(a, b, {}, {}, 0)


def canon(node: Node) -> Node:
    """Rename bound variables to a fixed scheme so alpha-equal trees collide.

    Bound number variables become x0, x1, ... and bound function variables
    @f0, @f1, ..., numbered together in traversal order.  Free variables
    are untouched, and a scheme name that occurs free is skipped, so no
    binder captures it.
    """
    out, free, given = _canon(node, frozenset())
    if free & given:  # rare: a free variable bears a scheme name
        out = _canon(node, frozenset(free))[0]
    return out


def _canon(node: Node, skip: frozenset[str]) -> tuple[Node, set[str], set[str]]:
    """canon skipping the names in skip; also the free names met and the
    scheme names given out, collected on the same walk."""
    counter = itertools.count()
    free: set[str] = set()
    given: set[str] = set()

    def go(n: Node, env: dict[str, str]) -> Node:
        if isinstance(n, _VARS):
            if n.name in env:
                return type(n)(env[n.name])
            free.add(n.name)
            return n
        kids = children(n)
        sort = binds(n)
        if sort is None:
            return rebuild(n, tuple([go(k, env) for k in kids]))
        outer = [go(k, env) for k in kids[:-1]]
        prefix = "x" if sort is Sort.NUM else "@f"
        while (v2 := f"{prefix}{next(counter)}") in skip:
            pass
        given.add(v2)
        return rebuild(n, (*outer, go(kids[-1], {**env, n.var: v2})), v2)

    return go(node, {}), free, given
