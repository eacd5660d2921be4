"""Propositional formulas: a little language for the logic oracles.

Kept separate from the object language on purpose: decision procedures for
propositional logic work on atoms, not on arithmetic equations.  Bridges in
the oracle module embed these into the object language and back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BairelabError
from .parser import MAX_DEPTH


@dataclass(frozen=True)
class PropFormula:
    pass


@dataclass(frozen=True)
class PAtom(PropFormula):
    name: str


@dataclass(frozen=True)
class PBot(PropFormula):
    """Falsum."""


@dataclass(frozen=True)
class PAnd(PropFormula):
    left: PropFormula
    right: PropFormula


@dataclass(frozen=True)
class POr(PropFormula):
    left: PropFormula
    right: PropFormula


@dataclass(frozen=True)
class PImp(PropFormula):
    left: PropFormula
    right: PropFormula


@dataclass(frozen=True)
class PNot(PropFormula):
    body: PropFormula


def atoms_of(f: PropFormula) -> frozenset[str]:
    match f:
        case PAtom(name):
            return frozenset({name})
        case PBot():
            return frozenset()
        case PAnd(a, b) | POr(a, b) | PImp(a, b):
            return atoms_of(a) | atoms_of(b)
        case PNot(a):
            return atoms_of(a)
        case _:
            raise TypeError(f"not a propositional formula: {f!r}")


class PropParseError(BairelabError):
    pass


def _depth(f: PropFormula) -> int:
    """Levels in the tree, counted level by level without recursion."""
    level, depth = [f], 0
    while level:
        depth += 1
        level = [k for n in level for k in vars(n).values() if isinstance(k, PropFormula)]
    return depth


def parse_prop(src: str) -> PropFormula:
    """Parse `~ & | ->` over lower-case atoms; `bot` is falsum.  Like
    parse_formula, it refuses nesting deeper than MAX_DEPTH levels."""
    toks: list[str] = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
        elif c.isalpha() and c.islower():
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(src[i:j])
            i = j
        elif src.startswith("->", i):
            toks.append("->")
            i += 2
        elif c in "~&|()":
            toks.append(c)
            i += 1
        else:
            raise PropParseError(f"unexpected character {c!r} at offset {i}")
    toks.append("<eof>")
    pos = [0]
    depth = [0]  # nesting levels open at pos

    def peek() -> str:
        return toks[pos[0]]

    def take(t: str) -> None:
        if peek() != t:
            raise PropParseError(f"expected {t!r}, got {peek()!r}")
        pos[0] += 1

    def enter() -> None:
        depth[0] += 1
        if depth[0] > MAX_DEPTH:
            raise PropParseError(f"nesting deeper than {MAX_DEPTH} levels")

    def p_imp() -> PropFormula:
        enter()
        a = p_or()
        if peek() == "->":
            take("->")
            a = PImp(a, p_imp())
        depth[0] -= 1
        return a

    def p_or() -> PropFormula:
        a = p_and()
        while peek() == "|":
            take("|")
            a = POr(a, p_and())
        return a

    def p_and() -> PropFormula:
        a = p_neg()
        while peek() == "&":
            take("&")
            a = PAnd(a, p_neg())
        return a

    def p_neg() -> PropFormula:
        if peek() == "~":
            take("~")
            enter()
            a = PNot(p_neg())
            depth[0] -= 1
            return a
        return p_atom()

    def p_atom() -> PropFormula:
        t = peek()
        if t == "(":
            take("(")
            f = p_imp()
            take(")")
            return f
        if t == "bot":
            take("bot")
            return PBot()
        if t.isidentifier() and t != "<eof>":
            take(t)
            return PAtom(t)
        raise PropParseError(f"expected an atom, got {t!r}")

    f = p_imp()
    if peek() != "<eof>":
        raise PropParseError(f"trailing input at {peek()!r}")
    levels = _depth(f)
    if levels > MAX_DEPTH:
        raise PropParseError(f"formula nests {levels} levels deep; the limit is {MAX_DEPTH}")
    return f
