"""Concrete syntax: lexer and recursive descent parser.

Grammar sketch (precedence low to high):

    formula  :=  imp
    imp      :=  or  ('->' imp)?                      right associative
    or       :=  and ('|' and)*
    and      :=  neg ('&' neg)*
    neg      :=  '~' neg | quant | atom
    quant    :=  ('forall' | 'exists') binder ('<' term)? '.' formula
    atom     :=  term '=' term  |  '(' formula ')'
    term     :=  factor ('+' factor)*
    factor   :=  power ('*' power)*
    power    :=  '2' '^' power_operand '*' '3' '^' power_operand   (pairing)
              |  prim
    prim     :=  '0' | numeral | 'S' '(' term ')' | var | funapp
              |  'ext' '(' term ',' term ')' | 'barof' '(' functor ',' term ')'
              |  '(' term ')'

The lexer is one token table, a compiled regex with a named group per
token kind, and one name rule for both sorts: a word is `S`, a keyword, a
number variable (lower-case identifier) or, with a leading `@`, a function
variable, and a word that is none of these is refused with its position.
Numerals are ASCII digits.  Binders use maximal right scope.  `*` binds
tighter than `+`; both associate left.  Errors carry line and column plus
the tokens that would have allowed progress at the farthest point reached.

Input nested deeper than MAX_DEPTH levels is refused with a NestingError,
both while parsing (brackets, prefix operators, binders) and in the
finished tree (long chains of `&` or `+`, numerals).

parse_prop reads the oracles' propositional formulas with the same lexer
and the same `imp`/`or`/`and`/`neg` productions; only its atom differs:
`'(' formula ')'`, `bot` for falsum, or a name p for the equation p = 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, TypeVar

from .errors import BairelabError
from .syntax import (
    Add,
    And,
    Apply,
    BExistsN,
    BForallN,
    ContApply,
    Eq,
    ExistsF,
    ExistsN,
    FnVar,
    ForallF,
    ForallN,
    Formula,
    Functor,
    Imp,
    FALSUM,
    FUN_NAME,
    NUM_NAME,
    Lambda,
    Mul,
    Not,
    NumVar,
    Or,
    Pair,
    PrefixCode,
    SeqExt,
    Succ,
    Term,
    Zero,
    children,
    numeral,
    tree_depth,
)

MAX_DEPTH = 100
"""The deepest nesting accepted.  Every pass over syntax trees recurses a
few frames per tree level, and the parser about five per nesting level,
so all of them stay well inside Python's default recursion limit."""

KEYWORDS = frozenset({"forall", "exists", "lam", "barof", "ext", "ap"})

_TOKEN = re.compile(
    r"""(?P<NL>\n) | (?P<WS>[ \t\r]+) | (?P<NUM>[0-9]+) | (?P<NAME>@?[\w']+)
      | (?P<ARROW>->) | (?P<NOT>~) | (?P<AND>&) | (?P<OR>\|) | (?P<EQ>=) | (?P<LT><)
      | (?P<LPAR>\() | (?P<RPAR>\)) | (?P<DOT>\.) | (?P<COMMA>,) | (?P<PLUS>\+)
      | (?P<STAR>\*) | (?P<CARET>\^) | (?P<BAD>.)""",
    re.VERBOSE,
)

T = TypeVar("T")


class ParseError(BairelabError):
    def __init__(self, message: str, line: int, col: int, expected: frozenset[str] = frozenset()):
        self.line = line
        self.col = col
        self.expected = expected
        hint = ""
        if expected:
            hint = " (expected one of: " + ", ".join(sorted(expected)) + ")"
        super().__init__(f"{line}:{col}: {message}{hint}")


class NestingError(ParseError):
    """Input nested deeper than MAX_DEPTH levels."""


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        match kind:
            case "NL":
                line, line_start = line + 1, m.end()
                continue
            case "WS":
                continue
            case "BAD":
                raise ParseError(f"unexpected character {text!r}", line, col)
            case "NAME" if text == "S":
                kind = "SUCC"
            case "NAME" if text[0] == "@":
                if not FUN_NAME.match(text):
                    raise ParseError(f"invalid function variable name {text!r}", line, col)
                kind = "FVAR"
            case "NAME":
                if not NUM_NAME.match(text):
                    raise ParseError(f"invalid number variable name {text!r}", line, col)
                kind = text.upper() if text in KEYWORDS else "IDENT"
        toks.append(Token(kind, text, line, col))
    toks.append(Token("EOF", "", line, len(src) - line_start + 1))
    return toks


@dataclass
class _State:
    toks: list[Token]
    pos: int = 0
    # farthest failure bookkeeping, merged across backtracking
    fail_pos: int = -1
    fail_expected: set[str] = field(default_factory=set)
    depth: int = 0  # nesting levels open at pos
    # the atom production: _atom, or parse_prop's own
    atom: Callable[[_State], Formula] = field(default_factory=lambda: _atom)

    def enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            t = self.peek()
            raise NestingError(f"nesting deeper than {MAX_DEPTH} levels", t.line, t.col)

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def take(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.want(kind)
            raise self.error()
        self.pos += 1
        return t

    def eat(self, kind: str) -> Token | None:
        if self.at(kind):
            return self.take(kind)
        return None

    def want(self, *kinds: str) -> None:
        if self.pos > self.fail_pos:
            self.fail_pos = self.pos
            self.fail_expected = set(kinds)
        elif self.pos == self.fail_pos:
            self.fail_expected.update(kinds)

    def attempt(self, production: Callable[..., T], *args) -> T | None:
        """The production's result, or None with pos and depth restored if it
        fails; nesting too deep is final and always propagates."""
        mark = self.pos, self.depth
        try:
            return production(self, *args)
        except NestingError:
            raise
        except ParseError:
            self.pos, self.depth = mark
            return None

    def error(self) -> ParseError:
        at = self.toks[min(max(self.fail_pos, self.pos), len(self.toks) - 1)]
        got = at.text or "end of input"
        return ParseError(f"unexpected {got!r}", at.line, at.col, frozenset(self.fail_expected))


def parse_formula(src: str) -> Formula:
    return _parse(_State(tokenize(src)), tree_depth, "syntax tree")


def _parse(st: _State, depth_of: Callable[[Formula], int], noun: str) -> Formula:
    """The formula spanning all of st's tokens, refused when depth_of counts
    more than MAX_DEPTH levels in it."""
    f = _imp(st)
    if not st.at("EOF"):
        st.want("EOF")
        raise st.error()
    depth = depth_of(f)
    if depth > MAX_DEPTH:
        raise NestingError(f"{noun} nests {depth} levels deep; the limit is {MAX_DEPTH}", 1, 1)
    return f


# -- formulas ---------------------------------------------------------------


def _imp(st: _State) -> Formula:
    st.enter()
    f = _or(st)
    if st.eat("ARROW"):
        f = Imp(f, _imp(st))
    st.depth -= 1
    return f


def _or(st: _State) -> Formula:
    f = _and(st)
    while st.eat("OR"):
        f = Or(f, _and(st))
    return f


def _and(st: _State) -> Formula:
    f = _neg(st)
    while st.eat("AND"):
        f = And(f, _neg(st))
    return f


def _neg(st: _State) -> Formula:
    if st.eat("NOT"):
        st.enter()
        f = Not(_neg(st))
        st.depth -= 1
        return f
    if st.at("FORALL") or st.at("EXISTS"):
        return _quant(st)
    return st.atom(st)


def _quant(st: _State) -> Formula:
    univ = st.at("FORALL")
    st.take("FORALL" if univ else "EXISTS")
    if st.at("FVAR"):
        v = st.take("FVAR").text
        st.take("DOT")
        body = _imp(st)
        return ForallF(v, body) if univ else ExistsF(v, body)
    if st.at("IDENT"):
        v = st.take("IDENT").text
        if st.eat("LT"):
            bound = _term(st)
            st.take("DOT")
            body = _imp(st)
            return BForallN(v, bound, body) if univ else BExistsN(v, bound, body)
        st.take("DOT")
        body = _imp(st)
        return ForallN(v, body) if univ else ExistsN(v, body)
    st.want("IDENT", "FVAR")
    raise st.error()


def _parens(st: _State, production: Callable[[_State], T]) -> T:
    st.take("LPAR")
    x = production(st)
    st.take("RPAR")
    return x


def _atom(st: _State) -> Formula:
    # both a parenthesized formula and a parenthesized left term open with
    # '(': try the formula reading first and fall back
    if st.at("LPAR") and (f := st.attempt(_parens, _imp)) is not None:
        return f
    t = _term(st)
    st.take("EQ")
    return Eq(t, _term(st))


# -- terms ------------------------------------------------------------------


def _term(st: _State) -> Term:
    st.enter()
    t = _factor(st)
    while st.eat("PLUS"):
        t = Add(t, _factor(st))
    st.depth -= 1
    return t


def _factor(st: _State) -> Term:
    # pairing sugar: 2^a * 3^b, recognized by lookahead before plain products
    t: Term | None = None
    if st.at("NUM") and st.peek().text == "2" and st.peek(1).kind == "CARET":
        t = st.attempt(_pair)
    if t is None:
        t = _prim(st)
    while st.eat("STAR"):
        t = Mul(t, _prim(st))
    return t


def _pair(st: _State) -> Term:
    st.take("NUM")
    st.take("CARET")
    a = _prim(st)
    st.take("STAR")
    three = st.take("NUM")
    if three.text != "3":
        st.want("NUM")
        raise ParseError("pairing needs base 3 after base 2", three.line, three.col)
    st.take("CARET")
    b = _prim(st)
    return Pair(a, b)


def _prim(st: _State) -> Term:
    t = st.peek()
    match t.kind:
        case "NUM":
            st.take("NUM")
            if len(t.text) > len(str(MAX_DEPTH)) or int(t.text) >= MAX_DEPTH:
                raise NestingError(f"numeral nests deeper than {MAX_DEPTH} levels", t.line, t.col)
            return numeral(int(t.text))
        case "SUCC":
            st.take("SUCC")
            return Succ(_parens(st, _term))
        case "IDENT":
            st.take("IDENT")
            return NumVar(t.text)
        case "EXT":
            st.take("EXT")
            st.take("LPAR")
            s = _term(st)
            st.take("COMMA")
            item = _term(st)
            st.take("RPAR")
            return SeqExt(s, item)
        case "BAROF":
            st.take("BAROF")
            st.take("LPAR")
            f = _functor(st)
            st.take("COMMA")
            ln = _term(st)
            st.take("RPAR")
            return PrefixCode(f, ln)
        # a lambda functor also opens with '(': try a plain term first
        case "LPAR" if (inner := st.attempt(_parens, _term)) is not None:
            return inner
        case "FVAR" | "LAM" | "AP" | "LPAR":
            f = _functor(st)
            return Apply(f, _parens(st, _term))
        case _:
            st.want("NUM", "SUCC", "IDENT", "FVAR", "LAM", "AP", "EXT", "BAROF", "LPAR")
            raise st.error()


# -- functors ---------------------------------------------------------------


def _functor(st: _State) -> Functor:
    st.enter()
    t = st.peek()
    match t.kind:
        case "FVAR":
            st.take("FVAR")
            f: Functor = FnVar(t.text)
        case "AP":
            st.take("AP")
            st.take("LPAR")
            f = _functor(st)
            st.take("COMMA")
            g = _functor(st)
            st.take("RPAR")
            f = ContApply(f, g)
        case "LAM":
            f = _lambda_tail(st)
        case "LPAR":
            f = _parens(st, _functor)
        case _:
            st.want("FVAR", "LAM", "AP", "LPAR")
            raise st.error()
    st.depth -= 1
    return f


def _lambda_tail(st: _State) -> Functor:
    st.take("LAM")
    v = st.take("IDENT").text
    st.take("DOT")
    body = _term(st)
    return Lambda(v, body)


# -- propositional formulas -------------------------------------------------


def _prop_depth(f: Formula) -> int:
    """Levels of formula nodes, so an atom or falsum is one level; counted
    level by level without recursion."""
    level, depth = [f], 0
    while level:
        depth += 1
        level = [k for n in level for k in children(n) if isinstance(k, Formula)]
    return depth


def _prop_atom(st: _State) -> Formula:
    if st.at("LPAR"):
        return _parens(st, _imp)
    if not st.at("IDENT"):
        st.want("IDENT", "LPAR")
        raise st.error()
    name = st.take("IDENT").text
    return FALSUM if name == "bot" else Eq(NumVar(name), Zero())


def parse_prop(src: str) -> Formula:
    """Parse `~ & | ->` over atoms, which are number variable names, keywords
    included; `bot` is falsum.  An atom p stands for the equation p = 0, so
    the result lies in the object language's propositional fragment.  Like
    parse_formula, it refuses nesting deeper than MAX_DEPTH levels, counted
    in formula levels."""
    toks = [t._replace(kind="IDENT") if t.text in KEYWORDS else t for t in tokenize(src)]
    return _parse(_State(toks, atom=_prop_atom), _prop_depth, "formula")
