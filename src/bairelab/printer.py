"""Pretty printer: inverse of the parser on formulas.

`parse_formula(format_formula(f)) == f` holds for every well-formed tree;
the round trip is exercised heavily by the test suite.  Quantifiers take
maximal right scope in the concrete syntax, so a quantifier is printed bare
exactly when nothing follows it on the right (possibly because an enclosing
parenthesis closes the scope), and wrapped in parentheses otherwise.
"""

from __future__ import annotations

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
    Lambda,
    Mul,
    Node,
    Not,
    NumVar,
    Or,
    Pair,
    PrefixCode,
    SeqExt,
    Succ,
    Term,
    Zero,
    binds,
    children,
    numeral_value,
)

# connective precedence, loose to tight
_IMP, _OR, _AND, _NOT = 1, 2, 3, 4
# binary connective -> (symbol, precedence of its left and right operand)
_BINARY = {Imp: ("->", _IMP + 1, _IMP), Or: ("|", _OR, _OR + 1), And: ("&", _AND, _AND + 1)}


def format_formula(f: Formula) -> str:
    return _fm(f, 0, True)


def _tm(t: Term, prec: int) -> str:
    # term precedence: + is 1, * is 2, everything else atomic (3)
    match t:
        case Zero():
            return "0"
        case Succ(inner):
            n = numeral_value(t)
            if n is not None:
                return str(n)
            return f"S({_tm(inner, 0)})"
        case NumVar(name):
            return name
        case Add(a, b):
            s = f"{_tm(a, 1)} + {_tm(b, 2)}"
            return f"({s})" if prec > 1 else s
        case Mul(a, b):
            s = f"{_tm(a, 2)} * {_tm(b, 3)}"
            return f"({s})" if prec > 2 else s
        case Pair(a, b):
            s = f"2^{_tm(a, 3)} * 3^{_tm(b, 3)}"
            return f"({s})" if prec > 2 else s
        case Apply(fn, a):
            head = _fn(fn)
            if isinstance(fn, Lambda):
                head = f"({head})"
            return f"{head}({_tm(a, 0)})"
        case SeqExt(s0, item):
            return f"ext({_tm(s0, 0)}, {_tm(item, 0)})"
        case PrefixCode(fn, ln):
            return f"barof({_fn(fn)}, {_tm(ln, 0)})"
        case _:
            raise TypeError(f"not a term: {t!r}")


def _fn(f: Functor) -> str:
    match f:
        case FnVar(name):
            return name
        case Lambda(v, body):
            return f"lam {v}. {_tm(body, 0)}"
        case ContApply(a, b):
            return f"ap({_fn(a)}, {_fn(b)})"
        case _:
            raise TypeError(f"not a functor: {f!r}")


def _quant_str(f: Formula, rightmost: bool) -> str:
    word = "forall" if isinstance(f, (ForallN, ForallF, BForallN)) else "exists"
    bound = f" < {_tm(f.bound, 0)}" if isinstance(f, (BForallN, BExistsN)) else ""
    s = f"{word} {f.var}{bound}. {_fm(f.body, 0, True)}"
    return s if rightmost else f"({s})"


def _fm(f: Formula, prec: int, rightmost: bool) -> str:
    match f:
        case Eq(a, b):
            return f"{_tm(a, 0)} = {_tm(b, 0)}"
        case Imp(a, b) | Or(a, b) | And(a, b):
            op, left, right = _BINARY[type(f)]
            wrap = prec > min(left, right)
            s = f"{_fm(a, left, False)} {op} {_fm(b, right, rightmost or wrap)}"
            return f"({s})" if wrap else s
        case Not(body):
            if isinstance(body, Eq):
                return f"~({_fm(body, 0, True)})"
            return f"~{_fm(body, _NOT, rightmost)}"
        case ForallN() | ExistsN() | ForallF() | ExistsF() | BForallN() | BExistsN():
            return _quant_str(f, rightmost)
        case _:
            raise TypeError(f"not a formula: {f!r}")


# s-expression head of each inner node; a binder's variable follows it
_SEXPR_HEADS = {
    Succ: "S",
    Add: "+",
    Mul: "*",
    Pair: "pair",
    SeqExt: "ext",
    PrefixCode: "barof",
    Apply: "app",
    Lambda: "lam",
    ContApply: "ap",
    Eq: "=",
    And: "and",
    Or: "or",
    Imp: "->",
    Not: "not",
    ForallN: "forall",
    ForallF: "forall",
    ExistsN: "exists",
    ExistsF: "exists",
    BForallN: "forall<",
    BExistsN: "exists<",
}


def to_sexpr(node: Node) -> str:
    """A compact s-expression rendering for machine consumption."""
    kids = children(node)
    if not kids:
        return "0" if isinstance(node, Zero) else node.name
    head = _SEXPR_HEADS[type(node)]
    if binds(node) is not None:
        head = f"{head} {node.var}"
    return f"({head} {' '.join(map(to_sexpr, kids))})"
