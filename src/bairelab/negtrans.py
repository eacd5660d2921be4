"""Double negation translation into the negative fragment.

The translation doubles every atom, turns disjunction into the de Morgan
dual over negations, and replaces existential quantifiers by negated
universals; conjunction, implication, negation and universal quantifiers
pass through.  Bounded quantifiers are treated like their unbounded sort.

`repair_bi_clause1` undoes the translation on exactly one clause shape:
a negated universal over a triple-negated bar-hit equation is rewritten
back to the existential it came from, which a Markov-style principle
justifies for this decidable matrix.
"""

from __future__ import annotations

from .errors import BairelabError
from .syntax import (
    And,
    Apply,
    BExistsN,
    BForallN,
    Eq,
    ExistsF,
    ExistsN,
    FnVar,
    ForallF,
    ForallN,
    Formula,
    Imp,
    Not,
    NumVar,
    Or,
    PrefixCode,
    Zero,
    children,
    rebuild,
)


class ShapeMismatchError(BairelabError):
    """Input does not have the clause structure the repair expects."""


def neg_translate(f: Formula) -> Formula:
    match f:
        case Eq(_, _):
            return Not(Not(f))
        case And() | Imp() | Not() | ForallN() | ForallF() | BForallN():
            return _map_subformulas(neg_translate, f)
        case Or(a, b):
            return Not(And(Not(neg_translate(a)), Not(neg_translate(b))))
        case ExistsN(v, a):
            return Not(ForallN(v, Not(neg_translate(a))))
        case ExistsF(v, a):
            return Not(ForallF(v, Not(neg_translate(a))))
        case BExistsN(v, t, a):
            return Not(BForallN(v, t, Not(neg_translate(a))))
        case _:
            raise TypeError(f"not a formula: {f!r}")


def is_negative(f: Formula) -> bool:
    """No disjunction, no existential, every atom under a double negation."""
    match f:
        case Not(Not(Eq(_, _))):
            return True
        case Eq() | Or() | ExistsN() | ExistsF() | BExistsN():
            return False
        case And() | Imp() | Not() | ForallN() | ForallF() | BForallN():
            return all(is_negative(k) for k in children(f) if isinstance(k, Formula))
        case _:
            raise TypeError(f"not a formula: {f!r}")


def _map_subformulas(fn, f: Formula) -> Formula:
    """Rebuild f with fn applied to its formula children; terms stay put."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return rebuild(f, tuple([fn(k) if isinstance(k, Formula) else k for k in children(f)]))


def simplify_decidable_atoms(f: Formula) -> Formula:
    """Strip double negations sitting directly on equations, bottom up."""
    match out := _map_subformulas(simplify_decidable_atoms, f):
        case Not(Not(Eq(_, _) as atom)):
            return atom
    return out


def repair_bi_clause1(f: Formula) -> Formula:
    """Restore the existential in the translated bar-hit clause.

    Rewrites every subformula of the shape

        ~forall x. ~~~(rho(barof(alpha, x)) = 0)

    to `exists x. rho(barof(alpha, x)) = 0`.  The input must look like a
    translated bar induction instance (hypothesis chain of three, one
    conclusion) and at least one rewrite must fire.
    """
    match f:
        case Imp(And(And(_, _), _), _):
            pass
        case _:
            raise ShapeMismatchError(
                "expected ((h1 & h2) & h3) -> conclusion; run the translation "
                "on a real-coded bar induction instance first"
            )

    hits = 0

    def rw(n: Formula) -> Formula:
        nonlocal hits
        match n:
            case Not(
                ForallN(
                    xv,
                    Not(
                        Not(
                            Not(
                                Eq(
                                    Apply(FnVar(_), PrefixCode(FnVar(_), NumVar(xv2))),
                                    Zero(),
                                ) as atom
                            )
                        )
                    ),
                )
            ) if xv == xv2:
                hits += 1
                return ExistsN(xv, atom)
        return _map_subformulas(rw, n)

    out = rw(f)
    if hits == 0:
        raise ShapeMismatchError("no translated bar-hit clause found to repair")
    return out
