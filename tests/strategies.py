"""Generators for the tests: hypothesis strategies for syntax trees,
drawing both sorts of binder, and a seeded generator and a printer for
formulas of the propositional fragment, whose atoms are equations p = 0."""

import random
from collections.abc import Sequence

from hypothesis import strategies as st

from bairelab.gen import FUN_POOL, NUM_POOL
from bairelab.syntax import (
    FALSUM,
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
    Not,
    NumVar,
    Or,
    Pair,
    PrefixCode,
    SeqExt,
    Succ,
    Term,
    Zero,
    numeral,
)


def _functors(
    ts: st.SearchStrategy[Term], num_pool: tuple[str, ...], fun_pool: tuple[str, ...]
) -> st.SearchStrategy[Functor]:
    fv = st.sampled_from(fun_pool).map(FnVar)
    lam = st.builds(Lambda, st.sampled_from(num_pool), ts)
    shallow = st.one_of(fv, lam)
    return st.one_of(fv, lam, st.builds(ContApply, shallow, shallow))


def functors(
    num_pool: tuple[str, ...] = NUM_POOL, fun_pool: tuple[str, ...] = FUN_POOL
) -> st.SearchStrategy[Functor]:
    """Functors over the given variable names, lambda bodies drawn by terms()."""
    return _functors(terms(num_pool, fun_pool), num_pool, fun_pool)


def terms(
    num_pool: tuple[str, ...] = NUM_POOL, fun_pool: tuple[str, ...] = FUN_POOL
) -> st.SearchStrategy[Term]:
    base = st.one_of(
        st.integers(0, 9).map(numeral),
        st.sampled_from(num_pool).map(NumVar),
    )

    def extend(children: st.SearchStrategy[Term]) -> st.SearchStrategy[Term]:
        fs = _functors(children, num_pool, fun_pool)
        return st.one_of(
            children.map(Succ),
            st.builds(Add, children, children),
            st.builds(Mul, children, children),
            st.builds(Pair, children, children),
            st.builds(SeqExt, children, children),
            st.builds(Apply, fs, children),
            st.builds(PrefixCode, fs, children),
        )

    return st.recursive(base, extend, max_leaves=12)


def formulas(
    num_pool: tuple[str, ...] = NUM_POOL, fun_pool: tuple[str, ...] = FUN_POOL
) -> st.SearchStrategy[Formula]:
    """Formulas over the given variable names (gen's pools by default)."""
    ts = terms(num_pool, fun_pool)
    atoms = st.builds(Eq, ts, ts)

    def extend(children: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
        nv = st.sampled_from(num_pool)
        fv = st.sampled_from(fun_pool)
        return st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Imp, children, children),
            children.map(Not),
            st.builds(ForallN, nv, children),
            st.builds(ExistsN, nv, children),
            st.builds(ForallF, fv, children),
            st.builds(ExistsF, fv, children),
            st.builds(BForallN, nv, ts, children),
            st.builds(BExistsN, nv, ts, children),
        )

    return st.recursive(atoms, extend, max_leaves=10)


def _atom(name: str) -> Formula:
    return Eq(NumVar(name), Zero())


def random_prop(rng: random.Random, depth: int, atoms: Sequence[str] = ("p", "q", "r")) -> Formula:
    if depth <= 0:
        return _atom(rng.choice(list(atoms)))
    match rng.randrange(5):
        case 0:
            return And(random_prop(rng, depth - 1, atoms), random_prop(rng, depth - 1, atoms))
        case 1:
            return Or(random_prop(rng, depth - 1, atoms), random_prop(rng, depth - 1, atoms))
        case 2:
            return Imp(random_prop(rng, depth - 1, atoms), random_prop(rng, depth - 1, atoms))
        case 3:
            return Not(random_prop(rng, depth - 1, atoms))
        case _:
            return _atom(rng.choice(list(atoms)))


def format_prop(f: Formula, prec: int = 0) -> str:
    """The concrete syntax parse_prop reads: p for p = 0, bot for falsum."""
    # precedence: -> 1 (right assoc), | 2, & 3, ~ 4
    match f:
        case Eq(NumVar(name), Zero()):
            return name
        case _ if f == FALSUM:
            return "bot"
        case Imp(a, b):
            s = f"{format_prop(a, 2)} -> {format_prop(b, 1)}"
            return f"({s})" if prec > 1 else s
        case Or(a, b):
            s = f"{format_prop(a, 2)} | {format_prop(b, 3)}"
            return f"({s})" if prec > 2 else s
        case And(a, b):
            s = f"{format_prop(a, 3)} & {format_prop(b, 4)}"
            return f"({s})" if prec > 3 else s
        case Not(a):
            return f"~{format_prop(a, 4)}"
        case _:
            raise TypeError(f"outside the propositional fragment: {f!r}")
