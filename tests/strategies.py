"""Hypothesis strategies for syntax trees, drawing both sorts of binder."""

from hypothesis import strategies as st

from bairelab.gen import FUN_POOL, NUM_POOL
from bairelab.syntax import (
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
    numeral,
)


def _functors(ts: st.SearchStrategy[Term]) -> st.SearchStrategy[Functor]:
    fv = st.sampled_from(FUN_POOL).map(FnVar)
    lam = st.builds(Lambda, st.sampled_from(NUM_POOL), ts)
    shallow = st.one_of(fv, lam)
    return st.one_of(fv, lam, st.builds(ContApply, shallow, shallow))


def terms() -> st.SearchStrategy[Term]:
    base = st.one_of(
        st.integers(0, 9).map(numeral),
        st.sampled_from(NUM_POOL).map(NumVar),
    )

    def extend(children: st.SearchStrategy[Term]) -> st.SearchStrategy[Term]:
        fs = _functors(children)
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


def formulas() -> st.SearchStrategy[Formula]:
    ts = terms()
    atoms = st.builds(Eq, ts, ts)

    def extend(children: st.SearchStrategy[Formula]) -> st.SearchStrategy[Formula]:
        nv = st.sampled_from(NUM_POOL)
        fv = st.sampled_from(FUN_POOL)
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
