import pytest
from hypothesis import given, settings

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
    SortError,
    Succ,
    Term,
    Zero,
    alpha_eq,
    binds,
    canon,
    children,
    free_vars,
    numeral,
    numeral_value,
    rebuild,
    subst_fun,
    subst_num,
    tree_depth,
)

from bairelab.gen import FUN_POOL, NUM_POOL
from strategies import formulas


def test_numeral_round_trip():
    for n in (0, 1, 2, 7, 30):
        assert numeral_value(numeral(n)) == n
    assert numeral_value(Succ(NumVar("x"))) is None
    with pytest.raises(ValueError):
        numeral(-1)


def test_sort_checking_at_construction():
    with pytest.raises(SortError):
        NumVar("@a")
    with pytest.raises(SortError):
        NumVar("X")
    with pytest.raises(SortError):
        FnVar("a")
    with pytest.raises(SortError):
        ForallN("@a", Eq(Zero(), Zero()))
    with pytest.raises(SortError):
        ForallF("a", Eq(Zero(), Zero()))
    with pytest.raises(SortError):
        Lambda("@f", Zero())
    # apostrophes allowed after the first character
    assert NumVar("y'").name == "y'"


def test_free_vars():
    f = ForallN("x", Imp(Eq(NumVar("x"), NumVar("y")), Eq(Apply(FnVar("@a"), NumVar("x")), Zero())))
    nums, funs = free_vars(f)
    assert nums == frozenset({"y"})
    assert funs == frozenset({"@a"})

    g = ForallF("@a", Eq(Apply(FnVar("@a"), NumVar("n")), Apply(FnVar("@b"), Zero())))
    nums, funs = free_vars(g)
    assert nums == frozenset({"n"})
    assert funs == frozenset({"@b"})

    lam = Lambda("x", Add(NumVar("x"), NumVar("z")))
    nums, funs = free_vars(lam)
    assert nums == frozenset({"z"})
    assert funs == frozenset()


def test_subst_num_simple():
    f = Eq(NumVar("x"), Zero())
    assert subst_num(f, "x", numeral(3)) == Eq(numeral(3), Zero())
    # bound occurrences are untouched
    g = ForallN("x", Eq(NumVar("x"), NumVar("y")))
    assert subst_num(g, "x", numeral(3)) == g


def test_subst_capture_renames_with_apostrophe():
    # substituting y for x under a binder on y forces a rename of the binder
    f = ExistsN("y", Eq(NumVar("x"), NumVar("y")))
    got = subst_num(f, "x", NumVar("y"))
    assert got == ExistsN("y'", Eq(NumVar("y"), NumVar("y'")))


def test_subst_no_gratuitous_rename():
    f = ExistsN("y", Eq(NumVar("x"), NumVar("y")))
    got = subst_num(f, "x", NumVar("z"))
    assert got == ExistsN("y", Eq(NumVar("z"), NumVar("y")))


def test_subst_fun_capture():
    f = ForallF("@a", Eq(Apply(FnVar("@a"), Zero()), Apply(FnVar("@b"), Zero())))
    got = subst_fun(f, "@b", FnVar("@a"))
    assert got == ForallF("@a'", Eq(Apply(FnVar("@a'"), Zero()), Apply(FnVar("@a"), Zero())))


def test_subst_bound_term_in_bounded_quantifier():
    f = BForallN("x", NumVar("y"), Eq(NumVar("x"), Zero()))
    got = subst_num(f, "y", numeral(5))
    assert got == BForallN("x", numeral(5), Eq(NumVar("x"), Zero()))
    # the binder does not protect the bound term, only the body
    g = BForallN("x", NumVar("x"), Eq(NumVar("x"), Zero()))
    got2 = subst_num(g, "x", numeral(5))
    assert got2 == BForallN("x", numeral(5), Eq(NumVar("x"), Zero()))


def test_alpha_eq():
    a = ForallN("x", ExistsN("y", Eq(NumVar("x"), NumVar("y"))))
    b = ForallN("u", ExistsN("v", Eq(NumVar("u"), NumVar("v"))))
    assert alpha_eq(a, b)
    c = ForallN("u", ExistsN("v", Eq(NumVar("v"), NumVar("u"))))
    assert not alpha_eq(a, c)
    # free variables must match on the nose
    assert not alpha_eq(Eq(NumVar("x"), Zero()), Eq(NumVar("y"), Zero()))
    d = ForallF("@a", Eq(Apply(FnVar("@a"), Zero()), Zero()))
    e = ForallF("@b", Eq(Apply(FnVar("@b"), Zero()), Zero()))
    assert alpha_eq(d, e)


def test_canon_collides_alpha_equal_trees():
    a = ForallN("x", ExistsN("y", Eq(NumVar("x"), NumVar("y"))))
    b = ForallN("u", ExistsN("v", Eq(NumVar("u"), NumVar("v"))))
    assert canon(a) == canon(b)
    assert alpha_eq(canon(a), a)
    c = ForallF("@a", ExistsN("y", Eq(Apply(FnVar("@a"), NumVar("y")), Zero())))
    d = ForallF("@b", ExistsN("z", Eq(Apply(FnVar("@b"), NumVar("z")), Zero())))
    assert canon(c) == canon(d)
    assert alpha_eq(canon(c), c)


def test_canon_renames_function_binders():
    f = ForallF("@a", Eq(Apply(FnVar("@a"), Zero()), Zero()))
    assert canon(f) == ForallF("@f0", Eq(Apply(FnVar("@f0"), Zero()), Zero()))


def test_canon_skips_scheme_names_that_occur_free():
    f = ForallN("y", Eq(NumVar("y"), NumVar("x0")))
    assert canon(f) == ForallN("x1", Eq(NumVar("x1"), NumVar("x0")))
    g = ForallF("@a", Eq(Apply(FnVar("@a"), Zero()), Apply(FnVar("@f0"), Zero())))
    want = ForallF("@f1", Eq(Apply(FnVar("@f1"), Zero()), Apply(FnVar("@f0"), Zero())))
    assert canon(g) == want
    # one counter for both sorts: a free x1 is skipped after @f0 is taken
    h = ForallF("@a", ForallN("y", Eq(Apply(FnVar("@a"), NumVar("y")), NumVar("x1"))))
    assert canon(h) == ForallF(
        "@f0", ForallN("x2", Eq(Apply(FnVar("@f0"), NumVar("x2")), NumVar("x1")))
    )
    for t in (f, g, h):
        assert alpha_eq(canon(t), t)


def _check_canon(f):
    c = canon(f)
    assert alpha_eq(c, f)
    assert free_vars(c) == free_vars(f)
    assert canon(c) == c


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_canon_properties(f):
    _check_canon(f)


@settings(max_examples=200, deadline=None)
@given(formulas(NUM_POOL[:3] + ("x0", "x1"), FUN_POOL[:2] + ("@f0", "@f1")))
def test_canon_properties_with_scheme_names_in_play(f):
    _check_canon(f)


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_substituting_a_variable_for_itself_is_the_identity(f):
    assert subst_num(f, "x", NumVar("x")) == f
    assert subst_fun(f, "@a", FnVar("@a")) == f


# one instance of every node class, binders with a bound or body that
# mentions their variable
_EQ = Eq(NumVar("x"), Zero())
NODE_INSTANCES = (
    Zero(),
    Succ(Zero()),
    NumVar("x"),
    Add(NumVar("x"), Zero()),
    Mul(Zero(), NumVar("y")),
    Apply(FnVar("@a"), Zero()),
    Pair(Zero(), NumVar("x")),
    SeqExt(NumVar("s"), Zero()),
    PrefixCode(FnVar("@a"), NumVar("n")),
    FnVar("@a"),
    Lambda("x", Succ(NumVar("x"))),
    ContApply(FnVar("@a"), FnVar("@b")),
    _EQ,
    And(_EQ, Eq(Zero(), Zero())),
    Or(_EQ, Eq(Zero(), Zero())),
    Imp(_EQ, Eq(Zero(), Zero())),
    Not(_EQ),
    ForallN("x", _EQ),
    ExistsN("x", _EQ),
    ForallF("@a", Eq(Apply(FnVar("@a"), Zero()), Zero())),
    ExistsF("@a", Eq(Apply(FnVar("@a"), Zero()), Zero())),
    BForallN("x", NumVar("y"), _EQ),
    BExistsN("x", NumVar("y"), _EQ),
)


def _concrete_node_classes() -> set[type]:
    found, todo = set(), [Term, Functor, Formula]
    while todo:
        cls = todo.pop()
        subs = cls.__subclasses__()
        todo.extend(subs)
        if not subs and cls not in (Term, Functor, Formula):
            found.add(cls)
    return found


def test_node_instances_cover_every_class():
    assert {type(n) for n in NODE_INSTANCES} == _concrete_node_classes()
    assert len(NODE_INSTANCES) == 23


@pytest.mark.parametrize("node", NODE_INSTANCES, ids=lambda n: type(n).__name__)
def test_rebuild_of_children_is_the_identity(node):
    assert rebuild(node, children(node)) == node


def test_rebuild_renames_a_binder():
    f = BForallN("x", NumVar("y"), Eq(NumVar("x"), Zero()))
    assert binds(f) is not None and binds(Eq(Zero(), Zero())) is None
    assert rebuild(f, children(f), "z") == BForallN("z", NumVar("y"), Eq(NumVar("x"), Zero()))
    with pytest.raises(TypeError):
        children(3)


def test_tree_depth():
    assert tree_depth(Zero()) == 1
    assert tree_depth(Eq(numeral(5), Zero())) == 7
    deep = Eq(Zero(), Zero())
    for _ in range(5000):
        deep = Not(deep)
    assert tree_depth(deep) == 5002


def test_connective_constructors_are_hashable():
    f = Imp(And(Eq(Zero(), Zero()), Or(Eq(Zero(), Zero()), Not(Eq(Zero(), Zero())))), Eq(Zero(), Zero()))
    assert hash(f) == hash(Imp(And(Eq(Zero(), Zero()), Or(Eq(Zero(), Zero()), Not(Eq(Zero(), Zero())))), Eq(Zero(), Zero())))
    assert Pair(Zero(), Zero()) == Pair(Zero(), Zero())
