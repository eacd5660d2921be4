import random

from hypothesis import given, settings

from bairelab import gen
from bairelab.negtrans import (
    ShapeMismatchError,
    is_negative,
    neg_translate,
    repair_bi_clause1,
    simplify_decidable_atoms,
)
from bairelab.oracles import ipc_provable
from bairelab.parser import parse_formula
from bairelab.schemas import SchemaKind, instantiate
from bairelab.syntax import (
    BForallN,
    Eq,
    Formula,
    Imp,
    Not,
    NumVar,
    Zero,
    alpha_eq,
    subst_num,
)

import pytest

from strategies import formulas, random_prop, terms


def g(src: str) -> Formula:
    return neg_translate(parse_formula(src))


def test_translation_clauses():
    assert g("x = 0") == parse_formula("~~(x = 0)")
    assert g("p = 0 | q = 0") == parse_formula("~(~~~(p = 0) & ~~~(q = 0))")
    assert g("exists x. @a(x) = 0") == parse_formula("~forall x. ~~~(@a(x) = 0)")
    assert g("forall x. x = x") == parse_formula("forall x. ~~(x = x)")
    assert g("x = 0 -> y = 0") == parse_formula("~~(x = 0) -> ~~(y = 0)")
    assert g("~x = 0") == parse_formula("~~~(x = 0)")
    assert g("exists @a. @a(0) = 0") == parse_formula("~forall @a. ~~~(@a(0) = 0)")


def test_translation_keeps_bounds():
    f = parse_formula("exists y < x. y = 0")
    assert neg_translate(f) == Not(BForallN("y", NumVar("x"), Not(Not(Not(Eq(NumVar("y"), Zero()))))))
    f2 = parse_formula("forall y < x. y = 0")
    assert neg_translate(f2) == BForallN("y", NumVar("x"), Not(Not(Eq(NumVar("y"), Zero()))))


def test_is_negative_examples():
    assert not is_negative(parse_formula("0 = 0"))
    assert is_negative(parse_formula("~~(0 = 0) & forall x. ~~(x = x)"))
    assert not is_negative(parse_formula("~~(0 = 0) | ~~(0 = 0)"))
    assert not is_negative(parse_formula("exists x. ~~(x = 0)"))
    assert is_negative(parse_formula("~forall x. ~~~(x = 0)"))
    assert not is_negative(parse_formula("~(0 = 0)"))


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_range_is_negative(f):
    assert is_negative(neg_translate(f))


@settings(max_examples=200, deadline=None)
@given(formulas(), terms())
def test_translation_commutes_with_substitution(f, t):
    left = neg_translate(subst_num(f, "x", t))
    right = subst_num(neg_translate(f), "x", t)
    assert alpha_eq(left, right)


def test_simplify_decidable_atoms():
    s = simplify_decidable_atoms
    assert s(parse_formula("~~(0 = 0)")) == parse_formula("0 = 0")
    assert s(parse_formula("~~~(0 = 0)")) == parse_formula("~(0 = 0)")
    assert s(parse_formula("~~~~(0 = 0)")) == parse_formula("0 = 0")
    f = parse_formula("~~(x = 0) -> forall y. ~~(y = x)")
    assert s(f) == parse_formula("x = 0 -> forall y. y = x")
    # idempotent
    assert s(s(f)) == s(f)


def test_stability_of_translated_formulas_at_propositional_scale():
    # double negation is invisible on translated formulas, intuitionistically;
    # exhaustive at a reduced size, then a seeded sample of deeper ones
    count = 0
    for f in gen.enumerate_prop_formulas(max_leaves=2, max_connectives=3):
        tf = neg_translate(f)
        assert ipc_provable(Imp(Not(Not(tf)), tf)), f
        count += 1
    assert count == 282
    rng = random.Random(20260814)
    for _ in range(60):
        f = random_prop(rng, depth=4)
        tf = neg_translate(f)
        assert ipc_provable(Imp(Not(Not(tf)), tf)), f


def test_repair_on_concrete_instance():
    body = parse_formula("0 = 0")
    inst = instantiate(SchemaKind.BI1, body=body)
    translated = neg_translate(inst)
    repaired = repair_bi_clause1(translated)
    target = instantiate(SchemaKind.BI1, body=neg_translate(body))
    assert simplify_decidable_atoms(repaired) == simplify_decidable_atoms(target)
    assert alpha_eq(simplify_decidable_atoms(repaired), simplify_decidable_atoms(target))


def test_repair_requires_shape():
    with pytest.raises(ShapeMismatchError):
        repair_bi_clause1(parse_formula("0 = 0"))
    # right top shape but no translated bar-hit clause anywhere
    with pytest.raises(ShapeMismatchError):
        repair_bi_clause1(parse_formula("(0 = 0 & 0 = 0) & 0 = 0 -> 0 = 0"))


def test_repair_leaves_other_clauses_alone():
    from bairelab.printer import format_formula

    body = parse_formula("w = 0")
    inst = instantiate(SchemaKind.BI1, body=body)
    repaired = repair_bi_clause1(neg_translate(inst))
    assert not is_negative(repaired)  # clause 1 is an existential again
    # hypothesis 2 still carries its double negations after repair
    h2 = repaired.left.left.right
    assert "~~" in format_formula(h2)
