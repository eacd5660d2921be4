import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairelab import gen
from bairelab.negtrans import neg_translate
from bairelab.oracles import (
    AtomBudgetError,
    classical_valid,
    embed_prop,
    ipc_provable,
    kripke_countermodel,
    project_prop,
)
from bairelab.prop import (
    PAnd,
    PAtom,
    PBot,
    PImp,
    PNot,
    POr,
    parse_prop,
)

from strategies import format_prop, random_prop

P, Q, R = PAtom("p"), PAtom("q"), PAtom("r")
LEM = POr(P, PNot(P))
PEIRCE = PImp(PImp(PImp(P, Q), P), P)


def test_parse_format_prop():
    f = parse_prop("(p -> q) -> ~p | q & r")
    assert f == PImp(PImp(P, Q), POr(PNot(P), PAnd(Q, R)))
    assert parse_prop(format_prop(f)) == f
    assert parse_prop("bot") == PBot()


def test_classical_known():
    assert classical_valid(LEM)
    assert classical_valid(PEIRCE)
    assert classical_valid(PImp(PNot(PNot(P)), P))
    assert not classical_valid(PImp(P, Q))
    assert classical_valid(PImp(PBot(), P))
    assert not classical_valid(PBot())


def test_ipc_known():
    assert ipc_provable(PImp(P, P))
    assert not ipc_provable(LEM)
    assert ipc_provable(PNot(PNot(LEM)))
    assert not ipc_provable(PEIRCE)
    assert ipc_provable(PImp(P, PNot(PNot(P))))
    assert not ipc_provable(PImp(PNot(PNot(P)), P))
    # currying both ways
    assert ipc_provable(PImp(PImp(PAnd(P, Q), R), PImp(P, PImp(Q, R))))
    assert ipc_provable(PImp(PImp(P, PImp(Q, R)), PImp(PAnd(P, Q), R)))
    # one de Morgan law fails, the other holds
    assert not ipc_provable(PImp(PNot(PAnd(P, Q)), POr(PNot(P), PNot(Q))))
    assert ipc_provable(PImp(PNot(POr(P, Q)), PAnd(PNot(P), PNot(Q))))
    assert ipc_provable(PImp(POr(PNot(P), Q), PImp(P, Q)))
    assert ipc_provable(PImp(PBot(), P))


def test_ipc_implies_classical():
    rng = random.Random(99)
    for _ in range(200):
        f = random_prop(rng, depth=4)
        if ipc_provable(f):
            assert classical_valid(f)


def test_glivenko():
    rng = random.Random(7)
    for _ in range(200):
        f = random_prop(rng, depth=4)
        assert classical_valid(f) == ipc_provable(PNot(PNot(f)))


def test_kripke_cross_check():
    cases = [LEM, PEIRCE, PImp(PNot(PNot(P)), P), PImp(P, P), PNot(PNot(LEM)),
             PImp(PNot(PAnd(P, Q)), POr(PNot(P), PNot(Q)))]
    rng = random.Random(13)
    cases += [random_prop(rng, depth=3) for _ in range(40)]
    for f in cases:
        provable = ipc_provable(f)
        model = kripke_countermodel(f, max_worlds=3)
        if provable:
            assert model is None, format_prop(f)
        if model is not None:
            assert not provable


def test_kripke_finds_small_countermodels():
    assert kripke_countermodel(LEM) is not None
    assert kripke_countermodel(PEIRCE) is not None
    assert kripke_countermodel(PImp(P, P)) is None


def test_atom_budget():
    many = PAtom("a0")
    for i in range(1, 25):
        many = PAnd(many, PAtom(f"a{i}"))
    with pytest.raises(AtomBudgetError):
        classical_valid(many)
    with pytest.raises(AtomBudgetError):
        ipc_provable(many)


def test_embed_project_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        f = random_prop(rng, depth=4)
        assert project_prop(embed_prop(f)) == f
    assert project_prop(embed_prop(PBot())) == PBot()


def test_translation_oracle_agreement_small():
    # tiny version of the exhaustive acceptance sweep
    total = 0
    for f in gen.enumerate_prop_formulas(max_leaves=2, max_connectives=3):
        want = classical_valid(f)
        got = ipc_provable(project_prop(neg_translate(embed_prop(f))))
        assert want == got, format_prop(f)
        total += 1
    assert total == 282


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**30))
def test_glivenko_hypothesis_seeded(seed):
    rng = random.Random(seed)
    f = random_prop(rng, depth=5)
    assert classical_valid(f) == ipc_provable(PNot(PNot(f)))
