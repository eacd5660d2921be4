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
    PropFormula,
    parse_prop,
)

from strategies import format_prop, random_prop


# ---------------------------------------------------------------------------
# reference prover: G4ip over frozenset contexts of formula objects, the
# representation ipc_provable used before it moved to interned ids

def _norm(f: PropFormula) -> PropFormula:
    """Eliminate PNot in favour of implication into falsum."""
    match f:
        case PAtom(_) | PBot():
            return f
        case PAnd(a, b):
            return PAnd(_norm(a), _norm(b))
        case POr(a, b):
            return POr(_norm(a), _norm(b))
        case PImp(a, b):
            return PImp(_norm(a), _norm(b))
        case PNot(a):
            return PImp(_norm(a), PBot())
        case _:
            raise TypeError(f"not a propositional formula: {f!r}")


def _prove(
    gamma: frozenset[PropFormula],
    goal: PropFormula,
    memo: dict[tuple[frozenset[PropFormula], PropFormula], bool],
) -> bool:
    key = (gamma, goal)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # G4ip premises are strictly smaller than their conclusion, so no goal
    # is re-entered while it is being proved and nothing provisional is stored
    out = _prove_raw(gamma, goal, memo)
    memo[key] = out
    return out


def _prove_raw(gamma, goal, memo) -> bool:
    # axioms
    if goal in gamma or PBot() in gamma:
        return True

    # invertible right rules
    match goal:
        case PAnd(a, b):
            return _prove(gamma, a, memo) and _prove(gamma, b, memo)
        case PImp(a, b):
            return _prove(gamma | {a}, b, memo)

    # invertible left rules, one at a time
    for f in gamma:
        rest = gamma - {f}
        match f:
            case PAnd(a, b):
                return _prove(rest | {a, b}, goal, memo)
            case POr(a, b):
                return _prove(rest | {a}, goal, memo) and _prove(rest | {b}, goal, memo)
            case PImp(PBot(), _):
                return _prove(rest, goal, memo)
            case PImp(PAtom(_) as p, c):
                if p in gamma:
                    return _prove(rest | {c}, goal, memo)
            case PImp(PAnd(a, b), c):
                return _prove(rest | {PImp(a, PImp(b, c))}, goal, memo)
            case PImp(POr(a, b), c):
                return _prove(rest | {PImp(a, c), PImp(b, c)}, goal, memo)

    # choice points
    if isinstance(goal, POr):
        if _prove(gamma, goal.left, memo) or _prove(gamma, goal.right, memo):
            return True
    for f in gamma:
        match f:
            case PImp(PImp(a, b), c):
                rest = gamma - {f}
                if _prove(rest | {PImp(b, c)}, PImp(a, b), memo) and _prove(
                    rest | {c}, goal, memo
                ):
                    return True
    return False


def reference_provable(f: PropFormula) -> bool:
    return _prove(frozenset(), _norm(f), {})


def _atom_order(f: PropFormula, seen: list[str]) -> list[str]:
    match f:
        case PAtom(name):
            if name not in seen:
                seen.append(name)
        case PNot(a):
            _atom_order(a, seen)
        case PAnd(a, b) | POr(a, b) | PImp(a, b):
            _atom_order(a, seen)
            _atom_order(b, seen)
    return seen


# ---------------------------------------------------------------------------

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
        model = kripke_countermodel(f)
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


def test_ipc_agrees_with_reference_on_raw_formulas():
    formulas = list(gen.enumerate_prop_formulas(max_leaves=3, max_connectives=5))
    assert len(formulas) == 28179
    verdicts = [ipc_provable(f) for f in formulas]
    assert sum(verdicts) == 2055
    for f, got in zip(formulas, verdicts):
        assert got == reference_provable(f), format_prop(f)


def test_ipc_agrees_with_reference_on_translations():
    # One formula per renaming class: atoms first occur in the order p, q, r.
    # Renaming atoms changes neither prover's verdict, nor which ids
    # ipc_provable gives the nodes, so the other members add nothing.
    reps = [
        f
        for f in gen.enumerate_prop_formulas(max_leaves=3, max_connectives=5)
        if (names := _atom_order(f, [])) == ["p", "q", "r"][: len(names)]
    ]
    assert len(reps) == 5256
    provable = 0
    for f in reps:
        image = project_prop(neg_translate(embed_prop(f)))
        got = ipc_provable(image)
        assert got == reference_provable(image), format_prop(f)
        provable += got
    assert provable == 736
