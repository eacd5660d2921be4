import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairelab import gen
from bairelab.negtrans import neg_translate
from bairelab.errors import BairelabError
from bairelab.oracles import (
    CLASSICAL_ATOM_BUDGET,
    AtomBudgetError,
    classical_valid,
    ipc_provable,
    kripke_countermodel,
)
from bairelab.parser import parse_formula, parse_prop
from bairelab.printer import format_formula
from bairelab.syntax import FALSUM, And, Eq, Formula, Imp, Not, NumVar, Or, Zero

from strategies import format_prop, random_prop


# ---------------------------------------------------------------------------
# reference prover: G4ip over frozenset contexts of formula objects, the
# representation ipc_provable used before it moved to interned ids

def _norm(f: Formula) -> Formula:
    """Eliminate Not in favour of implication into falsum."""
    match f:
        case Eq():
            return f
        case And(a, b):
            return And(_norm(a), _norm(b))
        case Or(a, b):
            return Or(_norm(a), _norm(b))
        case Imp(a, b):
            return Imp(_norm(a), _norm(b))
        case Not(a):
            return Imp(_norm(a), FALSUM)
        case _:
            raise TypeError(f"outside the propositional fragment: {f!r}")


def _prove(
    gamma: frozenset[Formula],
    goal: Formula,
    memo: dict[tuple[frozenset[Formula], Formula], bool],
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
    if goal in gamma or FALSUM in gamma:
        return True

    # invertible right rules
    match goal:
        case And(a, b):
            return _prove(gamma, a, memo) and _prove(gamma, b, memo)
        case Imp(a, b):
            return _prove(gamma | {a}, b, memo)

    # invertible left rules, one at a time
    for f in gamma:
        rest = gamma - {f}
        match f:
            case And(a, b):
                return _prove(rest | {a, b}, goal, memo)
            case Or(a, b):
                return _prove(rest | {a}, goal, memo) and _prove(rest | {b}, goal, memo)
            case Imp(a, _) if a == FALSUM:
                return _prove(rest, goal, memo)
            case Imp(Eq() as p, c):
                if p in gamma:
                    return _prove(rest | {c}, goal, memo)
            case Imp(And(a, b), c):
                return _prove(rest | {Imp(a, Imp(b, c))}, goal, memo)
            case Imp(Or(a, b), c):
                return _prove(rest | {Imp(a, c), Imp(b, c)}, goal, memo)

    # choice points
    if isinstance(goal, Or):
        if _prove(gamma, goal.left, memo) or _prove(gamma, goal.right, memo):
            return True
    for f in gamma:
        match f:
            case Imp(Imp(a, b), c):
                rest = gamma - {f}
                if _prove(rest | {Imp(b, c)}, Imp(a, b), memo) and _prove(
                    rest | {c}, goal, memo
                ):
                    return True
    return False


def reference_provable(f: Formula) -> bool:
    return _prove(frozenset(), _norm(f), {})


def _atom_order(f: Formula, seen: list[str]) -> list[str]:
    match f:
        case Eq(NumVar(name), Zero()):
            if name not in seen:
                seen.append(name)
        case Not(a):
            _atom_order(a, seen)
        case And(a, b) | Or(a, b) | Imp(a, b):
            _atom_order(a, seen)
            _atom_order(b, seen)
    return seen


def _holds(f: Formula, true_atoms: set[str]) -> bool:
    match f:
        case Eq(NumVar(name), Zero()):
            return name in true_atoms
        case And(a, b):
            return _holds(a, true_atoms) and _holds(b, true_atoms)
        case Or(a, b):
            return _holds(a, true_atoms) or _holds(b, true_atoms)
        case Imp(a, b):
            return not _holds(a, true_atoms) or _holds(b, true_atoms)
        case Not(a):
            return not _holds(a, true_atoms)
    return False  # falsum


def reference_valid(f: Formula) -> bool:
    """Truth tables one valuation at a time, as classical_valid did before
    it moved to bit masks."""
    names = _atom_order(f, [])
    return all(
        _holds(f, {n for n, b in zip(names, bits) if b})
        for bits in product((False, True), repeat=len(names))
    )


# ---------------------------------------------------------------------------

P, Q, R = (Eq(NumVar(name), Zero()) for name in "pqr")
LEM = Or(P, Not(P))
PEIRCE = Imp(Imp(Imp(P, Q), P), P)


def test_parse_format_prop():
    f = parse_prop("(p -> q) -> ~p | q & r")
    assert f == Imp(Imp(P, Q), Or(Not(P), And(Q, R)))
    assert f == parse_formula("(p = 0 -> q = 0) -> ~p = 0 | q = 0 & r = 0")
    assert parse_prop(format_prop(f)) == f
    assert parse_prop("bot") == FALSUM
    # an atom is any number variable name, keywords included
    for name in ("p'", "forall", "ap", "lam"):
        atom = Eq(NumVar(name), Zero())
        assert parse_prop(f"{name} -> {name}") == Imp(atom, atom)
    formulas = list(gen.enumerate_prop_formulas(max_leaves=3, max_connectives=4))
    rng = random.Random(43)
    formulas += [random_prop(rng, depth=5, atoms="pqrst") for _ in range(300)]
    assert len(formulas) == 10_761 + 300
    for f in formulas:
        assert parse_prop(format_prop(f)) == f
        assert parse_formula(format_formula(f)) == f


def test_classical_known():
    assert classical_valid(LEM)
    assert classical_valid(PEIRCE)
    assert classical_valid(Imp(Not(Not(P)), P))
    assert not classical_valid(Imp(P, Q))
    assert classical_valid(Imp(FALSUM, P))
    assert not classical_valid(FALSUM)


def test_classical_agrees_with_reference_truth_tables():
    formulas = list(gen.enumerate_prop_formulas(max_leaves=3, max_connectives=4))
    rng = random.Random(41)
    formulas += [random_prop(rng, depth=5, atoms="pqrst") for _ in range(300)]
    formulas += [Imp(f, FALSUM) for f in formulas[:200]]
    for f in formulas:
        assert classical_valid(f) == reference_valid(f), format_prop(f)


def test_ipc_known():
    assert ipc_provable(Imp(P, P))
    assert not ipc_provable(LEM)
    assert ipc_provable(Not(Not(LEM)))
    assert not ipc_provable(PEIRCE)
    assert ipc_provable(Imp(P, Not(Not(P))))
    assert not ipc_provable(Imp(Not(Not(P)), P))
    # currying both ways
    assert ipc_provable(Imp(Imp(And(P, Q), R), Imp(P, Imp(Q, R))))
    assert ipc_provable(Imp(Imp(P, Imp(Q, R)), Imp(And(P, Q), R)))
    # one de Morgan law fails, the other holds
    assert not ipc_provable(Imp(Not(And(P, Q)), Or(Not(P), Not(Q))))
    assert ipc_provable(Imp(Not(Or(P, Q)), And(Not(P), Not(Q))))
    assert ipc_provable(Imp(Or(Not(P), Q), Imp(P, Q)))
    assert ipc_provable(Imp(FALSUM, P))


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
        assert classical_valid(f) == ipc_provable(Not(Not(f)))


def test_kripke_cross_check():
    cases = [LEM, PEIRCE, Imp(Not(Not(P)), P), Imp(P, P), Not(Not(LEM)),
             Imp(Not(And(P, Q)), Or(Not(P), Not(Q)))]
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
    assert kripke_countermodel(Imp(P, P)) is None


def test_atom_budget():
    atoms = [Eq(NumVar(f"a{i}"), Zero()) for i in range(25)]
    many = atoms[0]
    for a in atoms[1:]:
        many = And(many, a)
    with pytest.raises(AtomBudgetError):
        classical_valid(many)
    with pytest.raises(AtomBudgetError):
        ipc_provable(many)
    # exactly at the budget: every valuation is still read
    edge = atoms[:CLASSICAL_ATOM_BUDGET]
    conj = disj = edge[0]
    for a in edge[1:]:
        conj, disj = And(conj, a), Or(disj, a)
    assert classical_valid(Imp(conj, disj))
    assert not classical_valid(Imp(disj, conj))


@pytest.mark.parametrize("src", ["forall x. x = 0", "x = 1", "p = 0 & @a(0) = 0"])
@pytest.mark.parametrize("oracle", [classical_valid, ipc_provable, kripke_countermodel])
def test_oracles_refuse_formulas_outside_the_fragment(oracle, src):
    with pytest.raises(BairelabError, match="outside the propositional fragment"):
        oracle(parse_formula(src))


def test_translation_oracle_agreement_small():
    # tiny version of the exhaustive acceptance sweep
    total = 0
    for f in gen.enumerate_prop_formulas(max_leaves=2, max_connectives=3):
        want = classical_valid(f)
        got = ipc_provable(neg_translate(f))
        assert want == got, format_prop(f)
        total += 1
    assert total == 282


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**30))
def test_glivenko_hypothesis_seeded(seed):
    rng = random.Random(seed)
    f = random_prop(rng, depth=5)
    assert classical_valid(f) == ipc_provable(Not(Not(f)))


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
        image = neg_translate(f)
        got = ipc_provable(image)
        assert got == reference_provable(image), format_prop(f)
        provable += got
    assert provable == 736
