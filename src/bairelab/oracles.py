"""Decision procedures for propositional logic, used as test oracles.

Three independent routes:

- `classical_valid`: truth tables.
- `ipc_provable`: contraction-free sequent search (Dyckhoff's G4ip), a
  decision procedure for intuitionistic propositional logic.
- `kripke_countermodel`: brute-force search for a small Kripke
  countermodel, used to cross-check refutations from the sequent search.

Plus bridges that embed propositional formulas into the object language
(atoms become equations) and project back, so the real formula-level
translation can be tested against these oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import BairelabError
from .prop import PAnd, PAtom, PBot, PImp, PNot, POr, PropFormula, atoms_of
from .syntax import And, Eq, Formula, Imp, Not, NumVar, Or, Succ, Zero

CLASSICAL_ATOM_BUDGET = 20
IPC_ATOM_BUDGET = 12


class AtomBudgetError(BairelabError):
    """Formula has too many distinct atoms for exhaustive methods."""


# ---------------------------------------------------------------------------
# classical truth tables


def _eval(f: PropFormula, env: dict[str, bool]) -> bool:
    match f:
        case PAtom(name):
            return env[name]
        case PBot():
            return False
        case PAnd(a, b):
            return _eval(a, env) and _eval(b, env)
        case POr(a, b):
            return _eval(a, env) or _eval(b, env)
        case PImp(a, b):
            return (not _eval(a, env)) or _eval(b, env)
        case PNot(a):
            return not _eval(a, env)
        case _:
            raise TypeError(f"not a propositional formula: {f!r}")


def classical_valid(f: PropFormula) -> bool:
    names = sorted(atoms_of(f))
    if len(names) > CLASSICAL_ATOM_BUDGET:
        raise AtomBudgetError(f"{len(names)} atoms exceed the classical budget")
    for bits in product((False, True), repeat=len(names)):
        if not _eval(f, dict(zip(names, bits))):
            return False
    return True


# ---------------------------------------------------------------------------
# intuitionistic provability: G4ip


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


def ipc_provable(f: PropFormula) -> bool:
    if len(atoms_of(f)) > IPC_ATOM_BUDGET:
        raise AtomBudgetError(f"too many atoms for the intuitionistic oracle")
    memo: dict[tuple[frozenset[PropFormula], PropFormula], bool] = {}
    return _prove(frozenset(), _norm(f), memo)


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


# ---------------------------------------------------------------------------
# Kripke countermodels


@dataclass(frozen=True)
class KripkeModel:
    """Finite intuitionistic model: reflexive-transitive order, monotone valuation."""

    size: int
    order: frozenset[tuple[int, int]]
    valuation: dict[str, frozenset[int]]

    def forces(self, world: int, f: PropFormula) -> bool:
        match f:
            case PAtom(name):
                return world in self.valuation.get(name, frozenset())
            case PBot():
                return False
            case PAnd(a, b):
                return self.forces(world, a) and self.forces(world, b)
            case POr(a, b):
                return self.forces(world, a) or self.forces(world, b)
            case PImp(a, b):
                return all(
                    self.forces(v, b)
                    for (u, v) in self.order
                    if u == world and self.forces(v, a)
                )
            case PNot(a):
                return all(
                    not self.forces(v, a) for (u, v) in self.order if u == world
                )
            case _:
                raise TypeError(f"not a propositional formula: {f!r}")


def _preorders(size: int):
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    diag = frozenset((i, i) for i in range(size))
    for mask in range(2 ** len(pairs)):
        rel = diag | frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        if all((a, d) in rel for (a, b) in rel for (c, d) in rel if b == c):
            yield rel


def _upsets(size: int, order: frozenset[tuple[int, int]]):
    for mask in range(2**size):
        s = frozenset(i for i in range(size) if mask >> i & 1)
        if all(v in s for (u, v) in order if u in s):
            yield s


def kripke_countermodel(f: PropFormula, max_worlds: int = 3) -> KripkeModel | None:
    """A model with a world not forcing f, if one exists at this size."""
    names = sorted(atoms_of(f))
    for size in range(1, max_worlds + 1):
        for order in _preorders(size):
            ups = list(_upsets(size, order))
            for chosen in product(ups, repeat=len(names)):
                model = KripkeModel(size, order, dict(zip(names, chosen)))
                if any(not model.forces(w, f) for w in range(size)):
                    return model
    return None


# ---------------------------------------------------------------------------
# bridges to the object language

_FALSUM = Eq(Zero(), Succ(Zero()))


def embed_prop(f: PropFormula) -> Formula:
    """Atoms p become equations p = 0 over a number variable named p."""
    match f:
        case PAtom(name):
            return Eq(NumVar(name), Zero())
        case PBot():
            return _FALSUM
        case PAnd(a, b):
            return And(embed_prop(a), embed_prop(b))
        case POr(a, b):
            return Or(embed_prop(a), embed_prop(b))
        case PImp(a, b):
            return Imp(embed_prop(a), embed_prop(b))
        case PNot(a):
            return Not(embed_prop(a))
        case _:
            raise TypeError(f"not a propositional formula: {f!r}")


def project_prop(f: Formula) -> PropFormula:
    """Inverse of embed_prop on quantifier-free images."""
    if f == _FALSUM:
        return PBot()
    match f:
        case Eq(NumVar(name), Zero()):
            return PAtom(name)
        case And(a, b):
            return PAnd(project_prop(a), project_prop(b))
        case Or(a, b):
            return POr(project_prop(a), project_prop(b))
        case Imp(a, b):
            return PImp(project_prop(a), project_prop(b))
        case Not(a):
            return PNot(project_prop(a))
        case _:
            raise BairelabError(f"formula is outside the propositional image: {f!r}")
