"""Decision procedures for propositional logic, used as test oracles.

They read the object language's propositional fragment: an atom p is the
equation p = 0 over a number variable, falsum is `syntax.FALSUM`, and the
connectives are And, Or, Imp and Not.  Each first walks its whole formula
with `prop_atoms`, which refuses anything outside the fragment.

Three independent routes:

- `classical_valid`: truth tables, one bit per valuation.  Each atom is an
  int of 2^n bits, bit v set when the atom is true in valuation v, so one
  walk over the formula evaluates it in every valuation at once.
- `ipc_provable`: contraction-free sequent search (Dyckhoff's G4ip), a
  decision procedure for intuitionistic propositional logic.  Each call
  interns its formula's nodes (hash-consing): every (kind, left, right)
  gets a small int id, and the nodes the left rules build, such as
  a -> (b -> c), go through the same table.  A context is an int bitmask
  of ids, so a premise is `rest | 1 << a` and the memo key `(context,
  goal)` is a pair of ints.  Each id also sets a bit in one mask per rule
  class (invertible left rules, atom -> c, (a -> b) -> c), so the next
  invertible formula is the lowest set bit of `context & inv`.
- `kripke_countermodel`: brute-force search for a small Kripke
  countermodel, used to cross-check refutations from the sequent search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import BairelabError
from .syntax import FALSUM, And, Eq, Formula, Imp, Not, NumVar, Or, Zero

CLASSICAL_ATOM_BUDGET = 20
IPC_ATOM_BUDGET = 12
# 18,878 models cover every valuation of four atoms on up to three worlds
KRIPKE_MODEL_BUDGET = 20_000


class AtomBudgetError(BairelabError):
    """Formula has too many distinct atoms for exhaustive methods."""


def prop_atoms(f: Formula) -> set[str]:
    """The names of f's atoms.  Raises BairelabError unless every node of f
    lies in the propositional fragment."""
    names: set[str] = set()
    todo = [f]
    while todo:
        n = todo.pop()
        t = type(n)
        if t is Not:
            todo.append(n.body)
        elif t is And or t is Or or t is Imp:
            todo += (n.left, n.right)
        elif t is Eq and type(n.left) is NumVar and type(n.right) is Zero:
            names.add(n.left.name)
        elif n != FALSUM:
            raise BairelabError(f"outside the propositional fragment: {n!r}")
    return names


# ---------------------------------------------------------------------------
# classical truth tables


def classical_valid(f: Formula) -> bool:
    names = sorted(prop_atoms(f))
    if len(names) > CLASSICAL_ATOM_BUDGET:
        raise AtomBudgetError(f"{len(names)} atoms exceed the classical budget")
    # bit v of a mask is the value in valuation v; a new atom doubles them
    size, masks = 1, {}
    for name in names:
        for k in masks:
            masks[k] |= masks[k] << size
        masks[name] = (1 << size) - 1 << size
        size <<= 1
    full = (1 << size) - 1

    def value(f: Formula) -> int:
        t = type(f)
        if t is Not:
            return full ^ value(f.body)
        if t is And:
            return value(f.left) & value(f.right)
        if t is Or:
            return value(f.left) | value(f.right)
        if t is Imp:
            return (full ^ value(f.left)) | value(f.right)
        return masks[f.left.name] if type(f.left) is NumVar else 0

    return value(f) == full


# ---------------------------------------------------------------------------
# intuitionistic provability: G4ip


_ATOM, _BOT, _AND, _OR, _IMP = range(5)


def ipc_provable(f: Formula) -> bool:
    """Whether f is provable in intuitionistic propositional logic (G4ip)."""
    if len(prop_atoms(f)) > IPC_ATOM_BUDGET:
        raise AtomBudgetError("too many atoms for the intuitionistic oracle")
    # One intern table per call: each (kind, left, right) is a small int id,
    # with kind, left and right lists indexed by id.  Leaves store names in
    # left; Not a is interned as a -> bot.
    table: dict[tuple, int] = {}
    kind: list[int] = []
    left: list = []
    right: list = []
    # Rule class masks, set once per id: inv for the invertible left rules
    # (and, or, bot->, (a&b)->, (a|b)->), aimp for atom->c, iimp for (a->b)->c.
    inv = aimp = iimp = 0

    def node(k: int, a, b) -> int:
        nonlocal inv, aimp, iimp
        n = len(kind)
        i = table.setdefault((k, a, b), n)
        if i == n:
            kind.append(k)
            left.append(a)
            right.append(b)
            if k == _AND or k == _OR:
                inv |= 1 << i
            elif k == _IMP:
                ka = kind[a]
                if ka == _ATOM:
                    aimp |= 1 << i
                elif ka == _IMP:
                    iimp |= 1 << i
                else:
                    inv |= 1 << i
        return i

    def intern(f: Formula) -> int:
        t = type(f)
        if t is Eq:
            return node(_ATOM, f.left.name, None) if type(f.left) is NumVar else bot
        if t is Not:
            return node(_IMP, intern(f.body), bot)
        if t is Imp:
            return node(_IMP, intern(f.left), intern(f.right))
        if t is And:
            return node(_AND, intern(f.left), intern(f.right))
        return node(_OR, intern(f.left), intern(f.right))

    bot = node(_BOT, None, None)
    goal = intern(f)
    memo: dict[tuple[int, int], bool] = {}

    def prove(g: int, goal: int) -> bool:
        key = (g, goal)
        hit = memo.get(key)
        if hit is not None:
            return hit
        # G4ip premises are strictly smaller than their conclusion, so no
        # goal is re-entered while it is being proved and nothing
        # provisional is stored
        out = memo[key] = prove_raw(g, goal)
        return out

    def prove_raw(g: int, goal: int) -> bool:
        # axioms
        if g >> goal & 1 or g >> bot & 1:
            return True

        # invertible right rules
        k = kind[goal]
        if k == _AND:
            return prove(g, left[goal]) and prove(g, right[goal])
        if k == _IMP:
            return prove(g | 1 << left[goal], right[goal])

        # invertible left rules, one at a time, lowest id first
        m = g & inv
        if m:
            low = m & -m
            h = low.bit_length() - 1
            rest = g ^ low
            if kind[h] == _AND:
                return prove(rest | 1 << left[h] | 1 << right[h], goal)
            if kind[h] == _OR:
                return prove(rest | 1 << left[h], goal) and prove(rest | 1 << right[h], goal)
            a, c = left[h], right[h]
            if kind[a] == _BOT:
                return prove(rest, goal)
            if kind[a] == _AND:
                return prove(rest | 1 << node(_IMP, left[a], node(_IMP, right[a], c)), goal)
            ac, bc = node(_IMP, left[a], c), node(_IMP, right[a], c)
            return prove(rest | 1 << ac | 1 << bc, goal)
        m = g & aimp
        while m:
            low = m & -m
            h = low.bit_length() - 1
            if g >> left[h] & 1:
                return prove(g ^ low | 1 << right[h], goal)
            m ^= low

        # choice points
        if k == _OR:
            if prove(g, left[goal]) or prove(g, right[goal]):
                return True
        m = g & iimp
        while m:
            low = m & -m
            h = low.bit_length() - 1
            rest = g ^ low
            ab, c = left[h], right[h]
            if prove(rest | 1 << node(_IMP, right[ab], c), ab) and prove(rest | 1 << c, goal):
                return True
            m ^= low
        return False

    return prove(0, goal)


# ---------------------------------------------------------------------------
# Kripke countermodels


@dataclass(frozen=True)
class KripkeModel:
    """Finite intuitionistic model: reflexive-transitive order, monotone valuation."""

    size: int
    order: frozenset[tuple[int, int]]
    valuation: dict[str, frozenset[int]]

    def forces(self, world: int, f: Formula) -> bool:
        match f:
            case Eq(NumVar(name), Zero()):
                return world in self.valuation.get(name, frozenset())
            case And(a, b):
                return self.forces(world, a) and self.forces(world, b)
            case Or(a, b):
                return self.forces(world, a) or self.forces(world, b)
            case Imp(a, b):
                return all(
                    self.forces(v, b)
                    for (u, v) in self.order
                    if u == world and self.forces(v, a)
                )
            case Not(a):
                return all(
                    not self.forces(v, a) for (u, v) in self.order if u == world
                )
            case _:  # falsum, since kripke_countermodel checks the fragment
                return False


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


def kripke_countermodel(f: Formula) -> KripkeModel | None:
    """A model on at most three worlds with a world not forcing f, if found.

    Models are tried smallest first, at most KRIPKE_MODEL_BUDGET of them.
    With up to four atoms that covers every model on up to three worlds,
    so None means no countermodel of that size exists; with more atoms
    None may only mean the budget ran out first.
    """
    names = sorted(prop_atoms(f))
    tried = 0
    for size in range(1, 4):
        for order in _preorders(size):
            ups = list(_upsets(size, order))
            for chosen in product(ups, repeat=len(names)):
                if tried == KRIPKE_MODEL_BUDGET:
                    return None
                tried += 1
                model = KripkeModel(size, order, dict(zip(names, chosen)))
                if any(not model.forces(w, f) for w in range(size)):
                    return model
    return None


# ---------------------------------------------------------------------------
# identity stand-ins for the removed bridges to a separate propositional type


def embed_prop(f: Formula) -> Formula:
    """Returns f.  Only perfbench's prop-sweep calls it."""
    return f


def project_prop(f: Formula) -> Formula:
    """Returns f.  Only perfbench's prop-sweep calls it."""
    return f
