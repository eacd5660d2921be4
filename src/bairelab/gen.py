"""Random and exhaustive generators for syntax trees.

Seeded `random.Random` generators reproduce the same stream forever for a
frozen seed (the acceptance checks rely on it), and a dynamic programming
enumerator lists small formulas of the propositional fragment by size.  Hypothesis
strategies for property tests live with the tests, so the package needs
no third-party import.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence

from .syntax import (
    Add,
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
    Functor,
    Imp,
    Lambda,
    Mul,
    Not,
    NumVar,
    Or,
    Pair,
    Succ,
    Term,
    Zero,
    numeral,
)

NUM_POOL = ("x", "y", "z", "u", "v", "w")
FUN_POOL = ("@a", "@b", "@g")


# ---------------------------------------------------------------------------
# seeded generators (deterministic across runs for a fixed seed)


def random_term(rng: random.Random, depth: int, num_vars: Sequence[str] = NUM_POOL[:3]) -> Term:
    if depth <= 0:
        pick = rng.randrange(3)
        if pick == 0:
            return numeral(rng.randrange(4))
        return NumVar(rng.choice(list(num_vars)))
    match rng.randrange(6):
        case 0:
            return Succ(random_term(rng, depth - 1, num_vars))
        case 1:
            return Add(random_term(rng, depth - 1, num_vars), random_term(rng, depth - 1, num_vars))
        case 2:
            return Mul(random_term(rng, depth - 1, num_vars), random_term(rng, depth - 1, num_vars))
        case 3:
            return Pair(random_term(rng, depth - 1, num_vars), random_term(rng, depth - 1, num_vars))
        case 4:
            return Apply(random_functor(rng, depth - 1, num_vars), random_term(rng, depth - 1, num_vars))
        case _:
            return random_term(rng, 0, num_vars)


def random_functor(rng: random.Random, depth: int, num_vars: Sequence[str] = NUM_POOL[:3]) -> Functor:
    if depth <= 0 or rng.random() < 0.5:
        return FnVar(rng.choice(list(FUN_POOL)))
    v = rng.choice(list(num_vars))
    return Lambda(v, random_term(rng, depth - 1, tuple(num_vars) + (v,)))


def random_formula(rng: random.Random, depth: int, num_vars: Sequence[str] = NUM_POOL[:3]) -> Formula:
    if depth <= 0:
        return Eq(random_term(rng, 1, num_vars), random_term(rng, 1, num_vars))
    top = rng.randrange(10)
    match top:
        case 0:
            return And(
                random_formula(rng, depth - 1, num_vars),
                random_formula(rng, depth - 1, num_vars),
            )
        case 1:
            return Or(
                random_formula(rng, depth - 1, num_vars),
                random_formula(rng, depth - 1, num_vars),
            )
        case 2:
            return Imp(
                random_formula(rng, depth - 1, num_vars),
                random_formula(rng, depth - 1, num_vars),
            )
        case 3:
            return Not(random_formula(rng, depth - 1, num_vars))
        case 4 | 5:
            v = rng.choice(list(NUM_POOL))
            body = random_formula(rng, depth - 1, tuple(num_vars) + (v,))
            return ForallN(v, body) if top == 4 else ExistsN(v, body)
        case 6:
            v = rng.choice(list(NUM_POOL))
            bound = random_term(rng, 1, num_vars)
            body = random_formula(rng, depth - 1, tuple(num_vars) + (v,))
            return BForallN(v, bound, body) if rng.random() < 0.5 else BExistsN(v, bound, body)
        case 7:
            return Eq(random_term(rng, depth - 1, num_vars), random_term(rng, depth - 1, num_vars))
        case _:
            v = rng.choice(list(FUN_POOL))
            body = random_formula(rng, depth - 1, num_vars)
            return ForallF(v, body) if top == 8 else ExistsF(v, body)


def random_qf_formula(
    rng: random.Random, depth: int, num_vars: Sequence[str] = NUM_POOL[:3]
) -> Formula:
    """Quantifier-free formula over equations; good as a decidable matrix."""
    if depth <= 0:
        return Eq(random_term(rng, 1, num_vars), random_term(rng, 1, num_vars))
    match rng.randrange(5):
        case 0:
            return And(random_qf_formula(rng, depth - 1, num_vars), random_qf_formula(rng, depth - 1, num_vars))
        case 1:
            return Or(random_qf_formula(rng, depth - 1, num_vars), random_qf_formula(rng, depth - 1, num_vars))
        case 2:
            return Imp(random_qf_formula(rng, depth - 1, num_vars), random_qf_formula(rng, depth - 1, num_vars))
        case 3:
            return Not(random_qf_formula(rng, depth - 1, num_vars))
        case _:
            return Eq(random_term(rng, 1, num_vars), random_term(rng, 1, num_vars))


# ---------------------------------------------------------------------------
# exhaustive propositional enumeration


def enumerate_prop_formulas(max_leaves: int = 3, max_connectives: int = 7) -> Iterator[Formula]:
    """Every formula of the propositional fragment with at most `max_leaves`
    atom occurrences and at most `max_connectives` connectives, over the
    atoms p = 0, q = 0 and r = 0.

    Size is counted on the tree: each atom occurrence is a leaf, each of
    ~ & | -> is one connective.  Tables are built by dynamic programming
    on (leaves, connectives).
    """
    leaf_row = tuple(Eq(NumVar(name), Zero()) for name in "pqr")
    # table[l][c] = tuple of formulas with exactly l leaves, c connectives
    table: dict[tuple[int, int], tuple[Formula, ...]] = {}
    for l in range(1, max_leaves + 1):
        for c in range(0, max_connectives + 1):
            cell: list[Formula] = []
            if l == 1 and c == 0:
                cell.extend(leaf_row)
            if c >= 1:
                cell.extend(Not(f) for f in table.get((l, c - 1), ()))
                for l1 in range(1, l):
                    for c1 in range(0, c):
                        left = table.get((l1, c1), ())
                        right = table.get((l - l1, c - 1 - c1), ())
                        for a in left:
                            for b in right:
                                cell.append(And(a, b))
                                cell.append(Or(a, b))
                                cell.append(Imp(a, b))
            table[(l, c)] = tuple(cell)
    for l in range(1, max_leaves + 1):
        for c in range(0, max_connectives + 1):
            yield from table[(l, c)]
