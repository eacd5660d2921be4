"""The jump of an oracle via a pruned tree on Baire space.

Given alpha, the interleaved sequence beta records alpha itself on even
slots and diagonal halting facts on odd slots: 0 for a diverging
machine, least-trace-plus-one for a halting one.  The pruning function
rho cuts a finite sequence once it visibly deviates from beta.  Every
prefix of beta survives, and in the limit beta is the only surviving
path; at a finite depth, a 0 claimed for a halting machine survives
until the sequence is as long as that machine's trace code.
bar_verify and bar_recurse then operate on any pruned tree: the first
checks that all paths are cut within a depth budget, the second folds a
value bottom-up from the cut nodes to the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from . import seqcode
from .baire import Tabled
from .errors import BairelabError
from .machine import (
    Diverges,
    Halts,
    HaltingInfo,
    MalformedProgramError,
    OracleProgram,
    oracle_fn,
    run,
    t_check,
)


class MissingCertificateError(BairelabError):
    """Halting info does not cover a machine index the query needs."""


class NotBarredError(BairelabError):
    """bar_recurse reached the depth budget on an uncut path."""


def rho(s: int, alpha: object, programs: Mapping[int, OracleProgram]) -> int:
    """Prune codes that visibly deviate from the jump sequence of alpha.

    Four cases, checked in order; any hit gives 0, otherwise 1.
      1. s is not a sequence number: keep (1).
      2. some even slot 2k differs from alpha(k): cut.
      3. some odd slot 2k+1 is 0 yet machine k halts on k with a trace
         code bounded by lh(s): cut.
      4. some odd slot 2k+1 is m+1 yet m is not the least trace code
         for machine k on k: cut.
    Trace codes are unique per (machine, input, oracle): t_check accepts
    only the packed trace of the real run.  So "m is the least trace"
    collapses to t_check on m, and case 3 ("some y <= lh(s) passes
    t_check") is decided by one bounded run instead of a scan over y.
    A trace of T configurations packs to more than T bits, so a trace
    code y <= lh(s) needs T < lh(s).bit_length(); running machine k on
    k for that many steps and comparing the trace with lh(s) is exact.
    A run that falls off the end of its program has no halting trace,
    so it refutes nothing.  Indices beyond the registry never get a
    halting certificate, so a 0 slot for them survives case 3 and a
    positive slot is cut by case 4.
    """
    entries = seqcode.decode(s)
    if entries is None:
        return 1
    q = oracle_fn(alpha)
    for j, v in enumerate(entries):
        if j % 2 == 0 and v != q(j // 2):
            return 0
    bound = len(entries)
    for j, v in enumerate(entries):
        if j % 2 == 1 and v == 0:
            k = (j - 1) // 2
            program = programs.get(k)
            if program is not None and _halts_within(program, k, alpha, bound):
                return 0
    for j, v in enumerate(entries):
        if j % 2 == 1 and v > 0:
            k = (j - 1) // 2
            program = programs.get(k)
            if program is None or not t_check(program, k, v - 1, alpha):
                return 0
    return 1


def _halts_within(program: OracleProgram, x: int, alpha: object, bound: int) -> bool:
    """Does some y <= bound pass t_check(program, x, y, alpha)?"""
    try:
        result = run(program, x, alpha, bound.bit_length())
    except MalformedProgramError:
        return False
    return result is not None and result.trace <= bound


def build_beta(alpha: object, h: HaltingInfo, upto: int) -> Tabled:
    """Tabulate the jump sequence: beta(2n)=alpha(n), beta(2n+1) from h."""
    q = oracle_fn(alpha)
    prefix: list[int] = []
    for n in range(upto):
        prefix.append(q(n))
        if (n, n) not in h:
            raise MissingCertificateError(f"no halting certificate for machine {n}")
        match h[(n, n)]:
            case Halts(trace, _):
                prefix.append(trace + 1)
            case Diverges():
                prefix.append(0)
    return Tabled(tuple(prefix))


# --- bar exploration and recursion -----------------------------------------


@dataclass(frozen=True)
class Barred:
    max_depth: int


@dataclass(frozen=True)
class DepthExhausted:
    path: tuple[int, ...]


BarVerdict = Union[Barred, DepthExhausted]

RhoFn = Callable[[int], int]


def bar_verify(rho_fn: RhoFn, b: int, d: int) -> BarVerdict:
    """Check that every path with entries < b is cut within depth d.

    Children are explored in index order, so the reported path of a
    DepthExhausted verdict is the lexicographically least survivor.
    """
    if b < 1 or d < 1:
        raise ValueError("branching and depth must be at least 1")
    deepest = 0

    def explore(code: int, path: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        nonlocal deepest
        if rho_fn(code) == 0:
            deepest = max(deepest, len(path))
            return None
        if len(path) == d:
            return path
        for n in range(b):
            survivor = explore(seqcode.extend(code, n), path + (n,))
            if survivor is not None:
                return survivor
        return None

    survivor = explore(1, ())
    if survivor is not None:
        return DepthExhausted(survivor)
    return Barred(deepest)


def bar_recurse(
    rho_fn: RhoFn,
    base: Callable[[int], object],
    step: Callable[[int, list], object],
    b: int,
    d: int,
) -> object:
    """Fold a value up the pruned tree: base at cut nodes, step inside.

    Requires the tree to be barred within depth d (NotBarredError
    otherwise); the result is the value assigned to the root code 1.
    """
    if b < 1 or d < 1:
        raise ValueError("branching and depth must be at least 1")

    def fold(code: int, depth: int) -> object:
        if rho_fn(code) == 0:
            return base(code)
        if depth == d:
            raise NotBarredError(f"uncut node at depth {d}: code {code}")
        return step(code, [fold(seqcode.extend(code, n), depth + 1) for n in range(b)])

    return fold(1, 0)


def oracle_rho(alpha: object, programs: Mapping[int, OracleProgram]) -> RhoFn:
    """rho specialised to alpha, in the shape bar_verify expects."""
    return lambda s: rho(s, alpha, programs)


def _uniform(depth: int) -> RhoFn:
    return lambda s: 0 if (e := seqcode.decode(s)) is not None and len(e) >= depth else 1


BUILTIN_RHOS: dict[str, RhoFn] = {
    "uniform1": _uniform(1),
    "uniform2": _uniform(2),
    "never": lambda s: 1,
}

BUILTIN_BASES: dict[str, Callable[[int], int]] = {
    "one": lambda code: 1,
    "lh": lambda code: seqcode.lh(code),
}

BUILTIN_STEPS: dict[str, Callable[[int, list], int]] = {
    "sum": lambda code, kids: sum(kids),
    "max": lambda code, kids: max(kids),
}
