"""The jump of an oracle via a pruned tree on Baire space.

Given alpha, the interleaved sequence beta records alpha itself on even
slots and diagonal halting facts on odd slots: 0 for a diverging
machine, least-trace-plus-one for a halting one.  The pruning function
rho cuts a finite sequence once it visibly deviates from beta.  Every
prefix of beta survives, and in the limit beta is the only surviving
path; at a finite depth, a 0 claimed for a halting machine survives
until the sequence is as long as that machine's trace code.
bar_recurse then walks any pruned tree depth-first, in index order,
folding a value bottom-up from the cut nodes to the root; it stops at
the least path still uncut at the depth budget.  bar_verify is one such
fold, the height of the tree, and reports that path if there is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

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

    def __init__(self, message: str, path: tuple[int, ...]) -> None:
        super().__init__(message)
        self.path = path


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

    One fold of bar_recurse: 0 at a cut node and 1 + max(kids) inside,
    so Barred carries the depth of the deepest cut.  A DepthExhausted
    path is bar_recurse's first survivor, the lexicographically least.
    """
    try:
        return Barred(bar_recurse(rho_fn, lambda code: 0, lambda code, kids: 1 + max(kids), b, d))
    except NotBarredError as exc:
        return DepthExhausted(exc.path)


def bar_recurse(
    rho_fn: RhoFn,
    base: Callable[[int], object],
    step: Callable[[int, list], object],
    b: int,
    d: int,
) -> object:
    """Fold a value up the pruned tree: base at cut nodes, step inside.

    Children go in index order; the result is the value at the root code
    1.  An uncut node at depth d raises NotBarredError with its path.
    """
    if b < 1 or d < 1:
        raise ValueError("branching and depth must be at least 1")

    def fold(code: int, path: tuple[int, ...]) -> object:
        if rho_fn(code) == 0:
            return base(code)
        if len(path) == d:
            raise NotBarredError(f"uncut node at depth {d}: code {code}", path)
        return step(code, [fold(seqcode.extend(code, n), path + (n,)) for n in range(b)])

    return fold(1, ())


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
