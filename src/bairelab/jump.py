"""The jump of an oracle via a pruned tree on Baire space.

Given alpha, the interleaved sequence beta records alpha itself on even
slots and diagonal halting facts on odd slots: 0 for a diverging
machine, least-trace-plus-one for a halting one.  The pruning function
rho applies one rule per slot and cuts a finite sequence once some slot
visibly deviates from beta: an even slot 2k must be alpha(k), and an odd
slot 2k+1 claims what one bounded run of machine k on k must return.
Every prefix of beta survives, and in the limit beta is the only
surviving path; at a finite depth, a 0 claimed for a halting machine
survives until the sequence is as long as that machine's trace code.
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
from .machine import Diverges, Halts, HaltingInfo, OracleProgram, halting_trace, oracle_fn


class MissingCertificateError(BairelabError):
    """Halting info does not cover a machine index the query needs."""


class NotBarredError(BairelabError):
    """bar_recurse reached the depth budget on an uncut path."""

    def __init__(self, message: str, path: tuple[int, ...]) -> None:
        super().__init__(message)
        self.path = path


def rho(s: int, alpha: object, programs: Mapping[int, OracleProgram]) -> int:
    """Prune codes that visibly deviate from the jump sequence of alpha.

    One rule per slot; 0 (cut) when some slot breaks it, otherwise 1.  A
    number that is not a sequence code is kept.
      - Even slot 2k must equal alpha(k).
      - Odd slot 2k+1 holding v claims that machine k on k halts with
        trace v - 1 (v > 0), or with no trace up to lh(s) (v = 0).  It is
        cut iff halting_trace(programs[k], k, alpha, v - 1 or lh(s))
        differs from the claim: v - 1, or None for v = 0.
    An index beyond the registry has no halting trace: a 0 claim for it
    survives and a positive one is cut.  Slots are checked in this order:
    even slots, then 0 claims, then positive claims.
    """
    entries = seqcode.decode(s)
    if entries is None:
        return 1
    q = oracle_fn(alpha)
    if any(v != q(k) for k, v in enumerate(entries[::2])):
        return 0
    for k, v in sorted(enumerate(entries[1::2]), key=lambda claim: claim[1] > 0):
        program = programs.get(k)
        bound = v - 1 if v else len(entries)
        trace = None if program is None else halting_trace(program, k, alpha, bound)
        if trace != (v - 1 if v else None):
            return 0
    return 1


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

    def fold(path: tuple[int, ...]) -> object:
        code = seqcode.encode(path)
        if rho_fn(code) == 0:
            return base(code)
        if len(path) == d:
            raise NotBarredError(f"uncut node at depth {d}: code {code}", path)
        return step(code, [fold(path + (n,)) for n in range(b)])

    return fold(())


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
