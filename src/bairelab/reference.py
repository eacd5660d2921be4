"""Oracles for the acceptance gate, written apart from the code they check.

Each one computes by a route of its own what a construction should give.
An oracle that called into the construction would agree with it whatever
it did, so this module imports from bairelab only the syntax node classes,
the machine's instruction classes and pack_trace, FiniteSupport and
Tabled, and anything from errors: tests/test_reference_apart.py holds it
to that list.  The standard library is free.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .baire import FiniteSupport
from .machine import Dec, Halt, Inc, Jz, Query, pack_trace


# OracleProgram is an annotation only: never evaluated, so never imported.
def _brute_halting_trace(
    program: OracleProgram, x: int, alpha: FiniteSupport, fuel: int
) -> Optional[int]:
    """Plain simulator, written apart from the certified one; it shares
    only the instruction vocabulary and the trace packing."""
    regs = [0] * program.num_registers
    regs[0] = x
    pc = 0
    configs: list[tuple[int, ...]] = []
    for _ in range(fuel):
        ins = program.instructions[pc]
        pending = alpha.at(regs[ins.src]) if isinstance(ins, Query) else 0
        configs.append((pc, *regs, pending))
        match ins:
            case Halt(_):
                return pack_trace(program.num_registers, configs)
            case Inc(r):
                regs[r] += 1
                pc += 1
            case Dec(r):
                regs[r] = max(0, regs[r] - 1)
                pc += 1
            case Jz(r, target):
                pc = target if regs[r] == 0 else pc + 1
            case Query(_, d):
                regs[d] = pending
                pc += 1
    return None


def _brute_bar(cuts: set, b: int, d: int, base: Callable, step: Callable) -> tuple:
    """A bar given as a set of cut tuples, walked level by level over
    tuples, with no sequence codes.  Returns (survivor, deepest, value):
    the least path uncut at depth d, else None, the depth of the deepest
    cut and the fold's value at the root, base at cut paths, step inside."""
    levels = [[()]]
    for _ in range(d):
        levels.append([p + (n,) for p in levels[-1] if p not in cuts for n in range(b)])
    survivors = [p for p in levels[d] if p not in cuts]
    if survivors:
        return min(survivors), None, None
    value: dict = {}
    for level in reversed(levels):
        for p in level:
            value[p] = base(p) if p in cuts else step(p, [value[p + (n,)] for n in range(b)])
    return None, max(len(p) for p in value if p in cuts), value[()]


def _sieve(count: int) -> list[int]:
    """The first count primes, by a sieve of Eratosthenes over a range that
    doubles until it holds them."""
    limit = 16
    while True:
        prime = [True] * limit
        for p in range(2, math.isqrt(limit - 1) + 1):
            prime[p * p :: p] = [False] * len(range(p * p, limit, p))
        primes = [p for p in range(2, limit) if prime[p]]
        if len(primes) >= count:
            return primes[:count]
        limit *= 2


def _prime_power_code(xs: tuple[int, ...]) -> int:
    """The closed form of the code of xs: prod_i p_i ** (x_i + 1), with p_i
    the i-th prime (p_0 = 2), so () gives 1."""
    return math.prod(p ** (x + 1) for p, x in zip(_sieve(len(xs)), xs))
