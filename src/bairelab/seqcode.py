"""Prime power coding of finite sequences of naturals.

A sequence (x0, ..., x_{k-1}) is coded as prod_i prime(i) ** (x_i + 1); the
empty sequence is 1.  The +1 in the exponent makes the coding injective and
leaves 0 outside the coded set.  Decoding factors by consecutive primes and
insists that nothing is left over, so e.g. 5 and 10 are not sequence codes.

The codes that encode, bar, extend and concat return are Code instances:
ints that carry their entries, so decode (and lh, concat and every reader
built on decode) reads the entries off them instead of factoring.  Any
other int is factored: a number parsed from the command line, the result
of arithmetic on a code (which is a plain int), a Pair term's value.
extend of such an int factors it once and returns a Code.
"""

from __future__ import annotations

import operator
from collections.abc import Callable

from .errors import BairelabError


class SeqCodeError(BairelabError):
    """Operation applied to a number that codes no sequence."""


class SeqOverflow(BairelabError):
    """A code would exceed the configured size guard."""


DEFAULT_MAX_BITS = 4096

_PRIMES: list[int] = [2, 3, 5, 7, 11, 13]


def prime(i: int) -> int:
    """The i-th prime, 0-indexed: prime(0) == 2."""
    while len(_PRIMES) <= i:
        c = _PRIMES[-1] + 2
        while not _is_prime(c):
            c += 2
        _PRIMES.append(c)
    return _PRIMES[i]


def _is_prime(c: int) -> bool:
    """Trial division of c > 1 by the known primes up to its square root.

    Correct whenever _PRIMES holds every prime up to sqrt(c).
    """
    for p in _PRIMES:
        if p * p > c:
            return True
        if c % p == 0:
            return False
    return True


class Code(int):
    """A sequence code that carries its entries as a list of plain ints.

    Equality, hashing, printing and arithmetic are those of int, and
    arithmetic gives a plain int.  The entries never include a code, so
    a Code keeps no other code alive.  Nothing changes the list after
    construction; decode hands out copies.  It is a list, not a tuple,
    because CPython 3.11 keeps every freed 20-tuple on a free list it
    never takes from (up to 2,000 of them), and every code extended past
    20 entries would leave one there.
    """

    def __new__(cls, n: int, entries: list[int]) -> Code:
        code = super().__new__(cls, n)
        code.entries = entries
        return code

    def __reduce__(self) -> tuple[type[Code], tuple[int, list[int]]]:
        return Code, (int(self), self.entries)


def encode(items: list[int] | tuple[int, ...], max_bits: int | None = DEFAULT_MAX_BITS) -> Code:
    """Code a finite sequence of naturals; [] codes to 1."""
    entries = [operator.index(x) for x in items]
    n = 1
    for i, x in enumerate(entries):
        n = _times_power(n, i, x, max_bits)
    return Code(n, entries)


def _times_power(n: int, i: int, x: int, max_bits: int | None) -> int:
    """n * prime(i) ** (x + 1); a power past max_bits bits is refused before it is computed."""
    if x < 0:
        raise ValueError("sequence entries must be naturals")
    p = prime(i)
    # exact: p ** (x + 1) >= 2 ** ((x + 1) * (p.bit_length() - 1))
    if max_bits is not None and (x + 1) * (p.bit_length() - 1) >= max_bits:
        raise SeqOverflow(f"sequence code exceeds {max_bits} bits")
    n *= p ** (x + 1)
    if max_bits is not None and n.bit_length() > max_bits:
        raise SeqOverflow(f"sequence code exceeds {max_bits} bits")
    return n


def _extract(n: int, p: int) -> tuple[int, int]:
    """Largest e with p**e dividing n, and the cofactor n // p**e.

    Recursive halving: strip one factor of p, pull p**2 out of the
    quotient, then at most one more factor of p.  Divisors double while
    the dividend shrinks, so the divisions stay balanced even when codes
    reach megabit sizes.
    """
    q, r = divmod(n, p)
    if r:
        return 0, n
    half, m = _extract(q, p * p)
    q, r = divmod(m, p)
    if r:
        return 2 * half + 1, m
    return 2 * half + 2, q


def decode(n: int) -> list[int] | None:
    """The sequence coded by n, or None when n codes nothing."""
    if isinstance(n, Code):
        return list(n.entries)
    if n < 1:
        return None
    if n == 1:
        return []
    out: list[int] = []
    i = 0
    while n > 1:
        e, n = _extract(n, prime(i))
        if e == 0:
            return None  # gap in the prime support
        out.append(e - 1)
        i += 1
    return out


def _entries(n: int) -> list[int]:
    """decode(n), refusing an n that codes nothing."""
    d = decode(n)
    if d is None:
        raise SeqCodeError(f"{n} is not a sequence code")
    return d


def lh(n: int) -> int:
    """Length of the coded sequence."""
    return len(_entries(n))


def concat(a: int, b: int) -> Code:
    """Code of the concatenation of two coded sequences."""
    return encode(_entries(a) + _entries(b))


def bar(alpha: Callable[[int], int], x: int, max_bits: int | None = DEFAULT_MAX_BITS) -> Code:
    """Code of the initial segment (alpha(0), ..., alpha(x-1))."""
    return encode([alpha(i) for i in range(x)], max_bits=max_bits)


def extend(s: int, item: int, max_bits: int | None = DEFAULT_MAX_BITS) -> Code:
    """Code of the coded sequence s with one more entry appended.

    A Code's entries are copied, not shared with s: a linked list whose
    nodes pointed at the parent code would keep every prefix's code alive.
    """
    entries = s.entries if isinstance(s, Code) else _entries(s)
    item = operator.index(item)
    return Code(_times_power(s, len(entries), item, max_bits), entries + [item])
