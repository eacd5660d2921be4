"""Prime power coding of finite sequences of naturals.

A sequence (x0, ..., x_{k-1}) is coded as prod_i prime(i) ** (x_i + 1); the
empty sequence is 1.  The +1 in the exponent makes the coding injective and
leaves 0 outside the coded set.  Decoding factors by consecutive primes and
insists that nothing is left over, so e.g. 5 and 10 are not sequence codes.

The codes that encode, bar, extend and concat return are Code objects: a
code is its entries, and its integer is built at most once, when first
read.  decode (and lh, concat and every reader built on decode) reads the
entries, so a reader of entries never builds the integer.  A guarded call
(max_bits set) builds the integer at once, to refuse it past the guard; an
unguarded one leaves it to the first reader.  Any plain int is factored: a
number parsed from the command line, the result of arithmetic on a code
(which is a plain int), a Pair term's value.  extend of such an int factors
it once and returns a Code.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from typing import Any

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


def _read(op: Callable[..., Any]) -> Callable[..., Any]:
    """A Code method: op on the code's integer and the other operands."""
    return lambda self, *others: op(int(self), *others)


def _read_both(op: Callable[[Any, Any], Any]) -> tuple[Callable[..., Any], Callable[..., Any]]:
    """_read(op), and its reflected twin: op with the code's integer on the right."""
    return _read(op), lambda self, other: op(other, int(self))


class Code:
    """A sequence code: its entries, a list of plain ints, and its integer.

    The integer is built at most once: by the guarded call that made the
    code, or else by _product on the first of: int() or operator.index,
    hash, str, repr, format, ordering, bit_length, == against anything
    but a Code, or arithmetic, which is + - * // % and ** on either side
    and gives a plain int.
    Two Codes compare by their entries, which the coding makes the same as
    comparing their integers; a Code is always true; pickling and copying
    carry only the entries.  The entries never include a code, so a Code
    keeps no other code alive.  Nothing changes the list after
    construction; decode hands out copies.  It is a list, not a tuple,
    because CPython 3.11 keeps every freed 20-tuple on a free list it
    never takes from (up to 2,000 of them), and every code extended past
    20 entries would leave one there.
    """

    __slots__ = ("entries", "_n")

    def __init__(self, entries: list[int], n: int | None = None) -> None:
        self.entries = entries
        self._n = n

    def __int__(self) -> int:
        if self._n is None:
            self._n = _product(self.entries, None)
        return self._n

    __index__ = __int__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Code):
            return self.entries == other.entries
        return int(self) == other

    def __bool__(self) -> bool:
        return True

    def __reduce__(self) -> tuple[type[Code], tuple[list[int]]]:
        return Code, (self.entries,)

    __hash__ = _read(hash)
    __str__ = _read(str)
    __repr__ = _read(repr)
    __format__ = _read(format)
    bit_length = _read(int.bit_length)
    __lt__ = _read(operator.lt)
    __le__ = _read(operator.le)
    __gt__ = _read(operator.gt)
    __ge__ = _read(operator.ge)
    __add__, __radd__ = _read_both(operator.add)
    __sub__, __rsub__ = _read_both(operator.sub)
    __mul__, __rmul__ = _read_both(operator.mul)
    __floordiv__, __rfloordiv__ = _read_both(operator.floordiv)
    __mod__, __rmod__ = _read_both(operator.mod)
    __pow__, __rpow__ = _read_both(pow)


def encode(items: list[int] | tuple[int, ...], max_bits: int | None = DEFAULT_MAX_BITS) -> Code:
    """Code a finite sequence of naturals; [] codes to 1.

    With max_bits set the integer is built now and refused past max_bits
    bits; with None it waits until something reads it.
    """
    entries = [operator.index(x) for x in items]
    if max_bits is None:
        _refuse_negatives(entries)
        return Code(entries)
    return Code(entries, _product(entries, max_bits))


def _product(entries: list[int], max_bits: int | None) -> int:
    """The integer that codes entries, multiplied out in full.

    Every code's integer is built here but a guarded extend's, which is its
    parent's integer times one prime power.
    """
    n = 1
    for i, x in enumerate(entries):
        n = _times_power(n, i, x, max_bits)
    return n


def _refuse_negatives(entries: list[int]) -> None:
    if entries and min(entries) < 0:
        raise ValueError("sequence entries must be naturals")


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
    With max_bits set the integer is s's integer times one prime power,
    built now; with None it waits, as in encode.
    """
    entries = s.entries if isinstance(s, Code) else _entries(s)
    item = operator.index(item)
    if max_bits is None:
        _refuse_negatives([item])
        return Code(entries + [item])
    return Code(entries + [item], _times_power(int(s), len(entries), item, max_bits))
