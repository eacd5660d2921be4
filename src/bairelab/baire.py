"""Finitely described total functions on the naturals.

These are the points of Baire space the toolkit can actually hold in its
hands: finite-support and tabled functions are total outright, machine
programs are total only as far as their fuel reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import seqcode
from .errors import BairelabError
from .machine import OracleProgram, _steps


class FuelExhausted(BairelabError):
    """A Program descriptor failed to produce a value within its fuel."""


class BaireElement:
    def at(self, n: int) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteSupport(BaireElement):
    """default everywhere except finitely many listed points."""

    overrides: tuple[tuple[int, int], ...] = ()
    default: int = 0

    def __post_init__(self) -> None:
        keys = [k for k, _ in self.overrides]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate override point")
        if self.default < 0 or any(k < 0 or v < 0 for k, v in self.overrides):
            raise ValueError("values must be naturals")
        # plain ints: a sequence code would carry its entries along
        pairs = sorted((int(k), int(v)) for k, v in self.overrides)
        object.__setattr__(self, "overrides", tuple(pairs))
        object.__setattr__(self, "default", int(self.default))

    def at(self, n: int) -> int:
        for k, v in self.overrides:
            if k == n:
                return v
        return self.default


@dataclass(frozen=True)
class Tabled(BaireElement):
    """An explicit prefix, then default forever."""

    prefix: tuple[int, ...]
    default: int = 0

    def __post_init__(self) -> None:
        if self.default < 0 or any(v < 0 for v in self.prefix):
            raise ValueError("values must be naturals")
        object.__setattr__(self, "prefix", tuple(map(int, self.prefix)))
        object.__setattr__(self, "default", int(self.default))

    def at(self, n: int) -> int:
        return self.prefix[n] if n < len(self.prefix) else self.default


def _seq_view(n: int) -> Callable[[int], int]:
    # Oracle exposing the sequence structure of the input: slot 0 is
    # lh(n)+1 when n is a sequence number (0 otherwise), slot 1+j is
    # entry j.  This is how Program elements read coded arguments
    # without factoring them in machine code.
    entries = seqcode.decode(n)

    def view(q: int) -> int:
        if entries is None:
            return 0
        if q == 0:
            return len(entries) + 1
        return entries[q - 1] if q - 1 < len(entries) else 0

    return view


@dataclass(frozen=True)
class Program(BaireElement):
    """The function computed by an oracle machine, fuel-bounded.

    at(n) runs the machine on input n with the structure view of n as
    the oracle and reads the output only, packing no trace; failure to
    halt within fuel raises FuelExhausted rather than pretending a value.
    """

    program: OracleProgram
    fuel: int = 100_000

    def at(self, n: int) -> int:
        halted = _steps(self.program, n, _seq_view(n), self.fuel)
        if halted is None:
            raise FuelExhausted(
                f"program {self.program.index} on {n}: no halt within {self.fuel}"
            )
        return halted[1]


class _Fn(BaireElement):
    """Closure-backed element; internal glue, not serialisable."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[int], int]):
        self._fn = fn

    def at(self, n: int) -> int:
        return self._fn(n)
