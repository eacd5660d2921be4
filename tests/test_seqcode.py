import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairelab import seqcode
from bairelab.seqcode import (
    SeqCodeError,
    SeqOverflow,
    bar,
    concat,
    decode,
    encode,
    extend,
    lh,
    prime,
)


def test_primes():
    assert [prime(i) for i in range(10)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime(41) == 181


def test_first_2000_primes_match_a_sieve(monkeypatch):
    # start from the seed list, so every prime past 13 is generated here
    monkeypatch.setattr(seqcode, "_PRIMES", [2, 3, 5, 7, 11, 13])
    limit = 17_389  # the 2000th prime
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for n in range(2, int(limit**0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(range(n * n, limit + 1, n)))
    want = [n for n in range(limit + 1) if sieve[n]]
    assert len(want) == 2000
    assert [prime(i) for i in range(2000)] == want


def test_encode_known_values():
    assert encode([]) == 1
    assert encode([0]) == 2
    assert encode([3]) == 16
    assert encode([1, 2]) == 108
    assert encode([0, 0]) == 6


def test_decode_known_values():
    assert decode(1) == []
    assert decode(2) == [0]
    assert decode(16) == [3]
    assert decode(108) == [1, 2]
    assert decode(6) == [0, 0]
    # non-codes: 0, odd > 1, and numbers with gaps in prime support
    assert decode(0) is None
    assert decode(5) is None
    assert decode(10) is None  # 2 * 5 skips 3
    assert decode(7) is None


def test_lh_proj():
    n = encode([4, 0, 7])
    assert lh(n) == 3
    with pytest.raises(SeqCodeError):
        lh(5)


def test_concat():
    assert concat(encode([3]), encode([1, 2])) == encode([3, 1, 2])
    assert concat(1, encode([2])) == encode([2])
    with pytest.raises(SeqCodeError):
        concat(5, 6)


def test_extend():
    assert extend(1, 3) == encode([3])
    assert extend(encode([1, 2]), 0) == encode([1, 2, 0])
    with pytest.raises(SeqCodeError):
        extend(5, 0)


def test_bar():
    assert bar(lambda n: n, 3) == 2250
    assert bar(lambda n: 0, 2) == 6
    assert bar(lambda n: n, 0) == 1


def test_overflow_guard():
    with pytest.raises(SeqOverflow):
        encode([10000] * 300)
    # explicit opt-out lifts the guard
    big = encode([10000, 10000], max_bits=None)
    assert decode(big) == [10000, 10000]


def test_overflow_guard_is_exact_and_refuses_before_the_power():
    assert encode([4094]).bit_length() == 4096
    with pytest.raises(SeqOverflow):
        encode([4095])
    for build in (lambda: encode([10**12]), lambda: extend(1, 10**12)):
        start = time.perf_counter()
        with pytest.raises(SeqOverflow):
            build()
        assert time.perf_counter() - start < 0.1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=4))
def test_roundtrip_small(xs):
    assert decode(encode(xs)) == xs


def test_roundtrip_all_codes_up_to_10000():
    hits = 0
    for n in range(1, 10001):
        d = decode(n)
        if d is not None:
            hits += 1
            assert encode(d) == n
    assert hits > 50  # sanity: the coded set is not empty


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=3), st.lists(st.integers(0, 4), max_size=3))
def test_concat_lengths_add(xs, ys):
    n = concat(encode(xs), encode(ys))
    assert decode(n) == xs + ys


def test_single_entry_codes_are_powers_of_two():
    for n in range(11):
        assert encode([n]) == 2 ** (n + 1)
