import copy
import json
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairelab import seqcode
from bairelab.baire import FiniteSupport
from bairelab.jump import DepthExhausted, bar_verify, build_beta, oracle_rho, rho
from bairelab.machine import OracleProgram, assemble, certify, load_registry, registry_programs
from bairelab.realize import Status, check_realizes, k2_apply_info, mp_realizer
from bairelab.schemas import SchemaKind, instantiate
from bairelab.seqcode import (
    Code,
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


# --- codes that carry their entries ----------------------------------------

# rho's rules read the oracle, run programs and count the prefix length
RHO_ALPHA = FiniteSupport(((0, 1), (2, 3)), default=0)
RHO_PROGRAMS = {
    0: OracleProgram(0, assemble("HALT 0")),
    1: OracleProgram(1, assemble("QRY 0 0, HALT 0")),
    2: OracleProgram(2, assemble("JZ 1 0, HALT 0")),
}


def test_codes_copy_and_pickle_to_equal_codes():
    c = encode([1, 2])
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert twin == c == 108
        assert type(twin) is Code and twin.entries == [1, 2]


def test_a_code_prints_as_its_int():
    c = extend(encode([3, 0]), 4, max_bits=None)
    n = int(c)
    assert type(n) is int and n == c
    assert (str(c), repr(c), format(c, ","), format(c, "x")) == (
        str(n), repr(n), format(n, ","), format(n, "x"))
    with pytest.raises(TypeError):
        json.dumps(c)
    assert json.dumps({"code": int(c), "list": [int(c)]}) == '{"code": 150000, "list": [150000]}'
    assert hash(c) == hash(n) and {c: 1}[n] == 1


def test_arithmetic_on_a_code_is_a_plain_int_that_still_decodes():
    c = encode([2, 0, 5])
    for result in (c + 0, c * 1, c // 1):
        assert type(result) is int
        assert decode(result) == [2, 0, 5] and lh(result) == 3
        assert type(extend(result, 1)) is Code
        assert decode(extend(result, 1)) == [2, 0, 5, 1]


def test_codes_hold_plain_int_entries():
    inner = encode([1])
    c = encode([inner, 0])
    assert c.entries == [4, 0] and {type(x) for x in c.entries} == {int}
    assert {type(x) for x in extend(c, inner).entries} == {int}
    with pytest.raises(TypeError):
        encode([1.5])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=6), st.lists(st.integers(0, 3), max_size=3),
       st.integers(0, 5))
def test_carried_and_factored_codes_agree(xs, ys, item):
    c, d = encode(xs), encode(ys)
    assert type(c) is Code and type(int(c)) is int
    assert decode(c) == decode(int(c)) == xs
    assert lh(c) == lh(int(c)) == len(xs)
    assert extend(c, item) == extend(int(c), item)
    assert decode(extend(c, item)) == decode(extend(int(c), item)) == xs + [item]
    for left, right in ((c, d), (int(c), d), (c, int(d)), (int(c), int(d))):
        assert concat(left, right) == concat(c, d)
        assert decode(concat(left, right)) == xs + ys
    assert rho(c, RHO_ALPHA, RHO_PROGRAMS) == rho(int(c), RHO_ALPHA, RHO_PROGRAMS)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=6), st.lists(st.integers(0, 3), max_size=3),
       st.integers(0, 5))
def test_unguarded_codes_agree_with_their_integers(xs, ys, item):
    c, d = encode(xs, max_bits=None), encode(ys, max_bits=None)
    n, m = int(encode(xs)), int(encode(ys))
    assert type(c) is Code and type(int(c)) is int and int(c) == n
    assert (c == n, n == c, c != n, n != c) == (True, True, False, False)
    assert (c == m, m == c, c != m, m != c) == (n == m, n == m, n != m, n != m)
    assert (c == d, d == c, c != d, d != c) == (n == m, n == m, n != m, n != m)
    assert (c < d, c <= d, c > d, c >= d) == (n < m, n <= m, n > m, n >= m)
    assert (c < m, n < d, c >= m, n >= d) == (n < m, n < m, n >= m, n >= m)
    assert hash(c) == hash(n) and {c: 1}[n] == 1
    assert (str(c), repr(c), format(c, ","), format(c, "x"), f"{c}") == (
        str(n), repr(n), format(n, ","), format(n, "x"), str(n))
    for result, want in ((c + 0, n), (0 + c, n), (c * d, n * m), (c - 1, n - 1), (c**2, n**2)):
        assert type(result) is int and result == want
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert type(twin) is Code and twin == c == n and twin.entries == xs
    assert decode(c) == xs and lh(c) == len(xs)
    assert extend(c, item, max_bits=None) == extend(n, item) == extend(c, item)
    assert decode(extend(c, item, max_bits=None)) == xs + [item]
    assert concat(c, d) == concat(n, m) and decode(concat(c, d)) == xs + ys
    assert rho(c, RHO_ALPHA, RHO_PROGRAMS) == rho(n, RHO_ALPHA, RHO_PROGRAMS)


def test_unguarded_codes_refuse_what_guarded_ones_refuse():
    for build in (lambda: encode([1, -1], max_bits=None), lambda: extend(1, -1, max_bits=None)):
        with pytest.raises(ValueError):
            build()
    with pytest.raises(TypeError):
        encode([1.5], max_bits=None)


def test_carried_codes_are_never_factored(monkeypatch):
    programs = registry_programs(load_registry())
    alpha = FiniteSupport(((0, 3), (2, 5), (5, 1), (14, 2)), default=4)
    beta = build_beta(alpha, certify({k: programs[k] for k in range(21)}, alpha, 100_000), 21)
    prefix = bar(beta.at, 42, max_bits=None)
    deviant = extend(bar(beta.at, 41, max_bits=None), beta.at(41) + 1, max_bits=None)
    zero = FiniteSupport()
    mp = (mp_realizer(), instantiate(SchemaKind.MP), {"@a": FiniteSupport(((3, 0),), 2)})

    calls = []
    real = seqcode._extract

    def counted(n, p):
        calls.append(p)
        return real(n, p)

    monkeypatch.setattr(seqcode, "_extract", counted)
    assert rho(prefix, alpha, programs) == 1
    assert rho(deviant, alpha, programs) == 0
    assert bar_verify(oracle_rho(zero, programs), 3, 6) == DepthExhausted((0,) * 6)
    assert k2_apply_info(zero, beta, 3, 200) is None
    assert check_realizes(*mp, fuel=100).status is Status.REALIZED
    assert calls == []


def test_entry_readers_build_no_integer(monkeypatch):
    programs = registry_programs(load_registry())
    alpha = FiniteSupport(((0, 3), (2, 5), (5, 1), (14, 2)), default=4)
    beta = build_beta(alpha, certify({k: programs[k] for k in range(21)}, alpha, 100_000), 21)
    prefix = bar(beta.at, 42, max_bits=None)
    deviant = extend(bar(beta.at, 41, max_bits=None), beta.at(41) + 1, max_bits=None)
    zero = FiniteSupport()
    beta0 = build_beta(zero, certify(programs, zero, 100_000), 21)
    # machine 4's slot claims no halt; it survives while shorter than the trace code
    tampered = bar(lambda k: 0 if k == 9 else beta0.at(k), 400, max_bits=None)
    mp = (mp_realizer(), instantiate(SchemaKind.MP), {"@a": FiniteSupport(((3, 0),), 2)})

    builds = []
    real = seqcode._product

    def counted(entries, max_bits):
        builds.append(len(entries))
        return real(entries, max_bits)

    monkeypatch.setattr(seqcode, "_product", counted)
    assert rho(prefix, alpha, programs) == 1
    assert rho(deviant, alpha, programs) == 0
    assert rho(tampered, zero, programs) == 1
    assert k2_apply_info(zero, beta, 3, 200) is None
    assert prefix and prefix == bar(beta.at, 42, max_bits=None) and deviant != prefix
    assert decode(pickle.loads(pickle.dumps(prefix))) == decode(copy.deepcopy(prefix))
    assert builds == []
    # the MP check applies an applied element, whose argument is the code
    # of [0]; entries are plain ints, so that one-entry code is built
    assert check_realizes(*mp, fuel=100).status is Status.REALIZED
    assert builds == [1]
    builds.clear()

    c = encode([2, 0, 5], max_bits=None)
    assert int(c) == int(c) == 2**3 * 3 * 5**6
    assert builds == [3]
