"""The pruning function rho, the jump sequence beta, and bar operations."""

import pytest

from bairelab import seqcode
from bairelab.baire import FiniteSupport, Tabled
from bairelab.jump import (
    BUILTIN_BASES,
    BUILTIN_RHOS,
    BUILTIN_STEPS,
    Barred,
    DepthExhausted,
    MissingCertificateError,
    NotBarredError,
    bar_recurse,
    bar_verify,
    build_beta,
    rho,
    oracle_rho,
)
from bairelab.machine import (
    Halts,
    MalformedProgramError,
    OracleProgram,
    assemble,
    certify,
    halting_trace,
    load_registry,
    registry_programs,
    run,
    t_check,
)

ZERO = FiniteSupport()
HALT_NOW = OracleProgram(0, assemble("HALT 0"))
LOOP_ALWAYS = OracleProgram(1, assemble("JZ 1 0, HALT 0"))

# frozen: the packed trace of HALT-immediately on input 0 under any oracle
Y_HALT_NOW = 663


def test_frozen_trace_value():
    assert run(HALT_NOW, 0, ZERO, 10).trace == Y_HALT_NOW


def test_rho_non_sequence_number_survives():
    assert rho(0, ZERO, {}) == 1
    assert rho(7, ZERO, {}) == 1  # 7 skips the primes 2, 3, 5


def test_rho_empty_sequence_survives():
    assert rho(1, ZERO, {}) == 1


def test_rho_even_slot_mismatch():
    alpha = FiniteSupport(((0, 3),), default=0)
    assert rho(seqcode.encode([5]), alpha, {}) == 0
    assert rho(seqcode.encode([3]), alpha, {}) == 1
    assert rho(seqcode.encode([3, 0, 9]), alpha, {}) == 0  # slot 2 wants alpha(1)=0


def test_rho_case3_trace_within_bound():
    # HALT-immediately halts on 0 with trace 663, so a divergence claim
    # (odd slot 0) is refuted exactly once the prefix reaches length 663.
    programs = {0: HALT_NOW}
    assert rho(seqcode.encode([0] * 663, max_bits=None), ZERO, programs) == 0
    assert rho(seqcode.encode([0] * 662, max_bits=None), ZERO, programs) == 1


def test_rho_case4_wrong_halt_claim():
    programs = {0: HALT_NOW}
    assert rho(seqcode.encode([0, 5]), ZERO, programs) == 0  # 4 is not the trace
    assert rho(seqcode.encode([0, Y_HALT_NOW + 1]), ZERO, programs) == 1


def test_rho_beyond_known_programs():
    # no certificate can ever justify a positive halting claim
    assert rho(seqcode.encode([0, 1]), ZERO, {}) == 0
    assert rho(seqcode.encode([0, 0]), ZERO, {}) == 1


def test_rho_on_the_packaged_registry():
    alpha = FiniteSupport(((0, 2),), default=0)
    programs = registry_programs(load_registry())
    assert rho(seqcode.encode([2]), alpha, programs) == 1
    assert rho(seqcode.encode([3]), alpha, programs) == 0


def test_build_beta_small():
    programs = {0: HALT_NOW, 1: LOOP_ALWAYS}
    alpha = FiniteSupport(((0, 6), (1, 2)), default=0)
    h = certify(programs, alpha, 1000)
    beta = build_beta(alpha, h, 2)
    assert beta.prefix == (6, Y_HALT_NOW + 1, 2, 0)
    with pytest.raises(MissingCertificateError):
        build_beta(alpha, h, 3)


def test_build_beta_registry_is_the_surviving_path():
    entries = load_registry()
    programs = registry_programs(entries)
    alpha = FiniteSupport(((0, 3), (2, 5), (5, 1), (14, 2)), default=4)
    known = {k: programs[k] for k in range(21)}
    h = certify(known, alpha, 100_000)
    beta = build_beta(alpha, h, 21)
    assert len(beta.prefix) == 42
    for j in range(43):
        assert rho(seqcode.bar(beta.at, j, max_bits=None), alpha, programs) == 1
    # deviating anywhere in the first seven slots is fatal on the spot
    for i in range(7):
        node = seqcode.bar(beta.at, i, max_bits=None)
        for v in range(8):
            if v != beta.at(i):
                assert rho(seqcode.extend(node, v), alpha, programs) == 0


def test_rho_deep_prefix_reaches_real_trace_codes():
    # The divergence-claim bound bites at genuine trace magnitudes: with
    # the zero oracle, registry program 4 halts with trace 10571, and
    # case 3 cuts a 0 claim once that trace is at most lh(s), so the
    # false claim is cut at prefix length 10571 and survives at 10570.
    # Codes here run to about a megabit.  bar's codes carry their
    # entries; the survivor goes in as a bare int, so decode must factor
    # a megabit code.
    entries = load_registry()
    programs = registry_programs(entries)
    h = certify({k: programs[k] for k in range(21)}, ZERO, 100_000)
    beta = build_beta(ZERO, h, 21)
    y4 = h[(4, 4)].trace
    assert beta.prefix[9] == y4 + 1

    def tampered(j):
        return 0 if j == 9 else beta.at(j)

    cut = seqcode.bar(tampered, y4, max_bits=None)
    kept = seqcode.bar(tampered, y4 - 1, max_bits=None)
    assert rho(cut, ZERO, programs) == 0
    assert rho(int(kept), ZERO, programs) == 1


# --- the one rule per slot against rho's definition --------------------------

FALLS_OFF = OracleProgram(0, assemble("INC 1, INC 1"))
ASK_ONCE = OracleProgram(0, assemble("QRY 0 0, HALT 0"))  # two steps
CRITERION_5_ALPHA = FiniteSupport(((0, 3), (2, 5), (5, 1), (14, 2)), default=4)
DIFF_ALPHAS = (
    ZERO,
    CRITERION_5_ALPHA,
    FiniteSupport(((0, 1),), default=0),
    Tabled((2, 0, 7, 1, 0, 3), default=1),
)


def _scan_refutes(program, x, alpha, bound):
    """Case 3 as first written: some y <= bound passes t_check."""
    return any(t_check(program, x, y, alpha) for y in range(bound + 1))


def _rho_by_definition(s, alpha, programs):
    """rho by its four cases; any hit gives 0, otherwise 1.
      1. s is not a sequence number: keep (1).
      2. some even slot 2k differs from alpha(k): cut.
      3. some odd slot 2k+1 is 0 yet machine k halts on k with a trace
         code bounded by lh(s): cut.
      4. some odd slot 2k+1 is m+1 yet m is not the least trace code
         for machine k on k: cut.
    Trace codes are unique, so "m is the least trace" is t_check on m.
    """
    entries = seqcode.decode(s)
    if entries is None:
        return 1
    for j, v in enumerate(entries):
        k = j // 2
        program = programs.get(k)
        if j % 2 == 0:
            cut = v != alpha.at(k)
        elif v == 0:
            cut = program is not None and _scan_refutes(program, k, alpha, len(entries))
        else:
            cut = program is None or not t_check(program, k, v - 1, alpha)
        if cut:
            return 0
    return 1


def _diagonal_cases():
    programs = registry_programs(load_registry())
    yield from ((program, k) for k, program in programs.items())
    yield HALT_NOW, 0
    yield ASK_ONCE, 0
    yield FALLS_OFF, 0


def _claims_divergence(alpha, length):
    """alpha on the even slots and 0 on every odd slot."""
    return seqcode.encode(
        [alpha.at(j // 2) if j % 2 == 0 else 0 for j in range(length)], max_bits=None
    )


def _criterion_5_codes():
    """Criterion 5's beta prefixes, and the prefixes that deviate from beta
    at their last slot with a v < 8; those stop at slot 19, past machine
    4's 10,572 in slot 9, to keep the test short."""
    programs = registry_programs(load_registry())
    h = certify({k: programs[k] for k in range(21)}, CRITERION_5_ALPHA, 100_000)
    beta = build_beta(CRITERION_5_ALPHA, h, 21).prefix
    for j in range(len(beta) + 1):
        yield seqcode.encode(beta[:j], max_bits=None)
    for i in range(20):
        for v in range(8):
            if v != beta[i]:
                yield seqcode.encode(beta[:i] + (v,), max_bits=None)


def test_rho_matches_its_definition():
    programs = registry_programs(load_registry())
    for alpha in DIFF_ALPHAS:
        for s in range(10_001):
            assert rho(s, alpha, programs) == _rho_by_definition(s, alpha, programs), s
    for s in _criterion_5_codes():
        want = _rho_by_definition(s, CRITERION_5_ALPHA, programs)
        assert rho(s, CRITERION_5_ALPHA, programs) == want, seqcode.decode(s)


def test_halting_trace_returns_exactly_the_code_t_check_accepts():
    for alpha in DIFF_ALPHAS:
        for program, k in _diagonal_cases():
            ys = set(range(65))
            try:
                claim = certify({k: program}, alpha, 100_000).get((k, k))
            except MalformedProgramError:
                claim = None
            if isinstance(claim, Halts):
                ys |= {claim.trace - 1, claim.trace, claim.trace + 1}
            for y in ys:
                accepted = t_check(program, k, y, alpha)
                assert (halting_trace(program, k, alpha, y) == y) == accepted, (k, y)


def test_rho_case3_run_matches_the_scan_on_small_bounds():
    for alpha in DIFF_ALPHAS:
        for program, k in _diagonal_cases():
            for bound in range(2, 65):
                want = _scan_refutes(program, k, alpha, bound)
                assert (halting_trace(program, k, alpha, bound) is not None) == want, (k, bound)
                if 2 * k + 1 < bound:
                    s = _claims_divergence(alpha, bound)
                    assert rho(s, alpha, {k: program}) == (0 if want else 1), (k, bound)


def test_rho_case3_run_matches_the_scan_at_trace_codes():
    seen = set()
    for a, alpha in enumerate(DIFF_ALPHAS):
        for program, k in _diagonal_cases():
            try:
                claim = certify({k: program}, alpha, 100_000).get((k, k))
            except MalformedProgramError:
                continue
            if not isinstance(claim, Halts) or claim.trace > 25_000:
                continue
            for bound in (claim.trace - 1, claim.trace):
                want = _scan_refutes(program, k, alpha, bound)
                assert want == (bound == claim.trace)
                assert (halting_trace(program, k, alpha, bound) is not None) == want, (k, bound)
                seen.add((a, k, bound))
    # under the zero oracle: HALT-immediately on 0, registry program 4
    # (HALT 0 as well) on 4, which sets the deep-prefix bound, and the
    # two-step run of ASK_ONCE on 0
    assert {(0, 0, 662), (0, 4, 10_570), (0, 4, 10_571), (0, 0, 21_483)} <= seen


def test_rho_case3_program_falling_off_its_end_cuts_nothing():
    with pytest.raises(MalformedProgramError):
        run(FALLS_OFF, 0, ZERO, 10)
    for alpha in DIFF_ALPHAS:
        for bound in (2, 3, 4, 100, 1000):
            assert not _scan_refutes(FALLS_OFF, 0, alpha, bound)
            assert halting_trace(FALLS_OFF, 0, alpha, bound) is None
        assert rho(_claims_divergence(alpha, 8), alpha, {0: FALLS_OFF}) == 1


def test_bar_verify_uniform_bar():
    verdict = bar_verify(BUILTIN_RHOS["uniform2"], 3, 5)
    assert verdict == Barred(2)


def test_bar_verify_never_barred():
    verdict = bar_verify(BUILTIN_RHOS["never"], 2, 6)
    assert verdict == DepthExhausted((0, 0, 0, 0, 0, 0))


def test_bar_verify_root_barred():
    assert bar_verify(lambda s: 0, 4, 3) == Barred(0)


def test_bar_verify_validates_arguments():
    with pytest.raises(ValueError):
        bar_verify(BUILTIN_RHOS["never"], 0, 3)
    with pytest.raises(ValueError):
        bar_verify(BUILTIN_RHOS["never"], 2, 0)


def test_bar_verify_oracle_rho_survivor_is_beta():
    programs = registry_programs(load_registry())
    alpha = FiniteSupport(((0, 3), (1, 7)), default=1)
    h = certify({k: programs[k] for k in range(4)}, alpha, 10_000)
    beta = build_beta(alpha, h, 4)
    verdict = bar_verify(oracle_rho(alpha, programs), 8, 8)
    assert verdict == DepthExhausted(tuple(beta.at(j) for j in range(8)))


def _counting(rho_fn):
    calls = []

    def counted(s):
        calls.append(s)
        return rho_fn(s)

    return counted, calls


def test_bar_verify_stops_at_the_first_survivor_in_index_order():
    counted, calls = _counting(BUILTIN_RHOS["never"])
    assert bar_verify(counted, 3, 6) == DepthExhausted((0,) * 6)
    assert calls == [seqcode.encode([0] * k) for k in range(7)]
    counted, calls = _counting(BUILTIN_RHOS["uniform2"])
    assert bar_verify(counted, 3, 5) == Barred(2)
    assert len(calls) == 13
    assert [seqcode.decode(s) for s in calls[:3]] == [[], [0], [0, 0]]


def test_not_barred_error_path_is_bar_verify_survivor():
    # cut (0), (1, 0) and (1, 1, 1); the least survivor at depth 3 is (1, 1, 0)
    cuts = {(0,), (1, 0), (1, 1, 1)}
    rho_fn = lambda s: 0 if tuple(seqcode.decode(s)) in cuts else 1
    assert bar_verify(rho_fn, 2, 3) == DepthExhausted((1, 1, 0))
    with pytest.raises(NotBarredError) as info:
        bar_recurse(rho_fn, lambda w: 1, lambda w, ks: sum(ks), 2, 3)
    assert info.value.path == (1, 1, 0)
    assert str(info.value) == f"uncut node at depth 3: code {seqcode.encode([1, 1, 0])}"
    cuts.add((1, 1, 0))
    assert bar_verify(rho_fn, 2, 3) == Barred(3)


def test_bar_recurse_counts_leaves():
    assert bar_recurse(BUILTIN_RHOS["uniform2"], lambda w: 1, lambda w, ks: sum(ks), 3, 5) == 9
    assert bar_recurse(BUILTIN_RHOS["uniform1"], lambda w: 1, lambda w, ks: sum(ks), 5, 5) == 5


def test_bar_recurse_max_depth():
    for d in range(1, 5):
        rho_fn = lambda s, d=d: 0 if seqcode.lh(s) >= d else 1
        assert bar_recurse(rho_fn, seqcode.lh, BUILTIN_STEPS["max"], 3, d) == d


def test_bar_recurse_not_barred():
    with pytest.raises(NotBarredError):
        bar_recurse(BUILTIN_RHOS["never"], lambda w: 1, lambda w, ks: sum(ks), 2, 4)


def test_builtin_tables():
    assert set(BUILTIN_RHOS) == {"uniform1", "uniform2", "never"}
    assert BUILTIN_BASES["one"](1) == 1
    assert BUILTIN_BASES["lh"](seqcode.encode([4, 4])) == 2
    assert BUILTIN_STEPS["sum"](1, [2, 3]) == 5
    assert BUILTIN_STEPS["max"](1, [2, 3]) == 3


def test_rho_monotone_on_small_codes():
    programs = registry_programs(load_registry())
    alpha = FiniteSupport(((0, 1),), default=0)
    for s in range(1, 2000):
        if seqcode.decode(s) is None or rho(s, alpha, programs) != 0:
            continue
        for n in range(4):
            assert rho(seqcode.extend(s, n), alpha, programs) == 0
