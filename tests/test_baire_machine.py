"""Register machine, trace codes, certification, and Baire descriptors."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairelab import seqcode
from bairelab.baire import FiniteSupport, FuelExhausted, Program, Tabled, _seq_view
from bairelab.machine import (
    Dec,
    Diverges,
    Halt,
    Halts,
    Inc,
    Jz,
    MalformedProgramError,
    OracleProgram,
    Query,
    RegistryError,
    assemble,
    certify,
    load_registry,
    pack_trace,
    parse_registry,
    registry_programs,
    run,
    t_check,
    unpack_trace,
    verify_registry,
)
from bairelab.realize import mp_realizer
from bairelab.reference import _brute_halting_trace

ZERO = lambda n: 0  # noqa: E731

HALT_NOW = OracleProgram(0, (Halt(0),))
QUERY_HALT = OracleProgram(1, assemble("QRY 1 2, HALT 2"))
TIGHT_LOOP = OracleProgram(2, assemble("JZ 0 0, HALT 0"))
MP_SCAN = mp_realizer().program


# independent packing oracle: Elias gamma over (field+1), marker bit up front
def _gamma_pack(num_regs, configs):
    def gamma(n):
        b = bin(n)[2:]
        return "0" * (len(b) - 1) + b

    fields = [num_regs, len(configs)]
    for c in configs:
        fields.extend(c)
    return int("1" + "".join(gamma(f + 1) for f in fields), 2)


def test_assemble_and_format():
    text = "start: INC 0\n JZ 0 start\n HALT 1"
    instrs = assemble(text)
    assert instrs == (Inc(0), Jz(0, 0), Halt(1))


def test_assemble_comma_separated():
    assert assemble("DEC 2, QRY 0 1, HALT 0") == (Dec(2), Query(0, 1), Halt(0))


@pytest.mark.parametrize(
    "bad",
    [
        "FOO 1", "INC", "JZ 0", "JZ 0 nowhere", "x: INC 0\nx: HALT 0", "HALT 0 1",
        "INC 0: HALT 0", "3: HALT 0",
    ],
)
def test_assemble_rejects(bad):
    with pytest.raises(MalformedProgramError):
        assemble(bad)


@pytest.mark.parametrize(
    "text, word", [("INC x", "x"), ("INC ٣, HALT 0", "٣"), ("JZ 0 -1", "-1"), ("JZ 0 ²", "²")]
)
def test_assemble_reads_operands_as_ascii_numerals(text, word):
    with pytest.raises(MalformedProgramError, match=f"not {re.escape(repr(word))}$"):
        assemble(text)


def test_assemble_labels():
    # a label on its own line names the next instruction; one may carry several
    assert assemble("top:\n INC 0\n JZ 1 top\n a: b: HALT 0, JZ 0 b") == (
        Inc(0), Jz(1, 0), Halt(0), Jz(0, 2),
    )


def test_program_validation():
    with pytest.raises(MalformedProgramError):
        OracleProgram(0, ())
    with pytest.raises(MalformedProgramError):
        OracleProgram(0, (Jz(0, 5), Halt(0)))
    with pytest.raises(MalformedProgramError):
        OracleProgram(0, (Inc(-1), Halt(0)))
    assert OracleProgram(0, assemble("QRY 5 5, JZ 6 0, HALT 6")).num_registers == 7


def test_run_halt_immediately():
    result = run(HALT_NOW, 0, ZERO, 10)
    assert result.output == 0
    assert result.trace == 663  # R=1, one config (0, 0, 0)
    assert result.trace == _gamma_pack(1, [(0, 0, 0)])


def test_run_query_then_halt():
    alpha = FiniteSupport(((0, 7),), default=1)
    result = run(QUERY_HALT, 5, alpha, 10)
    assert result.output == 7
    assert result.trace == _gamma_pack(3, [(0, 5, 0, 0, 7), (1, 5, 0, 7, 0)])


def test_run_tight_loop_absent_at_every_fuel():
    for fuel in (1, 10, 1000):
        assert run(TIGHT_LOOP, 0, ZERO, fuel) is None


def test_run_off_end_is_malformed():
    with pytest.raises(MalformedProgramError):
        run(OracleProgram(0, (Inc(0),)), 3, ZERO, 10)
    with pytest.raises(ValueError):
        run(HALT_NOW, 0, ZERO, 0)


def test_unpack_rejects_non_codes():
    # trailing bits, truncated gammas, zero field counts
    for y in (0, 1, 2, 3, 663 * 2, 663 * 2 + 1, int("1" + "0" * 40, 2)):
        assert unpack_trace(y) is None


def test_pack_width_mismatch():
    with pytest.raises(ValueError):
        pack_trace(2, [(0, 1, 0)])  # width must be R+2 = 4


@settings(max_examples=200)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.lists(
            st.tuples(*([st.integers(0, 50)] * (r + 2))), min_size=1, max_size=6
        ).map(lambda cs: (r, cs))
    )
)
def test_pack_unpack_roundtrip(shape):
    num_regs, configs = shape
    y = pack_trace(num_regs, configs)
    assert unpack_trace(y) == (num_regs, tuple(tuple(c) for c in configs))
    assert y == _gamma_pack(num_regs, configs)


def test_t_check_accepts_only_the_run_trace():
    alpha = FiniteSupport(((0, 7),), default=1)
    y = run(QUERY_HALT, 5, alpha, 10).trace
    assert t_check(QUERY_HALT, 5, y, alpha)
    assert not t_check(QUERY_HALT, 4, y, alpha)  # wrong input
    assert not t_check(QUERY_HALT, 5, y, ZERO)  # wrong oracle
    assert not t_check(HALT_NOW, 5, y, alpha)  # wrong register count
    assert not t_check(QUERY_HALT, 5, 1, alpha)  # not a trace code


def test_t_check_rejects_every_single_symbol_mutation():
    alpha = FiniteSupport(((0, 7),), default=1)
    y = run(QUERY_HALT, 5, alpha, 10).trace
    num_regs, configs = unpack_trace(y)
    for i in range(len(configs)):
        for j in range(len(configs[i])):
            for delta in (-1, 1):
                mutated = [list(c) for c in configs]
                mutated[i][j] += delta
                if mutated[i][j] < 0:
                    continue
                y2 = pack_trace(num_regs, [tuple(c) for c in mutated])
                assert not t_check(QUERY_HALT, 5, y2, alpha)


def test_t_check_rejects_truncation_and_padding():
    y = run(HALT_NOW, 3, ZERO, 10).trace
    num_regs, configs = unpack_trace(y)
    assert not t_check(HALT_NOW, 3, pack_trace(num_regs, configs + configs), ZERO)
    inc_halt = OracleProgram(0, assemble("INC 0, HALT 0"))
    _, two = unpack_trace(run(inc_halt, 3, ZERO, 10).trace)
    assert not t_check(inc_halt, 3, pack_trace(1, two[:1]), ZERO)


def test_certify_splits_halts_and_loops():
    programs = {0: TIGHT_LOOP, 1: HALT_NOW, 2: QUERY_HALT}
    info = certify(programs, ZERO, 1000)
    assert info[(0, 0)] == Diverges((0, 0))
    match info[(1, 1)]:
        case Halts(y, output):
            assert output == 1 and t_check(HALT_NOW, 1, y, ZERO)
        case other:
            pytest.fail(f"expected halt, got {other}")
    assert (0, 0) not in certify({0: TIGHT_LOOP}, ZERO, 1)


# --- the stepping core: run, certify and Program.at ---------------------------


@pytest.mark.parametrize(
    "alpha",
    [FiniteSupport(), FiniteSupport(((0, 5), (3, 0)), default=1), FiniteSupport(((1, 5),))],
)
def test_run_matches_the_brute_force_simulator(alpha):
    # the MP realizer's scan queries registers that differ from their destination
    programs = [e.program for e in load_registry()] + [HALT_NOW, QUERY_HALT, MP_SCAN]
    for program in programs:
        x = program.index
        for fuel in (*range(1, 65), 100_000):
            result = run(program, x, alpha, fuel)
            want = _brute_halting_trace(program, x, alpha, fuel)
            assert (None if result is None else result.trace) == want, (program.index, fuel)


def test_program_at_is_the_output_of_run():
    realizer = mp_realizer()
    codes = [
        seqcode.encode(entries)
        for length in range(4)
        for entries in itertools.product(range(4), repeat=length)
    ]
    exhausted = {}
    for fuel in (12, realizer.fuel):
        element = Program(realizer.program, fuel)
        exhausted[fuel] = 0
        for n in codes:
            result = run(realizer.program, n, _seq_view(n), fuel)
            if result is None:
                exhausted[fuel] += 1
                with pytest.raises(FuelExhausted):
                    element.at(n)
            else:
                assert element.at(n) == result.output
    # fuel 12 cuts some scans short and not others; the default cuts none
    assert 0 < exhausted[12] < len(codes) and exhausted[realizer.fuel] == 0


def test_off_the_end_is_malformed_through_every_caller():
    off_end = OracleProgram(0, assemble("INC 1, INC 1"))
    with pytest.raises(MalformedProgramError):
        run(off_end, 0, ZERO, 10)
    with pytest.raises(MalformedProgramError):
        certify({0: off_end}, ZERO, 10)
    with pytest.raises(MalformedProgramError):
        Program(off_end, fuel=10).at(0)


# --- the shipped registry ---------------------------------------------------


def test_registry_loads_and_verifies():
    entries = load_registry()
    verify_registry(entries)
    assert len(entries) >= 10
    halting = [e for e in entries if isinstance(e.claim, int)]
    diverging = [e for e in entries if isinstance(e.claim, Diverges)]
    assert len(halting) >= 4 and len(diverging) >= 4
    assert [e.program.index for e in entries] == list(range(len(entries)))


def test_registry_halting_claims_pass_t_check():
    halting = [e for e in load_registry() if isinstance(e.claim, int)]
    assert halting
    for entry in halting:
        assert t_check(entry.program, entry.program.index, entry.claim, ZERO)


def test_registry_rejects_corruption():
    with pytest.raises(RegistryError):
        parse_registry("1 HALT 0 ; halts=663")  # index out of order
    with pytest.raises(RegistryError):
        parse_registry("0 HALT 0 ; flies")
    with pytest.raises(RegistryError):
        parse_registry("0 HALT 0")
    for text in (
        "٠ HALT ٠ ; halts=6_6_3",
        "0 HALT 0 ; halts=+663",
        "0 JZ 0 0, HALT 0 ; diverges@0:٠",
    ):
        with pytest.raises(RegistryError, match="ASCII digits"):
            parse_registry(text)
    loop_trace = run(TIGHT_LOOP, 1, ZERO, 10).trace
    ends_on_jz = pack_trace(1, [(0, 0, 0)])  # a well-formed trace cut before HALT
    for text in (
        "0 HALT 0 ; halts=1",  # no trace packs to 1
        f"0 JZ 0 1, HALT 0 ; halts={ends_on_jz}",
        "0 JZ 0 0, HALT 0 ; diverges@0:7",  # the wrong repeated state
        "0 HALT 0 ; diverges@0:0",  # a halting program claimed to loop
        "0 HALT 0 ; halts=10571",  # the trace of HALT 0 on input 4
        f"0 JZ 0 0, HALT 0 ; halts={loop_trace}",  # its halting run on input 1
        "0 INC 1, JZ 2 0, HALT 0 ; diverges@0:0:0",  # no state repeats within the fuel
    ):
        with pytest.raises(RegistryError, match="program 0: claim"):
            verify_registry(parse_registry(text))
    verify_registry(parse_registry("0 HALT 0 ; halts=663"))


def test_registry_programs_mapping():
    entries = load_registry()
    programs = registry_programs(entries)
    assert programs[0] is entries[0].program


# --- Baire descriptors -------------------------------------------------------


def test_finite_support():
    el = FiniteSupport(((3, 9), (0, 2)), default=1)
    assert [el.at(n) for n in range(5)] == [2, 1, 1, 9, 1]
    assert el.overrides == ((0, 2), (3, 9))  # canonical order
    with pytest.raises(ValueError):
        FiniteSupport(((1, 2), (1, 3)))
    with pytest.raises(ValueError):
        FiniteSupport(((0, -1),))


def test_tabled():
    el = Tabled((5, 0, 2), default=7)
    assert [el.at(n) for n in range(5)] == [5, 0, 2, 7, 7]
    with pytest.raises(ValueError):
        Tabled((0, -2))


def test_elements_store_plain_ints_when_built_from_codes():
    # a carried code would keep its entries alive in every element
    a, b, c = (seqcode.encode(xs) for xs in ([1], [2, 0], [0, 0, 3]))
    fs = FiniteSupport(((a, b), (c, a)), default=b)
    assert fs.overrides == ((a, b), (c, a)) and fs.at(c) == a
    assert {type(x) for pair in fs.overrides for x in pair} == {int}
    assert type(fs.default) is int
    tab = Tabled((a, b, c), default=c)
    assert tab.prefix == (a, b, c)
    assert {type(x) for x in tab.prefix} == {int} and type(tab.default) is int


def test_program_element_reads_sequence_structure():
    # QRY 1 2: r1 = 0, so the query fetches slot 0 = lh+1
    el = Program(OracleProgram(0, assemble("QRY 1 2, HALT 2")), fuel=100)
    assert el.at(seqcode.encode([3, 1, 4])) == 4
    assert el.at(1) == 1  # empty sequence: lh+1 = 1
    assert el.at(7) == 0  # not a sequence number: the view is all zeros


def test_program_element_fuel_exhausted():
    el = Program(TIGHT_LOOP, fuel=50)
    with pytest.raises(FuelExhausted):
        el.at(0)
    assert el.at(3) == 3  # nonzero input jumps past the loop


def test_descriptors_hashable():
    assert len({FiniteSupport(), FiniteSupport((), 1), Tabled((1,))}) == 3
