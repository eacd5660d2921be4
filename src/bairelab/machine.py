"""Oracle register machines and verifiable halting traces.

A program is a finite list of instructions over registers r0, r1, ...
The machine starts with the input in r0 and every other register zero,
and may consult an oracle (a total function on naturals) via QRY.  A
halting run is summarised by a single natural number: the packed trace.
Packing is injective and locally checkable, so "y codes a halting run"
is a decidable predicate (t_check), the least such y is unique, and
halting_trace finds it below a bound by one bounded run.
"""

from __future__ import annotations

import functools
import importlib.resources
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import BairelabError, natural


class MalformedProgramError(BairelabError):
    """Raised for out-of-range jump targets or control falling off the end."""


class RegistryError(BairelabError):
    pass


# --- instructions ---------------------------------------------------------


@dataclass(frozen=True)
class Inc:
    reg: int


@dataclass(frozen=True)
class Dec:
    # decrement floors at zero
    reg: int


@dataclass(frozen=True)
class Jz:
    reg: int
    target: int


@dataclass(frozen=True)
class Query:
    # dst := oracle(regs[src])
    src: int
    dst: int


@dataclass(frozen=True)
class Halt:
    reg: int


Instr = Union[Inc, Dec, Jz, Query, Halt]


def _regs_of(ins: Instr) -> tuple[int, ...]:
    match ins:
        case Inc(r) | Dec(r) | Halt(r) | Jz(r, _):
            return (r,)
        case Query(s, d):
            return (s, d)
    raise TypeError(f"not an instruction: {ins!r}")


@dataclass(frozen=True)
class OracleProgram:
    index: int
    instructions: tuple[Instr, ...]

    def __post_init__(self) -> None:
        if self.index < 0:
            raise MalformedProgramError("program index must be a natural")
        if not self.instructions:
            raise MalformedProgramError("empty instruction list")
        for ins in self.instructions:
            if any(r < 0 for r in _regs_of(ins)):
                raise MalformedProgramError(f"negative register in {ins!r}")
            if isinstance(ins, Jz) and not 0 <= ins.target < len(self.instructions):
                raise MalformedProgramError(f"jump target out of range: {ins!r}")

    @functools.cached_property
    def num_registers(self) -> int:
        return 1 + max(r for ins in self.instructions for r in _regs_of(ins))


def oracle_fn(alpha: object) -> Callable[[int], int]:
    """Accept either a BaireElement (has .at) or a plain callable."""
    return alpha.at if hasattr(alpha, "at") else alpha  # type: ignore[return-value]


# --- trace packing --------------------------------------------------------
#
# A configuration is the machine state just before executing one
# instruction: (pc, r0, ..., r_{R-1}, pending), where pending is the
# oracle's answer when that instruction is a QRY and 0 otherwise.  A
# halting trace is the configuration sequence of the whole run, HALT
# step included.  The packed code is
#
#   y = int("1" + gamma(R+1) + gamma(T+1) + gamma(f+1 for each field), 2)
#
# with gamma the Elias gamma code and fields in row-major order.  The
# leading 1 bit keeps the first gamma's zeros; the grammar is prefix
# free, so distinct traces get distinct codes and every y decodes to at
# most one trace.  Hence for a fixed program, input and oracle there is
# at most one y accepted by t_check, and it is trivially the least.


def _gamma(n: int) -> str:
    # Elias gamma of n >= 1
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


Config = tuple[int, ...]


def pack_trace(num_regs: int, configs: Sequence[Config]) -> int:
    fields = [num_regs, len(configs)]
    for c in configs:
        if len(c) != num_regs + 2:
            raise ValueError("config width does not match register count")
        fields.extend(c)
    return int("1" + "".join(_gamma(f + 1) for f in fields), 2)


def unpack_trace(y: int) -> Optional[tuple[int, tuple[Config, ...]]]:
    """Inverse of pack_trace; None for anything not produced by it."""
    if y < 2:
        return None
    bits = bin(y)[2:]
    pos = 1  # skip the marker bit
    fields: list[int] = []

    def read() -> Optional[int]:
        nonlocal pos
        z = 0
        while pos + z < len(bits) and bits[pos + z] == "0":
            z += 1
        end = pos + 2 * z + 1
        if end > len(bits):
            return None
        val = int(bits[pos + z : end], 2)
        pos = end
        return val - 1

    num_regs = read()
    length = read()
    if num_regs is None or length is None or num_regs < 1 or length < 1:
        return None
    width = num_regs + 2
    for _ in range(length * width):
        f = read()
        if f is None:
            return None
        fields.append(f)
    if pos != len(bits):
        return None
    configs = tuple(tuple(fields[i * width : (i + 1) * width]) for i in range(length))
    return num_regs, configs


# --- running --------------------------------------------------------------


@dataclass(frozen=True)
class Halts:
    """A halting run: its packed trace and the value of its HALT register."""

    trace: int
    output: int


@dataclass(frozen=True)
class Diverges:
    """A machine state (pc, registers) that the run reached twice."""

    state: tuple[int, ...]


def _step(ins: Instr, pc: int, regs: list[int], pending: int) -> int:
    """Apply ins to regs in place, return the next pc."""
    match ins:
        case Inc(r):
            regs[r] += 1
        case Dec(r):
            regs[r] = max(0, regs[r] - 1)
        case Jz(r, target):
            return target if regs[r] == 0 else pc + 1
        case Query(_, d):
            regs[d] = pending
    return pc + 1


def _steps(
    program: OracleProgram, x: int, alpha: object, fuel: int, seen: Optional[set] = None
) -> Union[tuple[list[Config], int], Diverges, None]:
    """Run program on x under oracle alpha for at most fuel steps.

    The machine's one stepping loop.  It returns (configs, output) when
    the run halts, configs being every configuration, HALT step included;
    a Diverges when a (pc, registers) state recurs, checked only when the
    caller passes a seen set of states; None when fuel runs out.  Control
    falling off the end raises MalformedProgramError.
    """
    q = oracle_fn(alpha)
    code = program.instructions
    code_len = len(code)
    regs = [0] * program.num_registers
    regs[0] = x
    pc = 0
    configs: list[Config] = []
    for step in range(fuel):
        if seen is not None:
            state = (pc, *regs)
            if state in seen:
                return Diverges(state)
            seen.add(state)
        ins = code[pc]
        pending = q(regs[ins.src]) if isinstance(ins, Query) else 0
        configs.append((pc, *regs, pending))
        if isinstance(ins, Halt):
            return configs, regs[ins.reg]
        pc = _step(ins, pc, regs, pending)
        if pc == code_len:
            raise MalformedProgramError(
                f"program {program.index} ran off the end at step {step + 1}"
            )
    return None


def run(program: OracleProgram, x: int, alpha: object, fuel: int) -> Optional[Halts]:
    """Simulate at most fuel steps; a halting run yields its packed trace.

    Returns None when fuel runs out first.  Control reaching the end of
    the instruction list without HALT is a program bug, not divergence.
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    halted = _steps(program, x, alpha, fuel)
    if halted is None:
        return None
    configs, output = halted
    return Halts(pack_trace(program.num_registers, configs), output)


def halting_trace(program: OracleProgram, x: int, alpha: object, bound: int) -> Optional[int]:
    """The packed trace of program on x under alpha if it is at most bound,
    else None, also when control falls off the end of the program.

    One run is exact: a trace of T configurations packs to more than T
    bits, so a code <= bound needs T < bound.bit_length() steps.  Hence
    halting_trace(p, x, a, y) == y iff t_check(p, x, y, a).
    """
    try:
        result = run(program, x, alpha, max(1, bound.bit_length()))
    except MalformedProgramError:
        return None
    return result.trace if result is not None and result.trace <= bound else None


def t_check(program: OracleProgram, x: int, y: int, alpha: object) -> bool:
    """Does y code a complete halting run of program on x with oracle alpha?

    Purely local: replay every transition recorded in y and compare.
    """
    unpacked = unpack_trace(y)
    if unpacked is None:
        return False
    num_regs, configs = unpacked
    if num_regs != program.num_registers:
        return False
    if configs[0][:-1] != (0, x) + (0,) * (num_regs - 1):
        return False
    q = oracle_fn(alpha)
    code_len = len(program.instructions)
    for t, config in enumerate(configs):
        pc, pending = config[0], config[-1]
        regs = list(config[1:-1])
        if pc >= code_len:
            return False
        ins = program.instructions[pc]
        if isinstance(ins, Query):
            if pending != q(regs[ins.src]):
                return False
        elif pending != 0:
            return False
        last = t == len(configs) - 1
        if isinstance(ins, Halt) != last:
            return False
        if not last:
            next_pc = _step(ins, pc, regs, pending)
            if next_pc == code_len:
                return False
            # config t+1's pending is checked at step t+1
            if configs[t + 1][:-1] != (next_pc, *regs):
                return False
    return True


# --- certified halting information ----------------------------------------


HaltingInfo = dict[tuple[int, int], Union[Halts, Diverges]]


def certify(
    programs: Mapping[int, OracleProgram], alpha: object, fuel: int
) -> HaltingInfo:
    """Settle halting on the diagonal: program e on input e, key (e, e).

    Halting entries carry the packed trace; divergence is certified by a
    repeated (pc, registers) state, which suffices because the oracle is
    a fixed total function.  Programs that neither halt nor loop within
    fuel are simply absent.
    """
    info: HaltingInfo = {}
    for e, program in programs.items():
        end = _steps(program, e, alpha, fuel, seen=set())
        if isinstance(end, Diverges):
            info[(e, e)] = end
        elif end is not None:
            configs, output = end
            info[(e, e)] = Halts(pack_trace(program.num_registers, configs), output)
    return info


# --- assembly and the program registry -------------------------------------

_MNEMONICS = {"INC": Inc, "DEC": Dec, "JZ": Jz, "QRY": Query, "HALT": Halt}


def assemble(text: str) -> tuple[Instr, ...]:
    """Assemble newline- or comma-separated mnemonics into instructions.

    Lines may carry `name:` labels; JZ accepts a label in place of a
    numeric target.  `#` starts a comment.
    """
    raw: list[list[str]] = []
    labels: dict[str, int] = {}
    for chunk in text.splitlines():
        for piece in chunk.split("#", 1)[0].split(","):
            *named, words = piece.split(":")
            for label in map(str.strip, named):
                if not label.isidentifier() or label in labels:
                    raise MalformedProgramError(f"label {label!r} is taken or not a name")
                labels[label] = len(raw)
            if instruction := words.split():
                raw.append(instruction)

    out: list[Instr] = []
    for op, *args in raw:
        cls = _MNEMONICS.get(op.upper())
        if cls is None:
            raise MalformedProgramError(f"unknown mnemonic {op!r}")
        want = 2 if cls in (Jz, Query) else 1
        if len(args) != want:
            raise MalformedProgramError(f"{op} expects {want} argument(s), got {args}")
        if cls is Jz and args[1] in labels:
            args[1] = str(labels[args[1]])
        what = f"{op} takes ASCII numerals" + (" or a label" if cls is Jz else "")
        try:
            out.append(cls(*(natural(a, what) for a in args)))
        except ValueError as exc:
            raise MalformedProgramError(str(exc)) from None
    return tuple(out)


@dataclass(frozen=True)
class RegistryEntry:
    """A registry line as read; only verify_registry judges its claim."""

    program: OracleProgram
    claim: Union[int, Diverges]  # packed trace or repeated state, on diagonal input, zero oracle


_ZERO_ORACLE = lambda n: 0  # noqa: E731


def parse_registry(text: str) -> tuple[RegistryEntry, ...]:
    """Read registry lines, refusing only bad syntax and indices out of order."""
    entries: list[RegistryEntry] = []
    for lineno, chunk in enumerate(text.splitlines(), start=1):
        line = chunk.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, status = line.rsplit(";", 1)
            index_str, mnemonics = head.strip().split(None, 1)
            index = natural(index_str, "a program index is ASCII digits")
            program = OracleProgram(index, assemble(mnemonics))
            status = status.strip()
            claim: Union[int, Diverges]
            if status.startswith("halts="):
                claim = natural(status[len("halts=") :], "a halts= trace is ASCII digits")
            elif status.startswith("diverges@"):
                state = status[len("diverges@") :].split(":")
                claim = Diverges(tuple(natural(p, "a state is ASCII digits") for p in state))
            else:
                raise RegistryError(f"bad status {status!r}")
        except (ValueError, BairelabError) as exc:
            raise RegistryError(f"registry line {lineno}: {exc}") from exc
        if index != len(entries):
            raise RegistryError(f"registry line {lineno}: index {index} out of order")
        entries.append(RegistryEntry(program, claim))
    return tuple(entries)


def load_registry(path: Optional[str] = None) -> tuple[RegistryEntry, ...]:
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            return parse_registry(fh.read())
    data = importlib.resources.files("bairelab").joinpath("data/registry.txt")
    return parse_registry(data.read_text(encoding="utf-8"))


def verify_registry(entries: Sequence[RegistryEntry]) -> None:
    """Judge every claim: recompute it under the zero oracle, raise on any mismatch."""
    recomputed = certify(registry_programs(entries), _ZERO_ORACLE, 10_000)
    for entry in entries:
        e = entry.program.index
        got = recomputed.get((e, e))
        if entry.claim != (got.trace if isinstance(got, Halts) else got):
            raise RegistryError(f"program {e}: claim {entry.claim} vs {got}")
        # cannot fail (certify built got); it keeps the traced t_check read in the package
        if isinstance(got, Halts) and not t_check(entry.program, e, got.trace, _ZERO_ORACLE):
            raise RegistryError(f"program {e}: claimed trace fails t_check")


def registry_programs(entries: Sequence[RegistryEntry]) -> dict[int, OracleProgram]:
    return {e.program.index: e.program for e in entries}
