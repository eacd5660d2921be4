"""The acceptance gate: ten checks over the whole workbench.

Each criterion judges a construction against an oracle independent of
the code path under test: truth tables against the intuitionistic
prover, a freshly written register-machine simulator against the
certified one, brute-force least-zero scans against the extracted
witness, and so on.  `run_all` returns one CriterionResult per
criterion, and a criterion that raises fails with the exception as its
detail; the CLI prints them as a table, the test suite asserts each
one individually.

Every randomized criterion runs from a fixed seed, so identical
invocations produce identical output.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
import traceback
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from . import cli, seqcode
from .baire import FiniteSupport, Tabled
from .gen import enumerate_prop_formulas, random_formula, random_qf_formula
from .jump import (
    BUILTIN_BASES,
    BUILTIN_RHOS,
    BUILTIN_STEPS,
    Barred,
    DepthExhausted,
    NotBarredError,
    bar_recurse,
    bar_verify,
    build_beta,
    rho,
    oracle_rho,
)
from .machine import (
    Dec,
    Diverges,
    Halt,
    Inc,
    Jz,
    OracleProgram,
    Query,
    certify,
    load_registry,
    pack_trace,
    registry_programs,
    verify_registry,
)
from .negtrans import is_negative, neg_translate, repair_bi_clause1, simplify_decidable_atoms
from .oracles import classical_valid, ipc_provable
from .parser import parse_formula
from .printer import format_formula
from .realize import Status, check_realizes, k2_apply, k2_apply_info, mp_realizer
from .schemas import (
    PAPER_MP_DISPLAY,
    SchemaError,
    SchemaKind,
    instantiate,
)
from .syntax import Apply, Eq, FnVar, NumVar, Zero, alpha_eq


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} {self.name}: {tag} [{self.detail}]"


def run_criterion_1() -> tuple[bool, str]:
    """Classical validity must coincide with intuitionistic provability of
    the double negation translation, exhaustively at small size."""
    started = time.perf_counter()
    total = mismatches = 0
    for f in enumerate_prop_formulas(max_leaves=3, max_connectives=7):
        total += 1
        classical = classical_valid(f)
        translated = ipc_provable(neg_translate(f))
        if classical != translated:
            mismatches += 1
    elapsed = time.perf_counter() - started
    passed = mismatches == 0 and elapsed <= 300.0
    return passed, f"{total} formulas, {mismatches} mismatches, {elapsed:.1f}s"


def run_criterion_2() -> tuple[bool, str]:
    rng = random.Random(1814)
    n = 100_000
    failures = 0
    for _ in range(n):
        f = random_formula(rng, rng.randint(0, 6))
        if not is_negative(neg_translate(f)):
            failures += 1
    return failures == 0, f"{n} random formulas, {failures} failures"


def run_criterion_3() -> tuple[bool, str]:
    """Translating a bar-induction instance and restoring its bar-hit
    clause must land exactly on the instance over the translated body."""
    rng = random.Random(2609)
    n = 50
    mismatches = 0
    for _ in range(n):
        body = random_qf_formula(rng, rng.randint(0, 4), num_vars=("w",))
        inst = instantiate(SchemaKind.BI1, body=body)
        repaired = repair_bi_clause1(neg_translate(inst))
        target = instantiate(SchemaKind.BI1, body=neg_translate(body))
        if not alpha_eq(
            simplify_decidable_atoms(repaired), simplify_decidable_atoms(target)
        ):
            mismatches += 1
    return mismatches == 0, f"{n} instances, {mismatches} mismatches"


def run_criterion_4() -> tuple[bool, str]:
    bad = 0
    roundtrips = 0
    for length in range(5):
        for xs in product(range(6), repeat=length):
            roundtrips += 1
            if seqcode.decode(seqcode.encode(xs)) != list(xs):
                bad += 1
    small = []
    for s in range(1, 10_001):
        entries = seqcode.decode(s)
        if entries is None:
            continue
        small.append(s)
        if seqcode.encode(entries) != s:
            bad += 1
    pairs = 0
    for a in small:
        la = seqcode.lh(a)
        for b in small:
            pairs += 1
            if seqcode.lh(seqcode.concat(a, b)) != la + seqcode.lh(b):
                bad += 1
    for n in range(11):
        if seqcode.encode([n]) != 2 ** (n + 1):
            bad += 1
    return (
        bad == 0,
        f"{roundtrips} encodings, {len(small)} small codes, {pairs} concat pairs, {bad} bad",
    )


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


def run_criterion_5() -> tuple[bool, str]:
    """The interleaved halting sequence, cross-checked against a
    brute-force simulator, must lie on the pruned tree.

    In the limit it is the one path the pruning map keeps.  At a finite
    depth a false "diverges" entry is cut only once the prefix is as
    long as that machine's trace code, so the checks here are finite
    ones: every prefix survives, early deviations are cut, and at depth
    8 it is the least survivor.
    """
    entries = load_registry()
    verify_registry(entries)
    halting = sum(isinstance(e.claim, int) for e in entries)
    diverging = sum(isinstance(e.claim, Diverges) for e in entries)
    problems: list[str] = []
    if len(entries) < 10 or halting < 4 or diverging < 4:
        problems.append(f"registry too thin ({len(entries)}/{halting}/{diverging})")

    programs = registry_programs(entries)
    alpha = FiniteSupport(((0, 3), (2, 5), (5, 1), (14, 2)), default=4)
    upto = 21
    h = certify({k: programs[k] for k in range(upto)}, alpha, 100_000)
    beta = build_beta(alpha, h, upto)

    for n in range(upto):
        if beta.at(2 * n) != alpha.at(n):
            problems.append(f"even slot {n}")
        y = _brute_halting_trace(programs[n], n, alpha, 200_000)
        slot = beta.at(2 * n + 1)
        if (slot > 0) != (y is not None) or (y is not None and slot != y + 1):
            problems.append(f"odd slot {n}")

    for j in range(41):
        if rho(seqcode.bar(beta.at, j, max_bits=None), alpha, programs) != 1:
            problems.append(f"pruned at {j}")

    for i in range(8):
        node = seqcode.bar(beta.at, i, max_bits=None)
        for v in range(8):
            if v != beta.at(i) and rho(seqcode.extend(node, v), alpha, programs) != 0:
                problems.append(f"deviation {i}->{v} survives")

    want = DepthExhausted(tuple(beta.at(j) for j in range(8)))
    if bar_verify(oracle_rho(alpha, programs), 8, 8) != want:
        problems.append("survivor path is not the halting sequence")

    detail = (
        f"{len(entries)} programs ({halting} halting, {diverging} diverging), "
        f"prefix of {2 * upto} cross-checked"
    )
    if problems:
        detail += "; " + "; ".join(problems[:4])
    return not problems, detail


def run_criterion_6() -> tuple[bool, str]:
    alpha = FiniteSupport(((0, 3), (2, 5), (5, 1), (14, 2)), default=4)
    programs = registry_programs(load_registry())
    pruned = violations = 0
    for s in range(1, 10_001):
        if seqcode.decode(s) is None:
            continue
        if rho(s, alpha, programs) != 0:
            continue
        pruned += 1
        for n in range(8):
            if rho(seqcode.extend(s, n), alpha, programs) != 0:
                violations += 1
    return violations == 0, f"{pruned} pruned codes, 8 extensions each, {violations} violations"


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


def run_criterion_7() -> tuple[bool, str]:
    wrong = 0
    for b in range(1, 6):
        for d in range(1, 6):
            at_depth = lambda s, d=d: 0 if seqcode.lh(s) >= d else 1
            got = bar_recurse(
                at_depth, BUILTIN_BASES["one"], BUILTIN_STEPS["sum"], b, d
            )
            if got != b**d:
                wrong += 1
    verdict = bar_verify(BUILTIN_RHOS["never"], 3, 6)
    flagged = verdict == DepthExhausted((0,) * 6)

    # seeded irregular bars, each cutting a random subset of the paths up
    # to depth d, under a fold that weighs children by index and leaves
    # by their path, so that a walk in another order gives another value
    rng = random.Random(20261020)
    base = lambda path: 1 + sum((i + 2) * v for i, v in enumerate(path))
    step = lambda path, kids: (len(path) + sum((i + 1) * k for i, k in enumerate(kids))) % 1009
    path_of = lambda code: tuple(seqcode.decode(code))
    barred = disagree = 0
    for _ in range(3000):
        b, d, p = rng.randint(1, 3), rng.randint(1, 5), rng.random()
        cuts = {q for k in range(d + 1) for q in product(range(b), repeat=k) if rng.random() < p}
        survivor, deepest, value = _brute_bar(cuts, b, d, base, step)
        rho_fn = lambda s, cuts=cuts: 0 if path_of(s) in cuts else 1
        try:
            got = bar_recurse(
                rho_fn,
                lambda code: base(path_of(code)),
                lambda code, kids: step(path_of(code), kids),
                b,
                d,
            )
        except NotBarredError as exc:
            got = exc.path
        if survivor is None:
            barred += 1
            ok = bar_verify(rho_fn, b, d) == Barred(deepest) and got == value
        else:
            ok = bar_verify(rho_fn, b, d) == DepthExhausted(survivor) and got == survivor
        disagree += not ok
    return (
        wrong == 0 and flagged and disagree == 0,
        f"25 closed forms, {wrong} wrong; unbarred tree flagged: {flagged}; "
        f"3000 irregular bars ({barred} barred) against a brute force, {disagree} disagreements",
    )


def run_criterion_8() -> tuple[bool, str]:
    rng = random.Random(20260814)
    formula = instantiate(SchemaKind.MP)
    mp = mp_realizer()
    wrong = dry_wrong = 0
    n = 100
    for _ in range(n):
        support = {i: rng.randint(1, 6) for i in range(rng.randint(1, 25))}
        support[rng.randint(0, 30)] = 0
        alpha = FiniteSupport(tuple(sorted(support.items())), rng.randint(1, 4))
        least = min(k for k in range(40) if alpha.at(k) == 0)
        verdict = check_realizes(mp, formula, {"@a": alpha}, fuel=1000)
        if verdict.status is not Status.REALIZED or verdict.witness != least:
            wrong += 1
    for _ in range(n):
        support = {i: rng.randint(1, 6) for i in range(rng.randint(0, 20))}
        alpha = FiniteSupport(tuple(sorted(support.items())), rng.randint(1, 4))
        verdict = check_realizes(mp, formula, {"@a": alpha}, fuel=200)
        if verdict.status is not Status.FUEL_EXHAUSTED:
            dry_wrong += 1
    return (
        wrong == 0 and dry_wrong == 0,
        f"{n} elements with a zero ({wrong} wrong witnesses), "
        f"{n} without ({dry_wrong} settled)",
    )


def run_criterion_9() -> tuple[bool, str]:
    """A defined application must not move under more fuel or under any
    argument agreeing on the consumed prefix."""
    rng = random.Random(977)
    n_cases = 1000
    unstable = 0
    for _ in range(n_cases):
        n = rng.randrange(8)
        idx = sorted(rng.sample(range(12), rng.randrange(4)))
        beta = FiniteSupport(tuple((i, rng.randrange(5)) for i in idx), rng.randrange(5))
        depth = rng.randrange(6)
        probes = [
            seqcode.encode([n] + [beta.at(i) for i in range(j)], max_bits=None)
            for j in range(depth + 1)
        ]
        overrides = {code: 0 for code in probes[:-1]}
        overrides[probes[-1]] = rng.randrange(1, 9)
        alpha = FiniteSupport(tuple(sorted(overrides.items())), rng.randrange(1, 4))
        got = k2_apply_info(alpha, beta, n, 64)
        if got is None:
            unstable += 1
            continue
        value, modulus = got
        if k2_apply(alpha, beta, n, 128) != value:
            unstable += 1
            continue
        for _ in range(2):
            stand_in = Tabled(
                tuple(beta.at(i) for i in range(modulus)), rng.randrange(9)
            )
            if k2_apply(alpha, stand_in, n, 64) != value:
                unstable += 1
                break
    return unstable == 0, f"{n_cases} applications, {unstable} unstable"


def run_criterion_10() -> tuple[bool, str]:
    problems: list[str] = []
    w_body = Eq(NumVar("w"), Zero())
    xy_body = Eq(NumVar("x"), NumVar("y"))
    per_kind: dict[SchemaKind, object] = {
        SchemaKind.AC00: xy_body,
        SchemaKind.AC01: Eq(Apply(FnVar("@a"), NumVar("x")), Zero()),
        SchemaKind.AC00_BANG: xy_body,
        SchemaKind.QF_AC00: xy_body,
        SchemaKind.INDUCTION: Eq(NumVar("x"), NumVar("x")),
        SchemaKind.OPEN_EQ: None,
        SchemaKind.BI_A: w_body,
        SchemaKind.BI1: w_body,
        SchemaKind.BI_BANG: w_body,
        SchemaKind.MP: None,
        SchemaKind.DNS1: None,
    }
    if set(per_kind) != set(SchemaKind):
        problems.append("kind table incomplete")
    for kind, body in per_kind.items():
        inst = instantiate(kind, body=body)
        if parse_formula(format_formula(inst)) != inst:
            problems.append(f"{kind.value} reparse")
    tainted = Eq(Apply(FnVar("@b"), NumVar("x")), NumVar("y"))
    for kind in (SchemaKind.AC00, SchemaKind.AC00_BANG, SchemaKind.AC01):
        try:
            instantiate(kind, body=tainted, binding={"choice": "@b"})
            problems.append(f"{kind.value} freshness")
        except SchemaError:
            pass
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.dispatch(["schema", "MP", "--paper-literal"])
    if code != 0 or buffer.getvalue() != PAPER_MP_DISPLAY + "\n":
        problems.append("pinned display")
    detail = "11 kinds reparse, 3 freshness guards, pinned display via the CLI"
    if problems:
        detail += "; " + "; ".join(problems)
    return not problems, detail


CRITERIA: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("translation-oracle-equivalence", run_criterion_1),
    ("negative-range", run_criterion_2),
    ("bi1-shape-law", run_criterion_3),
    ("sequence-codec", run_criterion_4),
    ("jump-beta-construction", run_criterion_5),
    ("rho-monotonicity", run_criterion_6),
    ("bar-recursion-closed-form", run_criterion_7),
    ("mp-witness-extraction", run_criterion_8),
    ("k2-continuity", run_criterion_9),
    ("schema-fidelity", run_criterion_10),
)
"""Each criterion's name and its check, which returns (passed, detail)."""


def _run(number: int) -> CriterionResult:
    """Criterion number's result.  One that raises fails with the exception
    as its detail, and its traceback goes to stderr, so it hides no other
    criterion's line."""
    name, check = CRITERIA[number - 1]
    try:
        passed, detail = check()
    except Exception as exc:
        traceback.print_exc()
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CriterionResult(number, name, passed, detail)


def run_all(only: Optional[int] = None) -> list[CriterionResult]:
    if only is not None:
        if not 1 <= only <= len(CRITERIA):
            raise ValueError(f"criterion number must be 1..{len(CRITERIA)}, got {only}")
        return [_run(only)]
    return [_run(number) for number in range(1, len(CRITERIA) + 1)]
