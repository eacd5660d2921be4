"""The four benchmark workloads: seeded item lists, per-item calls, checks.

Each workload builds a fixed list of items from the seed, then runs one
item at a time.  An item is one call chain into bairelab plus a check of
its result against an expectation computed apart from the layer under
test: truth tables for the prover, the certified halting information
for the pruning map, brute-force scans and the construction of each
input for the realizers.

Nothing here imports bairelab at module level: `import_modules` does,
so the benchmark can time imports as part of set-up.  Per-item code looks each
function up on its module at call time, so the tracer's wrappers apply.

`run_item` returns None when the item passes, the string "defect" when
it fails only through a known defect that the benchmark counts, and
raises `Mismatch` for any other wrong result.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable

ROUNDS = 4
"""Rounds per run, recorded apart so drift within a run shows in the raw
record; every round holds the same mix of item classes."""


class Mismatch(Exception):
    """A program output disagrees with the benchmark's reference."""


@dataclass
class Item:
    cls: str
    args: tuple
    size: int = 0  # a proxy for cost, for dealing rounds and choosing the warm-up


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n draws, one uniform draw in each of n equal slices of [lo, hi)."""
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


def _by_class(items: list[Item]) -> dict[str, list[Item]]:
    groups: dict[str, list[Item]] = {}
    for item in items:
        groups.setdefault(item.cls, []).append(item)
    return dict(sorted(groups.items()))


def deal_rounds(items: list[Item], rng: random.Random) -> list[list[Item]]:
    """Split items into ROUNDS rounds of nearly equal cost: each class is
    sorted by size and dealt back and forth, then each round is shuffled."""
    rounds: list[list[Item]] = [[] for _ in range(ROUNDS)]
    for group in _by_class(items).values():
        for i, item in enumerate(sorted(group, key=lambda it: it.size)):
            lap, pos = divmod(i, ROUNDS)
            rounds[pos if lap % 2 == 0 else ROUNDS - 1 - pos].append(item)
    for r in rounds:
        rng.shuffle(r)
    return rounds


def warmup_items(items: list[Item]) -> list[Item]:
    """The first three items and the heaviest item of every class."""
    out: list[Item] = []
    for group in _by_class(items).values():
        out.extend(group[:3])
        out.append(max(group, key=lambda it: it.size))
    return out


class Workload:
    name = ""
    classes: dict[str, int] = {}  # items per class at --seconds 10
    setups_per_gap = 1
    """Set-ups run before each round and after the last: at least one,
    and about 0.8 s of them where a set-up is short; fixed per workload so
    every run of it takes the same number."""

    def __init__(self, seconds: float):
        self.scale = seconds / 10.0
        self.setup_times: dict[str, float] = {}

    def import_modules(self) -> None:
        raise NotImplementedError

    def build(self, rng: random.Random) -> list[Item]:
        raise NotImplementedError

    def run_item(self, item: Item) -> str | None:
        raise NotImplementedError

    def counts(self) -> dict[str, int]:
        """Items per class at this run's size; at least one per round."""
        return {cls: max(ROUNDS, round(n * self.scale)) for cls, n in self.classes.items()}


# --- prop-sweep ---------------------------------------------------------------


class PropSweep(Workload):
    """Criterion 1's inner loop on a stratified sample of its formulas."""

    name = "prop-sweep"
    classes = {"formula": 15000}

    def import_modules(self) -> None:
        from bairelab import gen, negtrans, oracles

        self.gen, self.negtrans, self.oracles = gen, negtrans, oracles

    def build(self, rng: random.Random) -> list[Item]:
        started = time.perf_counter()
        formulas = list(self.gen.enumerate_prop_formulas(3, 7))
        self.setup_times["gen.enumerate_prop_formulas"] = time.perf_counter() - started
        n = self.counts()["formula"]
        # one draw per slice of the enumeration, which is ordered by size
        picks = [int(x) for x in _stratified(rng, 0, len(formulas), n)]
        return [Item("formula", (formulas[i],), size=i) for i in picks]

    def run_item(self, item: Item) -> str | None:
        (f,) = item.args
        o, nt = self.oracles, self.negtrans
        classical = o.classical_valid(f)
        translated = o.ipc_provable(o.project_prop(nt.neg_translate(o.embed_prop(f))))
        if classical != translated:
            raise Mismatch(f"truth table {classical} vs G4ip {translated}")
        return None


# --- syntax-passes -------------------------------------------------------------


def tree_size(node: Any) -> int:
    """Number of syntax nodes (dataclass instances) in a tree."""
    count, stack = 0, [node]
    while stack:
        n = stack.pop()
        fields = getattr(n, "__dataclass_fields__", None)
        if fields is not None:
            count += 1
            stack.extend(getattr(n, k) for k in fields)
    return count


def _has_fun_binder(node: Any) -> bool:
    """Does the tree contain a function quantifier (ForallF / ExistsF)?"""
    kind = type(node).__name__
    if kind in ("ForallF", "ExistsF"):
        return True
    fields = getattr(node, "__dataclass_fields__", None)
    if fields is None:
        return False
    return any(_has_fun_binder(getattr(node, k)) for k in fields)


class SyntaxPasses(Workload):
    """Every pass over syntax trees, on random formulas and BI1 instances."""

    name = "syntax-passes"
    classes = {"formula": 7000, "bi1": 1800}
    FORMULA_DEPTHS = 7  # depths 0..6, equally often
    BI1_DEPTHS = 5  # body depths 0..4, equally often

    def import_modules(self) -> None:
        from bairelab import gen, negtrans, parser, printer, realize, schemas, syntax

        self.gen, self.negtrans, self.parser, self.printer = gen, negtrans, parser, printer
        self.realize, self.schemas, self.syntax = realize, schemas, syntax

    def build(self, rng: random.Random) -> list[Item]:
        counts = self.counts()
        items = []
        for i in range(counts["formula"]):
            depth = i % self.FORMULA_DEPTHS
            f = self.gen.random_formula(rng, depth)
            items.append(Item("formula", (f,), size=tree_size(f)))
        for i in range(counts["bi1"]):
            depth = i % self.BI1_DEPTHS
            body = self.gen.random_qf_formula(rng, depth, num_vars=("w",))
            items.append(Item("bi1", (body,), size=tree_size(body)))
        return items

    def run_item(self, item: Item) -> str | None:
        if item.cls == "bi1":
            return self._bi1(*item.args)
        return self._formula(*item.args)

    def _formula(self, f: Any) -> str | None:
        sx, nt = self.syntax, self.negtrans
        if self.parser.parse_formula(self.printer.format_formula(f)) != f:
            raise Mismatch("parse(format(f)) != f")
        if not nt.is_negative(nt.neg_translate(f)):
            raise Mismatch("neg_translate(f) is not negative")
        sx.subst_num(f, "x", sx.Succ(sx.Zero()))
        self.realize.realizes_transform(f, "@e")
        c = sx.canon(f)
        if sx.alpha_eq(c, f) and sx.free_vars(c) == sx.free_vars(f):
            return None
        # canon files bound function variables under the number-variable
        # map, so only trees with a function binder may fail here
        if _has_fun_binder(f):
            return "defect"
        raise Mismatch("canon changed a tree without function binders")

    def _bi1(self, body: Any) -> str | None:
        nt, sc = self.negtrans, self.schemas
        kind = sc.SchemaKind.BI1
        inst = sc.instantiate(kind, body=body)
        repaired = nt.repair_bi_clause1(nt.neg_translate(inst))
        target = sc.instantiate(kind, body=nt.neg_translate(body))
        if not self.syntax.alpha_eq(
            nt.simplify_decidable_atoms(repaired), nt.simplify_decidable_atoms(target)
        ):
            raise Mismatch("BI1 shape law")
        return None


# --- jump-tree ------------------------------------------------------------------


def _small_entries(s: int, primes: list[int]) -> list[int] | None:
    """Trial-division decoding for small codes, kept apart from seqcode."""
    if s < 1:
        return None
    out: list[int] = []
    for p in primes:
        if s == 1:
            return out
        e = 0
        while s % p == 0:
            s //= p
            e += 1
        if e == 0:
            return None
        out.append(e - 1)
    return out if s == 1 else None


def _small_primes(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n + 1) if sieve[i]]


class JumpTree(Workload):
    """rho on shallow codes, on prefixes of beta and on deep tampered
    prefixes, plus bar_verify, against verdicts from the construction."""

    name = "jump-tree"
    classes = {"shallow": 500, "beta": 650, "deviation": 400, "deep": 200, "bar": 150}
    setups_per_gap = 3
    ALPHAS = 4
    UPTO = 21  # machines certified per alpha, as in criterion 5
    DEEP_LENGTHS = (50, 100, 200, 400)
    """Equally many deep items at each length: the longest set the tail,
    and with a hundred or more of them the p99 is an order statistic of
    identical work, not of the few heaviest draws of a continuous spread."""
    SHALLOW_BOUND = 10_000

    def import_modules(self) -> None:
        from bairelab import baire, jump, machine, seqcode

        self.baire, self.jump, self.machine, self.seqcode = baire, jump, machine, seqcode

    def build(self, rng: random.Random) -> list[Item]:
        m, sc = self.machine, self.seqcode
        entries = m.load_registry()
        m.verify_registry(entries)
        self.programs = m.registry_programs(entries)
        counts = self.counts()
        self.alphas, self.betas, self.certs = [], [], []
        for _ in range(self.ALPHAS):
            alpha, h = self._alpha(rng)
            self.alphas.append(alpha)
            self.betas.append(self.jump.build_beta(alpha, h, self.UPTO))
            self.certs.append(h)
        items: list[Item] = []

        # shallow: every code up to a bound, and the one-step extensions
        # of those the construction prunes (criterion 6)
        primes = _small_primes(64)
        shallow: list[Item] = []
        for s in range(1, self.SHALLOW_BOUND + 1):
            e = _small_entries(s, primes)
            if e is None:
                continue
            a = s % self.ALPHAS
            want = self._expected(e, a)
            shallow.append(Item("shallow", (s, None, a, want), size=s))
            if want == 0:
                for v in range(8):
                    shallow.append(Item("shallow", (s, v, a, self._expected(e + [v], a)), size=s))
        items += [shallow[int(x)] for x in _stratified(rng, 0, len(shallow), counts["shallow"])]

        # prefixes of beta survive; one wrong slot is cut (criterion 5).
        # Prefixes reach machine 4's 51-kbit slot from length 10 on;
        # deviations also cover the shorter ones.
        for i in range(counts["beta"]):
            j = rng.randrange(10, 2 * self.UPTO + 1)
            items.append(Item("beta", (i % self.ALPHAS, j, None, 1), size=j))
        for i in range(counts["deviation"]):
            a = i % self.ALPHAS
            beta = self.betas[a]
            j = rng.randrange(2 * self.UPTO)
            v = rng.randrange(8)
            if v == beta.at(j):
                v += 8
            want = self._expected([beta.at(k) for k in range(j)] + [v], a)
            items.append(Item("deviation", (a, j, v, want), size=j))

        # deep: zero-oracle jump prefixes with machine 4's slot set to 0;
        # they survive while shorter than machine 4's trace code
        self.zero = self.baire.FiniteSupport((), 0)
        h0 = m.certify(self.programs, self.zero, 100_000)
        self.beta0 = self.jump.build_beta(self.zero, h0, self.UPTO)
        for i in range(counts["deep"]):
            length = self.DEEP_LENGTHS[i % len(self.DEEP_LENGTHS)]
            prefix = [self._tampered(k) for k in range(length)]
            want = self._expected_with(prefix, self.zero.at, h0)
            items.append(Item("deep", (length, want), size=length))

        # bar_verify finds the least survivor: alpha on even slots, and 0
        # on odd slots, since a 0 there is cut only by a trace code below
        # the depth, and every trace code exceeds 2**6
        for i in range(counts["bar"]):
            a = i % self.ALPHAS
            alpha = self.alphas[a]
            d = 4 + rng.randrange(5)
            top = max(alpha.at(k) for k in range((d + 1) // 2))
            b = top + 1 + rng.randrange(3)
            path = tuple(alpha.at(j // 2) if j % 2 == 0 else 0 for j in range(d))
            items.append(Item("bar", (a, b, d, path), size=b**d))
        return items

    def _alpha(self, rng: random.Random) -> tuple[Any, dict]:
        """A seeded FiniteSupport whose first UPTO machines all settle,
        with their certified halting information."""
        while True:
            points = rng.sample(range(16), rng.randrange(1, 5))
            alpha = self.baire.FiniteSupport(
                tuple((p, rng.randrange(6)) for p in points), rng.randrange(1, 5)
            )
            h = self.machine.certify(
                {k: self.programs[k] for k in range(self.UPTO)}, alpha, 100_000
            )
            if len(h) == self.UPTO:
                return alpha, h

    def _expected(self, entries: list[int], a: int) -> int:
        return self._expected_with(entries, self.alphas[a].at, self.certs[a])

    def _expected_with(self, entries: list[int], alpha: Callable[[int], int], h: dict) -> int:
        """rho's verdict read off alpha and the certified halting facts h."""
        for j, v in enumerate(entries):
            if j % 2 == 0:
                if v != alpha(j // 2):
                    return 0
                continue
            k = (j - 1) // 2
            if k not in self.programs:
                if v > 0:
                    return 0
                continue
            info = h[(k, k)]  # every registry machine the items reach is certified
            trace = info.trace if isinstance(info, self.machine.Halts) else None
            if v == 0 and trace is not None and trace <= len(entries):
                return 0
            if v > 0 and v - 1 != trace:
                return 0
        return 1

    def run_item(self, item: Item) -> str | None:
        jump = self.jump
        if item.cls == "bar":
            a, b, d, path = item.args
            got = jump.bar_verify(jump.oracle_rho(self.alphas[a], self.programs), b, d)
            if got != jump.DepthExhausted(path):
                raise Mismatch(f"bar_verify gave {got}")
            return None
        sc = self.seqcode
        if item.cls == "deep":
            length, want = item.args
            alpha = self.zero
            code = sc.bar(self._tampered, length, max_bits=None)
        elif item.cls == "shallow":
            code, v, a, want = item.args
            alpha = self.alphas[a]
            if v is not None:
                code = sc.extend(code, v)
        else:
            a, j, v, want = item.args
            alpha = self.alphas[a]
            code = sc.bar(self.betas[a].at, j, max_bits=None)
            if v is not None:
                code = sc.extend(code, v, max_bits=None)
        got = jump.rho(code, alpha, self.programs)
        if got != want:
            raise Mismatch(f"rho gave {got}, construction says {want}")
        return None

    def _tampered(self, k: int) -> int:
        return 0 if k == 9 else self.beta0.at(k)


# --- realize-k2 -----------------------------------------------------------------


class RealizeK2(Workload):
    """MP-realizer checks, continuity of application, and applications
    that never answer, against brute-force scans and the construction."""

    name = "realize-k2"
    classes = {"mp-zero": 250, "mp-dry": 1250, "continuity": 500, "never": 250}
    setups_per_gap = 2
    NEVER_FUEL = (40, 120)

    def import_modules(self) -> None:
        from bairelab import baire, realize, schemas, seqcode

        self.baire, self.realize, self.schemas, self.seqcode = baire, realize, schemas, seqcode

    def build(self, rng: random.Random) -> list[Item]:
        FS, Tabled = self.baire.FiniteSupport, self.baire.Tabled
        self.formula = self.schemas.instantiate(self.schemas.SchemaKind.MP)
        self.mp = self.realize.mp_realizer()
        counts = self.counts()
        items: list[Item] = []
        # the zero's position sets the cost (about quadratic in it), so
        # every position 0..30 comes equally often, as in any other seed
        for n in range(counts["mp-zero"]):
            support = {i: rng.randint(1, 6) for i in range(rng.randint(1, 25))}
            support[n % 31] = 0
            default = rng.randint(1, 4)
            least = next(k for k in range(32) if support.get(k, default) == 0)
            alpha = FS(tuple(sorted(support.items())), default)
            items.append(Item("mp-zero", (alpha, least), size=least))
        for _ in range(counts["mp-dry"]):
            support = {i: rng.randint(1, 6) for i in range(rng.randint(0, 20))}
            alpha = FS(tuple(sorted(support.items())), rng.randint(1, 4))
            items.append(Item("mp-dry", (alpha,), size=len(support)))
        for _ in range(counts["continuity"]):
            n = rng.randrange(8)
            idx = sorted(rng.sample(range(12), rng.randrange(4)))
            beta = FS(tuple((i, rng.randrange(5)) for i in idx), rng.randrange(5))
            depth = rng.randrange(6)
            values = [n] + [beta.at(i) for i in range(depth)]
            probes = [self.seqcode.encode(values[: j + 1], max_bits=None) for j in range(depth + 1)]
            answer = rng.randrange(1, 9)
            overrides = {code: 0 for code in probes[:-1]}
            overrides[probes[-1]] = answer
            alpha = FS(tuple(sorted(overrides.items())), rng.randrange(1, 4))
            stand_in = Tabled(tuple(values[1:]), rng.randrange(9))
            items.append(Item("continuity", (alpha, beta, n, stand_in, (answer - 1, depth)), size=depth))
        zero = FS((), 0)
        lo, hi = self.NEVER_FUEL
        for x in _stratified(rng, lo, hi, counts["never"]):
            beta = FS(tuple((i, rng.randrange(5)) for i in range(rng.randrange(6))), rng.randrange(5))
            items.append(Item("never", (zero, beta, rng.randrange(8), int(x)), size=int(x)))
        return items

    def run_item(self, item: Item) -> str | None:
        r = self.realize
        if item.cls == "mp-zero":
            alpha, least = item.args
            v = r.check_realizes(self.mp, self.formula, {"@a": alpha}, fuel=1000)
            if v.status is not r.Status.REALIZED or v.witness != least:
                raise Mismatch(f"MP verdict {v.status} witness {v.witness}, least zero {least}")
        elif item.cls == "mp-dry":
            (alpha,) = item.args
            v = r.check_realizes(self.mp, self.formula, {"@a": alpha}, fuel=200)
            if v.status is not r.Status.FUEL_EXHAUSTED:
                raise Mismatch(f"MP verdict {v.status} on an element without a zero")
        elif item.cls == "continuity":
            alpha, beta, n, stand_in, want = item.args
            got = r.k2_apply_info(alpha, beta, n, 64)
            if got != want:
                raise Mismatch(f"k2_apply_info gave {got}, construction says {want}")
            if r.k2_apply(alpha, beta, n, 128) != want[0]:
                raise Mismatch("value moved under twice the fuel")
            if r.k2_apply(alpha, stand_in, n, 64) != want[0]:
                raise Mismatch("value moved on a stand-in agreeing below the modulus")
        else:
            alpha, beta, n, fuel = item.args
            got = r.k2_apply_info(alpha, beta, n, fuel)
            if got is not None:
                raise Mismatch(f"the zero element answered {got}")
        return None


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (PropSweep, SyntaxPasses, JumpTree, RealizeK2)
}
