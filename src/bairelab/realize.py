"""Continuous application on Baire space and function realizability.

k2_apply is the partial application of one element to another: feed
alpha ever longer prefixes of beta (tagged with the argument n) until it
answers m+1, and return m.  On top of it sit a formula transform
producing "eps realizes A" in the object language, canned realizers for
the Markov and double-negation-shift schemas, and a fuel-bounded
checker for a decidable fragment.

Coding conventions, fixed once: a number-headed pack (disjunction tag,
existential witness) puts the head at index 0 and the tail at shifted
indices n+1; a function pack (conjunction, function existential) keeps
component i at indices 2^i * 3^y; the numeral n embeds as the constant
element n.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from . import seqcode
from .baire import BaireElement, FiniteSupport, FuelExhausted, Program, _Fn
from .errors import BairelabError
from .machine import OracleProgram, assemble, oracle_fn
from .schemas import FreshnessError
from .syntax import (
    FALSUM,
    Add,
    And,
    Apply,
    BExistsN,
    BForallN,
    ContApply,
    Eq,
    ExistsF,
    ExistsN,
    FnVar,
    ForallF,
    ForallN,
    Formula,
    Functor,
    Imp,
    Lambda,
    Mul,
    Not,
    NumVar,
    Or,
    Pair,
    PrefixCode,
    SeqExt,
    Succ,
    Term,
    Zero,
    _fresh,
    check_fun_name,
    free_vars,
    numeral,
    subst_fun,
    subst_num,
)


class FragmentError(BairelabError):
    """The formula (or its environment) is outside the checkable fragment."""


# --- the application of Kleene's second algebra -----------------------------


def k2_apply(alpha: object, beta: object, n: int, fuel: int) -> Optional[int]:
    """First answer of alpha on n-tagged prefixes of beta, minus one.

    Returns m iff alpha(<n> ++ beta-prefix(k)) = m+1 for some k <= fuel
    with zeros at every shorter prefix; None when fuel runs out first.
    """
    info = k2_apply_info(alpha, beta, n, fuel)
    return None if info is None else info[0]


def k2_apply_info(
    alpha: object, beta: object, n: int, fuel: int
) -> Optional[tuple[int, int]]:
    """(result, prefix length consumed), or None within fuel.

    The second component is the continuity modulus of the application:
    beta only ever matters on indices below it.
    """
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    af, bf = oracle_fn(alpha), oracle_fn(beta)
    code = seqcode.encode([n], max_bits=None)
    for k in range(fuel + 1):
        v = af(code)
        if v > 0:
            return v - 1, k
        code = seqcode.extend(code, bf(k), max_bits=None)
    return None


def apply_element(alpha: object, beta: object, fuel: int) -> BaireElement:
    """alpha applied to beta as a (fuel-bounded) element of Baire space."""

    def at(n: int) -> int:
        value = k2_apply(alpha, beta, n, fuel)
        if value is None:
            raise FuelExhausted(f"application undefined at {n} within fuel {fuel}")
        return value

    return _Fn(at)


# --- evaluation of closed terms over an environment -------------------------

Env = dict[str, object]  # naturals, BaireElements, or lists and ranges


def _env_num(env: Env, name: str) -> int:
    value = env.get(name)
    if not isinstance(value, (int, seqcode.Code)):
        raise FragmentError(f"number variable {name} needs a natural in env")
    return value


def _env_fun(env: Env, name: str) -> BaireElement:
    value = env.get(name)
    if not isinstance(value, BaireElement):
        raise FragmentError(f"function variable {name} needs an element in env")
    return value


def eval_term(t: Term, env: Env, fuel: int) -> int:
    match t:
        case Zero():
            return 0
        case Succ(u):
            return eval_term(u, env, fuel) + 1
        case NumVar(name):
            return _env_num(env, name)
        case Add(a, b):
            return eval_term(a, env, fuel) + eval_term(b, env, fuel)
        case Mul(a, b):
            return eval_term(a, env, fuel) * eval_term(b, env, fuel)
        case Pair(a, b):
            return 2 ** eval_term(a, env, fuel) * 3 ** eval_term(b, env, fuel)
        case SeqExt(s, n):
            return seqcode.extend(
                eval_term(s, env, fuel), eval_term(n, env, fuel), max_bits=None
            )
        case PrefixCode(f, x):
            el = eval_functor(f, env, fuel)
            return seqcode.bar(el.at, eval_term(x, env, fuel), max_bits=None)
        case Apply(f, x):
            return eval_functor(f, env, fuel).at(eval_term(x, env, fuel))
    raise TypeError(f"not a term: {t!r}")


def eval_functor(f: Functor, env: Env, fuel: int) -> BaireElement:
    match f:
        case FnVar(name):
            return _env_fun(env, name)
        case Lambda(var, body):
            return _Fn(lambda n: eval_term(body, {**env, var: n}, fuel))
        case ContApply(a, b):
            return apply_element(
                eval_functor(a, env, fuel), eval_functor(b, env, fuel), fuel
            )
    raise TypeError(f"not a functor: {f!r}")


# --- three-valued truth on the checkable fragment ---------------------------

# Truth is 1 (true), -1 (false) or 0 (not settled within fuel), so the
# strong Kleene connectives are min, max and negation.  An unbounded
# exists can only come back 1 or 0, an unbounded forall only -1 or 0.


def _truth(f: Formula, env: Env, fuel: int) -> int:
    match f:
        case Eq(a, b):
            return 1 if eval_term(a, env, fuel) == eval_term(b, env, fuel) else -1
        case And(a, b):
            return min(_truth(a, env, fuel), _truth(b, env, fuel))
        case Or(a, b):
            return max(_truth(a, env, fuel), _truth(b, env, fuel))
        case Imp(a, b):
            return max(-_truth(a, env, fuel), _truth(b, env, fuel))
        case Not(a):
            return -_truth(a, env, fuel)
        case ForallN() | ExistsN() | BForallN() | BExistsN() | ForallF() | ExistsF():
            # a universal is decided by a false instance, an existential
            # by a true one
            decider = -1 if isinstance(f, (ForallN, BForallN, ForallF)) else 1
            values, complete = _values(f, env, fuel)
            hit, unsettled = _scan(f.body, f.var, values, env, fuel, decider)
            if hit is not None:
                return decider
            return 0 if unsettled or not complete else -decider
    raise TypeError(f"not a formula: {f!r}")


def _values(f: Formula, env: Env, fuel: int):
    """The values quantifier f's variable ranges over, and whether they
    are all of its range: the range below f's bound and a range from env
    are; 0..fuel, for a number variable env gives no range, is not."""
    match f:
        case BForallN(_, bound, _) | BExistsN(_, bound, _):
            return range(eval_term(bound, env, fuel)), True
    value = env.get(f.var)
    if isinstance(value, (list, tuple, range)):
        return value, True
    if isinstance(f, (ForallN, ExistsN)):
        return range(fuel + 1), False
    if isinstance(value, BaireElement):
        return [value], True
    raise FragmentError(f"function quantifier over {f.var} needs a finite range in env")


def _scan(body: Formula, var: str, values, env: Env, fuel: int, target: int):
    """The first value whose instance of body has truth target (None if
    none does), and whether an instance before it was unsettled."""
    unsettled = False
    for v in values:
        t = _truth(body, {**env, var: v}, fuel)
        if t == target:
            return v, unsettled
        unsettled = unsettled or t == 0
    return None, unsettled


# --- the realizability checker ----------------------------------------------


class Status(enum.Enum):
    REALIZED = "realized"
    NOT_REALIZED = "not-realized"
    FUEL_EXHAUSTED = "fuel-exhausted"


@dataclass(frozen=True)
class Verdict:
    status: Status
    witness: Optional[int] = None
    note: str = ""


def _pack_head(head: int, tail: BaireElement) -> BaireElement:
    return _Fn(lambda n: head if n == 0 else tail.at(n - 1))


def _tail_of(r: BaireElement) -> BaireElement:
    return _Fn(lambda n: r.at(n + 1))


# Probing a pair component at y means probing the pack at 2^i * 3^y,
# a number of about 1.6*y bits.  Applications feed components
# prefix-code-sized y, so an unguarded 3**y would explode long before
# the element answered; past the guard the probe counts as running out
# of fuel.
_COMPONENT_INDEX_BITS = 4096


def _component(r: BaireElement, i: int) -> BaireElement:
    def at(y: int) -> int:
        if 2 * y > _COMPONENT_INDEX_BITS:
            raise FuelExhausted(f"pair component probed at oversized index {y}")
        return r.at(2**i * 3**y)

    return _Fn(at)


def _pack_pair(a: BaireElement, b: BaireElement) -> BaireElement:
    def at(n: int) -> int:
        if n == 0:
            return 0
        residue, y = n, 0
        while residue % 3 == 0:
            residue //= 3
            y += 1
        if residue == 1:
            return a.at(y)
        if residue == 2:
            return b.at(y)
        return 0

    return _Fn(at)


_ZERO_ELEMENT = FiniteSupport((), 0)


def _constant(n: int) -> BaireElement:
    return FiniteSupport((), n)


def _canonical_realizer(f: Formula, env: Env, fuel: int) -> BaireElement:
    """Some realizer of f, assuming f is true over env.

    Negative formulas carry no information, so the zero element does;
    packs are built recursively for the positive connectives.  This is
    what drives the conclusion side of an implication check.
    """
    match f:
        case Eq() | Not() | Imp() | ForallN() | BForallN() | ForallF():
            return _ZERO_ELEMENT
        case And(a, b):
            return _pack_pair(
                _canonical_realizer(a, env, fuel), _canonical_realizer(b, env, fuel)
            )
        case Or(a, b):
            if _truth(a, env, fuel) == 1:
                return _pack_head(0, _canonical_realizer(a, env, fuel))
            return _pack_head(1, _canonical_realizer(b, env, fuel))
        case ExistsN(var, body) | BExistsN(var, _, body):
            w, _ = _scan(body, var, _values(f, env, fuel)[0], env, fuel, 1)
            if w is None:
                raise FragmentError("no witness found for a formula assumed true")
            return _pack_head(w, _canonical_realizer(body, {**env, var: w}, fuel))
        case ExistsF(_, _):
            raise FragmentError("cannot synthesise a function witness")
    raise TypeError(f"not a formula: {f!r}")


def check_realizes(
    r: BaireElement, f: Formula, env: Optional[Env] = None, fuel: int = 1000
) -> Verdict:
    """Fuel-bounded verdict on "r realizes f" over a finite environment.

    env maps free number variables to naturals, free function variables
    to elements, and quantified variables to finite ranges (a list or range, or a
    single element standing for a one-point range).  FUEL_EXHAUSTED
    settles nothing.  REALIZED and NOT_REALIZED follow a reading more
    lenient than Kleene's clauses:
      - for A -> B, r is applied only to _canonical_realizer(A), not to
        every realizer of A;
      - an application, under -> or forall, counts as defined wherever
        the rest of the check never probes it.
    So the zero element, whose applications are defined nowhere, is
    REALIZED for 0 = 0 -> 0 = 0.  The check against Kleene's definition
    is ROADMAP.md's item 3.
    """
    return _checked(r, f, dict(env or {}), fuel)


def _checked(r: BaireElement, f: Formula, env: Env, fuel: int) -> Verdict:
    # exhaustion inside one branch must stay a mergeable verdict: a
    # definitive failure elsewhere still decides the whole formula
    try:
        return _check(r, f, env, fuel)
    except FuelExhausted as exc:
        return Verdict(Status.FUEL_EXHAUSTED, note=str(exc))


def _check(r: BaireElement, f: Formula, env: Env, fuel: int) -> Verdict:
    match f:
        case Eq(_, _):
            ok = _truth(f, env, fuel) == 1
            return Verdict(Status.REALIZED if ok else Status.NOT_REALIZED)
        case And(a, b):
            va = _checked(_component(r, 0), a, env, fuel)
            vb = _checked(_component(r, 1), b, env, fuel)
            return _merge([va, vb])
        case Or(a, b):
            tag = r.at(0)
            side = a if tag == 0 else b
            inner = _check(_tail_of(r), side, env, fuel)
            return Verdict(inner.status, inner.witness, _noted(f"tag {tag}", inner))
        case Imp(a, b):
            ta = _truth(a, env, fuel)
            if ta == -1:
                return Verdict(Status.REALIZED, note="hypothesis refuted")
            if ta == 0:
                return Verdict(
                    Status.FUEL_EXHAUSTED, note="hypothesis not settled within fuel"
                )
            argument = _canonical_realizer(a, env, fuel)
            return _check(apply_element(r, argument, fuel), b, env, fuel)
        case Not(a):
            ta = _truth(a, env, fuel)
            if ta == 0:
                return Verdict(
                    Status.FUEL_EXHAUSTED, note="negated matrix not settled within fuel"
                )
            return Verdict(Status.REALIZED if ta == -1 else Status.NOT_REALIZED)
        case ExistsN(var, body) | BExistsN(var, _, body):
            w = r.at(0)
            if isinstance(f, BExistsN) and w >= eval_term(f.bound, env, fuel):
                return Verdict(Status.NOT_REALIZED, note=f"witness {w} out of bound")
            inner = _check(_tail_of(r), body, {**env, var: w}, fuel)
            if inner.status is Status.REALIZED:
                return Verdict(Status.REALIZED, witness=w)
            return Verdict(inner.status, note=_noted(f"at witness {w}", inner))
        case ForallN(var, body) | BForallN(var, _, body) | ForallF(var, body):
            values, complete = _values(f, env, fuel)
            if not complete:
                raise FragmentError(
                    f"universal number quantifier over {var} needs a range in env"
                )
            fun = isinstance(f, ForallF)
            return _merge(
                [
                    _checked(
                        apply_element(r, v if fun else _constant(v), fuel),
                        body,
                        {**env, var: v},
                        fuel,
                    )
                    for v in values
                ]
            )
        case ExistsF(var, body):
            witness = _component(r, 0)
            inner = _check(_component(r, 1), body, {**env, var: witness}, fuel)
            return Verdict(inner.status, note=_noted("function witness", inner))
    raise TypeError(f"not a formula: {f!r}")


def _noted(where: str, inner: Verdict) -> str:
    """Prefix inner's note with where, joining only the parts that are not empty."""
    return "; ".join(part for part in (where, inner.note) if part)


def _merge(verdicts: list[Verdict]) -> Verdict:
    for v in verdicts:
        if v.status is Status.NOT_REALIZED:
            return v
    for v in verdicts:
        if v.status is Status.FUEL_EXHAUSTED:
            return v
    witnesses = [v.witness for v in verdicts if v.witness is not None]
    witness = witnesses[0] if len(witnesses) == 1 else None
    return Verdict(Status.REALIZED, witness=witness)


# --- the formula transform ---------------------------------------------------


def realizes_transform(f: Formula, eps: str) -> Formula:
    """The object-language formula "eps realizes f".

    eps names a function variable that must not occur free in f.
    """
    check_fun_name(eps)
    _, funs = free_vars(f)
    if eps in funs:
        raise FreshnessError(f"{eps} occurs free in the formula")
    return _tr(FnVar(eps), f, funs | {eps})


def _proj(e: Functor, i: int) -> Functor:
    # the binder must dodge number variables free in e (numeral
    # embeddings smuggle them in)
    y = _fresh("y", free_vars(e)[0])
    return Lambda(y, Apply(e, Pair(numeral(i), NumVar(y))))


def _tail_functor(e: Functor) -> Functor:
    n = _fresh("n", free_vars(e)[0])
    return Lambda(n, Apply(e, Succ(NumVar(n))))


def _head_term(e: Functor) -> Term:
    return Apply(e, Zero())


def _embed_num(e: Functor, var: str) -> Functor:
    k = _fresh("k", frozenset({var}))
    return ContApply(e, Lambda(k, NumVar(var)))


def _rebind(var: str, body: Formula, e: Functor) -> tuple[str, Formula]:
    # rename a binder of either sort that would capture a variable free
    # in e; free_vars gives (number names, function names)
    sort = 1 if var.startswith("@") else 0
    taken = free_vars(e)[sort]
    if var not in taken:
        return var, body
    fresh = _fresh(var, taken | free_vars(body)[sort])
    if sort:
        return fresh, subst_fun(body, var, FnVar(fresh))
    return fresh, subst_num(body, var, NumVar(fresh))


def _tr(e: Functor, f: Formula, avoid: frozenset[str]) -> Formula:
    match f:
        case Eq(_, _):
            return f
        case And(a, b):
            return And(
                _tr(_proj(e, 0), a, avoid), _tr(_proj(e, 1), b, avoid)
            )
        case Or(a, b):
            tag = Eq(_head_term(e), Zero())
            tail = _tail_functor(e)
            return Or(
                And(tag, _tr(tail, a, avoid)),
                And(Not(tag), _tr(tail, b, avoid)),
            )
        case Imp(a, b):
            d = _fresh("@d", avoid | free_vars(f)[1])
            return ForallF(
                d,
                Imp(
                    _tr(FnVar(d), a, avoid | {d}),
                    _tr(ContApply(e, FnVar(d)), b, avoid | {d}),
                ),
            )
        case Not(a):
            return _tr(e, Imp(a, FALSUM), avoid)
        case ForallN(var, body):
            var, body = _rebind(var, body, e)
            return ForallN(var, _tr(_embed_num(e, var), body, avoid))
        case ExistsN(var, body):
            translated = _tr(_tail_functor(e), body, avoid)
            return subst_num(translated, var, _head_term(e))
        case BForallN(var, bound, body):
            var, body = _rebind(var, body, e)
            return BForallN(var, bound, _tr(_embed_num(e, var), body, avoid))
        case BExistsN(var, bound, body):
            var, body = _rebind(var, body, e)
            pinned = Eq(NumVar(var), _head_term(e))
            return BExistsN(
                var, bound, And(pinned, _tr(_tail_functor(e), body, avoid))
            )
        case ForallF(var, body):
            var, body = _rebind(var, body, e)
            return ForallF(var, _tr(ContApply(e, FnVar(var)), body, avoid | {var}))
        case ExistsF(var, body):
            translated = _tr(_proj(e, 1), body, avoid)
            return subst_fun(translated, var, _proj(e, 0))
    raise TypeError(f"not a formula: {f!r}")


# --- canned realizers ---------------------------------------------------------

# Witness search for the Markov schema, as a machine.  Under the
# application convention the realizer sees codes [m, g0, g1, ...] where
# the gi are prefix values of its argument; it scans them for the first
# zero w and answers w+2 (so the applied element's value is w+1, and the
# outer application headed by 0 lands on witness w).  While no zero has
# arrived it answers 0, asking for a longer prefix.
_MP_SEARCH = """
        QRY 6 1        # r1 := lh+1 (r6 stays 0)
        DEC 1
        DEC 1          # r1 := number of prefix values
        INC 2
        INC 2          # r2 := slot of first prefix value
        INC 4
        INC 4          # r4 := candidate answer w+2, starting at w=0
scan:   JZ 1 more
        QRY 2 3
        JZ 3 found
        DEC 1
        INC 2
        INC 4
        JZ 6 scan      # unconditional
found:  HALT 4
more:   HALT 5        # r5 == 0: no zero yet, ask for a longer prefix
"""


def mp_realizer() -> Program:
    """Realizer for Markov's principle: search the hypothesis function
    for its least zero and emit it as the existential witness."""
    return Program(OracleProgram(0, assemble(_MP_SEARCH)))


def dns1_realizer() -> FiniteSupport:
    """Realizer for the double-negation shift: the zero element.  The
    shift's conclusion is a negation, which check_realizes decides by
    truth without probing r applied to the hypothesis's realizer, so it
    accepts the zero element.  Under Kleene's clauses the zero element
    realizes no implication, since its applications are defined nowhere."""
    return _ZERO_ELEMENT
