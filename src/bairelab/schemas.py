"""Axiom schema instantiation and theory tables.

Each schema takes a body formula with designated free variables plus a
binding that names those variables; `instantiate` returns the schema
instance as a formula.  Introduced bound variables (the choice function,
uniqueness witnesses, the step index of bar induction) must be fresh for
the body: defaults are freshened automatically with trailing apostrophes,
explicitly forced names raise FreshnessError when they would capture.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BairelabError
from .syntax import (
    And,
    Apply,
    Eq,
    ExistsF,
    ExistsN,
    FnVar,
    ForallF,
    ForallN,
    Formula,
    Imp,
    Lambda,
    Not,
    NumVar,
    Or,
    Pair,
    PrefixCode,
    SeqExt,
    Succ,
    Zero,
    _fresh,
    check_fun_name,
    check_num_name,
    children,
    free_vars,
    numeral,
    subst_fun,
    subst_num,
)


class SchemaError(BairelabError):
    pass


class FreshnessError(SchemaError):
    """A variable that the schema introduces was forced to a captured name."""


class MissingBindingError(SchemaError):
    pass


class AdmissibilityError(SchemaError):
    """Body outside the fragment the schema allows."""


class SchemaKind(Enum):
    AC00 = "ac00"
    AC01 = "ac01"
    AC00_BANG = "ac00!"
    QF_AC00 = "qf-ac00"
    INDUCTION = "induction"
    OPEN_EQ = "open-eq"
    BI_A = "bi-a"
    BI1 = "bi1"
    BI_BANG = "bi!"
    MP = "mp"
    DNS1 = "dns1"


# the display this package's MP instance repairs, reproduced verbatim on demand
PAPER_MP_DISPLAY = "∀α[¬∀α¬(α(x) = 0) → ∃x α(x) = 0]"


@dataclass(frozen=True)
class TheoryInfo:
    schemas: frozenset[SchemaKind]
    notes: tuple[str, ...]


_CORE_NOTE = (
    "Peano axioms, lambda reduction and the defining axioms for primitive "
    "recursive function constants form the unlisted background; only proper "
    "schemas appear in the set."
)

_IA1 = frozenset({SchemaKind.INDUCTION, SchemaKind.OPEN_EQ})

THEORIES: dict[str, TheoryInfo] = {
    "IA1": TheoryInfo(_IA1, (_CORE_NOTE,)),
    "IRA": TheoryInfo(
        _IA1 | {SchemaKind.QF_AC00},
        (_CORE_NOTE, "two-sorted arithmetic with choice for decidable matrices only"),
    ),
    "BSK": TheoryInfo(
        _IA1 | {SchemaKind.AC01, SchemaKind.BI_BANG},
        (_CORE_NOTE,),
    ),
    "FIM": TheoryInfo(
        _IA1 | {SchemaKind.AC01, SchemaKind.BI_BANG},
        (
            _CORE_NOTE,
            "extends the BSK set by a continuity principle whose formula is "
            "not available here, so it cannot be instantiated",
        ),
    ),
    "BI-": TheoryInfo(
        frozenset({SchemaKind.INDUCTION, SchemaKind.BI1}),
        (
            "classical base: excluded middle is assumed, not listed",
            "the function sort is closed under primitive recursion relative "
            "to finitely many functions; stated about intended models, not "
            "as an instantiable schema",
            "bar induction enters only in the real-coded form",
        ),
    ),
}


def theory_schemas(name: str) -> TheoryInfo:
    key = name.strip().upper().replace("_", "-").replace("MINUS", "-")
    if key == "BI--":
        key = "BI-"
    info = THEORIES.get(key)
    if info is None:
        raise SchemaError(f"unknown theory {name!r}; known: {', '.join(sorted(THEORIES))}")
    return info


# ---------------------------------------------------------------------------
# binding plumbing

# a role's variable name, or for "bar" a formula over the path variable
Binding = dict[str, "str | Formula"]

# every role some kind reads, and the kinds that read no body
_ROLES = frozenset({"alpha", "bar", "choice", "n", "rho", "u", "v", "w", "x", "y"})
_BODILESS = frozenset({SchemaKind.OPEN_EQ, SchemaKind.MP, SchemaKind.DNS1})


def _as_name(value: str | Formula, role: str, default: str) -> str:
    """The variable name bound to a role, of the sort of its default."""
    fun = default.startswith("@")
    if isinstance(value, str):
        return check_fun_name(value) if fun else check_num_name(value)
    raise SchemaError(f"binding for {role!r} must be a {'function' if fun else 'number'} variable name")


def _designated(binding: Binding, role: str, default: str) -> str:
    return _as_name(binding.get(role, default), role, default)


def _fresh_var(binding: Binding, role: str, default: str, taboo: frozenset[str]) -> str:
    """A caller-given name must already be fresh; the default is freshened."""
    given = binding.get(role)
    if given is None:
        return _fresh(default, taboo)
    name = _as_name(given, role, default)
    if name in taboo:
        raise FreshnessError(f"{role} variable {name!r} is not fresh here")
    return name


def _need_body(kind: SchemaKind, body: Formula | None) -> Formula:
    if body is None:
        raise MissingBindingError(f"schema {kind.value} needs a body formula")
    return body


# ---------------------------------------------------------------------------
# the uniqueness quantifier


def exists_unique(var: str, body: Formula, u: str = "u", v: str = "v") -> Formula:
    """Expand `there is exactly one var with body` into plain connectives."""
    if u == v:
        raise FreshnessError("uniqueness witnesses must be distinct")
    bu = subst_num(body, var, NumVar(u))
    bv = subst_num(body, var, NumVar(v))
    unique = ForallN(u, ForallN(v, Imp(And(bu, bv), Eq(NumVar(u), NumVar(v)))))
    return And(ExistsN(var, body), unique)


def is_qf_admissible(f: Formula) -> bool:
    """True when f has no unbounded quantifier and no function quantifier.

    Bounded numerical quantifiers and free parameters of either sort pass.
    """
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    if isinstance(f, (ForallN, ExistsN, ForallF, ExistsF)):
        return False
    return all(is_qf_admissible(k) for k in children(f) if isinstance(k, Formula))


# ---------------------------------------------------------------------------
# instantiation


def instantiate(kind: SchemaKind, body: Formula | None = None, binding: Binding | None = None) -> Formula:
    b: Binding = dict(binding or {})
    if unknown := sorted(b.keys() - _ROLES):
        raise SchemaError(f"no schema reads role {unknown[0]!r}; roles: {', '.join(sorted(_ROLES))}")
    if body is not None and kind in _BODILESS:
        raise SchemaError(f"schema {kind.value} takes no body formula")
    match kind:
        case SchemaKind.AC00:
            return _choice_numbers(_need_body(kind, body), b)
        case SchemaKind.QF_AC00:
            a = _need_body(kind, body)
            if not is_qf_admissible(a):
                raise AdmissibilityError(
                    "body has an unbounded or function quantifier; only bounded "
                    "numerical quantifiers are allowed here"
                )
            return _choice_numbers(a, b)
        case SchemaKind.AC00_BANG:
            return _choice_numbers(_need_body(kind, body), b, unique=True)
        case SchemaKind.AC01:
            return _choice_functions(_need_body(kind, body), b)
        case SchemaKind.INDUCTION:
            return _induction(_need_body(kind, body), b)
        case SchemaKind.OPEN_EQ:
            return _open_eq(b)
        case SchemaKind.BI_A:
            return _bar_induction(_need_body(kind, body), b, bar_given="formula")
        case SchemaKind.BI1:
            return _bar_induction(_need_body(kind, body), b, bar_given="real")
        case SchemaKind.BI_BANG:
            return _bar_induction(_need_body(kind, body), b, bar_given="unique")
        case SchemaKind.MP:
            return _markov(b)
        case SchemaKind.DNS1:
            return _dns(b)
        case _:
            raise SchemaError(f"unknown schema kind {kind!r}")


def _choice_numbers(a: Formula, b: Binding, unique: bool = False) -> Formula:
    an, af = free_vars(a)
    x = _designated(b, "x", "x")
    y = _designated(b, "y", "y")
    beta = _fresh_var(b, "choice", "@b", af)
    if unique:
        taboo = an | {x, y}
        u = _fresh_var(b, "u", "u", taboo)
        v = _fresh_var(b, "v", "v", taboo | {u})
        hyp = ForallN(x, exists_unique(y, a, u, v))
    else:
        hyp = ForallN(x, ExistsN(y, a))
    concl = ExistsF(beta, ForallN(x, subst_num(a, y, Apply(FnVar(beta), NumVar(x)))))
    return Imp(hyp, concl)


def _choice_functions(a: Formula, b: Binding) -> Formula:
    an, af = free_vars(a)
    x = _designated(b, "x", "x")
    alpha = _designated(b, "alpha", "@a")
    beta = _fresh_var(b, "choice", "@b", af)
    y = _fresh_var(b, "y", "y", an | {x})
    hyp = ForallN(x, ExistsF(alpha, a))
    chooser = Lambda(y, Apply(FnVar(beta), Pair(NumVar(x), NumVar(y))))
    concl = ExistsF(beta, ForallN(x, subst_fun(a, alpha, chooser)))
    return Imp(hyp, concl)


def _induction(a: Formula, b: Binding) -> Formula:
    x = _designated(b, "x", "x")
    base = subst_num(a, x, Zero())
    step = ForallN(x, Imp(a, subst_num(a, x, Succ(NumVar(x)))))
    return Imp(And(base, step), ForallN(x, a))


def _open_eq(b: Binding) -> Formula:
    x = _designated(b, "x", "x")
    y = _designated(b, "y", "y")
    alpha = _designated(b, "alpha", "@a")
    fx = Apply(FnVar(alpha), NumVar(x))
    fy = Apply(FnVar(alpha), NumVar(y))
    return Imp(Eq(NumVar(x), NumVar(y)), Eq(fx, fy))


def _bar_induction(a: Formula, b: Binding, bar_given: str) -> Formula:
    an, af = free_vars(a)
    w = _designated(b, "w", "w")

    given = None if bar_given == "real" else b.get("bar")
    if given is None:
        rho = _designated(b, "rho", "@r")
        r = Eq(Apply(FnVar(rho), NumVar(w)), Zero())
    elif isinstance(given, Formula):
        r = given
    else:
        raise SchemaError("binding for 'bar' must be a formula over the path variable")

    rn, rf = free_vars(r)
    alpha = _fresh_var(b, "alpha", "@a", rf)
    x = _fresh_var(b, "x", "x", rn | {w})
    n = _fresh_var(b, "n", "n", an | {w})

    hit = subst_num(r, w, PrefixCode(FnVar(alpha), NumVar(x)))
    if bar_given == "unique":
        taboo = rn | {w, x}
        u = _fresh_var(b, "u", "u", taboo)
        v = _fresh_var(b, "v", "v", taboo | {u})
        h_bar = ForallF(alpha, exists_unique(x, hit, u, v))
        hyps = [h_bar]
    elif bar_given == "formula":
        h_dec = ForallN(w, Or(r, Not(r)))
        h_hit = ForallF(alpha, ExistsN(x, hit))
        hyps = [h_dec, h_hit]
    else:
        hyps = [ForallF(alpha, ExistsN(x, hit))]

    hyps.append(ForallN(w, Imp(r, a)))
    step_body = subst_num(a, w, SeqExt(NumVar(w), NumVar(n)))
    hyps.append(ForallN(w, Imp(ForallN(n, step_body), a)))

    chain = hyps[0]
    for h in hyps[1:]:
        chain = And(chain, h)
    return Imp(chain, subst_num(a, w, numeral(1)))


def _markov(b: Binding) -> Formula:
    alpha = _designated(b, "alpha", "@a")
    x = _designated(b, "x", "x")
    zero_hit = ExistsN(x, Eq(Apply(FnVar(alpha), NumVar(x)), Zero()))
    return ForallF(alpha, Imp(Not(Not(zero_hit)), zero_hit))


def _dns(b: Binding) -> Formula:
    rho = _designated(b, "rho", "@r")
    alpha = _fresh_var(b, "alpha", "@a", frozenset({rho}))
    x = _designated(b, "x", "x")
    inner = ExistsN(x, Eq(Apply(FnVar(rho), PrefixCode(FnVar(alpha), NumVar(x))), Zero()))
    return Imp(ForallF(alpha, Not(Not(inner))), Not(Not(ForallF(alpha, inner))))
