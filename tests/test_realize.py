"""Continuous application, term evaluation, the realizability checker,
and the realizes transform."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bairelab import seqcode
from bairelab.baire import BaireElement, FiniteSupport, FuelExhausted, _Fn
from bairelab.parser import parse_formula
from bairelab.printer import format_formula
from bairelab.realize import (
    FragmentError,
    Status,
    apply_element,
    check_realizes,
    dns1_realizer,
    eval_functor,
    eval_term,
    k2_apply,
    k2_apply_info,
    mp_realizer,
    realizes_transform,
)
from bairelab.schemas import FreshnessError, SchemaKind, instantiate
from bairelab.syntax import (
    Add,
    Apply,
    ContApply,
    FnVar,
    Lambda,
    NumVar,
    Pair,
    PrefixCode,
    SeqExt,
    SortError,
    numeral,
)

ZERO = FiniteSupport()
ONE = FiniteSupport((), 1)


def prefix_reader(k: int, fn) -> BaireElement:
    """An element that answers once the argument prefix holds k values.

    Models a continuous functional with modulus exactly k: on the code
    of [n, b0, ..., b_{j-1}] it returns 0 while j < k, and
    fn(n, (b0..b_{k-1})) + 1 afterwards.
    """

    def at(s: int) -> int:
        entries = seqcode.decode(s)
        if entries is None or len(entries) < 1 + k:
            return 0
        return fn(entries[0], tuple(entries[1 : 1 + k])) + 1

    return _Fn(at)


def reader(k):
    """Continuous functional with modulus k: tag plus sum of k values."""
    return prefix_reader(k, lambda head, body: head + sum(body))


# --- application -------------------------------------------------------------


def test_k2_apply_immediate_answer():
    eager = FiniteSupport((), 5)
    assert k2_apply(eager, ZERO, 7, 1) == 4
    assert k2_apply_info(eager, ZERO, 7, 1) == (4, 0)


def test_k2_apply_silent_element_returns_none():
    assert k2_apply(ZERO, ONE, 0, 30) is None


def test_k2_apply_needs_the_exact_prefix():
    beta = FiniteSupport(((0, 4), (1, 5)), 7)
    assert k2_apply(reader(2), beta, 3, 1) is None
    assert k2_apply(reader(2), beta, 3, 2) == 12
    assert k2_apply_info(reader(2), beta, 3, 50) == (12, 2)


def test_k2_apply_rejects_nonpositive_fuel():
    with pytest.raises(ValueError):
        k2_apply(ZERO, ZERO, 0, 0)


@given(
    overrides=st.lists(st.integers(0, 30), max_size=8),
    default=st.integers(0, 9),
    k=st.integers(0, 3),
    n=st.integers(0, 20),
    junk=st.integers(0, 30),
)
def test_k2_apply_modulus_is_binding(overrides, default, k, n, junk):
    beta = FiniteSupport(tuple(enumerate(overrides)), default)
    got = k2_apply_info(reader(k), beta, n, 64)
    assert got is not None
    value, used = got
    assert used == k
    assert value == n + sum(beta.at(i) for i in range(k))
    # entries at or beyond the modulus cannot matter
    tampered = FiniteSupport(
        tuple((i, beta.at(i)) for i in range(used)) + ((used, junk),), default + 1
    )
    assert k2_apply_info(reader(k), tampered, n, 64) == got
    # and more fuel never changes a settled answer
    assert k2_apply_info(reader(k), beta, n, 128) == got


def test_apply_element_raises_when_fuel_runs_out():
    applied = apply_element(ZERO, ONE, 10)
    with pytest.raises(FuelExhausted):
        applied.at(0)


def test_prefix_reader_protocol():
    r = reader(2)
    assert r.at(0) == 0  # not a sequence code
    assert r.at(seqcode.encode([3])) == 0
    assert r.at(seqcode.encode([3, 4])) == 0
    assert r.at(seqcode.encode([3, 4, 5])) == 13
    assert r.at(seqcode.encode([3, 4, 5, 9])) == 13


# --- evaluation --------------------------------------------------------------


def test_eval_term_covers_every_former():
    env = {"x": 3, "@a": FiniteSupport(((0, 4),), 1)}
    assert eval_term(Pair(numeral(3), numeral(2)), env, 10) == 72
    assert eval_term(SeqExt(numeral(1), numeral(5)), env, 10) == 64
    assert eval_term(PrefixCode(FnVar("@a"), numeral(2)), env, 10) == 288
    assert eval_term(Apply(FnVar("@a"), NumVar("x")), env, 10) == 1
    assert eval_term(Add(numeral(2), NumVar("x")), env, 10) == 5


def test_eval_functor_lambda_and_continuous_application():
    add_x = eval_functor(Lambda("k", Add(NumVar("k"), NumVar("x"))), {"x": 3}, 10)
    assert add_x.at(4) == 7
    env = {"@f": reader(1), "@b": FiniteSupport(((0, 9),), 0)}
    applied = eval_functor(ContApply(FnVar("@f"), FnVar("@b")), env, 20)
    assert applied.at(5) == 14
    # continuous application binds a lambda's variable to a sequence code
    succ = ContApply(Lambda("k", Add(NumVar("k"), numeral(1))), FnVar("@b"))
    assert eval_functor(succ, env, 20).at(5) == 2**6


def test_eval_requires_bindings():
    with pytest.raises(FragmentError):
        eval_term(NumVar("z"), {}, 10)
    with pytest.raises(FragmentError):
        eval_term(Apply(FnVar("@z"), numeral(0)), {}, 10)


def test_check_evaluates_parsed_arithmetic():
    verdict = check_realizes(ZERO, parse_formula("2 + 3 * 4 = 14"))
    assert verdict.status is Status.REALIZED


# --- the checker -------------------------------------------------------------


def test_check_atomic_verdicts():
    assert check_realizes(ZERO, parse_formula("0 = 0")).status is Status.REALIZED
    assert check_realizes(ZERO, parse_formula("0 = S(0)")).status is Status.NOT_REALIZED
    assert check_realizes(ZERO, parse_formula("~(0 = S(0))")).status is Status.REALIZED
    assert check_realizes(ZERO, parse_formula("~(0 = 0)")).status is Status.NOT_REALIZED


def test_check_or_follows_the_tag():
    f = parse_formula("0 = S(0) | 0 = 0")
    assert check_realizes(ZERO, f).status is Status.NOT_REALIZED
    assert check_realizes(FiniteSupport(((0, 1),), 0), f).status is Status.REALIZED


def test_check_exists_reads_the_witness():
    alpha = FiniteSupport(((0, 3), (1, 7), (2, 0)), 9)
    f = parse_formula("exists x. @a(x) = 0")
    good = check_realizes(FiniteSupport(((0, 2),), 0), f, {"@a": alpha})
    assert good.status is Status.REALIZED and good.witness == 2
    bad = check_realizes(FiniteSupport(((0, 1),), 0), f, {"@a": alpha})
    assert bad.status is Status.NOT_REALIZED


def test_check_bounded_exists_enforces_the_bound():
    alpha = FiniteSupport(((0, 3), (1, 7), (2, 0)), 0)
    f = parse_formula("exists x < 3. @a(x) = 0")
    good = check_realizes(FiniteSupport(((0, 2),), 0), f, {"@a": alpha})
    assert good.status is Status.REALIZED and good.witness == 2
    out = check_realizes(FiniteSupport(((0, 5),), 0), f, {"@a": alpha})
    assert out.status is Status.NOT_REALIZED
    assert "out of bound" in out.note


def test_hypothesis_witness_comes_from_the_bound_not_env():
    # env's range for x ([7]) holds no witness below the bound 3
    f = parse_formula("(exists x < 3. x = 2) -> 0 = 0")
    assert check_realizes(ZERO, f, {"x": [7]}).status is Status.REALIZED
    assert check_realizes(ZERO, f).status is Status.REALIZED


def test_check_implication_vacuous_when_hypothesis_fails():
    verdict = check_realizes(ZERO, parse_formula("0 = S(0) -> 0 = S(0)"))
    assert verdict.status is Status.REALIZED
    assert "refuted" in verdict.note


def test_check_implication_applies_the_realizer():
    f = parse_formula("0 = 0 -> exists x. x = 0")
    answered = check_realizes(ONE, f, fuel=50)
    assert answered.status is Status.REALIZED and answered.witness == 0
    # a realizer that never answers its application starves the check
    assert check_realizes(ZERO, f, fuel=50).status is Status.FUEL_EXHAUSTED


def test_check_conjunction_merge_priority():
    starving = "(0 = 0 -> exists x. x = 0)"
    fuel = check_realizes(ZERO, parse_formula(f"0 = 0 & {starving}"), fuel=50)
    assert fuel.status is Status.FUEL_EXHAUSTED
    # a definitive failure outranks exhaustion elsewhere
    refuted = check_realizes(ZERO, parse_formula(f"0 = S(0) & {starving}"), fuel=50)
    assert refuted.status is Status.NOT_REALIZED


def test_check_universals_need_ranges():
    f = parse_formula("forall x. x = x")
    assert check_realizes(ZERO, f, {"x": [0, 5, 9]}).status is Status.REALIZED
    with pytest.raises(FragmentError):
        check_realizes(ZERO, f)
    g = parse_formula("forall @b. @b(0) = @b(0)")
    assert check_realizes(ZERO, g, {"@b": ONE}).status is Status.REALIZED
    with pytest.raises(FragmentError):
        check_realizes(ZERO, g)


ALPHA = FiniteSupport(((1, 3),), 0)  # zero except at 1
LATE = FiniteSupport(((0, 1), (1, 1)), 0)  # first zero at 2
STARVED = apply_element(ZERO, ONE, 10)  # raises FuelExhausted when read


def witness(w):
    return FiniteSupport(((0, w),), 0)


R, N, F = Status.REALIZED, Status.NOT_REALIZED, Status.FUEL_EXHAUSTED
NO_NUM_RANGE = "universal number quantifier over x needs a range in env"
NO_FUN_RANGE = "function quantifier over @b needs a finite range in env"
NO_BOUND = "number variable n needs a natural in env"
STARVED_NOTE = "application undefined at 0 within fuel 10"

# Every quantifier class, checked (first block) and decided by truth
# under ~ and -> (second block), with its range from env, from nowhere,
# from a bound or from a function range.  Each case is (realizer,
# formula, env, expected), expected being (status, witness, note) or the
# message of the FragmentError the check raises.  All at fuel 20.
QUANTIFIER_CASES = [
    # forall x: a range in env, none, and realizers applied per value
    (ZERO, "forall x. @a(x) = 0", {"@a": ALPHA, "x": [0, 2]}, (R, None, "")),
    (ZERO, "forall x. @a(x) = 0", {"@a": ALPHA, "x": [0, 1, 2]}, (N, None, "")),
    (ZERO, "forall x. x = x", {}, NO_NUM_RANGE),
    (ZERO, "forall x. x = x", {"x": ONE}, NO_NUM_RANGE),
    (ONE, "forall x. exists y. y = x", {"x": [0]}, (R, 0, "")),
    (ONE, "forall x. exists y. y = x", {"x": [0, 1]}, (N, None, "at witness 0")),
    (ZERO, "forall x. exists y. y = x", {"x": [0]}, (F, None, "application undefined at 0 within fuel 20")),
    # forall x < t: the bound, never a range in env
    (ZERO, "forall x < 1. @a(x) = 0", {"@a": ALPHA}, (R, None, "")),
    (ZERO, "forall x < 2. @a(x) = 0", {"@a": ALPHA}, (N, None, "")),
    (ZERO, "forall x < 1. @a(x) = 0", {"@a": ALPHA, "x": [1]}, (R, None, "")),
    (ZERO, "forall x < 0. 0 = S(0)", {}, (R, None, "")),
    (ZERO, "forall x < n. exists y. y = x", {}, NO_BOUND),
    (ONE, "forall x < 1. exists y. y = x", {}, (R, 0, "")),
    (ONE, "forall x < 2. exists y. y = x", {}, (N, None, "at witness 0")),
    # forall @b: a function range, a single element, none
    (ZERO, "forall @b. @b(0) = 0", {"@b": [ZERO]}, (R, None, "")),
    (ZERO, "forall @b. @b(0) = 0", {"@b": ZERO}, (R, None, "")),
    (ZERO, "forall @b. @b(0) = 0", {"@b": [ZERO, ONE]}, (N, None, "")),
    (ZERO, "forall @b. @b(0) = 0", {}, NO_FUN_RANGE),
    (ZERO, "forall @b. @b(0) = 0", {"@b": 3}, NO_FUN_RANGE),
    (reader(1), "forall @b. exists y. y = @b(0)", {"@b": [witness(4)]}, (R, 4, "")),
    # exists x: the witness at 0, whatever env says about x
    (witness(2), "exists x. @a(x) = 0", {"@a": ALPHA, "x": [0]}, (R, 2, "")),
    (witness(1), "exists x. @a(x) = 0", {"@a": ALPHA}, (N, None, "at witness 1")),
    (STARVED, "exists x. x = x", {}, (F, None, STARVED_NOTE)),
    # exists x < t: the witness read before the bound is evaluated
    (witness(2), "exists x < 3. @a(x) = 0", {"@a": ALPHA}, (R, 2, "")),
    (witness(1), "exists x < 3. @a(x) = 0", {"@a": ALPHA}, (N, None, "at witness 1")),
    (witness(3), "exists x < 3. @a(x) = 0", {"@a": ALPHA}, (N, None, "witness 3 out of bound")),
    (witness(1), "exists x < 3. exists y < 2. y = x", {}, (N, None, "at witness 1; at witness 0")),
    (STARVED, "exists x < n. x = x", {}, (F, None, STARVED_NOTE)),
    (ZERO, "exists x < n. x = x", {}, NO_BOUND),
    # exists @b: the witness is component 0
    (ZERO, "exists @b. @b(0) = 0", {}, (R, None, "function witness")),
    (ONE, "exists @b. @b(0) = 0", {}, (N, None, "function witness")),
    # --- decided by truth, under ~ ---
    (ZERO, "~ forall x. @a(x) = 0", {"@a": ALPHA, "x": [0, 2]}, (N, None, "")),
    (ZERO, "~ forall x. @a(x) = 0", {"@a": ALPHA, "x": [0, 1]}, (R, None, "")),
    (ZERO, "~ forall x. @a(x) = 0", {"@a": ALPHA}, (R, None, "")),
    (ZERO, "~ forall x. x = x", {}, (F, None, "negated matrix not settled within fuel")),
    (ZERO, "~ forall x. forall y. x = x", {"x": [0, 1]}, (F, None, "negated matrix not settled within fuel")),
    (ZERO, "~ forall x. (forall y. y = y) & x = 0", {"x": [0, 1]}, (R, None, "")),
    (ZERO, "~ exists x. @a(x) = 3", {"@a": ALPHA, "x": [0, 2]}, (R, None, "")),
    (ZERO, "~ exists x. @a(x) = 3", {"@a": ALPHA, "x": [1]}, (N, None, "")),
    (ZERO, "~ exists x. @a(x) = 3", {"@a": ALPHA}, (N, None, "")),
    (ZERO, "~ exists x. x = S(x)", {}, (F, None, "negated matrix not settled within fuel")),
    (ZERO, "~ forall x < 1. @a(x) = 0", {"@a": ALPHA}, (N, None, "")),
    (ZERO, "~ forall x < 3. @a(x) = 0", {"@a": ALPHA, "x": [0]}, (R, None, "")),
    (ZERO, "~ forall x < n. x = x", {}, NO_BOUND),
    (ZERO, "~ exists x < 2. @a(x) = 3", {"@a": ALPHA}, (N, None, "")),
    (ZERO, "~ exists x < 1. @a(x) = 3", {"@a": ALPHA, "x": [1]}, (R, None, "")),
    (ZERO, "~ forall @b. @b(0) = 0", {"@b": [ZERO, ONE]}, (R, None, "")),
    (ZERO, "~ forall @b. @b(0) = 0", {"@b": ZERO}, (N, None, "")),
    (ZERO, "~ forall @b. @b(0) = 0", {}, NO_FUN_RANGE),
    (ZERO, "~ exists @b. @b(0) = 1", {"@b": [ZERO, ONE]}, (N, None, "")),
    (ZERO, "~ exists @b. @b(0) = 1", {"@b": [ZERO]}, (R, None, "")),
    (ZERO, "~ exists @b. @b(0) = 1", {}, NO_FUN_RANGE),
    # --- decided by truth, under -> ---
    (ZERO, "(forall x. x = x) -> 0 = S(0)", {}, (F, None, "hypothesis not settled within fuel")),
    (ZERO, "(exists x < 3. x = 5) -> 0 = S(0)", {}, (R, None, "hypothesis refuted")),
    (ZERO, "(exists @b. @b(0) = 1) -> 0 = S(0)", {"@b": [ZERO]}, (R, None, "hypothesis refuted")),
    (ZERO, "(forall x. exists y. y = x) -> 0 = S(0)", {"x": [0, 1]}, (N, None, "")),
    # the hypothesis's canonical realizer, read back through reader(1)
    (reader(1), "(forall x. x = x) -> exists y. y = 0", {"x": [0]}, (R, 0, "")),
    (reader(1), "(forall x < 2. x = x) -> exists y. y = 0", {}, (R, 0, "")),
    (reader(1), "(forall @b. @b(0) = 0) -> exists y. y = 0", {"@b": ZERO}, (R, 0, "")),
    (reader(1), "0 = 0 -> exists y. y = 0", {}, (R, 0, "")),
    (reader(1), "~(0 = S(0)) -> exists y. y = 0", {}, (R, 0, "")),
    (reader(1), "(0 = 0 -> 0 = 0) -> exists y. y = 0", {}, (R, 0, "")),
    (reader(1), "(exists @b. @b(0) = 0) -> 0 = 0", {"@b": ZERO}, "cannot synthesise a function witness"),
    (reader(1), "(exists x. @a(x) = 0) -> exists y. @a(y) = 0", {"@a": LATE}, (R, 2, "")),
    (reader(1), "(exists x. @a(x) = 0) -> exists y. @a(y) = 0", {"@a": LATE, "x": [3, 2]}, (R, 3, "")),
    (reader(1), "(exists x < 5. @a(x) = 0) -> exists y. @a(y) = 0", {"@a": LATE}, (R, 2, "")),
    # --- appended rows, so that earlier case ids stay put ---
    # a tuple is a range like a list
    (ZERO, "forall x. @a(x) = 0", {"@a": ALPHA, "x": (0, 2)}, (R, None, "")),
    (ZERO, "~ exists @b. @b(0) = 1", {"@b": (ZERO, ONE)}, (N, None, "")),
    # a natural in env is no range: the search runs over 0..fuel
    (ZERO, "~ exists x. x = 3", {"x": 7}, (N, None, "")),
    (ZERO, "~ forall x. x = 0", {"x": 7}, (R, None, "")),
    # a witness found after an unsettled instance
    (reader(1), "(exists x < 3. x = 1 | forall y. y = y) -> exists z. z = 1", {}, (R, 1, "")),
    (reader(1), "(exists x. x = 1 | forall y. y = y) -> exists z. z = 1", {}, (R, 1, "")),
    (reader(1), "(exists x < 3. (forall y. y = y) -> x = 2) -> exists z. z = 2", {}, (R, 2, "")),
]


@pytest.mark.parametrize("realizer, src, env, expected", QUANTIFIER_CASES)
def test_check_quantifiers(realizer, src, env, expected):
    f = parse_formula(src)
    if isinstance(expected, str):
        with pytest.raises(FragmentError) as exc:
            check_realizes(realizer, f, env, fuel=20)
        assert str(exc.value) == expected
        return
    verdict = check_realizes(realizer, f, env, fuel=20)
    assert (verdict.status, verdict.witness, verdict.note) == expected


# Kleene's strong three-valued tables (Introduction to Metamathematics,
# 1952, section 64), read through the hypothesis of an implication:
# T is true, F false, and U has no range, so it is never settled.
KLEENE_ATOMS = {"T": "0 = 0", "F": "0 = S(0)", "U": "forall x. x = x"}
KLEENE_TABLES = {
    "{a} & {b}": {"T": "TFU", "F": "FFF", "U": "UFU"},
    "{a} | {b}": {"T": "TTT", "F": "TFU", "U": "TUU"},
    "{a} -> {b}": {"T": "TFU", "F": "TTT", "U": "TUU"},
}
KLEENE_CASES = [
    (template.format(a=f"({KLEENE_ATOMS[a]})", b=f"({KLEENE_ATOMS[b]})"), value)
    for template, rows in KLEENE_TABLES.items()
    for a, values in rows.items()
    for b, value in zip("TFU", values)
] + [(f"~({KLEENE_ATOMS[a]})", value) for a, value in zip("TFU", "FTU")]
KLEENE_VERDICTS = {
    "T": (N, None, ""),
    "F": (R, None, "hypothesis refuted"),
    "U": (F, None, "hypothesis not settled within fuel"),
}


@pytest.mark.parametrize("hypothesis, value", KLEENE_CASES)
def test_kleene_tables(hypothesis, value):
    f = parse_formula(f"({hypothesis}) -> 0 = S(0)")
    verdict = check_realizes(ZERO, f, {}, fuel=5)
    assert (verdict.status, verdict.witness, verdict.note) == KLEENE_VERDICTS[value]


def test_check_negation_unsettled_within_fuel():
    f = parse_formula("~ forall x. @a(x) = 0")
    verdict = check_realizes(ZERO, f, {"@a": ZERO}, fuel=40)
    assert verdict.status is Status.FUEL_EXHAUSTED


# --- canned realizers --------------------------------------------------------


def test_mp_realizer_extracts_the_least_zero():
    alpha = FiniteSupport(((0, 3), (1, 7), (2, 0), (5, 0)), 9)
    verdict = check_realizes(mp_realizer(), instantiate(SchemaKind.MP), {"@a": alpha})
    assert verdict.status is Status.REALIZED
    assert verdict.witness == 2


def test_mp_realizer_machine_protocol():
    mp = mp_realizer()
    # no prefix values yet: answer 0, meaning "send more"
    assert mp.at(seqcode.encode([2])) == 0
    # first zero sits at index 1, so the answer is 1 + 2
    assert mp.at(seqcode.encode([2, 5, 0])) == 3


def test_mp_realizer_recovers_least_zero_on_seeded_elements():
    rng = random.Random(20260814)
    formula = instantiate(SchemaKind.MP)
    mp = mp_realizer()
    for _ in range(20):
        support = {i: rng.randint(1, 6) for i in range(rng.randint(1, 25))}
        support[rng.randint(0, 30)] = 0
        alpha = FiniteSupport(tuple(sorted(support.items())), rng.randint(1, 4))
        least = min(n for n in range(40) if alpha.at(n) == 0)
        verdict = check_realizes(mp, formula, {"@a": alpha}, fuel=1000)
        assert verdict.status is Status.REALIZED
        assert verdict.witness == least


def test_mp_realizer_runs_dry_without_a_zero():
    verdict = check_realizes(
        mp_realizer(), instantiate(SchemaKind.MP), {"@a": FiniteSupport((), 3)}, fuel=60
    )
    assert verdict.status is Status.FUEL_EXHAUSTED
    assert "hypothesis" in verdict.note


def test_dns1_realizer_on_a_zero_universe():
    env = {
        "@r": ZERO,
        "@a": [ZERO, FiniteSupport(((3, 2),), 1)],
        "x": list(range(6)),
    }
    verdict = check_realizes(dns1_realizer(), instantiate(SchemaKind.DNS1), env, fuel=50)
    assert verdict.status is Status.REALIZED


def test_dns1_realizer_vacuous_when_nothing_hits_zero():
    env = {"@r": ONE, "@a": [ZERO], "x": list(range(6))}
    verdict = check_realizes(dns1_realizer(), instantiate(SchemaKind.DNS1), env, fuel=50)
    assert verdict.status is Status.REALIZED
    assert "refuted" in verdict.note


# --- the transform -----------------------------------------------------------


def transformed(src: str) -> str:
    return format_formula(realizes_transform(parse_formula(src), "@e"))


def test_transform_fixes_atoms():
    assert transformed("x = 0") == "x = 0"


def test_transform_exists_projects_the_head():
    assert transformed("exists x. @a(x) = 0") == "@a(@e(0)) = 0"


def test_transform_implication_quantifies_over_realizers():
    assert transformed("0 = 0 -> 0 = 0") == "forall @d. 0 = 0 -> 0 = 0"


def test_transform_or_splits_on_the_tag():
    assert (
        transformed("0 = 0 | x = 0")
        == "@e(0) = 0 & 0 = 0 | ~(@e(0) = 0) & x = 0"
    )


def test_transform_universal_embeds_the_argument():
    assert (
        transformed("forall x. exists y. @a(y) = x")
        == "forall x. @a(ap(@e, lam k. x)(0)) = x"
    )


def test_transform_bounded_exists_pins_the_witness():
    assert (
        transformed("exists x < 5. @a(x) = 0")
        == "exists x < 5. x = @e(0) & @a(x) = 0"
    )


def test_transform_function_exists_uses_pair_projections():
    assert transformed("exists @b. @b(0) = 0") == "(lam y. @e(2^0 * 3^y))(0) = 0"


def test_transform_renames_shadowed_binders():
    assert (
        transformed("forall x. forall x. @a(x) = 0")
        == "forall x. forall x'. @a(x') = 0"
    )


def test_transform_output_reparses_to_itself():
    sources = [
        "x = 0",
        "exists x. @a(x) = 0",
        "0 = 0 -> 0 = 0",
        "0 = 0 | x = 0",
        "forall x. exists y. @a(y) = x",
        "exists x < 5. @a(x) = 0",
        "forall x < 3. @a(x) = 0",
        "forall x. forall x. @a(x) = 0",
        "(exists x. @a(x) = 0) & 0 = 0",
        "~(0 = S(0))",
        "forall @b. @b(0) = 0",
        "exists @b. @b(0) = 0",
    ]
    for src in sources:
        out = realizes_transform(parse_formula(src), "@e")
        assert parse_formula(format_formula(out)) == out


def test_transform_rejects_bad_realizer_names():
    f = parse_formula("@a(0) = 0")
    with pytest.raises(SortError):
        realizes_transform(f, "e")
    with pytest.raises(FreshnessError):
        realizes_transform(f, "@a")
