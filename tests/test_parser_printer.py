import pytest
from hypothesis import given, settings

from bairelab.parser import ParseError, parse_formula
from bairelab.printer import format_formula, to_sexpr
from bairelab.syntax import (
    Add,
    And,
    Apply,
    BForallN,
    ContApply,
    Eq,
    ExistsF,
    ExistsN,
    FnVar,
    ForallF,
    ForallN,
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
    Zero,
    numeral,
)

from strategies import formulas, functors, terms


def _term(src):
    """The term src, read as the left side of an equation."""
    return parse_formula(f"{src} = 0").left


def test_parse_numerals_and_successor():
    assert _term("0") == Zero()
    assert _term("3") == numeral(3)
    assert _term("S(0)") == Succ(Zero())
    assert _term("S(x)") == Succ(NumVar("x"))


def test_parse_arithmetic_precedence():
    assert _term("x + y * z") == Add(NumVar("x"), Mul(NumVar("y"), NumVar("z")))
    assert _term("x * y + z") == Add(Mul(NumVar("x"), NumVar("y")), NumVar("z"))
    assert _term("x + y + z") == Add(Add(NumVar("x"), NumVar("y")), NumVar("z"))
    assert _term("x * y * z") == Mul(Mul(NumVar("x"), NumVar("y")), NumVar("z"))
    assert _term("(x + y) * z") == Mul(Add(NumVar("x"), NumVar("y")), NumVar("z"))


def test_parse_pairing():
    assert _term("2^x * 3^y") == Pair(NumVar("x"), NumVar("y"))
    assert _term("2^(x + 1) * 3^0") == Pair(Add(NumVar("x"), numeral(1)), Zero())
    # a pairing is still a factor: products continue past it
    assert _term("2^x * 3^y * z") == Mul(Pair(NumVar("x"), NumVar("y")), NumVar("z"))
    # plain products of numerals are not pairings
    assert _term("2 * 3") == Mul(numeral(2), numeral(3))


def test_parse_function_application():
    assert _term("@a(x)") == Apply(FnVar("@a"), NumVar("x"))
    assert _term("(lam x. x + 1)(y)") == Apply(
        Lambda("x", Add(NumVar("x"), numeral(1))), NumVar("y")
    )
    assert _term("ap(@a, @b)(x)") == Apply(ContApply(FnVar("@a"), FnVar("@b")), NumVar("x"))


def test_parse_sequence_formers():
    assert _term("ext(s, n)") == SeqExt(NumVar("s"), NumVar("n"))
    assert _term("barof(@a, x)") == PrefixCode(FnVar("@a"), NumVar("x"))
    assert _term("barof(lam n. 0, 2)") == PrefixCode(Lambda("n", Zero()), numeral(2))


def test_parse_functor_forms():
    assert _term("@a(0)").fn == FnVar("@a")
    assert _term("(lam x. x * x)(0)").fn == Lambda("x", Mul(NumVar("x"), NumVar("x")))
    assert _term("ap(lam x. x, @b)(0)").fn == ContApply(Lambda("x", NumVar("x")), FnVar("@b"))
    for src in ("@a(0) = 0", "(lam x. x * x)(0) = 0", "ap(lam x. x, @b)(0) = 0"):
        assert format_formula(parse_formula(src)) == src


def test_parse_connective_precedence():
    f = parse_formula("x = 0 -> y = 0 -> z = 0")
    assert f == Imp(
        Eq(NumVar("x"), Zero()), Imp(Eq(NumVar("y"), Zero()), Eq(NumVar("z"), Zero()))
    )
    g = parse_formula("~x = 0 & y = 0 | z = 0")
    assert g == Or(
        And(Not(Eq(NumVar("x"), Zero())), Eq(NumVar("y"), Zero())), Eq(NumVar("z"), Zero())
    )


def test_parse_quantifiers_scope_maximally():
    f = parse_formula("forall x. x = 0 -> exists y. y = x")
    assert f == ForallN(
        "x", Imp(Eq(NumVar("x"), Zero()), ExistsN("y", Eq(NumVar("y"), NumVar("x"))))
    )
    g = parse_formula("(forall x. x = 0) -> 0 = 0")
    assert g == Imp(ForallN("x", Eq(NumVar("x"), Zero())), Eq(Zero(), Zero()))


def test_parse_function_quantifiers():
    f = parse_formula("forall @a. exists x. @a(x) = 0")
    assert f == ForallF("@a", ExistsN("x", Eq(Apply(FnVar("@a"), NumVar("x")), Zero())))
    g = parse_formula("exists @b. @b(0) = 1")
    assert g == ExistsF("@b", Eq(Apply(FnVar("@b"), Zero()), numeral(1)))


def test_parse_bounded_quantifier():
    f = parse_formula("forall x < n + 1. x = 0")
    assert f == BForallN("x", Add(NumVar("n"), numeral(1)), Eq(NumVar("x"), Zero()))


def test_parse_parenthesized_formula_vs_term():
    # '(' can open a term or a formula; both must resolve
    assert parse_formula("(x + y) = z") == Eq(Add(NumVar("x"), NumVar("y")), NumVar("z"))
    assert parse_formula("(x = y)") == Eq(NumVar("x"), NumVar("y"))
    assert parse_formula("((x = y))") == Eq(NumVar("x"), NumVar("y"))


def test_parse_error_position_and_expectations():
    with pytest.raises(ParseError) as ei:
        parse_formula("forall x x = 0")
    assert ei.value.line == 1
    assert ei.value.col == 10
    assert "DOT" in ei.value.expected or "LT" in ei.value.expected

    with pytest.raises(ParseError) as ei2:
        parse_formula("x = ")
    assert ei2.value.expected  # something was expected at end of input

    with pytest.raises(ParseError):
        _term("x +")
    with pytest.raises(ParseError):
        parse_formula("x == y")


def test_parse_error_reports_farthest_point():
    # the failure is inside the parenthesized formula attempt, well past '('
    with pytest.raises(ParseError) as ei:
        parse_formula("(x = y & ) -> z = 0")
    assert ei.value.col >= 9


@pytest.mark.parametrize(
    "src, col",
    # a superscript digit, a function name outside [a-z0-9_'], an Arabic-Indic
    # digit: the lexer refuses each with its position
    [("\u00b2", 1), ("@\u00e9(0) = 0", 1), ("x = \u0661", 5)],
)
def test_lexer_refuses_foreign_names_and_digits_with_a_position(src, col):
    with pytest.raises(ParseError) as ei:
        parse_formula(src)
    assert (ei.value.line, ei.value.col) == (1, col)
    assert str(ei.value).startswith(f"1:{col}: ")


@pytest.mark.parametrize(
    "src, line, col, message",
    [
        ("x = 0 &\n  y = ", 2, 7, "unexpected 'end of input'"),
        ("x = 0\n\t& y = 0 ~", 2, 10, "unexpected '~'"),
        ("forall x.\n\n   x = 0 |\n q", 4, 3, "unexpected 'end of input'"),
        ("x = 0\r\n& y", 2, 4, "unexpected 'end of input'"),
        ("\n\n   ? = 0", 3, 4, "unexpected character '?'"),
    ],
)
def test_parse_error_positions_past_the_first_line(src, line, col, message):
    with pytest.raises(ParseError) as ei:
        parse_formula(src)
    assert (ei.value.line, ei.value.col) == (line, col)
    assert str(ei.value).startswith(f"{line}:{col}: {message}")


def test_print_simple_formulas():
    f = Imp(Eq(NumVar("x"), Zero()), Eq(NumVar("y"), Zero()))
    assert format_formula(f) == "x = 0 -> y = 0"
    assert format_formula(Not(Eq(NumVar("x"), Zero()))) == "~(x = 0)"
    assert format_formula(And(Not(Eq(Zero(), Zero())), Eq(Zero(), Zero()))) == "~(0 = 0) & 0 = 0"


def test_print_quantifier_parenthesization():
    f = Imp(ForallN("x", Eq(NumVar("x"), Zero())), Eq(Zero(), Zero()))
    assert format_formula(f) == "(forall x. x = 0) -> 0 = 0"
    g = Imp(Eq(Zero(), Zero()), ForallN("x", Eq(NumVar("x"), Zero())))
    assert format_formula(g) == "0 = 0 -> forall x. x = 0"
    h = And(Eq(Zero(), Zero()), ExistsN("x", Eq(NumVar("x"), Zero())))
    assert format_formula(h) == "0 = 0 & exists x. x = 0"
    k = And(ExistsN("x", Eq(NumVar("x"), Zero())), Eq(Zero(), Zero()))
    assert format_formula(k) == "(exists x. x = 0) & 0 = 0"


def test_print_numerals():
    for t, src in [
        (numeral(4), "4"),
        (Succ(Add(NumVar("x"), numeral(1))), "S(x + 1)"),
        (Pair(NumVar("a"), numeral(2)), "2^a * 3^2"),
        (Mul(NumVar("c"), Pair(NumVar("a"), NumVar("b"))), "c * (2^a * 3^b)"),
    ]:
        assert format_formula(Eq(t, Zero())) == f"{src} = 0"


def test_sexpr_shapes():
    f = ForallN("x", Imp(Eq(NumVar("x"), Zero()), Eq(Succ(NumVar("x")), numeral(1))))
    assert to_sexpr(f) == "(forall x (-> (= x 0) (= (S x) (S 0))))"
    assert to_sexpr(Apply(FnVar("@a"), Pair(Zero(), Zero()))) == "(app @a (pair 0 0))"


def _roundtrip_formula(f):
    assert parse_formula(format_formula(f)) == f


def test_roundtrip_handpicked():
    cases = [
        "forall @a. ~forall x. ~@a(x) = 0 -> exists x. @a(x) = 0",
        "forall x < 3. x = 0 | ~x = 1",
        "(forall x. x = 0) & (exists @b. @b(2) = 1 | 0 = 0)",
        "~~(x = y)",
        "barof(@a, x + 1) = ext(barof(@a, x), @a(x))",
        "2^x * 3^@a(x) = z -> z = z",
        "(lam u. u * u + 1)(3) = 10",
        "ap(@a, lam n. n)(0) = 0",
    ]
    for src in cases:
        f = parse_formula(src)
        _roundtrip_formula(f)


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_roundtrip_random_formulas(f):
    _roundtrip_formula(f)


@settings(max_examples=300, deadline=None)
@given(terms())
def test_roundtrip_random_terms(t):
    _roundtrip_formula(Eq(t, t))


@settings(max_examples=300, deadline=None)
@given(functors())
def test_roundtrip_random_functors(f):
    _roundtrip_formula(Eq(Apply(f, Zero()), Zero()))
