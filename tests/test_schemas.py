import pytest

from bairelab.parser import parse_formula
from bairelab.printer import format_formula
from bairelab.schemas import (
    PAPER_MP_DISPLAY,
    AdmissibilityError,
    FreshnessError,
    MissingBindingError,
    SchemaError,
    SchemaKind,
    exists_unique,
    instantiate,
    is_qf_admissible,
    theory_schemas,
)
from bairelab.syntax import (
    And,
    Apply,
    Eq,
    ExistsF,
    ExistsN,
    FnVar,
    ForallF,
    ForallN,
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
    alpha_eq,
    free_vars,
    numeral,
)

X, Y, W = NumVar("x"), NumVar("y"), NumVar("w")


def test_ac00_smallest_instance():
    got = instantiate(SchemaKind.AC00, body=Eq(X, Y))
    want = Imp(
        ForallN("x", ExistsN("y", Eq(X, Y))),
        ExistsF("@b", ForallN("x", Eq(X, Apply(FnVar("@b"), X)))),
    )
    assert got == want


def test_induction_smallest_instance():
    got = instantiate(SchemaKind.INDUCTION, body=Eq(X, X))
    want = Imp(
        And(
            Eq(Zero(), Zero()),
            ForallN("x", Imp(Eq(X, X), Eq(Succ(X), Succ(X)))),
        ),
        ForallN("x", Eq(X, X)),
    )
    assert got == want


def test_open_eq():
    got = instantiate(SchemaKind.OPEN_EQ)
    want = Imp(Eq(X, Y), Eq(Apply(FnVar("@a"), X), Apply(FnVar("@a"), Y)))
    assert got == want


def test_markov_instance():
    got = instantiate(SchemaKind.MP)
    hit = ExistsN("x", Eq(Apply(FnVar("@a"), X), Zero()))
    assert got == ForallF("@a", Imp(Not(Not(hit)), hit))
    # concrete syntax sanity
    assert parse_formula("forall @a. ~~(exists x. @a(x) = 0) -> exists x. @a(x) = 0") == got


def test_paper_literal_display_is_frozen():
    assert PAPER_MP_DISPLAY == "∀α[¬∀α¬(α(x) = 0) → ∃x α(x) = 0]"


def test_dns1_instance():
    got = instantiate(SchemaKind.DNS1, binding={"rho": "@r"})
    inner = ExistsN("x", Eq(Apply(FnVar("@r"), PrefixCode(FnVar("@a"), X)), Zero()))
    want = Imp(ForallF("@a", Not(Not(inner))), Not(Not(ForallF("@a", inner))))
    assert got == want


def test_dns1_rho_alpha_clash_freshens_or_raises():
    got = instantiate(SchemaKind.DNS1, binding={"rho": "@a"})
    # the quantified variable steps aside automatically
    inner = ExistsN("x", Eq(Apply(FnVar("@a"), PrefixCode(FnVar("@a'"), X)), Zero()))
    assert got == Imp(ForallF("@a'", Not(Not(inner))), Not(Not(ForallF("@a'", inner))))
    with pytest.raises(FreshnessError):
        instantiate(SchemaKind.DNS1, binding={"rho": "@a", "alpha": "@a"})


def test_ac01_instance():
    body = Eq(Apply(FnVar("@a"), X), Zero())
    got = instantiate(SchemaKind.AC01, body=body)
    lam = Lambda("y", Apply(FnVar("@b"), Pair(X, Y)))
    want = Imp(
        ForallN("x", ExistsF("@a", body)),
        ExistsF("@b", ForallN("x", Eq(Apply(lam, X), Zero()))),
    )
    assert got == want


def test_ac00_bang_expands_uniqueness():
    body = Eq(X, Y)
    got = instantiate(SchemaKind.AC00_BANG, body=body)
    uniq = ForallN(
        "u",
        ForallN(
            "v",
            Imp(And(Eq(X, NumVar("u")), Eq(X, NumVar("v"))), Eq(NumVar("u"), NumVar("v"))),
        ),
    )
    hyp = ForallN("x", And(ExistsN("y", body), uniq))
    concl = ExistsF("@b", ForallN("x", Eq(X, Apply(FnVar("@b"), X))))
    assert got == Imp(hyp, concl)


def test_exists_unique_helper():
    got = exists_unique("y", Eq(X, Y))
    assert got == And(
        ExistsN("y", Eq(X, Y)),
        ForallN(
            "u",
            ForallN(
                "v",
                Imp(
                    And(Eq(X, NumVar("u")), Eq(X, NumVar("v"))),
                    Eq(NumVar("u"), NumVar("v")),
                ),
            ),
        ),
    )
    with pytest.raises(FreshnessError):
        exists_unique("y", Eq(X, Y), u="u", v="u")


def test_bi1_instance_shape():
    body = Eq(W, W)
    got = instantiate(SchemaKind.BI1, body=body)
    rho, alpha = FnVar("@r"), FnVar("@a")
    h1 = ForallF("@a", ExistsN("x", Eq(Apply(rho, PrefixCode(alpha, X)), Zero())))
    h2 = ForallN("w", Imp(Eq(Apply(rho, W), Zero()), body))
    h3 = ForallN(
        "w",
        Imp(
            ForallN("n", Eq(SeqExt(W, NumVar("n")), SeqExt(W, NumVar("n")))),
            body,
        ),
    )
    concl = Eq(numeral(1), numeral(1))
    assert got == Imp(And(And(h1, h2), h3), concl)


def test_bia_minus_decidability_matches_bi1():
    # giving the bar as the equation rho(w) = 0 and dropping the
    # decidability hypothesis leaves exactly the real-coded instance
    body = Eq(W, Zero())
    bia = instantiate(SchemaKind.BI_A, body=body)
    bi1 = instantiate(SchemaKind.BI1, body=body)
    match bia:
        case Imp(And(And(And(h1, h2), h3), h4), concl):
            rebuilt = Imp(And(And(h2, h3), h4), concl)
            assert rebuilt == bi1
            # and the dropped hypothesis is the decidability disjunction
            match h1:
                case ForallN("w", Or(r, Not(r2))):
                    assert r == r2
                case _:
                    pytest.fail("first hypothesis is not a decidability disjunction")
        case _:
            pytest.fail("unexpected shape for the four-hypothesis instance")


def test_bi_bang_instance():
    body = Eq(W, Zero())
    got = instantiate(SchemaKind.BI_BANG, body=body)
    match got:
        case Imp(And(And(h1, _h2), _h3), _concl):
            match h1:
                case ForallF("@a", And(ExistsN("x", _), ForallN("u", ForallN("v", _)))):
                    pass
                case _:
                    pytest.fail("bar hypothesis is not a uniqueness statement")
        case _:
            pytest.fail("unexpected hypothesis chain shape")


@pytest.mark.parametrize("kind", [SchemaKind.BI_A, SchemaKind.BI_BANG])
def test_bar_binding_gives_the_hit_clause(kind):
    got = format_formula(instantiate(kind, body=Eq(W, W), binding={"bar": parse_formula("w = 3")}))
    assert "barof(@a, x) = 3" in got
    assert "@r" not in got


def test_bi1_ignores_a_bar_binding():
    body = Eq(W, W)
    bound = instantiate(SchemaKind.BI1, body=body, binding={"bar": parse_formula("w = 3")})
    assert bound == instantiate(SchemaKind.BI1, body=body)


def test_bar_binding_must_be_a_formula():
    with pytest.raises(SchemaError) as exc:
        instantiate(SchemaKind.BI_A, body=Eq(W, W), binding={"bar": "@q"})
    assert str(exc.value) == "binding for 'bar' must be a formula over the path variable"


def test_names_are_bound_as_strings():
    with pytest.raises(SchemaError, match="^binding for 'x' must be a number variable name$"):
        instantiate(SchemaKind.INDUCTION, body=Eq(X, X), binding={"x": X})


def test_instantiate_refuses_what_it_would_ignore():
    with pytest.raises(SchemaError, match="^no schema reads role 'choise'; roles: "):
        instantiate(SchemaKind.AC00, body=Eq(X, Y), binding={"choise": "@c"})
    for kind in (SchemaKind.OPEN_EQ, SchemaKind.MP, SchemaKind.DNS1):
        with pytest.raises(SchemaError, match=f"^schema {kind.value} takes no body formula$"):
            instantiate(kind, body=Eq(X, X))


def test_freshness_choice_variable():
    body = Eq(Apply(FnVar("@b"), X), Y)
    # default choice name steps aside
    got = instantiate(SchemaKind.AC00, body=body)
    nums, funs = free_vars(got)
    assert "@b" in funs  # the body's own @b is still free
    match got:
        case Imp(_, ExistsF(beta, _)):
            assert beta == "@b'"
        case _:
            pytest.fail("no choice quantifier")
    # forcing the clash is an error
    with pytest.raises(FreshnessError):
        instantiate(SchemaKind.AC00, body=body, binding={"choice": "@b"})


def test_freshness_bi_step_variable():
    body = Eq(NumVar("n"), W)
    got = instantiate(SchemaKind.BI1, body=body)
    # the step index avoids the body's free n
    match got:
        case Imp(And(_, h3), _):
            match h3:
                case ForallN("w", Imp(ForallN(n2, _), _)):
                    assert n2 == "n'"
                case _:
                    pytest.fail("no step hypothesis")
    with pytest.raises(FreshnessError):
        instantiate(SchemaKind.BI1, body=body, binding={"n": "n"})


def test_missing_body():
    with pytest.raises(MissingBindingError):
        instantiate(SchemaKind.AC00)
    with pytest.raises(MissingBindingError):
        instantiate(SchemaKind.INDUCTION)


def test_qf_admissibility():
    assert is_qf_admissible(parse_formula("exists y < x. @a(y) = 0"))
    assert not is_qf_admissible(parse_formula("exists y. @a(y) = 0"))
    assert is_qf_admissible(parse_formula("0 = 0"))
    assert not is_qf_admissible(parse_formula("forall @a. @a(0) = 0"))

    instantiate(SchemaKind.QF_AC00, body=parse_formula("exists z < x. z + y = x"))
    with pytest.raises(AdmissibilityError):
        instantiate(SchemaKind.QF_AC00, body=parse_formula("exists z. z = x"))


def test_all_kinds_roundtrip():
    w_body = Eq(W, Zero())
    xy_body = Eq(X, Y)
    per_kind = {
        SchemaKind.AC00: xy_body,
        SchemaKind.AC01: Eq(Apply(FnVar("@a"), X), Zero()),
        SchemaKind.AC00_BANG: xy_body,
        SchemaKind.QF_AC00: xy_body,
        SchemaKind.INDUCTION: Eq(X, X),
        SchemaKind.OPEN_EQ: None,
        SchemaKind.BI_A: w_body,
        SchemaKind.BI1: w_body,
        SchemaKind.BI_BANG: w_body,
        SchemaKind.MP: None,
        SchemaKind.DNS1: None,
    }
    assert set(per_kind) == set(SchemaKind)
    for kind, body in per_kind.items():
        inst = instantiate(kind, body=body)
        assert parse_formula(format_formula(inst)) == inst, kind


def test_theory_tables():
    bsk = theory_schemas("BSK")
    assert bsk.schemas == frozenset(
        {SchemaKind.INDUCTION, SchemaKind.OPEN_EQ, SchemaKind.AC01, SchemaKind.BI_BANG}
    )
    ira = theory_schemas("IRA")
    assert ira.schemas == frozenset(
        {SchemaKind.INDUCTION, SchemaKind.OPEN_EQ, SchemaKind.QF_AC00}
    )
    fim = theory_schemas("FIM")
    assert fim.schemas == bsk.schemas
    assert any("cannot be instantiated" in n for n in fim.notes)
    bim = theory_schemas("BI-")
    assert SchemaKind.BI1 in bim.schemas
    assert any("primitive recursion" in n for n in bim.notes)
    assert any("classical" in n for n in bim.notes)
    assert theory_schemas("bi_minus").schemas == bim.schemas
    with pytest.raises(SchemaError):
        theory_schemas("ZFC")


def test_alpha_equivalent_across_binding_names():
    a = instantiate(SchemaKind.AC00, body=Eq(X, Y))
    b = instantiate(
        SchemaKind.AC00,
        body=Eq(NumVar("u"), NumVar("v")),
        binding={"x": "u", "y": "v", "choice": "@c"},
    )
    assert alpha_eq(a, b)
