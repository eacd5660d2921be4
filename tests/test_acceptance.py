"""The acceptance gate, one test per criterion.

Each test prints the criterion's single pass/fail line (visible under
-s or on failure) and asserts the verdict.  Criterion 1 sweeps roughly
125k formulas and dominates the runtime of the whole suite; its budget
is pinned inside the criterion itself.
"""

import re

from bairelab import acceptance, cli, seqcode


def _run(number: int) -> acceptance.CriterionResult:
    result = acceptance.run_all(only=number)[0]
    print(result.line())
    return result


def test_criterion_01_translation_oracle_equivalence():
    result = _run(1)
    assert result.passed, result.detail
    # the sweep's size is part of the criterion
    assert result.detail.startswith("124764 formulas, 0 mismatches"), result.detail


def test_criterion_02_negative_range():
    result = _run(2)
    assert result.passed, result.detail


def test_criterion_03_bi1_shape_law():
    result = _run(3)
    assert result.passed, result.detail


def test_criterion_04_sequence_codec():
    result = _run(4)
    assert result.passed, result.detail


def test_criterion_05_jump_beta_construction():
    result = _run(5)
    assert result.passed, result.detail


def test_criterion_06_rho_monotonicity():
    result = _run(6)
    assert result.passed, result.detail


def test_criterion_07_bar_recursion_closed_form():
    result = _run(7)
    assert result.passed, result.detail


def test_criterion_08_mp_witness_extraction():
    result = _run(8)
    assert result.passed, result.detail


def test_criterion_09_k2_continuity():
    result = _run(9)
    assert result.passed, result.detail


def test_criterion_10_schema_fidelity():
    result = _run(10)
    assert result.passed, result.detail


def test_run_all_selector():
    import pytest

    assert len(acceptance.CRITERIA) == 10
    (result,) = acceptance.run_all(only=7)
    assert result.number == 7
    with pytest.raises(ValueError):
        acceptance.run_all(only=0)
    with pytest.raises(ValueError):
        acceptance.run_all(only=11)


def test_a_criterion_that_raises_fails_and_hides_no_other_line(monkeypatch, capsys):
    def boom():
        raise ZeroDivisionError("division by zero")

    entries = list(acceptance.CRITERIA)
    entries[3] = (entries[3][0], boom)
    for i in (0, 1, 4):  # criteria 1, 2 and 5 take seconds and are not under test here
        entries[i] = (entries[i][0], lambda: (True, "stand-in"))
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(entries))
    assert cli.dispatch(["acceptance", "run"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert "Traceback" in err and "in boom" in err
    assert len(lines) == 10
    assert lines[3] == "criterion  4 sequence-codec: FAIL [ZeroDivisionError: division by zero]"
    assert [line.split(":")[1].split()[0] for line in lines] == ["PASS"] * 3 + ["FAIL"] + ["PASS"] * 6
    assert cli.dispatch(["--machine", "acceptance", "run", "--only", "4"]) == 1
    assert capsys.readouterr().out == "criterion.4=fail\n"


def test_criteria_4_and_9_each_fail_their_mutant(monkeypatch):
    """A swapped concat fails criterion 4 and a modulus one too long fails
    criterion 9, each on its own FAIL line rather than by raising."""
    concat, apply_info = seqcode.concat, acceptance.k2_apply_info

    def modulus_plus_one(*args):
        got = apply_info(*args)
        return None if got is None else (got[0], got[1] + 1)

    monkeypatch.setattr(seqcode, "concat", lambda a, b: concat(b, a))
    monkeypatch.setattr(acceptance, "k2_apply_info", modulus_plus_one)
    (codec,) = acceptance.run_all(only=4)
    (continuity,) = acceptance.run_all(only=9)
    assert re.fullmatch(
        r"criterion  4 sequence-codec: FAIL \[1555 encodings, 148 small codes, "
        r"21904 concat pairs, [1-9]\d* bad\]",
        codec.line(),
    )
    assert continuity.line() == (
        "criterion  9 k2-continuity: FAIL [1000 applications, 1000 unstable]"
    )
