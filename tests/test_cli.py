import argparse
import contextlib
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bairelab
from bairelab import cli, seqcode
from bairelab.cli import build_parser, dispatch, parse_element, parse_env
from bairelab.baire import FiniteSupport, Tabled
from bairelab.errors import natural
from bairelab.parser import KEYWORDS, MAX_DEPTH, ParseError, parse_formula, tokenize
from bairelab.schemas import PAPER_MP_DISPLAY
from bairelab.syntax import tree_depth


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


# --- wiring ------------------------------------------------------------------


def _leaf_handlers(parser: argparse.ArgumentParser) -> list:
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [parser._defaults["handler"]]
    children = dict.fromkeys(subs[0].choices.values())  # an alias maps to the same parser
    return [h for child in children for h in _leaf_handlers(child)]


def test_every_subcommand_has_a_handler_and_vice_versa():
    handlers = _leaf_handlers(build_parser())
    assert len(handlers) == len(set(handlers))
    assert set(handlers) == {f for name, f in vars(cli).items() if name.startswith("_cmd_")}


def test_handlers_print_only_through_out():
    for name, handler in vars(cli).items():
        if name.startswith("_cmd_"):
            source = inspect.getsource(handler)
            assert "print(" not in source and "args.machine" not in source, name


def test_usage_errors_exit_2():
    assert run("bogus")[0] == 2
    assert run("seq", "decode", "notanumber")[0] == 2
    assert run()[0] == 2
    for only in ("0", "11"):
        code, out, err = run("acceptance", "run", "--only", only)
        assert (code, out) == (2, "") and f"argument --only: invalid choice: {only}" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("seq", "bar", "-1"), "length"),
        (("jump", "demo", "--upto", "-1"), "--upto"),
        (("realize", "check", "--formula", "0=0", "--fuel", "-3"), "--fuel"),
        (("bar", "verify", "--rho", "builtin:never", "-b", "0", "-d", "2"), "-b/--branching"),
        (("bar", "recurse", "--rho", "builtin:never", "-b", "2", "-d", "0"), "-d/--depth"),
        (("seq", "decode", "-5"), "code"),
        (("jump", "run", "-3"), "code"),
        (("seq", "encode", "-1"), "entries"),
        (("seq", "concat", "16", "-16"), "right"),
    ],
    ids=[
        "seq-bar-length", "jump-demo-upto", "realize-check-fuel", "bar-branching", "bar-depth",
        "seq-decode-code", "jump-run-code", "seq-encode-entry", "seq-concat-right",
    ],
)
def test_negative_counts_are_usage_errors(argv, option):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and f"argument {option}: must be at least " in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (("bar", "verify", "--rho", "builtin:never", "-b", "٢", "-d", "2"), "-b/--branching"),
        (("realize", "check", "--formula", "0=0", "--fuel", "1_000"), "--fuel"),
        (("seq", "bar", "+3"), "length"),
        (("acceptance", "run", "--only", "٣"), "--only"),
        (("seq", "encode", "٣", "1_0", "+4"), "entries"),
        (("seq", "decode", "١٠٨"), "code"),
        (("jump", "run", "١٠٨"), "code"),
        (("seq", "encode", "x"), "entries"),
    ],
    ids=[
        "arabic-indic-branching", "underscored-fuel", "plus-length", "arabic-indic-only",
        "arabic-indic-entry", "arabic-indic-code", "arabic-indic-jump-code", "letter-entry",
    ],
)
def test_counts_are_ascii_digits(argv, option):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: ") and f"argument {option}: must be ASCII digits, not " in err


def test_overlong_numerals_say_they_are_too_long():
    limit = sys.get_int_max_str_digits()
    for argv in (("seq", "decode", "9" * 5000), ("jump", "run", "1" + "0" * (limit + 1))):
        code, out, err = run(*argv)
        digits = len(argv[-1])
        assert (code, out) == (2, "")
        assert f"too many digits: {argv[-1][:8]}... has {digits:,}, over the limit of {limit:,}" in err
        assert argv[-1][:100] not in err and "ASCII" not in err


def test_domain_errors_exit_1_with_message():
    code, out, err = run("schema", "NOPE")
    assert code == 1 and not out
    assert err.startswith("error: ")


def test_readme_cli_examples_run_as_shown():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert len(lines) >= 15
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "bairelab", line
        code, out, err = run(*argv)
        assert (code, err) == (0, ""), line
        shown = line.partition(" # ")[2].strip()
        if re.fullmatch("[0-9 ]+", shown):  # the comment is the output
            assert out == shown + "\n", line
        assert run("--machine", *argv)[::2] == (0, ""), line


# --- parsing and printing ----------------------------------------------------


def test_parse_prints_canonical_form():
    code, out, _ = run("parse", "forall x. (x + 0) = x")
    assert code == 0
    assert out == "forall x. x + 0 = x\n"


def test_parse_ast_gives_sexpr():
    code, out, _ = run("parse", "--ast", "0 = 0")
    assert (code, out) == (0, "(= 0 0)\n")


def test_print_normalizes_numerals():
    assert run("print", "exists x. x = S(S(0))")[1] == "exists x. x = 2\n"


def _nested(opening: str, inner: str, closing: str, n: int) -> str:
    return opening * n + inner + closing * n


def test_parse_accepts_nesting_up_to_the_limit():
    # the top formula and the term inside take one level each
    assert run("parse", _nested("(", "0 = 0", ")", MAX_DEPTH - 2)) == (0, "0 = 0\n", "")
    succ = _nested("S(", "0", ")", MAX_DEPTH - 3) + " = 0"
    assert run("parse", succ) == (0, f"{MAX_DEPTH - 3} = 0\n", "")
    # a chain of k conjunctions is a tree k + 2 levels deep
    chain = " & ".join(["0 = 0"] * (MAX_DEPTH - 1))
    assert run("parse", chain)[0] == 0


@pytest.mark.parametrize(
    "src",
    [
        _nested("(", "0 = 0", ")", 200),
        _nested("S(", "0", ")", 400) + " = 0",
        _nested("(", "0 = 0", ")", MAX_DEPTH - 1),
        " & ".join(["0 = 0"] * MAX_DEPTH),
        f"{MAX_DEPTH} = 0",
        "9" * 5000 + " = 0",
    ],
    ids=["parens-200", "succ-400", "parens-over", "chain-over", "numeral", "huge-numeral"],
)
def test_parse_refuses_nesting_over_the_limit(src):
    code, out, err = run("parse", src)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"{MAX_DEPTH}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("parse", " & ".join(["0 = 0"] * 100)),
         "1:1: syntax tree nests 101 levels deep; the limit is 100"),
        (("oracle", "ipc", " & ".join(["p"] * 101)),
         "1:1: formula nests 101 levels deep; the limit is 100"),
        (("parse", "0 = 0 0"), "1:7: unexpected '0' (expected one of: EOF)"),
        (("oracle", "ipc", "p q"), "1:3: unexpected 'q' (expected one of: EOF)"),
    ],
    ids=["tree-depth", "prop-depth", "parse-trailing", "prop-trailing"],
)
def test_both_parse_drivers_keep_their_messages(argv, message):
    assert run(*argv) == (1, "", f"error: {message}\n")


def test_passes_run_on_trees_at_the_nesting_limit():
    # three levels per repetition, while parsing and in the tree
    deep = _nested("forall x. ~exists @a. ", "x = @a(0)", "", (MAX_DEPTH - 4) // 3)
    assert tree_depth(parse_formula(deep)) > MAX_DEPTH - 4
    for argv in (
        ("parse", "--ast", deep),
        ("translate-neg", deep, "--simplify-decidable-atoms"),
        ("realize", "transform", deep),
        ("schema", "ac01", "--body", deep),
        ("schema", "bi1", "--body", deep),
    ):
        code, _, err = run(*argv)
        assert code == 0, (argv[0], err[-200:])


# --- sequence codes ----------------------------------------------------------


def test_seq_encode_decode_roundtrip_text():
    assert run("seq", "encode", "1", "2")[1] == "108\n"
    assert run("seq", "decode", "108")[1] == "1 2\n"
    assert run("seq", "decode", "1")[1] == "(empty)\n"
    assert run("seq", "decode", "5")[1] == "none\n"


def test_seq_concat_and_bar():
    assert run("seq", "concat", "16", "16")[1] == "1296\n"
    # alpha = 0,2,0,... barred at length 3
    assert run("seq", "bar", "3", "--alpha", "fs:0:1=2")[1] == "270\n"


def test_seq_code_too_long_to_print_is_a_domain_error():
    limit = sys.get_int_max_str_digits()
    for argv in (
        ("seq", "encode", "100000"),
        ("--machine", "seq", "bar", "5000"),
        ("seq", "encode", "1000000000000"),  # refused before the code is built
        ("seq", "bar", "1", "--alpha", "const:1000000000000"),
    ):
        start = time.perf_counter()
        code, out, err = run(*argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: result too large to print: about ")
        assert f"over the limit of {limit:,}" in err
        assert "set_int_max_str_digits" not in err
    # 2**14001 has 4,215 digits, under the limit
    code, out, _ = run("seq", "encode", "14000")
    assert code == 0 and out == f"{2**14001}\n"


def test_seq_decode_machine_form():
    assert run("--machine", "seq", "decode", "108")[1] == "ok=true\nentries=1,2\n"
    assert run("--machine", "seq", "decode", "5")[1] == "ok=false\n"


# --- schemas -----------------------------------------------------------------


def test_schema_mp_instance():
    code, out, _ = run("schema", "MP")
    assert code == 0
    assert out == "forall @a. ~~(exists x. @a(x) = 0) -> exists x. @a(x) = 0\n"


def test_schema_paper_literal_is_verbatim():
    code, out, _ = run("schema", "MP", "--paper-literal")
    assert (code, out) == (0, PAPER_MP_DISPLAY + "\n")


def test_schema_paper_literal_only_for_mp():
    assert run("schema", "ac00", "--paper-literal")[0] == 1


def test_schema_with_body_and_binding():
    code, out, _ = run(
        "schema", "ac00", "--body", "u + v = u", "--bind", "x=u,y=v,choice=@c"
    )
    assert code == 0
    assert "exists @c." in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("schema", "ac00", "--body", "x = y", "--bind", "choise=@c"),
            "error: no schema reads role 'choise'; roles: alpha, bar, choice, n, rho, u, v, w, x, y\n",
        ),
        (("schema", "mp", "--body", "x = 0"), "error: schema mp takes no body formula\n"),
    ],
    ids=["unknown-role", "body-for-mp"],
)
def test_schema_refuses_what_it_would_ignore(argv, message):
    assert run(*argv) == (1, "", message)


def test_schema_theory_listing():
    code, out, _ = run("schema", "--theory", "IRA")
    assert code == 0
    assert out.splitlines()[0] == "induction open-eq qf-ac00"


def test_schema_without_kind_or_theory_is_a_domain_error():
    assert run("schema")[0] == 1


# --- translation and oracles -------------------------------------------------


def test_translate_neg_flags():
    plain = run("translate-neg", "exists x. x = 0")[1]
    assert plain == "~forall x. ~~~(x = 0)\n"
    simplified = run("translate-neg", "exists x. x = 0", "--simplify-decidable-atoms")[1]
    assert simplified == "~forall x. ~(x = 0)\n"


def test_oracle_classical():
    assert run("oracle", "classical", "p | ~p")[1] == "valid\n"
    assert run("oracle", "classical", "p -> q")[1] == "not valid\n"


@pytest.mark.parametrize("oracle", ["ipc", "classical"])
@pytest.mark.parametrize("src", ["pQ", "\u00e9"], ids=["upper-case", "non-ascii"])
def test_oracle_atoms_must_be_number_variable_names(oracle, src):
    # an atom p stands for the equation p = 0, so its name must be one a
    # number variable may take
    code, out, err = run("oracle", oracle, src)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "number variable name" in err
    assert "Traceback" not in err


def test_oracle_ipc_with_countermodel():
    code, out, _ = run("oracle", "ipc", "((p->q)->p)->p")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "not provable"
    assert lines[1].startswith("countermodel on ")
    assert any("p holds at:" in line for line in lines)


@pytest.mark.parametrize(
    "src, plain, machine",
    [
        (
            "((p->q)->p)->p",
            "not provable\ncountermodel on 2 worlds\n  p holds at: 1\n  q holds at: (nowhere)\n",
            "provable=false\ncountermodel.worlds=2\ncountermodel.p=1\ncountermodel.q=\n",
        ),
        (
            "p | ~p",
            "not provable\ncountermodel on 2 worlds\n  p holds at: 1\n",
            "provable=false\ncountermodel.worlds=2\ncountermodel.p=1\n",
        ),
    ],
    ids=["peirce", "excluded-middle"],
)
def test_oracle_ipc_countermodel_output_is_pinned(src, plain, machine):
    assert run("oracle", "ipc", src) == (0, plain, "")
    assert run("--machine", "oracle", "ipc", src) == (0, machine, "")


def test_oracle_ipc_countermodel_search_is_bounded():
    # 7 atoms: unbounded, three worlds would mean millions of models
    start = time.monotonic()
    code, out, err = run("oracle", "ipc", "p3 | (p3 -> (p2 | (p2 -> (p1 | ~p1)))) | (a & b & c & d)")
    assert (code, out, err) == (0, "not provable\n", "")
    assert time.monotonic() - start < 2


def test_oracle_ipc_machine_form():
    code, out, _ = run("--machine", "oracle", "ipc", "p -> p")
    assert (code, out) == (0, "provable=true\n")


@pytest.mark.parametrize(
    "src, ipc, classical",
    [  # MAX_DEPTH - 1 connectives nest MAX_DEPTH levels
        ("~" * (MAX_DEPTH - 1) + "p", "not provable", "not valid"),
        (" -> ".join(["p"] * MAX_DEPTH), "provable", "valid"),
        (" & ".join(["p"] * MAX_DEPTH), "not provable", "not valid"),
        # an atom or bot is one level, though its equation nests deeper
        ("~" * (MAX_DEPTH - 1) + "bot", "provable", "valid"),
    ],
    ids=["not", "imp", "and", "not-bot"],
)
def test_oracle_accepts_nesting_up_to_the_limit(src, ipc, classical):
    code, out, err = run("oracle", "ipc", src)
    assert (code, out.splitlines()[0], err) == (0, ipc, "")
    assert run("oracle", "classical", src) == (0, classical + "\n", "")


@pytest.mark.parametrize("oracle", ["ipc", "classical"])
@pytest.mark.parametrize(
    "src",
    [
        "~" * MAX_DEPTH + "p",
        "~" * 400 + "p",
        " -> ".join(["p"] * (MAX_DEPTH + 1)),
        " -> ".join(["p"] * 600),
        " & ".join(["p"] * (MAX_DEPTH + 1)),
        " & ".join(["p"] * 2000),
        _nested("(", "p", ")", MAX_DEPTH),
    ],
    ids=["not-over", "not-400", "imp-over", "imp-600", "and-over", "and-2000", "parens-over"],
)
def test_oracle_refuses_nesting_over_the_limit(src, oracle):
    code, out, err = run("oracle", oracle, src)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"{MAX_DEPTH}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("oracle", ["ipc", "classical"])
@pytest.mark.parametrize(
    "src, col",
    [("p ->", 5), ("(p", 3), ("p q", 3), ("0", 1), ("S", 1), ("p = 0", 3), ("@a", 1), ("p & & q", 5)],
)
def test_oracle_refusals_carry_a_position(oracle, src, col):
    code, out, err = run("oracle", oracle, src)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: 1:{col}: ")


def test_oracle_refusal_names_the_expected_tokens():
    assert run("oracle", "ipc", "p ->")[2] == (
        "error: 1:5: unexpected 'end of input' (expected one of: IDENT, LPAR)\n"
    )


# atoms, a keyword, connectives and brackets, then tokens no atom may hold
_PROP_PIECES = ["p", "q", "bot", "forall", "p'", "~", "&", "|", "->", "(", ")", " "]
_PROP_PIECES += ["pQ", "S", "0", "=", "@a", "\u00e9", "-", ">"]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["ipc", "classical"]),
    st.lists(st.sampled_from(_PROP_PIECES), max_size=10).map("".join),
)
def test_oracle_exit_code_contract(oracle, src):
    # argparse reads an argument that opens with '-' as an option: usage, exit 2
    code, out, err = run("oracle", oracle, src)
    assert code in (0, 1) or (code == 2 and src.startswith("-"))
    assert err.startswith("error: ") == (code == 1)
    if code == 0:
        assert out and not err


# object-language tokens, keywords, line breaks, then pieces no token may hold
_FORMULA_PIECES = ["x", "y'", "@a", "0", "2", "3", "S", "->", "~", "&", "|", "=", "<"]
_FORMULA_PIECES += ["(", ")", ".", ",", "+", "*", "^", " ", "\n", "\t", *sorted(KEYWORDS)]
_FORMULA_PIECES += ["\u00b2", "\u0661", "@\u00e9", "\u00c9", "@", "@A", "Sx", "X", "'", "\x0c"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FORMULA_PIECES), max_size=12).map("".join))
def test_parse_refusals_are_parse_errors_with_a_position(src):
    # src read as a formula, a term and a functor
    for text in (src, f"{src} = 0", f"({src})(0) = 0"):
        with contextlib.suppress(ParseError):
            assert parse_formula(text) is not None
    code, out, err = run("parse", src)
    assert code in (0, 1) or (code == 2 and src.startswith("-"))
    assert (re.match(r"error: \d+:\d+: ", err) is not None) == (code == 1)
    if code == 0:
        assert out and not err


# --- realizability -----------------------------------------------------------


def test_realize_check_reports_witness():
    code, out, _ = run(
        "realize", "check", "--formula", "exists x. x = 2", "--realizer", "const:2"
    )
    assert (code, out) == (0, "realized witness 2\n")


def test_realize_check_env_ranges():
    code, out, _ = run(
        "realize",
        "check",
        "--formula",
        "forall x. x + 0 = x",
        "--env",
        "x=0..5",
    )
    assert (code, out) == (0, "realized\n")


def test_realize_check_machine_form():
    _, out, _ = run(
        "--machine", "realize", "check", "--formula", "0 = 1", "--realizer", "zero"
    )
    assert out.splitlines()[0] == "status=not-realized"


def test_realize_transform():
    assert run("realize", "transform", "exists x. x = 0")[1] == "@e(0) = 0\n"
    assert run("realize", "transform", "0 = 0", "--eps", "@w")[1] == "0 = 0\n"


# --- jump and bar ------------------------------------------------------------


def test_jump_run_prints_rho_value():
    assert run("jump", "run", "5")[1] == "1\n"  # not a sequence number
    alpha_zero_mismatch = seqcode.encode([7])
    assert run("jump", "run", str(alpha_zero_mismatch))[1] == "0\n"


def test_jump_demo_zero_oracle():
    code, out, _ = run("jump", "demo", "--upto", "4")
    lines = out.splitlines()
    assert code == 0
    assert sum("diverges" in line for line in lines) == 4
    assert lines[-1].endswith("yes")


@pytest.mark.parametrize(
    "option", [("--upto", "22"), ("--alpha", "fs:1:0=10000000000")], ids=["upto-22", "huge-alpha"]
)
def test_jump_demo_refuses_a_beta_prefix_past_the_bit_cap(option):
    # machine 21's slot, 78,254,940,344, would make a code of about 6e11 bits
    start = time.perf_counter()
    code, out, err = run("jump", "demo", *option)
    assert (code, err) == (1, "error: sequence code exceeds 65536 bits\n")
    assert "beta prefix" not in out
    assert time.perf_counter() - start < 1.0


def test_bar_verify_outputs():
    assert run("bar", "verify", "--rho", "builtin:uniform2", "-b", "3", "-d", "4")[1] == (
        "barred at depth 2\n"
    )
    code, out, _ = run("bar", "verify", "--rho", "builtin:never", "-b", "2", "-d", "3")
    assert (code, out) == (0, "depth exhausted along 0 0 0\n")


def test_bar_recurse_closed_form_example():
    code, out, _ = run(
        "bar", "recurse", "--rho", "builtin:uniform2",
        "-b", "3", "-d", "2", "--base", "one", "--step", "sum",
    )
    assert (code, out) == (0, "9\n")


def test_bar_verify_oracle_rho_follows_the_registry():
    # zero oracle, registry programs 0..3 diverge: the surviving path is
    # all zeros and nothing else gets past its first wrong slot
    code, out, _ = run("bar", "verify", "--rho", "oracle", "-b", "8", "-d", "8")
    assert (code, out) == (0, "depth exhausted along 0 0 0 0 0 0 0 0\n")


def test_bar_rejects_unknown_rho():
    assert run("bar", "verify", "--rho", "builtin:quux", "-b", "2", "-d", "2")[0] == 1
    assert run("bar", "verify", "--rho", "mystery", "-b", "2", "-d", "2")[0] == 1


def test_bar_walks_up_to_the_code_size_guard():
    # seqcode refuses a code of length 419, so 418 is the deepest
    # level either walk reaches; neither may run out of stack first
    never = ("--rho", "builtin:never", "-b", "1")
    code, out, err = run("bar", "verify", *never, "-d", "418")
    assert (code, out, err) == (0, "depth exhausted along" + " 0" * 418 + "\n", "")
    code, out, err = run("bar", "recurse", *never, "-d", "418")
    assert (code, out) == (1, "") and err.startswith("error: uncut node at depth 418: code ")
    for command in ("verify", "recurse"):
        code, out, err = run("bar", command, *never, "-d", "419")
        assert (code, out, err) == (1, "", "error: sequence code exceeds 4096 bits\n")


def test_registry_path_errors_exit_1():
    assert run("jump", "run", "5", "--registry", "/no/such/file")[0] == 1


# --- both output forms, pinned ----------------------------------------------

_BSK_NOTE = (
    "Peano axioms, lambda reduction and the defining axioms for primitive recursive"
    " function constants form the unlisted background; only proper schemas appear in the set."
)
_DIVERGES_0_TO_3 = "".join(f"program {e}: diverges\n" for e in range(4))
_DIVERGES_0_TO_3_MACHINE = "".join(f"program.{e}=diverges\n" for e in range(4))


@pytest.mark.parametrize(
    "argv, code, plain, machine",
    [
        (
            ("jump", "demo", "--upto", "4"),
            0,
            _DIVERGES_0_TO_3 + "beta prefix: 0 0 0 0 0 0 0 0\n"
            "rho keeps every beta prefix up to length 8: yes\n",
            _DIVERGES_0_TO_3_MACHINE + "beta=0,0,0,0,0,0,0,0\nsurvives=true\n",
        ),
        (
            ("bar", "verify", "--rho", "builtin:uniform2", "-b", "3", "-d", "4"),
            0,
            "barred at depth 2\n",
            "barred=true\ndepth=2\n",
        ),
        (
            ("bar", "verify", "--rho", "builtin:never", "-b", "2", "-d", "3"),
            0,
            "depth exhausted along 0 0 0\n",
            "barred=false\npath=0,0,0\n",
        ),
        (
            ("schema", "--theory", "BSK"),
            0,
            f"ac01 bi! induction open-eq\nnote: {_BSK_NOTE}\n",
            f"schemas=ac01,bi!,induction,open-eq\nnote.0={_BSK_NOTE}\n",
        ),
        (("oracle", "classical", "p | ~p"), 0, "valid\n", "valid=true\n"),
        (("oracle", "classical", "p -> q"), 0, "not valid\n", "valid=false\n"),
        (("seq", "decode", "1"), 0, "(empty)\n", "ok=true\nentries=\n"),
        (("seq", "decode", "5"), 0, "none\n", "ok=false\n"),
        (
            ("realize", "check", "--formula", "exists x. x = 2", "--realizer", "const:2"),
            0,
            "realized witness 2\n",
            "status=realized\nwitness=2\n",
        ),
        (
            ("realize", "check", "--formula", "exists x. x = 2", "--realizer", "const:3"),
            0,
            "not-realized (at witness 3)\n",
            "status=not-realized\nnote=at witness 3\n",
        ),
        (
            ("realize", "check", "--formula", "(0 = 1) -> 0 = 0"),
            0,
            "realized (hypothesis refuted)\n",
            "status=realized\nnote=hypothesis refuted\n",
        ),
        (
            ("translate-neg", "exists x. x = 0"),
            0,
            "~forall x. ~~~(x = 0)\n",
            "formula=~forall x. ~~~(x = 0)\n",
        ),
        (
            ("realize", "transform", "exists x. x = 0"),
            0,
            "@e(0) = 0\n",
            "formula=@e(0) = 0\n",
        ),
        (
            ("acceptance", "run", "--only", "4"),
            0,
            "criterion  4 sequence-codec: PASS"
            " [1555 encodings, 148 small codes, 21904 concat pairs, 0 bad]\n",
            "criterion.4=pass\n",
        ),
    ],
    ids=[
        "jump-demo", "bar-barred", "bar-exhausted", "theory-bsk", "classical-valid",
        "classical-not-valid", "decode-empty", "decode-none", "realize-witness",
        "realize-wrong-witness", "realize-note", "translate-neg", "realize-transform",
        "acceptance-4",
    ],
)
def test_output_is_pinned_in_both_forms(argv, code, plain, machine):
    assert run(*argv) == (code, plain, "")
    assert run("--machine", *argv) == (code, machine, "")


# --- spec decoding -----------------------------------------------------------


def test_parse_element_specs():
    assert parse_element("zero").at(9) == 0
    assert parse_element("const:7").at(123) == 7
    fs = parse_element("fs:4:0=1:5=2")
    assert (fs.at(0), fs.at(5), fs.at(9)) == (1, 2, 4)
    tab = parse_element("tab:9:1:2:3")
    assert (tab.at(0), tab.at(2), tab.at(3)) == (1, 3, 9)
    assert parse_element("mp").at(seqcode.encode([2])) == 0
    assert parse_element("dns1").at(0) == 0
    with pytest.raises(ValueError):
        parse_element("wat:1")
    for spec, bad in [
        ("const:", ""), ("fs:0:a=1", "a"), ("fs:0:1", ""), ("tab:1:٣", "٣"), ("tab:+1", "+1")
    ]:
        with pytest.raises(ValueError, match=f"^element spec '{re.escape(spec)}' takes naturals, not '{re.escape(bad)}'$"):
            parse_element(spec)


@pytest.mark.parametrize("spec", ["const:", "fs:0:a=1", "tab:1:٣"])
def test_realize_check_refuses_a_bad_element_spec(spec):
    code, out, err = run("realize", "check", "--formula", "0 = 0", "--realizer", spec)
    assert (code, out) == (1, "") and err.startswith(f"error: element spec '{spec}' takes naturals")


@given(
    st.one_of(st.text(), st.text(alphabet="0123456789٣_+-a")).filter(
        lambda text: not any(c.isspace() for c in text)
    )
)
def test_natural_reads_exactly_the_lexers_numerals(text):
    try:
        kinds = [t.kind for t in tokenize(text)]
    except ParseError:
        kinds = []
    try:
        natural(text, "numerals are ASCII digits")
        read = True
    except ValueError:
        read = False
    assert read == (kinds == ["NUM", "EOF"])


def test_parse_element_file_specs(tmp_path):
    fs_path = tmp_path / "fs.json"
    fs_path.write_text(json.dumps({"default": 3, "overrides": [[1, 5]]}))
    loaded = parse_element(f"file:{fs_path}")
    assert isinstance(loaded, FiniteSupport)
    assert (loaded.at(1), loaded.at(2)) == (5, 3)
    tab_path = tmp_path / "tab.json"
    tab_path.write_text(json.dumps({"prefix": [4, 4], "default": 1}))
    loaded = parse_element(f"file:{tab_path}")
    assert isinstance(loaded, Tabled)
    assert (loaded.at(0), loaded.at(5)) == (4, 1)


@pytest.mark.parametrize(
    "data",
    [
        [1, 2],
        "zero",
        {"prefix": 5},
        {"prefix": ["a"]},
        {"prefix": [1.5, 2]},
        {"prefix": [1], "default": True},
        {"overrides": 5},
        {"overrides": [[1]]},
        {"overrides": [[1, "a"]]},
        {"default": 1.5},
    ],
    ids=[
        "list", "string", "prefix-int", "prefix-str", "prefix-float", "default-bool",
        "overrides-int", "overrides-short", "overrides-str", "default-float",
    ],
)
def test_file_element_must_be_an_object_of_integers(tmp_path, data):
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(data))
    code, out, err = run("jump", "run", "1", "--alpha", f"file:{path}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "JSON" in err


def test_file_element_nested_too_deep_is_an_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run("jump", "run", "1", "--alpha", f"file:{path}")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "nested too deep" in err and "Traceback" not in err


def test_parse_env_forms():
    env = parse_env("x=3; y=0..2; zs=1,2,3; @a=const:1; @bs=zero,const:2")
    assert env["x"] == 3
    assert env["y"] == range(0, 3)
    assert env["zs"] == [1, 2, 3]
    assert env["@a"].at(0) == 1
    assert [e.at(0) for e in env["@bs"]] == [0, 2]
    assert parse_env(None) == {}
    assert parse_env("") == {}
    with pytest.raises(ValueError):
        parse_env("x")
    for text in ("x=-3", "x=-1..2", "x=0..-1", "x=1,-2"):
        with pytest.raises(ValueError, match="naturals"):
            parse_env(text)
    for text in ("x=1..", "xs=1,,2"):
        with pytest.raises(ValueError, match="^number variables range over the naturals, not ''$"):
            parse_env(text)
    for text, bad in [("x=a", "a"), ("x=٣", "٣"), ("y=1_0", "1_0"), ("z=+4", "+4"), ("x=-3", "-3")]:
        with pytest.raises(ValueError, match=f"^number variables range over the naturals, not '{re.escape(bad)}'$"):
            parse_env(text)


@pytest.mark.parametrize("hi", ["10000000000", "100000000000000000000000"])
def test_env_ranges_are_not_built_as_lists(hi):
    # x = 5 refutes the universal long before the end of the range
    argv = ("realize", "check", "--formula", "~ forall x. ~ x = 5", "--env", f"x=0..{hi}")
    assert run(*argv) == (0, "realized\n", "")


@pytest.mark.parametrize(
    "formula, env", [("x + 3 = 0", "x=-3"), ("@a(x) = 0", "x=-1;@a=zero")], ids=["sum", "apply"]
)
def test_realize_check_refuses_a_negative_number(formula, env):
    code, out, err = run("realize", "check", "--formula", formula, "--env", env)
    assert (code, out) == (1, "") and err.startswith("error: ") and "naturals" in err


def test_cli_and_acceptance_import_without_hypothesis():
    src = Path(bairelab.__file__).resolve().parent.parent
    code = (
        "import sys; sys.modules['hypothesis'] = None; "
        "import bairelab.acceptance, bairelab.cli"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
