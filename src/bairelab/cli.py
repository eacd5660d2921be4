"""Command line front end.

One executable, subcommands per module: parsing and printing, sequence
codes, schema instantiation, the double negation translation, the
propositional oracles, realizability checking, the jump demo, and bar
exploration.  dispatch() returns a process exit code: 0 on success, 1
for domain errors (reported as "error: ..." on stderr), 2 for usage
errors (argparse's convention).

Every result line goes through _out, the one place that reads the
top-level --machine flag: plain text by default, a key=value record per
fact under --machine, where the text form may fold several facts into
one line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Optional

from . import seqcode
from .baire import BaireElement, FiniteSupport, Tabled
from .errors import BairelabError, natural
from .jump import (
    BUILTIN_BASES,
    BUILTIN_RHOS,
    BUILTIN_STEPS,
    Barred,
    DepthExhausted,
    bar_recurse,
    bar_verify,
    build_beta,
    rho,
    oracle_rho,
)
from .machine import Diverges, Halts, certify, load_registry, registry_programs
from .negtrans import neg_translate, repair_bi_clause1, simplify_decidable_atoms
from .oracles import classical_valid, ipc_provable, kripke_countermodel
from .parser import parse_formula, parse_prop
from .printer import format_formula, to_sexpr
from .realize import (
    check_realizes,
    dns1_realizer,
    mp_realizer,
    realizes_transform,
)
from .schemas import PAPER_MP_DISPLAY, SchemaError, SchemaKind, instantiate, theory_schemas


# --- argument decoding -------------------------------------------------------


def parse_element(spec: str) -> BaireElement:
    """Decode an element description.

    zero | const:N | fs:DEFAULT[:k=v]... | tab:DEFAULT[:v]... | mp | dns1
    | file:PATH (a JSON object with "default" plus "overrides" or "prefix").
    """
    head, _, rest = spec.partition(":")
    num = lambda text: natural(text, f"element spec {spec!r} takes naturals")  # noqa: E731
    match head:
        case "zero":
            return FiniteSupport((), 0)
        case "mp":
            return mp_realizer()
        case "dns1":
            return dns1_realizer()
        case "const":
            return FiniteSupport((), num(rest))
        case "fs":
            default, *paired = rest.split(":")
            overrides = []
            for pair in paired:
                k, _, v = pair.partition("=")
                overrides.append((num(k), num(v)))
            return FiniteSupport(tuple(overrides), num(default))
        case "tab":
            default, *values = rest.split(":")
            return Tabled(tuple(map(num, values)), num(default))
        case "file":
            with open(rest, encoding="utf-8") as fh:
                try:
                    return _json_element(json.load(fh))
                except RecursionError:
                    raise ValueError(f"{rest}: JSON nested too deep to read") from None
    raise ValueError(f"unknown element spec {spec!r}")


def _json_element(data: object) -> BaireElement:
    """{"prefix": [v, ...]} or {"overrides": [[k, v], ...]}, each with an
    optional "default"; every number must be a JSON integer."""
    if not isinstance(data, dict):
        raise ValueError("a file: element must be a JSON object")
    default = data.get("default", 0)
    prefix, pairs = data.get("prefix", []), data.get("overrides", [])
    if not (_ints([default]) and _ints(prefix) and isinstance(pairs, list)
            and all(_ints(p) and len(p) == 2 for p in pairs)):
        raise ValueError('a file: element needs JSON integers in "default", "prefix", "overrides"')
    if "prefix" in data:
        return Tabled(tuple(prefix), default)
    return FiniteSupport(tuple(map(tuple, pairs)), default)


def _ints(value: object) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)  # not bool


def _parse_env_value(name: str, text: str) -> object:
    if name.startswith("@"):
        if "," in text:
            return [parse_element(part) for part in text.split(",")]
        return parse_element(text)
    num = lambda text: natural(text, "number variables range over the naturals")  # noqa: E731
    if ".." in text:
        lo, _, hi = text.partition("..")
        return range(num(lo), num(hi) + 1)
    if "," in text:
        return [num(part) for part in text.split(",")]
    return num(text)


def parse_env(text: Optional[str]) -> dict[str, object]:
    """Decode ``name=value;name=value`` environment bindings.

    Values: a natural, ``lo..hi`` (inclusive range), a comma list of
    naturals, or (for @names) element specs, comma-separated for a
    quantifier range.
    """
    env: dict[str, object] = {}
    if not text:
        return env
    for binding in text.split(";"):
        binding = binding.strip()
        if not binding:
            continue
        name, eq, value = binding.partition("=")
        if not eq:
            raise ValueError(f"malformed binding {binding!r}; expected name=value")
        env[name.strip()] = _parse_env_value(name.strip(), value.strip())
    return env


def _rho_from_spec(args: argparse.Namespace) -> Callable[[int], int]:
    spec = args.rho
    head, _, name = spec.partition(":")
    if head == "builtin":
        try:
            return BUILTIN_RHOS[name]
        except KeyError:
            raise ValueError(
                f"unknown builtin rho {name!r}; known: {', '.join(sorted(BUILTIN_RHOS))}"
            ) from None
    if spec == "oracle":
        alpha = parse_element(args.alpha)
        programs = registry_programs(load_registry(args.registry))
        return oracle_rho(alpha, programs)
    raise ValueError(f"unknown rho spec {spec!r}; use builtin:NAME or oracle")


def _out(args: argparse.Namespace, key: str, value: object, text: object = ...) -> None:
    """One result line: key=value under --machine, else text, which defaults
    to the bare value; a line whose text is None exists only under --machine."""
    shown = str(value).lower() if isinstance(value, bool) else value
    if args.machine:
        print(f"{key}={_decimal(shown)}")
    elif text is not None:
        print(_decimal(shown) if text is ... else text)


def _counted(minimum: int) -> Callable[[str], int]:
    """An argparse type for an int of at least minimum, in ASCII digits."""

    def count(text: str) -> int:
        try:
            value = natural(text.removeprefix("-"), "must be ASCII digits")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if text.startswith("-"):
            value = -value
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, not {value}")
        return value

    return count


_TOO_LONG = "result too large to print: about {:,} decimal digits, over the limit of {:,}"


def _decimal(value: object) -> str:
    """str(value), refusing in bairelab's words an int too long to print."""
    try:
        return str(value)
    except ValueError:  # only an int past sys.get_int_max_str_digits()
        digits = int(value.bit_length() * math.log10(2)) + 1  # type: ignore[attr-defined]
        raise ValueError(_TOO_LONG.format(digits, sys.get_int_max_str_digits())) from None


def _seq_code(entries: list[int]) -> int:
    """The code of entries, refused before it is built when it is too long to print."""
    limit = sys.get_int_max_str_digits()
    # a code of more than limit * log2(10) + 1 bits has more than limit digits
    max_bits = int(limit * math.log2(10)) + 2 if limit else None
    try:
        return seqcode.encode(entries, max_bits=max_bits)
    except seqcode.SeqOverflow:  # estimate log10 of the code, in integer units of 1e-12
        logs = [round(1e12 * math.log10(seqcode.prime(i))) for i in range(len(entries))]
        log10 = sum((x + 1) * m for x, m in zip(entries, logs) if x >= 0)
        raise ValueError(_TOO_LONG.format(log10 // 10**12 + 1, limit)) from None


# --- handlers ----------------------------------------------------------------


def _cmd_parse(args: argparse.Namespace) -> int:
    f = parse_formula(args.formula)
    if args.ast:
        _out(args, "sexpr", to_sexpr(f))
    else:
        _out(args, "formula", format_formula(f))
    return 0


def _cmd_seq_encode(args: argparse.Namespace) -> int:
    _out(args, "code", _seq_code(args.entries))
    return 0


def _cmd_seq_decode(args: argparse.Namespace) -> int:
    entries = seqcode.decode(args.code)
    if entries is None:
        _out(args, "ok", False, "none")
    else:
        _out(args, "ok", True, " ".join(map(str, entries)) or "(empty)")
        _out(args, "entries", ",".join(map(str, entries)), None)
    return 0


def _cmd_seq_concat(args: argparse.Namespace) -> int:
    _out(args, "code", _seq_code(seqcode._entries(args.left) + seqcode._entries(args.right)))
    return 0


def _cmd_seq_bar(args: argparse.Namespace) -> int:
    alpha = parse_element(args.alpha)
    _out(args, "code", _seq_code([alpha.at(i) for i in range(args.length)]))
    return 0


def _parse_binding(items: Optional[list[str]]) -> dict[str, str]:
    binding: dict[str, str] = {}
    for item in items or []:
        for piece in item.split(","):
            role, eq, name = piece.partition("=")
            if not eq:
                raise ValueError(f"malformed --bind {piece!r}; expected role=name")
            binding[role.strip()] = name.strip()
    return binding


def _cmd_schema(args: argparse.Namespace) -> int:
    if args.theory:
        info = theory_schemas(args.theory)
        kinds = sorted(k.value for k in info.schemas)
        _out(args, "schemas", ",".join(kinds), " ".join(kinds))
        for i, note in enumerate(info.notes):
            _out(args, f"note.{i}", note, f"note: {note}")
        return 0
    if args.kind is None:
        raise ValueError("give a schema kind or --theory NAME")
    try:
        kind = SchemaKind(args.kind.lower())
    except ValueError:
        known = ", ".join(k.value for k in SchemaKind)
        raise SchemaError(f"unknown schema kind {args.kind!r}; known: {known}") from None
    if args.paper_literal:
        if kind is not SchemaKind.MP:
            raise SchemaError("only the Markov schema has a pinned literal display")
        _out(args, "display", PAPER_MP_DISPLAY)
        return 0
    body = parse_formula(args.body) if args.body else None
    instance = instantiate(kind, body, _parse_binding(args.bind))
    _out(args, "instance", format_formula(instance))
    return 0


def _cmd_translate_neg(args: argparse.Namespace) -> int:
    f = neg_translate(parse_formula(args.formula))
    if args.simplify_decidable_atoms:
        f = simplify_decidable_atoms(f)
    if args.repair_bi:
        f = repair_bi_clause1(f)
    _out(args, "formula", format_formula(f))
    return 0


def _cmd_oracle_classical(args: argparse.Namespace) -> int:
    valid = classical_valid(parse_prop(args.prop))
    _out(args, "valid", valid, "valid" if valid else "not valid")
    return 0


def _cmd_oracle_ipc(args: argparse.Namespace) -> int:
    f = parse_prop(args.prop)
    provable = ipc_provable(f)
    _out(args, "provable", provable, "provable" if provable else "not provable")
    model = None if provable else kripke_countermodel(f)
    if model is not None:
        _out(args, "countermodel.worlds", model.size, f"countermodel on {model.size} worlds")
        for atom in sorted(model.valuation):
            worlds = [str(w) for w in sorted(model.valuation[atom])]
            text = f"  {atom} holds at: {' '.join(worlds) or '(nowhere)'}"
            _out(args, f"countermodel.{atom}", ",".join(worlds), text)
    return 0


def _cmd_realize_check(args: argparse.Namespace) -> int:
    realizer = parse_element(args.realizer)
    env = parse_env(args.env)
    verdict = check_realizes(realizer, parse_formula(args.formula), env, args.fuel)
    status, witness, note = verdict.status.value, verdict.witness, verdict.note
    text = status + ("" if witness is None else f" witness {witness}") + (note and f" ({note})")
    _out(args, "status", status, text)
    if witness is not None:
        _out(args, "witness", witness, None)
    if note:
        _out(args, "note", note, None)
    return 0


def _cmd_realize_transform(args: argparse.Namespace) -> int:
    f = realizes_transform(parse_formula(args.formula), args.eps)
    _out(args, "formula", format_formula(f))
    return 0


def _cmd_jump_run(args: argparse.Namespace) -> int:
    alpha = parse_element(args.alpha)
    programs = registry_programs(load_registry(args.registry))
    _out(args, "value", rho(args.code, alpha, programs))
    return 0


_BETA_BITS = 65_536  # beta prefix codes at --upto 21 reach 52,197 bits (const:5)


def _cmd_jump_demo(args: argparse.Namespace) -> int:
    alpha = parse_element(args.alpha)
    programs = registry_programs(load_registry(args.registry))
    known = {k: programs[k] for k in range(args.upto) if k in programs}
    h = certify(known, alpha, args.fuel)
    for (e, _x), claim in sorted(h.items()):
        match claim:
            case Halts(trace, output):
                value = f"halts trace={trace} output={output}"
                text = f"program {e}: halts, trace {trace}, output {output}"
            case Diverges():
                value, text = "diverges", f"program {e}: diverges"
        _out(args, f"program.{e}", value, text)
    beta = build_beta(alpha, h, args.upto)
    prefix = [str(v) for v in beta.prefix]
    codes = [seqcode.bar(beta.at, j, max_bits=_BETA_BITS) for j in range(len(prefix) + 1)]
    _out(args, "beta", ",".join(prefix), "beta prefix: " + " ".join(prefix))
    survived = all(rho(code, alpha, programs) == 1 for code in codes)
    yn = "yes" if survived else "NO"
    text = f"rho keeps every beta prefix up to length {len(prefix)}: {yn}"
    _out(args, "survives", survived, text)
    return 0 if survived else 1


def _cmd_bar_verify(args: argparse.Namespace) -> int:
    match bar_verify(_rho_from_spec(args), args.branching, args.depth):
        case Barred(max_depth):
            _out(args, "barred", True, f"barred at depth {max_depth}")
            _out(args, "depth", max_depth, None)
        case DepthExhausted(path):
            _out(args, "barred", False, "depth exhausted along " + " ".join(map(str, path)))
            _out(args, "path", ",".join(map(str, path)), None)
    return 0


def _cmd_bar_recurse(args: argparse.Namespace) -> int:
    value = bar_recurse(
        _rho_from_spec(args),
        BUILTIN_BASES[args.base],
        BUILTIN_STEPS[args.step],
        args.branching,
        args.depth,
    )
    _out(args, "value", value)
    return 0


def _cmd_acceptance_run(args: argparse.Namespace) -> int:
    from . import acceptance

    results = acceptance.run_all(only=args.only)
    for r in results:
        _out(args, f"criterion.{r.number}", "pass" if r.passed else "fail", r.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bairelab")
    top.add_argument(
        "--machine", action="store_true", help="emit line-oriented key=value output"
    )
    sub = top.add_subparsers(dest="command", required=True)
    alpha_opts = argparse.ArgumentParser(add_help=False)
    alpha_opts.add_argument("--alpha", default="zero")
    oracle_opts = argparse.ArgumentParser(add_help=False, parents=[alpha_opts])
    oracle_opts.add_argument("--registry")
    tree_opts = argparse.ArgumentParser(add_help=False)
    tree_opts.add_argument("--rho", required=True)
    tree_opts.add_argument("-b", "--branching", type=_counted(1), required=True)
    tree_opts.add_argument("-d", "--depth", type=_counted(1), required=True)

    p = sub.add_parser("parse", aliases=["print"], help="parse a formula and print it back")
    p.add_argument("formula")
    p.add_argument("--ast", action="store_true", help="print the s-expression")
    p.set_defaults(handler=_cmd_parse)

    seq = sub.add_parser("seq", help="prime power sequence codes")
    seqsub = seq.add_subparsers(dest="seq_command", required=True)
    p = seqsub.add_parser("encode")
    p.add_argument("entries", nargs="*", type=_counted(0))
    p.set_defaults(handler=_cmd_seq_encode)
    p = seqsub.add_parser("decode")
    p.add_argument("code", type=_counted(0))
    p.set_defaults(handler=_cmd_seq_decode)
    p = seqsub.add_parser("concat")
    p.add_argument("left", type=_counted(0))
    p.add_argument("right", type=_counted(0))
    p.set_defaults(handler=_cmd_seq_concat)
    p = seqsub.add_parser("bar", parents=[alpha_opts])
    p.add_argument("length", type=_counted(0))
    p.set_defaults(handler=_cmd_seq_bar)

    p = sub.add_parser("schema", help="instantiate an axiom schema")
    p.add_argument("kind", nargs="?")
    p.add_argument("--body")
    p.add_argument("--bind", action="append", metavar="ROLE=NAME[,ROLE=NAME]")
    p.add_argument("--paper-literal", action="store_true")
    p.add_argument("--theory")
    p.set_defaults(handler=_cmd_schema)

    p = sub.add_parser("translate-neg", help="double negation translation")
    p.add_argument("formula")
    p.add_argument("--simplify-decidable-atoms", action="store_true")
    p.add_argument("--repair-bi", action="store_true")
    p.set_defaults(handler=_cmd_translate_neg)

    oracle = sub.add_parser("oracle", help="propositional oracles")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    p = osub.add_parser("classical")
    p.add_argument("prop")
    p.set_defaults(handler=_cmd_oracle_classical)
    p = osub.add_parser("ipc")
    p.add_argument("prop")
    p.set_defaults(handler=_cmd_oracle_ipc)

    realize = sub.add_parser("realize", help="realizability checking")
    rsub = realize.add_subparsers(dest="realize_command", required=True)
    p = rsub.add_parser("check")
    p.add_argument("--formula", required=True)
    p.add_argument("--realizer", default="zero")
    p.add_argument("--env")
    p.add_argument("--fuel", type=_counted(1), default=1000)
    p.set_defaults(handler=_cmd_realize_check)
    p = rsub.add_parser("transform")
    p.add_argument("formula")
    p.add_argument("--eps", default="@e")
    p.set_defaults(handler=_cmd_realize_transform)

    jump = sub.add_parser("jump", help="the pruning function and the jump sequence")
    jsub = jump.add_subparsers(dest="jump_command", required=True)
    p = jsub.add_parser("run", parents=[oracle_opts])
    p.add_argument("code", type=_counted(0))
    p.set_defaults(handler=_cmd_jump_run)
    p = jsub.add_parser("demo", parents=[oracle_opts])
    p.add_argument("--upto", type=_counted(0), default=8)
    p.add_argument("--fuel", type=_counted(1), default=100_000)
    p.set_defaults(handler=_cmd_jump_demo)

    bar = sub.add_parser("bar", help="bar verification and bar recursion")
    bsub = bar.add_subparsers(dest="bar_command", required=True)
    p = bsub.add_parser("verify", parents=[tree_opts, oracle_opts])
    p.set_defaults(handler=_cmd_bar_verify)
    p = bsub.add_parser("recurse", parents=[tree_opts, oracle_opts])
    p.add_argument("--base", default="one", choices=sorted(BUILTIN_BASES))
    p.add_argument("--step", default="sum", choices=sorted(BUILTIN_STEPS))
    p.set_defaults(handler=_cmd_bar_recurse)

    acc = sub.add_parser("acceptance", help="the acceptance gate")
    asub = acc.add_subparsers(dest="acceptance_command", required=True)
    p = asub.add_parser("run")
    from .acceptance import CRITERIA  # imported here: acceptance imports cli
    p.add_argument("--only", type=_counted(0), choices=range(1, len(CRITERIA) + 1), metavar="N")
    p.set_defaults(handler=_cmd_acceptance_run)

    return top


def dispatch(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (BairelabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
