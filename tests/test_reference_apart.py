"""The gate's oracles share only an allow-listed vocabulary with the code they check.

`bairelab.reference` holds the oracles the acceptance gate judges
constructions against.  An oracle that called a construction would agree
with it whatever it did, so the module may import from bairelab only the
names in ALLOWED, and anything from the modules in OPEN.  A whole-module
import (`from . import machine`) would open every name, so it fails
unless the module is open; a plain `import bairelab...` always fails,
since it binds the package.  The standard library is free.  The source
is read with `ast`, so the checker sees import statements; any change to
the allow-list goes into CHANGES.md.
"""

import ast
from pathlib import Path

import pytest

from bairelab import syntax

REFERENCE = Path(__file__).resolve().parent.parent / "src" / "bairelab" / "reference.py"

NODE_CLASSES = frozenset(
    "Zero Succ NumVar Add Mul Apply Pair SeqExt PrefixCode FnVar Lambda ContApply "
    "Eq And Or Imp Not ForallN ExistsN ForallF ExistsF BForallN BExistsN".split()
)
ALLOWED = {
    "syntax": NODE_CLASSES,
    "machine": frozenset({"Inc", "Dec", "Jz", "Query", "Halt", "pack_trace"}),
    "baire": frozenset({"FiniteSupport", "Tabled"}),
}
OPEN = frozenset({"errors"})


def _submodule(dotted: str) -> str | None:
    """The bairelab module that dotted names, "" for the package itself,
    or None when it lies outside bairelab."""
    head, _, rest = dotted.partition(".")
    return rest if head == "bairelab" else None


def forbidden(source: str) -> list[str]:
    """Each bairelab name or module that source imports past the allow-list."""
    bad = []
    for node in ast.walk(ast.parse(source)):
        match node:
            case ast.Import(names=aliases):  # binds the package or a whole module
                bad += [a.name for a in aliases if _submodule(a.name) is not None]
            case ast.ImportFrom(module=module, level=level, names=aliases):
                if level > 1:
                    bad.append("." * level + (module or ""))
                    continue
                module = (module or "") if level else _submodule(module or "")
                if module is None or module in OPEN:
                    continue
                for alias in aliases:
                    if module == "" and alias.name not in OPEN:  # a whole module
                        bad.append(f"bairelab.{alias.name}")
                    elif module and alias.name not in ALLOWED.get(module, ()):
                        bad.append(f"bairelab.{module}.{alias.name}")
    return bad


def test_the_allow_list_names_the_syntax_node_classes():
    assert NODE_CLASSES == {cls.__name__ for cls in syntax._SHAPES}
    assert len(NODE_CLASSES) == 23


def test_reference_imports_only_allowed_names():
    assert forbidden(REFERENCE.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("from .machine import _steps", ["bairelab.machine._steps"]),
        ("from . import seqcode", ["bairelab.seqcode"]),
        ("from .realize import check_realizes", ["bairelab.realize.check_realizes"]),
        ("from . import machine", ["bairelab.machine"]),
        ("import bairelab.seqcode", ["bairelab.seqcode"]),
        ("import bairelab", ["bairelab"]),
        ("import bairelab.errors", ["bairelab.errors"]),
        ("from bairelab import jump", ["bairelab.jump"]),
        ("from bairelab.machine import pack_trace, certify", ["bairelab.machine.certify"]),
        ("from .machine import *", ["bairelab.machine.*"]),
        ("from .. import bairelab", [".."]),
        ("def f():\n    from .seqcode import encode\n", ["bairelab.seqcode.encode"]),
    ],
)
def test_the_checker_flags_each_forbidden_import(source, flagged):
    assert forbidden(source) == flagged


@pytest.mark.parametrize(
    "source",
    [
        "from __future__ import annotations\nimport math\nfrom itertools import product",
        "from .syntax import Eq, ForallN, Zero",
        "from bairelab.machine import Dec, Halt, Inc, Jz, Query, pack_trace",
        "from .baire import FiniteSupport, Tabled",
        "from .errors import BairelabError, natural\nfrom . import errors",
        "from bairelab.errors import *",
    ],
)
def test_the_checker_passes_allowed_imports(source):
    assert forbidden(source) == []
