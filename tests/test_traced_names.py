"""The benchmark's tracer wraps bairelab functions by name; they must exist.

`perfbench/tracer.py` lists them in `TRACED` as (module, attribute)
pairs.  The table is read with `ast`, so the test imports nothing from
perfbench and writes nothing there.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_names() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED":
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("no TRACED table in perfbench/tracer.py")


def test_every_traced_name_resolves():
    names = _traced_names()
    assert names
    for module_name, attr in names:
        owner = importlib.import_module(f"bairelab.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"bairelab.{module_name}.{attr} does not exist"
            owner = getattr(owner, part)
        assert callable(owner), f"bairelab.{module_name}.{attr} is not callable"
