"""Every public name in the package has a caller outside the tests.

`src/bairelab` keeps only what the CLI, the acceptance gate and the
benchmark call.  A public top-level name of a module there must be read,
as a name, an attribute or an import, somewhere in the package outside its
own definition, or somewhere in `perfbench/`.  The sources are read with
`ast`, so the test imports nothing from perfbench.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bairelab"


def _defined(stmt: ast.stmt) -> list[str]:
    match stmt:
        case ast.FunctionDef(name=name) | ast.ClassDef(name=name):
            return [name]
        case ast.Assign(targets=targets):
            return [t.id for t in targets if isinstance(t, ast.Name)]
        case ast.AnnAssign(target=ast.Name(id=name)):
            return [name]
    return []


def _read(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for n in ast.walk(node):
        match n:
            case ast.Name(id=name) | ast.Attribute(attr=name):
                names.add(name)
            case ast.ImportFrom(names=aliases):
                names.update(a.name for a in aliases)
    return names


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_name_has_a_caller_outside_the_tests():
    modules = {path: _tree(path) for path in PACKAGE.glob("*.py")}
    bench = set().union(*(_read(_tree(p)) for p in (ROOT / "perfbench").glob("*.py")))
    unread = []
    for path, tree in sorted(modules.items()):
        elsewhere = bench.union(*(_read(t) for p, t in modules.items() if p != path))
        reads = [_read(stmt) for stmt in tree.body]
        for i, stmt in enumerate(tree.body):
            read_here = set().union(*(r for j, r in enumerate(reads) if j != i))
            for name in _defined(stmt):
                if not name.startswith("_") and name not in elsewhere | read_here:
                    unread.append(f"{path.stem}.{name}")
    assert not unread, f"public names that only tests read: {unread}"
