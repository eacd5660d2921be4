"""Span tracing for the traced run, from outside the program.

`Tracer.install` replaces each traced bairelab function by a wrapper in
every module namespace that binds it, which is where its callers look it
up; methods are replaced on their class.  `uninstall` puts every
original back and checks that it did.  A span records the function, its
start and end, the span that was open when it began and the item being
run; spans live in flat arrays in memory and `write` saves them when the
run ends.

Some functions also get an observer, which turns the call's arguments
and result into one number per span (bits of a code, a verdict as 0/1,
fuel used).  Sums of those numbers give the per-layer counts.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

from workloads import tree_size

Observer = Callable[[tuple, Any], tuple[bool, float]]
"""Maps (args, result) to (hit, value): a verdict to count, and a size."""


def _bits(args: tuple, result: Any) -> tuple[bool, float]:
    return False, float(args[0].bit_length())


def _truthy(args: tuple, result: Any) -> tuple[bool, float]:
    return bool(result), 0.0


def _is_zero(args: tuple, result: Any) -> tuple[bool, float]:
    return result == 0, 0.0


def _k2_steps(args: tuple, result: Any) -> tuple[bool, float]:
    # fuel consumed by an application that never answers, else its modulus
    return result is not None, float(args[3] if result is None else result[1])


def _nodes(args: tuple, result: Any) -> tuple[bool, float]:
    return False, float(tree_size(result))


# (module, attribute, observer); "Class.method" names a method
TRACED: tuple[tuple[str, str, Optional[Observer]], ...] = (
    ("oracles", "classical_valid", None),
    ("oracles", "embed_prop", None),
    ("oracles", "project_prop", None),
    ("oracles", "ipc_provable", _truthy),
    ("negtrans", "neg_translate", None),
    ("negtrans", "is_negative", None),
    ("negtrans", "simplify_decidable_atoms", None),
    ("negtrans", "repair_bi_clause1", None),
    ("parser", "parse_formula", _nodes),
    ("printer", "format_formula", None),
    ("syntax", "subst_num", None),
    ("syntax", "free_vars", None),
    ("syntax", "canon", None),
    ("syntax", "alpha_eq", None),
    ("schemas", "instantiate", None),
    ("realize", "realizes_transform", None),
    ("realize", "check_realizes", None),
    ("realize", "k2_apply_info", _k2_steps),
    ("jump", "rho", _is_zero),
    ("jump", "bar_verify", None),
    ("machine", "t_check", _truthy),
    ("machine", "unpack_trace", None),
    ("machine", "run", None),
    ("machine", "pack_trace", None),
    ("seqcode", "decode", _bits),
    ("seqcode", "prime", None),
    ("seqcode", "bar", None),
    ("seqcode", "extend", _bits),
    ("baire", "Program.at", None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hit = array("b")
        self.value = array("d")
        self.current_item = -1
        self._stack = [-1]
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, label: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        nid = len(self.names)
        self.names.append(label)
        name, parent, item = self.name, self.parent, self.item
        start, end, hit, value = self.start, self.end, self.hit, self.value
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            item.append(self.current_item)
            hit.append(0)
            value.append(0.0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                h, value[idx] = observe(args, result)
                hit[idx] = h
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n.startswith("bairelab.") and m}
        for mod_name, attr, observe in TRACED:
            module = sys.modules.get(f"bairelab.{mod_name}")
            if module is None:
                continue
            label = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(label, original, observe))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(label, original, observe)
            for other in modules.values():
                for key, val in list(vars(other).items()):
                    if val is original:
                        self._patch(other, key, original, wrapper)

    def _patch(self, owner: Any, key: str, original: Any, wrapper: Any) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        for owner, key, original in self._patches:
            current = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            if current is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{key}")
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per traced function, over the spans of timed items: calls,
        inclusive seconds, self seconds and the sum of observed values."""
        n = len(self.name)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        covered = array("d", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        rows = [{"calls": 0, "s": 0.0, "self_s": 0.0, "hits": 0, "value": 0.0} for _ in self.names]
        for i in range(n):
            if self.item[i] < 0:
                continue
            row = rows[self.name[i]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - covered[i]
            row["hits"] += self.hit[i]
            row["value"] += self.value[i]
        return dict(zip(self.names, rows))

    def write(self, stem: Path) -> None:
        """Save spans as <stem>.bin (the arrays back to back) and a JSON
        header <stem>.json naming the functions and the array layout."""
        fields = ("name", "parent", "item", "start", "end", "hit", "value")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        header = {
            "count": len(self.name),
            "names": self.names,
            "arrays": [{"field": f, "typecode": getattr(self, f).typecode} for f in fields],
            "byteorder": sys.byteorder,
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
