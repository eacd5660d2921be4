"""Pins of the seeded generators' streams.

Acceptance criteria 2 and 3 and the benchmark's item lists are drawn
from these streams, so a change to a generator must not reorder or
redraw them.  Each digest is the SHA-256 of the printed formulas, one
per line, recorded from the generators as they stand.
"""

import hashlib
import random

from bairelab.gen import enumerate_prop_formulas, random_formula, random_qf_formula
from bairelab.printer import format_formula
from strategies import format_prop


def _digest(lines: list[str]) -> tuple[int, str]:
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_random_formula_stream_is_pinned():
    lines = []
    for seed in range(300):
        rng = random.Random(seed)
        lines.extend(format_formula(random_formula(rng, d)) for d in range(5) for _ in range(6))
    assert _digest(lines) == (
        9000,
        "bc13e3eea938d18239b48e2e9a295e3519a35fd34ede03f2918a20deb9e735b9",
    )


def test_random_qf_formula_stream_is_pinned():
    lines = []
    for seed in range(100):
        rng = random.Random(seed)
        lines.extend(format_formula(random_qf_formula(rng, d, num_vars=("w",))) for d in range(5))
    assert _digest(lines) == (
        500,
        "c64563f31c900d67dcb6479087da7ca9f56bee5254f9321406f1940dac941ba9",
    )


def test_enumerate_prop_formulas_order_is_pinned():
    lines = [format_prop(f) for f in enumerate_prop_formulas(3, 5)]
    assert _digest(lines) == (
        28179,
        "da0f86a3990ec695e0ea0a51fd4eaa1c5305578a16c25ef5900c0a58690a98b5",
    )
