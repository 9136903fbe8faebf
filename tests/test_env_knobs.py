"""Inventory of the ``REPRO_*`` environment knobs the package reads.

Adding or retiring a knob means editing :data:`KNOBS` here, so every
change to the environment surface is one explicit line in one place.
"""

import re
from pathlib import Path

import repro

#: Every ``REPRO_*`` string literal under ``src/repro``.
KNOBS = {
    "REPRO_ARTIFACTS",
    "REPRO_BENCH_CACHE",
    "REPRO_ENGINE",
    "REPRO_MEMO",
    "REPRO_STEADY",
    "REPRO_TIMING",
}


def test_env_knob_inventory():
    literal = re.compile(r"""["'](REPRO_[A-Z_]+)["']""")
    found = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        found.update(literal.findall(path.read_text()))
    assert found == KNOBS
