"""The capability table matches what the kernel factories actually reject.

Sweeps every registered method over both machine presets, every benchmark
stencil and a spread of conforming and odd interiors (2D and 3D): a cell
must fail to build exactly when ``tests/capabilities.py`` lists it, with the
listed message.  A new rejection, or a capability gained, fails here first.
"""

from __future__ import annotations

import re

import pytest

from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.machine.config import LX2, M4
from repro.machine.memory import MemorySpace
from repro.stencils.grid import Grid2D, Grid3D
from repro.stencils.library import BENCHMARKS, benchmark
from tests.capabilities import expected_rejections

#: Interiors (rows, cols): conforming for every method, then each kind of
#: misfit -- odd columns, rows off the 4/8 grids, columns off 8 * unroll_j.
SHAPES = [(32, 32), (21, 27), (16, 40), (18, 32), (36, 48), (8, 8)]


@pytest.mark.parametrize("machine", [LX2, M4], ids=["LX2", "M4"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_table_matches_factories(method, machine):
    config = machine()
    options = KernelOptions(unroll_j=2)
    for name in BENCHMARKS:
        spec = benchmark(name)
        for rows, cols in SHAPES:
            mem = MemorySpace()
            if spec.ndim == 2:
                src = Grid2D(mem, rows, cols, spec.radius, "A")
                dst = Grid2D(mem, rows, cols, spec.radius, "B")
            else:
                src = Grid3D(mem, 2, rows, cols, spec.radius, "A")
                dst = Grid3D(mem, 2, rows, cols, spec.radius, "B")
            rules = expected_rejections(method, spec, config, rows, cols, options.unroll_j)
            cell = f"{method} {config.name} {name} {rows}x{cols}"
            try:
                make_kernel(method, spec, src, dst, config, options)
            except ValueError as exc:
                assert rules, f"{cell}: unlisted rejection: {exc}"
                assert any(re.search(r.message, str(exc)) for r in rules), (
                    f"{cell}: rejected for an unlisted reason: {exc}"
                )
            else:
                assert not rules, f"{cell}: listed as rejected but builds"
