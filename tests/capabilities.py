"""Which (method, machine, shape) cells the kernel factories reject, and why.

The table lists every rejection the factories make, so that a test sweep
never reads a new rejection as "not applicable".  :func:`build_or_skip`
skips only a listed cell whose error message matches the listed reason,
and fails on everything else: an unlisted rejection, a listed rejection
raised for a different reason, and a listed cell that builds (the table is
stale and must shrink).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional

import pytest

from repro.isa.registers import SVL_LANES
from repro.kernels.base import KernelOptions
from repro.kernels.registry import make_kernel
from repro.machine.config import MachineConfig
from repro.stencils.spec import StencilSpec

#: Registry names that route to the hybrid kernel family.
HYBRID = frozenset({"hstencil", "hstencil-nosched", "hstencil-prefetch", "hstencil-noprefetch"})

#: Methods whose kernel walks 8-row tile panels, one tile per unrolled column.
PANEL = frozenset({"matrix-only", "mat-ortho", "hstencil-naive"})


@dataclass(frozen=True)
class Rejection:
    methods: FrozenSet[str]
    #: ``applies(spec, config, rows, cols, unroll_j)``
    applies: Callable[[StencilSpec, MachineConfig, int, int, int], bool]
    reason: str
    #: Regex the factory's ``ValueError`` message must match.
    message: str


def _m4_route(spec: StencilSpec, config: MachineConfig) -> bool:
    """Hybrid star stencils on a machine without vector FMLA use the M-MLA
    kernel (``hstencil-m4``)."""
    return spec.pattern == "star" and not config.has_vector_fmla


def _panel_misfit(rows: int, cols: int, unroll_j: int) -> bool:
    return cols % (SVL_LANES * unroll_j) != 0 or rows % SVL_LANES != 0


REJECTIONS = (
    Rejection(
        frozenset({"vector-only", "hstencil-naive"}),
        lambda spec, config, rows, cols, w: not config.has_vector_fmla,
        "machine has no vector FMLA",
        r"no vector[- ]FMLA",
    ),
    Rejection(
        frozenset({"mat-ortho", "hstencil-naive"}),
        lambda spec, config, rows, cols, w: spec.pattern != "star",
        "star stencils only",
        r"star stencils",
    ),
    Rejection(
        frozenset({"mat-ortho", "hstencil-naive"}),
        lambda spec, config, rows, cols, w: spec.ndim == 3,
        "no 3D kernel",
        r"does not support 3D",
    ),
    Rejection(
        HYBRID,
        lambda spec, config, rows, cols, w: _m4_route(spec, config) and spec.ndim == 3,
        "hstencil-m4 has no 3D kernel",
        r"does not support 3D",
    ),
    Rejection(
        frozenset({"auto", "vector-only"}),
        lambda spec, config, rows, cols, w: cols % SVL_LANES != 0,
        f"interior columns not a multiple of {SVL_LANES} (no tail predication)",
        rf"interior columns \(\d+\) must be a multiple of {SVL_LANES}$",
    ),
    Rejection(
        frozenset({"vector-only"}),
        lambda spec, config, rows, cols, w: rows % 4 != 0,
        "interior rows not a multiple of 4 (no tail predication)",
        r"interior rows \(\d+\) must be a multiple of 4$",
    ),
    Rejection(
        PANEL,
        lambda spec, config, rows, cols, w: _panel_misfit(rows, cols, w),
        "interior not a whole number of tile panels (no tail predication)",
        r"interior (rows|columns) \(\d+\) must be a multiple of \d+$",
    ),
    Rejection(
        HYBRID,
        lambda spec, config, rows, cols, w: _m4_route(spec, config)
        and _panel_misfit(rows, cols, w),
        "hstencil-m4 interior not a whole number of tile panels (no tail predication)",
        r"interior (rows|columns) \(\d+\) must be a multiple of \d+$",
    ),
    Rejection(
        frozenset({"auto"}),
        lambda spec, config, rows, cols, w: len(list(spec.taps())) > 12 * SVL_LANES,
        "more taps than coefficient registers",
        r"taps exceed coefficient register capacity",
    ),
    Rejection(
        frozenset({"vector-only"}),
        lambda spec, config, rows, cols, w: len(list(spec.taps())) > 8 * SVL_LANES,
        "more taps than coefficient registers",
        r"too many taps",
    ),
)


def expected_rejections(
    method: str, spec: StencilSpec, config: MachineConfig, rows: int, cols: int, unroll_j: int
) -> List[Rejection]:
    """Every listed rejection that applies to this cell (empty: it must build)."""
    return [
        rule
        for rule in REJECTIONS
        if method in rule.methods and rule.applies(spec, config, rows, cols, unroll_j)
    ]


def build_or_skip(method, spec, config, rows, cols, unroll_j, build):
    """``build()``, skipping exactly the cells the table lists as rejected."""
    rules = expected_rejections(method, spec, config, rows, cols, unroll_j)
    if not rules:
        return build()  # any rejection here is unlisted and fails the test
    try:
        build()
    except ValueError as exc:
        for rule in rules:
            if re.search(rule.message, str(exc)):
                pytest.skip(f"{method} on {config.name} {rows}x{cols}: {rule.reason}")
        raise
    pytest.fail(
        f"{method} on {config.name} {rows}x{cols} built, but tests/capabilities.py "
        f"lists it as rejected ({'; '.join(r.reason for r in rules)}); update the table"
    )


def make_kernel_or_skip(method, spec, src, dst, config, options: Optional[KernelOptions] = None):
    """``make_kernel`` through :func:`build_or_skip`."""
    options = options or KernelOptions()
    return build_or_skip(
        method, spec, config, src.rows, src.cols, options.unroll_j,
        lambda: make_kernel(method, spec, src, dst, config, options),
    )
