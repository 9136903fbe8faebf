"""The benchmark's workloads: which simulator calls each one makes.

A workload is a fixed list of cells.  A cell is one call into the
simulator's public API -- a timed kernel, a multicore strong-scaling sweep,
or a functional run checked against the NumPy reference.  The seed only
shuffles the cell order and picks each functional cell's input field from a
small pool, so every seed's outputs are covered by the recorded goldens.

Why each workload exists.  Each one loads some layers and bypasses others,
so an optimisation of one layer shows on one workload and should leave the
other unchanged:

* ``incache_exact`` -- full-grid timing only.  fig12/fig17 in-cache cells
  at 64x64 (16 measured passes, warm): the working set stays inside L2 and
  passes repeat, so template fitting, lowering, the pass memo, columnar
  first-pass replay and chunk codegen do the work.  Plus two exact
  (unsampled) slabs: hstencil box2d25p 512x512, where steady elision does
  nearly all the work, and box3d27p 8x64x64 (unroll_j=8), where it detects
  but never engages, so a 3D fix cannot hide a 2D loss.  No sampling, no
  multicore model, no functional engine.
* ``ooc_functional`` -- fig15 box2d25p at 2048x2048, band-sampled, with and
  without spatial prefetch, and the fig16 strong-scaling sweep of
  hstencil-prefetch box2d9p over 1, 2 and 4 cores: the working set is far
  larger than L2, so the columnar memory walk (cache and prefetcher) and
  the fitting of wide row blocks dominate, and the pass memo and steady
  elision never fire.  Plus StencilIterator / HStencil.apply runs checked
  against the NumPy reference -- the only cells that run the functional
  engine, batched replay and functional codegen; they re-fit templates on
  every step, so reuse across calls shows.

The grids are smaller than the paper's so that one run can repeat every
process several times within its time budget.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Functional cells draw their input field from this many seeded variants;
#: the goldens hold an output digest for every variant.
FIELD_POOL = 3


@dataclass(frozen=True)
class Cell:
    """One call into the simulator.

    ``kind`` is ``timing`` (``TimingEngine.run``), ``scaling``
    (``MulticoreModel.strong_scaling`` over ``shape[0]`` rows split across
    ``cores``), ``iterate`` (``StencilIterator.run`` for ``steps`` steps) or
    ``apply`` (one ``HStencil.apply``).
    """

    kind: str
    machine: str
    method: str
    stencil: str
    shape: Tuple[int, ...]
    iters: int = 1
    sample: Optional[bool] = None  # None: the engine's size-based choice
    unroll_j: int = 0  # 0: the kernel default
    steps: int = 0
    cores: Tuple[int, ...] = ()

    @property
    def id(self) -> str:
        size = "x".join(str(n) for n in self.shape)
        parts = [self.kind, self.machine, self.method, self.stencil, size]
        if self.iters != 1:
            parts.append(f"it{self.iters}")
        if self.sample is not None:
            parts.append("sampled" if self.sample else "exact")
        if self.unroll_j:
            parts.append(f"uj{self.unroll_j}")
        if self.steps:
            parts.append(f"st{self.steps}")
        if self.cores:
            parts.append("c" + "-".join(str(c) for c in self.cores))
        return "/".join(parts)

    @property
    def functional(self) -> bool:
        return self.kind in ("iterate", "apply")


def _incache() -> List[Cell]:
    lx2 = [
        Cell("timing", "LX2", method, "box2d9p", (64, 64), iters=16)
        for method in ("vector-only", "matrix-only", "hstencil", "auto")
    ]
    return lx2 + [Cell("timing", "M4", "hstencil", "star2d5p", (64, 64), iters=16)]


def _exact() -> List[Cell]:
    return [
        Cell("timing", "LX2", "hstencil", "box2d25p", (512, 512), sample=False),
        Cell("timing", "LX2", "hstencil", "star3d7p", (8, 64, 64), sample=False, unroll_j=8),
    ]


def _ooc() -> List[Cell]:
    fig15 = [
        Cell("timing", "LX2", method, "box2d25p", (2048, 2048), sample=True)
        for method in ("hstencil-noprefetch", "hstencil-prefetch")
    ]
    fig16 = Cell(
        "scaling", "LX2", "hstencil-prefetch", "box2d9p", (2048, 2048), cores=(1, 2, 4),
    )
    return fig15 + [fig16]


def _functional() -> List[Cell]:
    return [
        Cell("iterate", "LX2", "hstencil", "heat2d", (64, 64), steps=4),
        Cell("apply", "LX2", "hstencil", "star2d9p", (64, 64)),
    ]


WORKLOADS: Dict[str, List[Cell]] = {
    "incache_exact": _incache() + _exact(),
    "ooc_functional": _ooc() + _functional(),
}


def cells(workload: str) -> List[Cell]:
    """The workload's cells in canonical order; ``KeyError`` if unknown."""
    return list(WORKLOADS[workload])


def ordered(workload: str, seed: int) -> List[Tuple[Cell, int]]:
    """``(cell, field variant)`` pairs in the seed's order.

    The field variant is 0 for cells without a functional input.
    """
    rng = random.Random(seed)
    out = [(cell, rng.randrange(FIELD_POOL) if cell.functional else 0) for cell in cells(workload)]
    rng.shuffle(out)
    return out


def make_field(cell: Cell, variant: int, radius: int):
    """Halo-padded float64 input for a functional cell (deterministic)."""
    import numpy as np

    rng = np.random.default_rng([zlib.crc32(cell.id.encode()), variant])
    shape = tuple(n + 2 * radius for n in cell.shape)
    return rng.standard_normal(shape)
