"""Bit-identity of the columnar sampled-replay path vs the scalar walk.

The ``timing="columnar"`` mode of the compiled engine precomputes each
block's word-address stream and memoizes the scoreboard recurrence, but it
promises *exact* equality with the per-block scalar replay — identical
:class:`~repro.machine.perf.PerfCounters` for every method, machine and
grid shape, including odd/tail-predicated sizes.  These tests enforce that
contract across the whole method registry, exercise the probe-verify /
demote fallback (a demoted class must still produce identical counters via
the scalar walk), and pin down the ``REPRO_TIMING`` selection plumbing.
"""

from __future__ import annotations

import pytest

from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS
from repro.machine.columnar import ColumnarReplayer
from repro.machine.config import LX2, M4
from repro.machine.memory import MemorySpace
from repro.machine.timing import (
    TIMING_MODES,
    SamplePlan,
    TimingEngine,
    default_timing,
)
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark
from tests.capabilities import make_kernel_or_skip

MACHINES = {"LX2": LX2, "M4": M4}

#: Odd sizes so tail-predicated rows exercise more than one shape class.
GRIDS = [("box2d9p", 37, 29), ("star2d9p", 33, 48)]

#: Tiny plan so even these small grids run several measured bands.
PLAN = SamplePlan(warmup_bands=1, min_measure_points=600)


def _build(method, machine_name, stencil, rows, cols):
    """Kernel + config; skips cells the capability table rejects."""
    spec = benchmark(stencil)
    config = MACHINES[machine_name]()
    mem = MemorySpace()
    src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=11)
    dst = Grid2D(mem, rows, cols, spec.radius, "B")
    kernel = make_kernel_or_skip(method, spec, src, dst, config, KernelOptions(unroll_j=2))
    return kernel, config


def _sampled(method, machine_name, stencil, rows, cols, timing):
    kernel, config = _build(method, machine_name, stencil, rows, cols)
    engine = TimingEngine(config, engine="compiled", timing=timing)
    return engine.run(kernel, sample=True, plan=PLAN)


@pytest.mark.parametrize("stencil,rows,cols", GRIDS, ids=[g[0] for g in GRIDS])
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_columnar_sampled_bit_identical(method, machine_name, stencil, rows, cols):
    scalar = _sampled(method, machine_name, stencil, rows, cols, "scalar")
    columnar = _sampled(method, machine_name, stencil, rows, cols, "columnar")
    assert columnar.to_dict() == scalar.to_dict()


def test_forced_demotion_falls_back_bit_identically(monkeypatch):
    """A class that fails probe verification must demote permanently and
    keep producing counters identical to the all-scalar walk."""
    kernel, config = _build("hstencil", "LX2", "box2d9p", 37, 29)

    scalar = TimingEngine(config, engine="compiled", timing="scalar").run(
        kernel, sample=True, plan=PLAN
    )

    demotions = []
    original_demote = ColumnarReplayer._demote

    def counting_demote(self, template, state):
        original_demote(self, template, state)
        demotions.append(template)

    # Every probe "fails": all shape classes must demote to the scalar walk.
    monkeypatch.setattr(
        ColumnarReplayer, "_columnar_matches", staticmethod(lambda clone, pipe: False)
    )
    monkeypatch.setattr(ColumnarReplayer, "_demote", counting_demote)

    kernel, config = _build("hstencil", "LX2", "box2d9p", 37, 29)
    columnar = TimingEngine(config, engine="compiled", timing="columnar").run(
        kernel, sample=True, plan=PLAN
    )

    assert demotions, "probe rejection must trigger at least one demotion"
    assert columnar.to_dict() == scalar.to_dict()


class TestTimingSelection:
    def test_default_timing_is_columnar(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIMING", raising=False)
        assert default_timing() == "columnar"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMING", "scalar")
        assert default_timing() == "scalar"
        assert TimingEngine(LX2()).timing == "scalar"

    def test_unknown_timing_rejected(self):
        with pytest.raises(ValueError, match="unknown timing"):
            TimingEngine(LX2(), timing="vectorised")

    def test_modes_are_exactly_the_documented_pair(self):
        assert TIMING_MODES == ("columnar", "scalar")
