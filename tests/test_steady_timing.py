"""Bit-identity of band-periodic steady-state elision vs the full band walk.

``steady="on"`` lets :class:`~repro.machine.timing.TimingEngine` detect a
recurring machine state at band boundaries of a full (unsampled) run,
verify one extra period live under an armed static-line watch, and apply
the remaining bands arithmetically.  The contract is *exactness*: counters
and grids are bit-identical to walking every band, for every method,
machine and odd/tail-predicated grid shape — and any verification mismatch
demotes permanently back to the exact walk.  These tests enforce that
contract across the method registry, force the demotion path, pin the
multicore lockstep all-or-none rule, and round-trip detected periods
through the compiled-artifact store (warm runs skip detection entirely).
"""

from __future__ import annotations

import pytest

from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.machine.artifacts import install_artifact_store
from repro.machine.config import LX2, M4
from repro.machine.memory import MemorySpace
from repro.machine.multicore import MulticoreModel
from repro.machine.steady import SteadyController
from repro.machine.timing import (
    STEADY_MODES,
    TimingEngine,
    default_steady,
)
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark
from tests.capabilities import build_or_skip

MACHINES = {"LX2": LX2, "M4": M4}

#: Odd interior heights (tail-predicated last band rides through the
#: periodic jump) with 16-aligned columns so the non-predicated methods
#: build on both machines; large enough that the moving span clears the
#: in-cache gate on both L2s.  Methods with their own shape constraints
#: (e.g. matrix-only needs row multiples) skip with the builder's reason.
GRIDS = [("box2d25p", 515, 512), ("star2d9p", 387, 512)]

#: Per-machine grids on which the flagship method provably engages (M4's
#: larger L1 doubles the alignment period, so it needs the wider grid).
ENGAGE_GRIDS = {"LX2": ("box2d25p", 515, 512), "M4": ("box2d25p", 515, 515)}


def _build(method, machine_name, stencil, rows, cols, seed=11):
    """Kernel + config; raises ValueError when the method rejects the shape."""
    spec = benchmark(stencil)
    config = MACHINES[machine_name]()
    mem = MemorySpace()
    src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=seed)
    dst = Grid2D(mem, rows, cols, spec.radius, "B")
    kernel = make_kernel(method, spec, src, dst, config, KernelOptions(unroll_j=2))
    return kernel, config


def _full(method, machine_name, steady, stencil, rows, cols):
    kernel, config = build_or_skip(
        method, benchmark(stencil), MACHINES[machine_name](), rows, cols, 2,
        lambda: _build(method, machine_name, stencil, rows, cols),
    )
    engine = TimingEngine(config, engine="compiled", steady=steady)
    counters = engine.run(kernel, sample=False, warm=False)
    return counters, engine.steady_stats


@pytest.mark.parametrize("stencil,rows,cols", GRIDS, ids=[g[0] for g in GRIDS])
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_steady_bit_identical_across_registry(method, machine_name, stencil, rows, cols):
    exact, _ = _full(method, machine_name, "off", stencil, rows, cols)
    elided, stats = _full(method, machine_name, "on", stencil, rows, cols)
    assert elided.to_dict() == exact.to_dict()
    # Elision may legitimately sit out (uncertifiable class, no recurrence,
    # no room) but it must never have *demoted*: a verified candidate that
    # fails its probe on these deterministic grids would be a soundness bug.
    assert stats.demoted == 0


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_steady_engages_and_elides_bands(machine_name):
    """The flagship method must actually take the fast path, not just match."""
    stencil, rows, cols = ENGAGE_GRIDS[machine_name]
    exact, _ = _full("hstencil", machine_name, "off", stencil, rows, cols)
    elided, stats = _full("hstencil", machine_name, "on", stencil, rows, cols)
    assert elided.to_dict() == exact.to_dict()
    assert stats.engaged >= 1
    assert stats.elided_bands >= 8
    assert stats.disabled == ""


def test_forced_demotion_stays_exact(monkeypatch):
    """A mid-window static event must demote (permanently) and keep the
    counters identical to the all-band walk."""
    stencil, rows, cols = ENGAGE_GRIDS["LX2"]
    exact, _ = _full("hstencil", "LX2", "off", stencil, rows, cols)

    original_start = SteadyController._start_verify

    def sabotaged_start(self, k, p, digest, delta, raw):
        original_start(self, k, p, digest, delta, raw)
        # Simulate a demand touch on a watched static line during the
        # verification window: the probe must fail and demote.
        self.pipe.hierarchy.static_watch_hits += 1

    monkeypatch.setattr(SteadyController, "_start_verify", sabotaged_start)
    elided, stats = _full("hstencil", "LX2", "on", stencil, rows, cols)

    assert stats.demoted >= 1
    assert stats.engaged == 0
    assert stats.disabled == "verify-mismatch"
    assert elided.to_dict() == exact.to_dict()


# ---------------------------------------------------------------------------
# Multicore lockstep
# ---------------------------------------------------------------------------

LOCK_ROWS, LOCK_COLS = 387, 389


def _lockstep_kernels(cores, machine_name="LX2"):
    """Independent per-core slice kernels (each with its own memory space)."""
    kernels = []
    for core in range(cores):
        kernel, config = _build(
            "hstencil", machine_name, "box2d25p", LOCK_ROWS, LOCK_COLS,
            seed=11 + core,
        )
        kernels.append(kernel)
    return kernels, config


def _solo_exact(kernel, config):
    engine = TimingEngine(config, engine="compiled", steady="off")
    return engine.run(kernel, sample=False, warm=False)


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_lockstep_bit_identical_to_solo(cores):
    kernels, config = _lockstep_kernels(cores)
    solo = [_solo_exact(k, config) for k in kernels]

    mc = MulticoreModel(MACHINES["LX2"](), engine="compiled", steady="on")
    lock = mc.lockstep_slices(kernels, warm=False)

    assert len(lock) == cores
    for got, want in zip(lock, solo):
        assert got.to_dict() == want.to_dict()
    stats = mc.engine.lockstep_steady_stats
    assert stats is not None and len(stats) == cores
    # Symmetric slices reach readiness together: every core engages.
    assert all(s.engaged >= 1 for s in stats)
    assert all(s.demoted == 0 for s in stats)


def test_lockstep_single_demotion_disables_all_cores(monkeypatch):
    """One core failing its probe must abandon elision on *every* core
    (all-or-none), and all counters must stay exact."""
    kernels, config = _lockstep_kernels(2)
    solo = [_solo_exact(k, config) for k in kernels]

    original_start = SteadyController._start_verify
    sabotaged = []

    def sabotage_first(self, k, p, digest, delta, raw):
        original_start(self, k, p, digest, delta, raw)
        if not sabotaged:
            sabotaged.append(self)
            self.pipe.hierarchy.static_watch_hits += 1

    monkeypatch.setattr(SteadyController, "_start_verify", sabotage_first)

    mc = MulticoreModel(MACHINES["LX2"](), engine="compiled", steady="on")
    lock = mc.lockstep_slices(kernels, warm=False)

    for got, want in zip(lock, solo):
        assert got.to_dict() == want.to_dict()
    stats = mc.engine.lockstep_steady_stats
    assert sabotaged, "sabotage never reached a verification window"
    assert sum(s.demoted for s in stats) >= 1
    assert all(s.engaged == 0 for s in stats)
    assert all(s.disabled for s in stats)


# ---------------------------------------------------------------------------
# Artifact-store round trip
# ---------------------------------------------------------------------------


def test_steady_record_round_trip(tmp_path):
    """A verified period persists to the artifact store; a fresh engine
    (new process in spirit) runs in record mode with zero detection work
    and identical counters."""
    store = str(tmp_path / "artifacts")
    stencil, rows, cols = ENGAGE_GRIDS["LX2"]
    try:
        cold = TimingEngine(LX2(), engine="compiled", steady="on", artifact_dir=store)
        kernel, _ = _build("hstencil", "LX2", stencil, rows, cols)
        first = cold.run(kernel, sample=False, warm=False)
        cold_stats = cold.steady_stats
        assert cold_stats.engaged >= 1
        assert cold_stats.detect_sigs > 0
        assert not cold_stats.record_mode

        warm = TimingEngine(LX2(), engine="compiled", steady="on", artifact_dir=store)
        kernel, _ = _build("hstencil", "LX2", stencil, rows, cols)
        second = warm.run(kernel, sample=False, warm=False)
        warm_stats = warm.steady_stats
        assert warm_stats.record_mode
        assert warm_stats.detect_sigs == 0
        assert warm_stats.record_probes >= 1
        assert warm_stats.engaged >= 1
        assert second.to_dict() == first.to_dict()
    finally:
        install_artifact_store(None)


# ---------------------------------------------------------------------------
# Mode selection and guard rails
# ---------------------------------------------------------------------------


class TestSteadySelection:
    def test_default_steady_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_STEADY", raising=False)
        assert default_steady() == "on"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEADY", "off")
        assert default_steady() == "off"
        assert TimingEngine(LX2()).steady == "off"

    def test_unknown_steady_rejected(self):
        with pytest.raises(ValueError, match="unknown steady"):
            TimingEngine(LX2(), steady="fast")

    def test_modes_are_exactly_the_documented_pair(self):
        assert STEADY_MODES == ("on", "off")

    def test_iters_under_sampling_names_the_fix(self):
        kernel, config = _build("hstencil", "LX2", "star2d9p", 33, 48)
        engine = TimingEngine(config, engine="compiled")
        with pytest.raises(ValueError, match=r"sample=False \(or --no-sample\)"):
            engine.run(kernel, sample=True, iters=2)
