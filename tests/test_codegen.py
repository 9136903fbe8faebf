"""The retired codegen layer's remaining contract.

Template replay is always the interpreted program walk plus columnar
replay; :mod:`repro.machine.codegen` is only a stub whose
``codegen_stats()`` reports zeros for the benchmark worker.  These tests
pin what is left: ``REPRO_CODEGEN`` (still set by ``perfbench/ablate.py``)
is accepted and has no effect, the ``codegen=`` parameter and the CLI
``--codegen`` flag are gone, no engine generates or loads a kernel, and a
warm store serves every class without generating anything.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.kernels.base import KernelOptions
from repro.kernels.template import compile_stats, reset_compile_stats
from repro.machine.artifacts import active_store, install_artifact_store
from repro.machine.codegen import codegen_stats
from repro.machine.compiled import clear_program_pool, program_pool_stats
from repro.machine.config import LX2
from repro.machine.memory import MemorySpace
from repro.machine.timing import SamplePlan, TimingEngine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark
from tests.capabilities import make_kernel_or_skip

#: The counters ``perfbench/worker.py`` reads from ``codegen_stats()``.
WORKER_KEYS = {"generated", "chunk_generated", "loaded", "demoted", "chunk_demoted", "exec_failed"}

#: Tiny plan so even this small grid runs several measured bands.
PLAN = SamplePlan(warmup_bands=1, min_measure_points=600)


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """Fresh pools, counters and store state for every test."""
    monkeypatch.delenv("REPRO_ARTIFACTS", raising=False)
    monkeypatch.delenv("REPRO_CODEGEN", raising=False)
    install_artifact_store(None)
    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    yield
    install_artifact_store(None)
    clear_program_pool(reset_stats=True)
    reset_compile_stats()


def _timed(engine="compiled", timing="scalar"):
    """One sampled hstencil star2d9p run on an odd LX2 grid; counter dict."""
    spec = benchmark("star2d9p")
    config = LX2()
    mem = MemorySpace()
    src = Grid2D(mem, 33, 48, spec.radius, "A", fill="random", seed=13)
    dst = Grid2D(mem, 33, 48, spec.radius, "B")
    kernel = make_kernel_or_skip("hstencil", spec, src, dst, config, KernelOptions(unroll_j=2))
    runner = TimingEngine(config, engine=engine, timing=timing)
    return runner.run(kernel, sample=True, plan=PLAN).to_dict()


def _assert_stub_idle():
    stats = codegen_stats()
    assert set(stats) == WORKER_KEYS
    assert all(v == 0 for v in stats.values())


def test_store_load_skips_generation(tmp_path):
    """A warm process serves every class from the store: nothing is fitted,
    lowered or generated, and the store holds no ``codegen`` entries."""
    install_artifact_store(str(tmp_path))
    cold = _timed()
    cold_stats = compile_stats()
    assert cold_stats["compiled_classes"] >= 1
    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    warm = _timed()
    warm_stats = compile_stats()
    assert warm == cold
    assert warm_stats["compiled_classes"] == 0
    assert warm_stats["loaded_classes"] == cold_stats["compiled_classes"]
    assert warm_stats["load_demotions"] == 0
    assert program_pool_stats()["builds"] == 0
    assert "codegen" not in active_store().disk_stats()["kinds"]
    _assert_stub_idle()


class TestCodegenSelection:
    def test_env_override(self, monkeypatch):
        """``REPRO_CODEGEN`` is unread: any value, even one the retired layer
        rejected, leaves the counters bit-identical to an unset variable."""
        baseline = _timed()
        for value in ("off", "on", "fast"):
            monkeypatch.setenv("REPRO_CODEGEN", value)
            clear_program_pool(reset_stats=True)
            assert _timed() == baseline
        _assert_stub_idle()

    def test_unknown_codegen_rejected(self, capsys):
        """The ``codegen=`` parameter and the ``--codegen`` flag are gone."""
        with pytest.raises(TypeError, match="codegen"):
            TimingEngine(LX2(), codegen="off")
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--codegen", "off"])
        assert exc.value.code == 2
        assert "--codegen" in capsys.readouterr().err

    def test_reference_engine_never_uses_codegen(self):
        """Neither engine generates, loads or demotes a kernel, and both walk
        the same interpreted model."""
        reference = _timed(engine="reference")
        for timing in ("scalar", "columnar"):
            clear_program_pool(reset_stats=True)
            assert _timed(timing=timing) == reference
        _assert_stub_idle()
