"""Engine selection, REPRO_MEMO modes and iterated runs."""

import pytest

from repro.bench.runner import ExperimentRunner
from repro.kernels.base import KernelOptions
from repro.kernels.registry import make_kernel
from repro.machine.config import LX2, M4
from repro.machine.functional import FunctionalEngine
from repro.machine.memory import MemorySpace
from repro.machine.pipeline import PipelineModel
from repro.machine.timing import TimingEngine, default_engine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark


def _kernel(n=64, stencil="star2d5p", method="hstencil", seed=0, config=None):
    mem = MemorySpace()
    spec = benchmark(stencil)
    src = Grid2D(mem, n, n, spec.radius, "A", fill="random", seed=seed)
    dst = Grid2D(mem, n, n, spec.radius, "B")
    kernel = make_kernel(method, spec, src, dst, config or LX2(), KernelOptions())
    return mem, kernel


# ---------------------------------------------------------------------------
# Engine selection precedence: explicit kwarg > REPRO_ENGINE env > default.
# ---------------------------------------------------------------------------


def test_default_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert default_engine() == "compiled"
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert default_engine() == "reference"


def test_timing_engine_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert TimingEngine(LX2()).engine == "reference"
    # An explicit kwarg always beats the environment.
    assert TimingEngine(LX2(), engine="compiled").engine == "compiled"
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert TimingEngine(LX2()).engine == "compiled"
    with pytest.raises(ValueError):
        TimingEngine(LX2(), engine="bogus")


def test_experiment_runner_threads_engine(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert ExperimentRunner(LX2()).engine.engine == "reference"
    assert ExperimentRunner(LX2(), engine="compiled").engine.engine == "compiled"


def test_run_kernel_precedence(monkeypatch):
    """run_kernel: explicit engine kwarg wins over REPRO_ENGINE."""
    import repro.machine.batched as batched_mod

    created = []
    real = batched_mod.BatchReplayer

    class Spy(real):
        def __init__(self, engine):
            super().__init__(engine)
            created.append(self)

    monkeypatch.setattr(batched_mod, "BatchReplayer", Spy)

    # env says reference, kwarg says compiled: the compiled path (which
    # constructs a BatchReplayer) must run.
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    mem, kernel = _kernel(n=32)
    FunctionalEngine(mem).run_kernel(kernel, engine="compiled")
    assert len(created) == 1

    # env says compiled, kwarg says reference: no replayer.
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    mem, kernel = _kernel(n=32)
    FunctionalEngine(mem).run_kernel(kernel, engine="reference")
    assert len(created) == 1

    # No kwarg: the environment decides.
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    mem, kernel = _kernel(n=32)
    FunctionalEngine(mem).run_kernel(kernel)
    assert len(created) == 2

    with pytest.raises(ValueError):
        FunctionalEngine(MemorySpace()).run_kernel(kernel, engine="bogus")


# ---------------------------------------------------------------------------
# REPRO_MEMO mode parsing and gates.
# ---------------------------------------------------------------------------


def test_memo_mode_default_and_aliases(monkeypatch):
    monkeypatch.delenv("REPRO_MEMO", raising=False)
    assert TimingEngine(LX2()).memo == "pass"
    for raw, mode in [("off", "off"), ("pass", "pass"), ("PASS", "pass")]:
        monkeypatch.setenv("REPRO_MEMO", raw)
        assert TimingEngine(LX2()).memo == mode, raw
    # Retired block-level modes and the old aliases fail on construction,
    # naming the two accepted values.
    for raw in ["block", "full", "on", "1", "true", "0", "false", "sometimes"]:
        monkeypatch.setenv("REPRO_MEMO", raw)
        with pytest.raises(ValueError, match="'pass', 'off'"):
            TimingEngine(LX2())


def test_memo_gates(monkeypatch):
    """``off`` walks every pass; ``pass`` stops at the state fixed point."""
    iters = 8
    digests = []
    real_digest = PipelineModel.state_digest

    def spy(self):
        digests.append(1)
        return real_digest(self)

    monkeypatch.setattr(PipelineModel, "state_digest", spy)
    results = {}
    for memo in ("off", "pass"):
        monkeypatch.setenv("REPRO_MEMO", memo)
        digests.clear()
        _, kernel = _kernel()
        passes = []
        preamble = kernel.preamble
        kernel.preamble = lambda: passes.append(1) or preamble()
        pc = TimingEngine(LX2(), engine="compiled").run(kernel, iters=iters)
        results[memo] = (len(digests), len(passes), pc.to_dict())
    off_digests, off_passes, off_counters = results["off"]
    pass_digests, pass_passes, pass_counters = results["pass"]
    assert off_digests == 0
    assert off_passes == 1 + iters  # warm pass + every measured pass
    assert pass_digests >= 2
    assert pass_passes < off_passes
    assert pass_counters == off_counters


# ---------------------------------------------------------------------------
# Iterated (iters > 1) runs.
# ---------------------------------------------------------------------------


def test_iters_validation():
    _, kernel = _kernel(n=32)
    engine = TimingEngine(LX2())
    with pytest.raises(ValueError):
        engine.run(kernel, iters=0)
    with pytest.raises(ValueError):
        engine.run(kernel, sample=True, iters=2)


@pytest.mark.parametrize("machine", [LX2, M4], ids=["LX2", "M4"])
def test_iters_bit_identical_across_engines_and_memo_modes(monkeypatch, machine):
    """Reference and compiled (both memo modes) agree on iterated counters."""
    iters = 5
    results = {}
    for engine_name, memo in [
        ("reference", "off"),
        ("compiled", "off"),
        ("compiled", "pass"),
    ]:
        monkeypatch.setenv("REPRO_MEMO", memo)
        _, kernel = _kernel(config=machine())
        pc = TimingEngine(machine(), engine=engine_name).run(kernel, iters=iters)
        results[(engine_name, memo)] = pc.to_dict()
    baseline = results[("reference", "off")]
    for key, counters in results.items():
        assert counters == baseline, key


def test_iters_scales_points(monkeypatch):
    monkeypatch.setenv("REPRO_MEMO", "off")
    _, kernel = _kernel(n=32)
    one = TimingEngine(LX2()).run(kernel, iters=1)
    three = TimingEngine(LX2()).run(kernel, iters=3)
    assert three.points == 3 * one.points
    assert three.cycles > one.cycles


# ---------------------------------------------------------------------------
# Pipeline state signatures (the pass-skip foundation).
# ---------------------------------------------------------------------------


def test_state_signature_recurs_at_pass_boundaries():
    """After the warm pass, each further pass maps the state onto itself."""
    config = LX2()
    _, kernel = _kernel()
    pipe = PipelineModel(config)
    engine = TimingEngine(config, engine="reference")
    run_block = engine._block_runner(kernel, pipe)

    def one_pass():
        pipe.process_trace(kernel.preamble())
        for block in kernel.loop_nest():
            run_block(block)

    one_pass()  # warm
    one_pass()
    sig = pipe.state_signature()
    one_pass()
    assert pipe.state_signature() == sig
