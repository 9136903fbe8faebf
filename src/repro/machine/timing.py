"""Timing engine: drives kernels through the pipeline + cache models.

Small kernels are simulated in full (optionally with one unmeasured warm
pass so in-cache experiments see a warm cache, the way the paper's repeated
timed iterations do).  Out-of-cache grids are *band-sampled*: the engine
simulates a contiguous prefix of the kernel's outer-loop bands, discards a
warm-up region, measures a steady-state region large enough to cover the
requested number of grid points, and extrapolates cycles and cache counters
to the full grid.  Bands are contiguous in iteration order, so every reuse
distance shorter than the measured region (which is what L1 behaviour is
made of) is exercised faithfully.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.isa.instructions import Instruction
from repro.isa.program import Kernel, KernelBlock
from repro.machine.config import MachineConfig
from repro.machine.perf import PerfCounters
from repro.machine.pipeline import PipelineModel


@dataclass
class SamplePlan:
    """Controls band-sampled timing.

    ``warmup_bands`` outer-loop bands are simulated but excluded from the
    measurement (they warm the caches, the prefetcher stream table and the
    pipeline).  Measurement then continues until at least
    ``min_measure_points`` grid points have been covered (or the kernel runs
    out of bands).
    """

    warmup_bands: int = 2
    min_measure_points: int = 60_000
    max_measure_bands: Optional[int] = None


#: Grids below this many output points are simulated in full.
FULL_SIM_POINT_LIMIT = 300_000


#: Engines selectable on :class:`TimingEngine` / ``FunctionalEngine.run_kernel``.
ENGINES = ("compiled", "reference")

#: Band-sampled replay strategies for the compiled engine: ``columnar``
#: precomputes address streams and memoizes the scoreboard recurrence
#: (:mod:`repro.machine.columnar`); ``scalar`` walks block by block.
TIMING_MODES = ("columnar", "scalar")


def default_engine() -> str:
    """Engine used when none is requested (``REPRO_ENGINE`` overrides)."""
    return os.environ.get("REPRO_ENGINE", "compiled")


def default_timing() -> str:
    """Sampled-replay mode when none is requested (``REPRO_TIMING`` overrides)."""
    return os.environ.get("REPRO_TIMING", "columnar")


#: Band-periodic steady-state elision on *full* (unsampled) runs: ``on``
#: detects recurring machine state at band boundaries, verifies one extra
#: period live, and applies the remaining interior bands arithmetically —
#: bit-identical counters, any mismatch demotes to the plain band walk
#: (:mod:`repro.machine.steady`).  Compiled engine only.
STEADY_MODES = ("on", "off")


def default_steady() -> str:
    """Steady-elision mode when none is requested (``REPRO_STEADY`` overrides)."""
    return os.environ.get("REPRO_STEADY", "on")


#: Pass-level fixed-point memoization on iterated full runs: ``pass`` stops
#: walking passes once the machine state at a pass boundary recurs and
#: applies the remaining passes' counter deltas arithmetically; ``off``
#: walks every pass.  Compiled engine only.
MEMO_MODES = ("pass", "off")


def default_memo() -> str:
    """Pass-memo mode (``REPRO_MEMO`` overrides, case-insensitively)."""
    return os.environ.get("REPRO_MEMO", "pass").lower()


def _add_scaled(base: PerfCounters, delta: PerfCounters, n: int) -> PerfCounters:
    """``base + n * delta``, exact on every counter field.

    All counters are integers (cycles is an integer-valued float), so the
    integer multiply-add is bit-exact — this is what lets the pass-level
    fixed-point skip reproduce a fully simulated run to the last counter.
    """
    out = PerfCounters()
    out.cycles = base.cycles + delta.cycles * n
    out.instructions = base.instructions + delta.instructions * n
    out.instructions_by_port = {
        k: base.instructions_by_port.get(k, 0) + delta.instructions_by_port.get(k, 0) * n
        for k in set(base.instructions_by_port) | set(delta.instructions_by_port)
    }
    out.flops = base.flops + delta.flops * n
    out.useful_flops = base.useful_flops + delta.useful_flops * n
    out.l1_accesses = base.l1_accesses + delta.l1_accesses * n
    out.l1_hits = base.l1_hits + delta.l1_hits * n
    out.l1_demand_accesses = base.l1_demand_accesses + delta.l1_demand_accesses * n
    out.l1_demand_hits = base.l1_demand_hits + delta.l1_demand_hits * n
    out.l1_prefetch_fills = base.l1_prefetch_fills + delta.l1_prefetch_fills * n
    out.l2_accesses = base.l2_accesses + delta.l2_accesses * n
    out.l2_hits = base.l2_hits + delta.l2_hits * n
    out.dram_lines_read = base.dram_lines_read + delta.dram_lines_read * n
    out.dram_lines_written = base.dram_lines_written + delta.dram_lines_written * n
    out.sw_prefetches = base.sw_prefetches + delta.sw_prefetches * n
    out.hw_prefetches = base.hw_prefetches + delta.hw_prefetches * n
    out.line_bytes = base.line_bytes
    return out


class TimingEngine:
    """Produces :class:`PerfCounters` for kernels and raw traces.

    ``engine="compiled"`` (the default) drives kernel blocks through the
    trace-compilation layer (:mod:`repro.kernels.template`): one emit +
    schedule per shape class, then scoreboard replay over precompiled step
    arrays with rebased addresses.  ``engine="reference"`` re-emits and
    walks instruction objects per block.  The two are bit-identical on
    every counter; the compiled path silently falls back to the reference
    walk for any block whose class fails probe verification.
    """

    def __init__(
        self,
        config: MachineConfig,
        engine: Optional[str] = None,
        timing: Optional[str] = None,
        steady: Optional[str] = None,
        artifact_dir=None,
    ) -> None:
        self.config = config
        if artifact_dir is not None:
            # Installs the process-wide compiled-artifact store: template
            # bundles, lowered programs and columnar plans persist across
            # processes (see :mod:`repro.machine.artifacts`).
            from repro.machine.artifacts import install_artifact_store

            install_artifact_store(artifact_dir)
        self.artifact_dir = artifact_dir
        if engine is None:
            engine = default_engine()
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.engine = engine
        if timing is None:
            timing = default_timing()
        if timing not in TIMING_MODES:
            raise ValueError(
                f"unknown timing {timing!r}; expected one of {TIMING_MODES}"
            )
        self.timing = timing
        if steady is None:
            steady = default_steady()
        if steady not in STEADY_MODES:
            raise ValueError(
                f"unknown steady {steady!r}; expected one of {STEADY_MODES}"
            )
        self.steady = steady
        memo = default_memo()
        if memo not in MEMO_MODES:
            raise ValueError(
                f"unknown REPRO_MEMO mode {memo!r}; expected one of {MEMO_MODES}"
            )
        self.memo = memo
        #: In-process steady records keyed by bundle digest: a verified
        #: ``(period, delta, signature)`` from any earlier run (or the
        #: artifact store) lets later runs skip detection entirely and go
        #: straight to the verification window.  ``None`` remembers a store
        #: miss, so each key is probed on disk at most once per engine.
        self._steady_records: dict = {}
        #: Per-run / per-lockstep-run controller accounting
        #: (:class:`repro.machine.steady.SteadyStats`), refreshed by each
        #: ``_run_full`` / ``run_lockstep`` call.
        self.steady_stats = None
        self.lockstep_steady_stats = None
        #: Engine-lifetime columnar state (lazily built): memory plans and
        #: scoreboard memo tables, shared by every columnar run this engine
        #: drives — successive runs, measured passes and multicore slice
        #: heights all warm the same tables (sound because everything is
        #: keyed on pooled program identity + relative context; see
        #: :class:`repro.machine.columnar.ColumnarShare`).
        self._share = None

    def _columnar_share(self):
        if self._share is None:
            from repro.machine.columnar import ColumnarShare

            self._share = ColumnarShare()
        return self._share

    # ------------------------------------------------------------------

    def _block_runner(
        self, kernel: Kernel, pipe: PipelineModel, compiler=None
    ) -> Callable[[KernelBlock], None]:
        """Per-block processing function (``compiler`` is ``None`` exactly
        for the reference engine)."""
        if compiler is None:
            return lambda block: pipe.process_trace(kernel.emit(block))

        config = self.config

        def run_block(block: KernelBlock) -> None:
            entry = compiler.lookup(block)
            if entry is not None:
                template, addrs = entry
                program = template.timing_program(config)
                if program is not None:
                    pipe.process_template(program, addrs)
                    return
            pipe.process_trace(kernel.emit(block))

        return run_block

    # ------------------------------------------------------------------

    def run_trace(self, trace: Iterable[Instruction], label: str = "") -> PerfCounters:
        """Time a straight-line instruction sequence (microbenchmarks)."""
        pipe = PipelineModel(self.config)
        pipe.process_trace(trace)
        counters = pipe.snapshot()
        counters.label = label
        return counters

    def run(
        self,
        kernel: Kernel,
        *,
        label: str = "",
        sample: Optional[bool] = None,
        warm: bool = True,
        plan: Optional[SamplePlan] = None,
        iters: int = 1,
    ) -> PerfCounters:
        """Time a kernel; returns full-grid counters.

        ``sample=None`` picks automatically: grids with more than
        :data:`FULL_SIM_POINT_LIMIT` output points are band-sampled.
        ``warm`` only affects full simulations (one unmeasured pass first).
        ``iters`` repeats the measured pass, hardware-benchmark style: the
        returned counters sum all measured passes and ``points`` scales
        with ``iters``, so per-point metrics are the per-pass average.
        """
        if iters < 1:
            raise ValueError(f"iters must be >= 1, got {iters}")
        nest = kernel.loop_nest()
        total_points = nest.total_points()
        if sample is None:
            sample = total_points > FULL_SIM_POINT_LIMIT

        if not sample:
            counters = self._run_full(kernel, nest, warm=warm, iters=iters)
        else:
            if iters != 1:
                raise ValueError(
                    "iters is only supported for full (unsampled) runs; pass "
                    "sample=False (or --no-sample) to simulate every pass exactly"
                )
            counters = self._run_sampled(kernel, nest, plan or SamplePlan())
        counters.label = label or kernel.name
        return counters

    # ------------------------------------------------------------------

    def _band_machinery(self, kernel: Kernel, pipe: PipelineModel, nest):
        """``(run_band, compiler)`` for a band-at-a-time replay.

        The compiler (compiled engine only) is built here and shared with
        the replayer / block runner so the steady-state controller sees the
        same template classes the replay resolves.  The caller owns it and
        must :meth:`~repro.kernels.template.TraceCompiler.flush` it when the
        run ends, so the template bundle is written once per run.
        """
        compiler = None
        if self.engine == "compiled":
            from repro.kernels.template import TraceCompiler

            compiler = TraceCompiler(kernel, nest=nest, config=self.config)

        # Columnar replay vectorizes full passes the same way it vectorizes
        # sampled bands.
        if compiler is not None and self.timing == "columnar":
            from repro.machine.columnar import ColumnarReplayer

            run_band = ColumnarReplayer(
                kernel, self.config, pipe, compiler, share=self._columnar_share()
            ).process_band
        else:
            run_block = self._block_runner(kernel, pipe, compiler)

            def run_band(band) -> None:
                for block in band:
                    run_block(block)

        return run_band, compiler

    def _steady_controller(self, pipe: PipelineModel, compiler, bands, stats):
        """Build one pass's steady controller, wired to the record caches."""
        from repro.machine import steady as steady_mod
        from repro.machine.artifacts import active_store

        key = steady_mod.steady_record_key(compiler)
        record = None
        if key is not None:
            try:
                record = self._steady_records[key]
            except KeyError:
                # Probe the store once per engine: a miss is remembered as
                # ``None`` (later passes and runs would miss again) until
                # ``on_record`` replaces it with a verified record.
                store = active_store()
                if store is not None:
                    record = store.load("steady", key)
                    self._steady_records[key] = record

        def on_record(rec) -> None:
            if key is None:
                return
            self._steady_records[key] = rec
            store = active_store()
            if store is not None:
                store.store("steady", key, rec)

        return steady_mod.SteadyController(
            pipe,
            compiler,
            bands,
            self.config,
            record=record,
            on_record=on_record,
            stats=stats,
        )

    def _run_full(self, kernel: Kernel, nest, warm: bool, iters: int = 1) -> PerfCounters:
        from repro.machine.steady import SteadyStats

        pipe = PipelineModel(self.config)
        # bands() lists blocks grouped by outer index in iteration order, so
        # driving band-at-a-time preserves the exact block sequence of the
        # flat block loop.
        bands = nest.bands()
        run_band, compiler = self._band_machinery(kernel, pipe, nest)
        stats = SteadyStats()
        self.steady_stats = stats
        use_steady = self.steady == "on" and compiler is not None

        def one_pass() -> None:
            pipe.process_trace(kernel.preamble())
            controller = (
                self._steady_controller(pipe, compiler, bands, stats)
                if use_steady
                else None
            )
            k = 0
            nbands = len(bands)
            while k < nbands:
                run_band(bands[k])
                k += 1
                if controller is not None:
                    nk = controller.after_band(k)
                    if nk is not None:
                        k = nk

        try:
            counters = self._measure_passes(pipe, one_pass, warm, iters)
        finally:
            if compiler is not None:
                compiler.flush()
        counters.points = nest.total_points() * iters
        return counters

    def _measure_passes(self, pipe: PipelineModel, one_pass, warm: bool, iters: int):
        """Counters of ``iters`` measured passes (after an optional warm one)."""
        if warm:
            one_pass()
            before = pipe.snapshot()
        else:
            before = None

        # Pass-level fixed-point memoization (compiled engine only): the
        # machine model is a deterministic function of its behavioural
        # state, and each measured pass replays the exact same trace, so
        # the moment the state signature at a pass boundary *recurs* the
        # remaining passes are provably identical — their counter deltas
        # are applied arithmetically instead of being re-simulated.  The
        # reference engine always walks every pass.
        use_skip = iters > 1 and self.engine == "compiled" and self.memo == "pass"

        prev_sig = pipe.state_digest() if use_skip else None
        prev_snap = before if before is not None else pipe.snapshot()
        counters: Optional[PerfCounters] = None
        strikes = 0
        for done_passes in range(1, iters + 1):
            one_pass()
            if not use_skip:
                continue
            sig = pipe.state_digest()
            if sig == prev_sig:
                # The pass just run mapped the state onto itself: every
                # remaining pass repeats its delta exactly.
                snap = pipe.snapshot()
                delta = PipelineModel.delta(snap, prev_snap)
                counters = _add_scaled(snap, delta, iters - done_passes)
                break
            # A fixed point, if one exists, appears after the first measured
            # pass (warm caches) or the second (cold entry).  Two consecutive
            # distinct signatures therefore mean the state is genuinely
            # drifting (e.g. capacity streaming) and the signature itself —
            # which walks every cache set — is pure overhead from here on.
            strikes += 1
            if strikes >= 2:
                use_skip = False
                continue
            prev_sig = sig
            prev_snap = pipe.snapshot()
        if counters is None:
            counters = pipe.snapshot()
        if before is not None:
            counters = PipelineModel.delta(counters, before)
        return counters

    def run_lockstep(
        self, kernels, *, warm: bool = True
    ) -> "list[PerfCounters]":
        """Time several kernels band-locked (multicore slice contract).

        Every kernel gets its own pipeline; all cores advance one outer-loop
        band per step.  Steady-state elision only engages when *every*
        still-running core's controller is ready with the *same* period at
        the same boundary — the jump is then the largest common multiple of
        that period fitting every core's interior.  If any core demotes (or
        cannot certify) while others hold a claim, elision is abandoned on
        all cores, so the cores' counters stay bit-identical to running each
        kernel alone with ``run(sample=False)``.
        """
        from repro.machine.steady import SteadyStats

        cores = []
        for kernel in kernels:
            pipe = PipelineModel(self.config)
            nest = kernel.loop_nest()
            run_band, compiler = self._band_machinery(kernel, pipe, nest)
            cores.append((kernel, pipe, nest, nest.bands(), run_band, compiler))

        stats_list = [SteadyStats() for _ in kernels]
        self.lockstep_steady_stats = stats_list
        use_steady = self.steady == "on" and self.engine == "compiled"

        def one_pass() -> None:
            controllers = []
            for (kernel, pipe, _nest, bands, _rb, compiler), stats in zip(
                cores, stats_list
            ):
                pipe.process_trace(kernel.preamble())
                ctrl = None
                if use_steady and compiler is not None:
                    ctrl = self._steady_controller(pipe, compiler, bands, stats)
                controllers.append(ctrl)
            lock_dead = not use_steady or any(c is None for c in controllers)
            if lock_dead:
                for c in controllers:
                    if c is not None:
                        c.force_disable("lockstep")
            k = 0
            max_bands = max((len(c[3]) for c in cores), default=0)
            while k < max_bands:
                active = [i for i, c in enumerate(cores) if k < len(c[3])]
                for i in active:
                    cores[i][4](cores[i][3][k])
                k += 1
                if lock_dead:
                    continue
                # Cores that already finished drop out of the lockstep
                # quorum; the remaining ones must agree unanimously.
                live = [i for i, c in enumerate(cores) if k < len(c[3])]
                states = [controllers[i].observe_band(k) for i in live]
                if not live:
                    continue
                if any(s == "disabled" for s in states):
                    if not all(s == "disabled" for s in states):
                        for i in live:
                            controllers[i].force_disable("lockstep")
                    lock_dead = True
                    continue
                if not all(s == "ready" for s in states):
                    continue
                periods = {controllers[i].period for i in live}
                if len(periods) != 1:
                    for i in live:
                        controllers[i].force_disable("lockstep")
                    lock_dead = True
                    continue
                p = periods.pop()
                m = min(controllers[i].max_engage_periods(k) for i in live)
                if m < 1:
                    continue  # ready persists; a core may finish and free room
                # The engage must be atomic across cores: re-check every
                # core's claim (late static-watch events, edge widening)
                # *before* any core's state jumps, so a failed claim demotes
                # the whole group without desynchronizing the shared index.
                claims_ok = all(
                    controllers[i].pipe.hierarchy.static_watch_hits == 0
                    and controllers[i].compiler.edge == controllers[i].cert.edge
                    for i in live
                )
                if not claims_ok:
                    for i in live:
                        controllers[i].force_disable("lockstep")
                    lock_dead = True
                    continue
                for i in live:
                    if controllers[i].engage(k, m) is None:
                        # Unreachable after the pre-checks (engage re-checks
                        # the same conditions); never desync the shared index.
                        raise RuntimeError("lockstep engage desynchronized")
                k += m * p

        try:
            if warm:
                one_pass()
                befores = [pipe.snapshot() for _k, pipe, *_ in cores]
            else:
                befores = [None] * len(cores)
            one_pass()
        finally:
            for *_, compiler in cores:
                if compiler is not None:
                    compiler.flush()
        out = []
        for (kernel, pipe, nest, *_), before in zip(cores, befores):
            counters = pipe.snapshot()
            if before is not None:
                counters = PipelineModel.delta(counters, before)
            counters.points = nest.total_points()
            counters.label = kernel.name
            out.append(counters)
        return out

    def _run_sampled(self, kernel: Kernel, nest, plan: SamplePlan) -> PerfCounters:
        pipe = PipelineModel(self.config)
        bands = nest.bands()
        total_points = nest.total_points()

        warmup = min(plan.warmup_bands, max(len(bands) - 1, 0))
        run_band, compiler = self._band_machinery(kernel, pipe, nest)

        try:
            pipe.process_trace(kernel.preamble())
            for band in bands[:warmup]:
                run_band(band)

            before = pipe.snapshot()
            measured_points = 0
            measured_bands = 0
            for band in bands[warmup:]:
                run_band(band)
                measured_points += sum(block.points for block in band)
                measured_bands += 1
                if measured_points >= plan.min_measure_points:
                    break
                if plan.max_measure_bands is not None and measured_bands >= plan.max_measure_bands:
                    break
        finally:
            if compiler is not None:
                compiler.flush()
        after = pipe.snapshot()

        if measured_points == 0:
            raise RuntimeError("sampled timing measured zero points; grid too small to sample")
        delta = PipelineModel.delta(after, before)
        delta.points = measured_points
        scaled = delta.scaled(total_points / measured_points)
        scaled.points = total_points
        return scaled
