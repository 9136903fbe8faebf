"""List scheduler: semantics preservation, speedups, caching, windows."""

import numpy as np
import pytest

from repro.isa.instructions import FMLA, FMOPA, LD1D, PortClass, ST1D
from repro.isa.program import Trace
from repro.isa.registers import TileReg, VReg
from repro.kernels.base import KernelOptions
from repro.kernels.registry import make_kernel
from repro.kernels.scheduling import clear_schedule_cache, schedule_trace
from repro.machine.config import LX2
from repro.machine.functional import FunctionalEngine
from repro.machine.memory import MemorySpace
from repro.machine.timing import TimingEngine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark


def build_kernel(method="hstencil-nosched", stencil="star2d9p", rows=16, cols=32):
    spec = benchmark(stencil)
    mem = MemorySpace()
    src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=21)
    dst = Grid2D(mem, rows, cols, spec.radius, "B")
    kernel = make_kernel(method, spec, src, dst, LX2(), KernelOptions(unroll_j=2))
    return kernel, mem, src, dst


class TestSemanticsPreservation:
    def test_schedule_is_permutation(self):
        kernel, *_ = build_kernel()
        trace = kernel.emit(kernel.loop_nest().blocks[0])
        scheduled = schedule_trace(trace, LX2())
        assert len(scheduled) == len(trace)
        assert sorted(map(id, scheduled)) == sorted(map(id, trace))

    def test_scheduled_kernel_memory_identical(self):
        """Full-block scheduling never changes the computed stencil."""
        k_plain, mem_p, src_p, dst_p = build_kernel("hstencil-nosched")
        k_sched, mem_s, src_s, dst_s = build_kernel("hstencil")
        FunctionalEngine(mem_p).run_kernel(k_plain)
        FunctionalEngine(mem_s).run_kernel(k_sched)
        assert np.allclose(dst_p.get_interior(), dst_s.get_interior(), rtol=1e-12)

    def test_aliasing_trace_scheduled_safely(self):
        """Store->load aliasing forces memory edges, still correct."""
        mem = MemorySpace()
        base = mem.alloc(32)
        mem.write(base, np.arange(32.0))
        trace = Trace(
            [
                LD1D(VReg(0), base),
                ST1D(VReg(0), base + 8),  # store
                LD1D(VReg(1), base + 8),  # aliasing load must stay after
                FMLA(VReg(2), VReg(1), VReg(1)),
                ST1D(VReg(2), base + 16),
            ]
        )
        scheduled = schedule_trace(trace, LX2())
        eng_a = FunctionalEngine(mem)
        eng_a.execute_trace(scheduled)
        got = eng_a.memory.read(base + 16, 8)
        expect = np.arange(8.0) * np.arange(8.0)
        assert np.array_equal(got, expect)

    def test_dependence_chain_order_kept(self):
        trace = Trace(
            [
                LD1D(VReg(0), 1000),
                FMLA(VReg(1), VReg(0), VReg(0)),
                FMLA(VReg(2), VReg(1), VReg(1)),
                ST1D(VReg(2), 2000),
            ]
        )
        scheduled = schedule_trace(trace, LX2())
        idx = {id(i): n for n, i in enumerate(scheduled)}
        assert idx[id(trace[0])] < idx[id(trace[1])] < idx[id(trace[2])] < idx[id(trace[3])]


class TestPerformance:
    def test_scheduling_improves_cycles(self):
        """Global scheduling beats body-local scheduling (Figure 13)."""
        te = TimingEngine(LX2())
        k_plain, *_ = build_kernel("hstencil-nosched", rows=32, cols=32)
        k_sched, *_ = build_kernel("hstencil", rows=32, cols=32)
        plain = te.run(k_plain, warm=True)
        sched = te.run(k_sched, warm=True)
        assert sched.cycles < plain.cycles
        assert sched.ipc > plain.ipc

    def test_interleaves_port_classes(self):
        """Scheduled traces alternate matrix/vector/memory instructions."""
        kernel, *_ = build_kernel("hstencil")
        trace = kernel.emit(kernel.loop_nest().blocks[0])
        # measure the longest same-port run in the scheduled stream
        longest = run = 1
        for a, b in zip(trace, trace[1:]):
            run = run + 1 if a.port is b.port else 1
            longest = max(longest, run)
        assert longest <= 12


class TestWindowsAndCache:
    def test_window_chunks_never_move_across_boundary(self):
        trace = Trace(LD1D(VReg(i % 8), 1000 + 8 * i) for i in range(16))
        out = schedule_trace(trace, LX2(), window=4)
        # each 4-chunk is a permutation of the original chunk
        for c in range(4):
            orig = {id(i) for i in trace[4 * c : 4 * c + 4]}
            got = {id(i) for i in out[4 * c : 4 * c + 4]}
            assert orig == got

    def test_tiny_traces_passthrough(self):
        trace = Trace([LD1D(VReg(0), 8)])
        assert list(schedule_trace(trace, LX2())) == list(trace)

    def test_permutation_cache_reused_across_blocks(self):
        clear_schedule_cache()
        kernel, *_ = build_kernel("hstencil")
        blocks = kernel.loop_nest().blocks
        t0 = kernel.emit(blocks[0])
        t1 = kernel.emit(blocks[1])
        # identical structure => same permutation object semantics
        m0 = [i.mnemonic for i in t0]
        m1 = [i.mnemonic for i in t1]
        assert m0 == m1

    def test_cache_keyed_by_address_pattern(self):
        """Same structural signature, different addresses, run in sequence:
        the second trace gets its own arbitration instead of replaying the
        permutation kept for the first."""

        def trace(st0, ld0, ld1, st1):
            return Trace(
                [
                    FMLA(VReg(0), VReg(6), VReg(3)),
                    ST1D(VReg(2), st0),
                    LD1D(VReg(1), ld0),
                    FMOPA(TileReg(0), VReg(5), VReg(3)),
                    LD1D(VReg(2), ld1),
                    FMOPA(TileReg(3), VReg(2), VReg(5)),
                    ST1D(VReg(6), st1),
                ]
            )

        first = trace(2432, 1144, 1328, 2520)
        # Both loads hit one line: program order takes the second as an L1 hit.
        second = trace(2520, 1520, 1520, 2192)
        clear_schedule_cache()
        schedule_trace(first, LX2())
        after_first = schedule_trace(second, LX2())
        clear_schedule_cache()
        fresh = schedule_trace(second, LX2())
        assert list(after_first) == list(fresh)
        cycles = TimingEngine(LX2()).run_trace(after_first).cycles
        assert cycles <= TimingEngine(LX2()).run_trace(second).cycles

    def test_cache_keyed_by_machine(self):
        clear_schedule_cache()
        from repro.machine.config import M4

        trace = Trace(
            [LD1D(VReg(0), 1000), FMLA(VReg(1), VReg(0), VReg(0)), ST1D(VReg(1), 2000)]
        )
        a = schedule_trace(trace, LX2())
        b = schedule_trace(trace, M4())
        assert len(a) == len(b) == 3
