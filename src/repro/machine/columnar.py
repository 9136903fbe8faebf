"""Columnar timing replay for the band-sampled (out-of-cache) path.

Out-of-cache grids are where the simulator spends its time: cache state
never recurs, so the pass-level fixed point never fires and every instruction of every sampled band takes a scalar Python trip
through the scoreboard, the cache hierarchy and the prefetcher.  This
module reorganizes that walk the same way the vectorization literature
reorganizes stencil loops — hoist the regular part out and batch it:

* **Address-stream precomputation.**  Template replay already proves a
  per-class affine address model (:mod:`repro.kernels.template`), so for a
  *run* of consecutive same-template blocks the full word-address stream —
  every memop's start address and first/last cache line — is computed as
  one NumPy expression over the whole run instead of per-instruction
  integer arithmetic inside the walk.

* **Phase split.**  The memory subsystem (caches + stream prefetcher)
  never reads scoreboard state, and the scoreboard reads memory behaviour
  only through one number per load step (the worst level reached).  Each
  block therefore splits exactly into a *memory phase* — a tight loop over
  just the precomputed memory operations, mirroring
  ``PipelineModel.process_template``'s cache/prefetcher handling
  operation-for-operation and emitting the per-load level vector — and a
  *scoreboard phase* consuming that vector.

* **Scoreboard memoization.**  The scoreboard recurrence is a pure,
  translation-invariant function of its relative entry context (live-in
  slot offsets past the frontier, port-pipe offsets/rank order, issue-slot
  state) and the level vector.  In the steady state of a band the same
  context recurs block after block, so phase two collapses to a dictionary
  hit that applies the recorded relative outputs — the same exact-key
  discipline as the pass-level fixed point, needing no verification.

* **Probe-verify / demote.**  Although both phases are constructed to be
  bit-identical to the scalar walk, the replay still follows the
  established safety pattern: per shape class it replays a representative
  block, a steady-state (mid-run) block and a band-boundary block — plus a
  periodic re-probe — on a *cloned* pipeline, runs the scalar walk on the
  real one, and compares counters, cache/prefetcher/scoreboard state
  signatures and absolute issue state.  Any mismatch permanently demotes
  the class to the scalar walk (whose result is already in place, so a
  failed probe costs nothing but the clone).

``REPRO_TIMING=columnar|scalar`` (and ``--timing`` on the CLI) selects
this engine.  It engages on the compiled engine's band-sampled path *and*
on full simulations' measured passes (the in-cache first pass that the
pass-level fixed point cannot skip).
:class:`~repro.machine.timing.TimingEngine`
drives one :class:`ColumnarReplayer` per run, but all runs of one engine
share a :class:`ColumnarShare`: memory plans and the scoreboard memo are
keyed on (pooled) program identity and relative context only, so a
multicore sweep evaluates each distinct slice height against the same
warmed state instead of rebuilding it per height.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.program import Kernel, KernelBlock
from repro.kernels.template import RowTemplate, TraceCompiler
from repro.machine.batched import template_runs
from repro.machine.compiled import (
    K_LOAD,
    K_PRFM,
    K_STORE,
    N_SLOTS,
    SCOREBOARD_KEYS,
    SLOT_OF,
    TimingProgram,
)
from repro.machine.config import MachineConfig
from repro.machine.pipeline import PipelineModel
from repro.machine.prefetcher import LINES_PER_PAGE, _Stream

#: Columnar-replayed blocks of a class between defensive periodic re-probes
#: (on top of the representative / steady-state / band-boundary probes).
REPROBE_INTERVAL = 256

#: Scoreboard-recurrence memoization granularity, in program steps.  Out of
#: cache the *global* per-block miss pattern rarely recurs (different lines
#: straddle sets and pages differently block to block), but locally most
#: chunks are all-L1 with a steady relative pipeline rhythm — memoizing per
#: chunk lets those hit even when the blocks' full level vectors differ.
SB_CHUNK = 48


def _lru_victim(ways: Dict[int, int]) -> int:
    """Smallest-tick key of a cache set — the LRU eviction victim.

    Equivalent to ``min(ways, key=ways.__getitem__)`` (ticks are unique, so
    there are no ties to break) but ~2.5x faster: one C-level pass over
    ``items()`` instead of a hash probe per key.  Eviction runs once per
    fill in the steady out-of-cache state, which makes this the single
    hottest arithmetic in the memory phase.
    """
    it = iter(ways.items())
    vk, vt = next(it)
    for k, t in it:
        if t < vt:
            vk = k
            vt = t
    return vk


def _pipes_key(vals: List[int], f0: int) -> Tuple[int, ...]:
    """Port-pipe context: exact offsets past the frontier, rank order below.

    Pipes still busy past the entry frontier matter exactly (they can stall
    issue), so they key by offset.  Pipes at or before the frontier can
    never stall, but their *relative order* (including ties) still decides
    which pipe the least-loaded choice picks, so they key by dense rank,
    encoded negatively to stay disjoint from the offsets.
    """
    n = len(vals)
    if n == 1:
        p = vals[0]
        return ((p - f0) if p > f0 else -1,)
    stale = sorted({p for p in vals if p <= f0})
    return tuple((p - f0) if p > f0 else stale.index(p) - n for p in vals)


class _MemPlan:
    """Per-program memory plan: flattened memops + step-level op list.

    ``m_ai``/``m_off``/``m_nw`` are parallel arrays over every memory
    operand of the program (loads, stores and prefetches), so a run's full
    address stream is ``addrs[:, m_ai] + m_off`` — one vectorized int64
    expression.  ``ops`` keeps the step structure the walk needs: which
    flattened range belongs to which load/store step (levels aggregate per
    step) and each prefetch's length/write flag.

    ``chunks`` partitions the program's steps for the scoreboard phase.
    Each chunk record carries everything the memo key and the walk need:
    ``(steps, live_in, write_out, port_ids, lev_lo, lev_hi)`` where
    ``live_in`` lists slots read before written inside the chunk (the only
    entry values that can influence it) and ``port_ids`` the port classes
    it issues to.
    """

    __slots__ = (
        "m_ai",
        "m_off",
        "m_nw",
        "ops",
        "n_loads",
        "chunks",
        "live_in",
        "write_union",
    )

    def __init__(self, program: TimingProgram) -> None:
        m_ai: List[int] = []
        m_off: List[int] = []
        m_nw: List[int] = []
        ops: List[Tuple] = []
        n_loads = 0
        for _dep, _wr, _port, _lat, _ii, kind, memops in program.steps:
            if not kind:
                continue
            if kind == K_PRFM:
                addr_idx, length, wr = memops
                ops.append((K_PRFM, len(m_ai), length, wr))
                m_ai.append(addr_idx)
                m_off.append(0)
                m_nw.append(length)
            else:
                lo = len(m_ai)
                for addr_idx, offset, nwords in memops:
                    m_ai.append(addr_idx)
                    m_off.append(offset)
                    m_nw.append(nwords)
                # Uniform 4-tuples so the memory phase unpacks every op in
                # one UNPACK_SEQUENCE (the trailing 0 pads load/store ops).
                ops.append((kind, lo, len(m_ai), 0))
                if kind == K_LOAD:
                    n_loads += 1
        self.m_ai = np.asarray(m_ai, dtype=np.int64)
        self.m_off = np.asarray(m_off, dtype=np.int64)
        self.m_nw = np.asarray(m_nw, dtype=np.int64)
        self.ops = tuple(ops)
        self.n_loads = n_loads

        # Block-level scoreboard frame: slots read before written anywhere
        # in the program (the only entry values the whole-block walk can
        # observe) and slots written anywhere (the only ones it can change).
        written_all: set = set()
        live_all: set = set()
        for dep_slots, write_slots, _port, _lat, _ii, _kind, _memops in program.steps:
            for s in dep_slots:
                if s not in written_all:
                    live_all.add(s)
            written_all.update(write_slots)
        self.live_in = tuple(sorted(live_all))
        self.write_union = tuple(sorted(written_all))

        chunks: List[Tuple] = []
        steps = program.steps
        lev_lo = 0
        for lo in range(0, len(steps), SB_CHUNK):
            chunk_steps = steps[lo : lo + SB_CHUNK]
            written: set = set()
            live: set = set()
            port_ids: set = set()
            lev_hi = lev_lo
            for dep_slots, write_slots, port_id, _lat, _ii, kind, _memops in chunk_steps:
                for s in dep_slots:
                    if s not in written:
                        live.add(s)
                written.update(write_slots)
                port_ids.add(port_id)
                if kind == K_LOAD:
                    lev_hi += 1
            chunks.append(
                (
                    chunk_steps,
                    tuple(sorted(live)),
                    tuple(sorted(written)),
                    tuple(sorted(port_ids)),
                    lev_lo,
                    lev_hi,
                )
            )
            lev_lo = lev_hi
        self.chunks = tuple(chunks)


def plan_payload_for(program: TimingProgram) -> Dict:
    """JSON-safe rendering of a program's memory plan (artifact store).

    A :class:`_MemPlan` is a pure function of its program, so the payload
    only has to carry the derived arrays; each chunk's step slice is
    rebuilt by indexing the (deserialized) program's own ``steps``, which
    keeps the payload small and the reconstruction exact.
    """
    plan = _MemPlan(program)
    return {
        "n_steps": len(program.steps),
        "m_ai": plan.m_ai.tolist(),
        "m_off": plan.m_off.tolist(),
        "m_nw": plan.m_nw.tolist(),
        "ops": [list(op) for op in plan.ops],
        "n_loads": plan.n_loads,
        "live_in": list(plan.live_in),
        "write_union": list(plan.write_union),
        "chunks": [
            [list(live), list(written), list(ports), lo, hi]
            for _steps, live, written, ports, lo, hi in plan.chunks
        ],
    }


def plan_from_payload(program: TimingProgram, payload) -> Optional[_MemPlan]:
    """Rebuild a :class:`_MemPlan`; ``None`` on any shape mismatch.

    ``None`` sends the caller to live plan construction — a corrupt or
    stale payload must never produce a wrong plan, and the step-count guard
    rejects payloads that were serialized against a different program.
    """
    try:
        steps = program.steps
        if payload["n_steps"] != len(steps):
            return None
        chunks_raw = payload["chunks"]
        if len(chunks_raw) != (len(steps) + SB_CHUNK - 1) // SB_CHUNK:
            return None
        plan = object.__new__(_MemPlan)
        plan.m_ai = np.asarray(payload["m_ai"], dtype=np.int64)
        plan.m_off = np.asarray(payload["m_off"], dtype=np.int64)
        plan.m_nw = np.asarray(payload["m_nw"], dtype=np.int64)
        plan.ops = tuple(tuple(op) for op in payload["ops"])
        plan.n_loads = payload["n_loads"]
        plan.live_in = tuple(payload["live_in"])
        plan.write_union = tuple(payload["write_union"])
        chunks: List[Tuple] = []
        for idx, (live, written, ports, lo, hi) in enumerate(chunks_raw):
            chunks.append(
                (
                    steps[idx * SB_CHUNK : (idx + 1) * SB_CHUNK],
                    tuple(live),
                    tuple(written),
                    tuple(ports),
                    lo,
                    hi,
                )
            )
        plan.chunks = tuple(chunks)
        if len(plan.m_ai) != len(plan.m_off) or len(plan.m_ai) != len(plan.m_nw):
            return None
        return plan
    except (KeyError, TypeError, ValueError, IndexError):
        return None


class ColumnarShare:
    """Cross-run columnar state: memory plans and scoreboard memo tables.

    Everything here is keyed on :class:`TimingProgram` identity, and
    programs are pooled per ``(config, structural signature)``
    (:func:`repro.machine.compiled.pooled_timing_program`); the memo keys
    themselves are purely relative (translation-invariant contexts).  One
    share is therefore sound across kernels, passes, runs and multicore
    slice heights *of the same config* — which is exactly the lifetime of a
    :class:`~repro.machine.timing.TimingEngine`, the object that owns one.
    Replayers constructed without an explicit share get a private one.
    """

    __slots__ = ("plans", "pmemo", "bmemo")

    def __init__(self) -> None:
        #: program -> flattened memory plan.
        self.plans: Dict[TimingProgram, _MemPlan] = {}
        #: program -> per-chunk {relative scoreboard context -> outputs}.
        self.pmemo: Dict[TimingProgram, List[Dict[Tuple, Tuple]]] = {}
        #: program -> whole-block {relative scoreboard context -> outputs};
        #: tried before the chunk tables, hit when an entire block's entry
        #: context recurs (the common case once a band reaches steady state).
        self.bmemo: Dict[TimingProgram, Dict[Tuple, Tuple]] = {}

    def drop(self, program: TimingProgram) -> None:
        """Forget everything recorded for ``program`` (demotion path)."""
        self.plans.pop(program, None)
        self.pmemo.pop(program, None)
        self.bmemo.pop(program, None)


class _ClassState:
    """Probe/demotion lifecycle of one shape class (one template)."""

    __slots__ = ("demoted", "probed", "first_band", "since_probe")

    def __init__(self, first_band: int) -> None:
        self.demoted = False
        #: Probe kinds already passed: "rep", "steady", "band".
        self.probed: set = set()
        self.first_band = first_band
        self.since_probe = 0


class ColumnarReplayer:
    """Band-at-a-time columnar replay driver for one kernel run.

    Drives the kernel's :class:`~repro.kernels.template.TraceCompiler`
    (its caller owns it and flushes it when the run ends) and (a view of) a
    :class:`ColumnarShare`; mutates the supplied pipe exactly
    as the scalar per-block walk would (bit-identical counters and state,
    enforced by the probe lifecycle and ``tests/test_columnar_timing.py``).
    """

    def __init__(
        self,
        kernel: Kernel,
        config: MachineConfig,
        pipe: PipelineModel,
        compiler: TraceCompiler,
        share: Optional[ColumnarShare] = None,
    ) -> None:
        self.kernel = kernel
        self.config = config
        self.pipe = pipe
        self.compiler = compiler
        self.share = share if share is not None else ColumnarShare()
        self._plans = self.share.plans
        self._pmemo = self.share.pmemo
        self._bmemo = self.share.bmemo
        self._classes: Dict[RowTemplate, _ClassState] = {}
        self._band_no = 0
        self._line_words = config.l1.line_bytes // 8
        self._penalty = (
            0,
            0,
            config.l2_load_latency - config.l1_load_latency,
            config.mem_load_latency - config.l1_load_latency,
        )
        #: Persistent scoreboard slot array, synchronized with the pipe's
        #: ``_ready`` dict lazily (``_slots_stale`` marks which side wins).
        self._slots = [0] * N_SLOTS
        self._slots_stale = True

        # Lifecycle statistics (exposed for tests and diagnostics).
        self.columnar_blocks = 0
        self.scalar_blocks = 0
        self.verifications = 0
        self.demotions = 0

    # -- scoreboard slot synchronization -------------------------------------

    def _sync_slots(self) -> None:
        """Refresh the slot array from the pipe's ready dict if stale."""
        if not self._slots_stale:
            return
        slots = self._slots
        for i in range(N_SLOTS):
            slots[i] = 0
        slot_of_get = SLOT_OF.get
        for key, val in self.pipe._ready.items():
            idx = slot_of_get(key)
            if idx is not None:
                slots[idx] = val
        self._slots_stale = False

    def _writeback_slots(self) -> None:
        """Flush the slot array into the ready dict (scalar walk entry)."""
        if self._slots_stale:
            return
        ready = self.pipe._ready
        slots = self._slots
        for i in range(N_SLOTS):
            v = slots[i]
            if v:
                ready[SCOREBOARD_KEYS[i]] = v

    # -- band driver ----------------------------------------------------------

    def process_band(self, band: Sequence[KernelBlock]) -> None:
        """Process one outer-loop band, bit-identically to the scalar walk."""
        band_no = self._band_no
        self._band_no += 1
        compiler = self.compiler
        config = self.config
        # Lookups are pipe-independent, so resolving the whole band up
        # front (same order as the scalar walk) lets runs of consecutive
        # same-template blocks share one vectorized address computation.
        entries = [compiler.lookup(block) for block in band]
        for template, i, j in template_runs(entries):
            program = None if template is None else template.timing_program(config)
            if program is None:
                for k in range(i, j):
                    self._run_scalar_trace(band[k])
                continue
            state = self._classes.get(template)
            if state is None:
                state = _ClassState(band_no)
                self._classes[template] = state
            if state.demoted:
                for k in range(i, j):
                    self._run_scalar_template(program, entries[k][1])
                continue
            self._run_columnar(template, program, state, entries, i, j, band_no)
        # Leave the pipe fully consistent at band boundaries (snapshots and
        # state signatures are taken between bands).
        self._writeback_slots()

    # -- scalar fallbacks ------------------------------------------------------

    def _run_scalar_trace(self, block: KernelBlock) -> None:
        self._writeback_slots()
        self._slots_stale = True
        self.pipe.process_trace(self.kernel.emit(block))
        self.scalar_blocks += 1

    def _run_scalar_template(self, program: TimingProgram, addrs: Sequence[int]) -> None:
        self._writeback_slots()
        self._slots_stale = True
        self.pipe.process_template(program, addrs)
        self.scalar_blocks += 1

    # -- columnar run ----------------------------------------------------------

    def _run_columnar(
        self,
        template: RowTemplate,
        program: TimingProgram,
        state: _ClassState,
        entries: List,
        i: int,
        j: int,
        band_no: int,
    ) -> int:
        """Replay run ``entries[i:j]`` columnar; returns the next index."""
        plan = self._plans.get(program)
        if plan is None:
            # Store-loaded programs ship their serialized plan; a malformed
            # payload silently falls back to live construction.
            if program.plan_payload is not None:
                plan = plan_from_payload(program, program.plan_payload)
            if plan is None:
                plan = _MemPlan(program)
            self._plans[program] = plan

        # Vectorized address-stream precomputation for the whole run: the
        # start word address, first line and last line of every memop of
        # every block, as plain nested lists for the interpreter loop.
        nb = j - i
        addr_mat = np.asarray([entries[k][1] for k in range(i, j)], dtype=np.int64)
        starts = addr_mat[:, plan.m_ai] + plan.m_off
        firsts = starts // self._line_words
        lasts = (starts + (plan.m_nw - 1)) // self._line_words
        starts_l = starts.tolist()
        firsts_l = firsts.tolist()
        lasts_l = lasts.tolist()

        pipe = self.pipe
        for k in range(nb):
            probe = self._due_probe(state, band_no, k, nb)
            if probe is not None:
                ok = self._probe(
                    template, program, plan, state, probe,
                    entries[i + k][1], starts_l[k], firsts_l[k], lasts_l[k],
                )
                if not ok:
                    # Demoted: the scalar walk already advanced the real
                    # pipe past the probed block; finish the run scalar.
                    for kk in range(k + 1, nb):
                        self._run_scalar_template(program, entries[i + kk][1])
                    return j
                continue
            state.since_probe += 1
            self._sync_slots()
            levels = self._phase_memory(plan, starts_l[k], firsts_l[k], lasts_l[k], pipe)
            self._phase_scoreboard(program, plan, levels, pipe, self._slots)
            self.columnar_blocks += 1
        return j

    def _due_probe(self, state: _ClassState, band_no: int, k: int, nb: int) -> Optional[str]:
        probed = state.probed
        if "rep" not in probed:
            return "rep"  # representative: first block of the class
        if "steady" not in probed and nb >= 3 and k == nb // 2:
            return "steady"  # steady state: middle of an interior run
        if "band" not in probed and band_no != state.first_band:
            return "band"  # band boundary: first block in a later band
        if state.since_probe >= REPROBE_INTERVAL:
            return "periodic"
        return None

    # -- probe-verify / demote -------------------------------------------------

    def _probe(
        self,
        template: RowTemplate,
        program: TimingProgram,
        plan: _MemPlan,
        state: _ClassState,
        kind: str,
        addrs: Sequence[int],
        S_row: List[int],
        F_row: List[int],
        L_row: List[int],
    ) -> bool:
        """Columnar on a clone vs scalar on the real pipe; demote on mismatch.

        Running the scalar walk on the *real* pipe means its (trusted)
        result is already in place whichever way the comparison goes; on a
        match the clone is byte-for-byte the same state, so continuing
        columnar afterwards is seamless.
        """
        self.verifications += 1
        pipe = self.pipe
        self._writeback_slots()
        self._slots_stale = True

        clone = pipe.clone()
        clone_slots = [0] * N_SLOTS
        slot_of_get = SLOT_OF.get
        for key, val in clone._ready.items():
            idx = slot_of_get(key)
            if idx is not None:
                clone_slots[idx] = val
        levels = self._phase_memory(plan, S_row, F_row, L_row, clone)
        self._phase_scoreboard(program, plan, levels, clone, clone_slots)
        ready = clone._ready
        for i in range(N_SLOTS):
            v = clone_slots[i]
            if v:
                ready[SCOREBOARD_KEYS[i]] = v

        pipe.process_template(program, addrs)
        self.scalar_blocks += 1

        if self._columnar_matches(clone, pipe):
            state.probed.add(kind)
            state.since_probe = 0
            return True
        self._demote(template, state)
        return False

    @staticmethod
    def _columnar_matches(clone: PipelineModel, pipe: PipelineModel) -> bool:
        """Full structural state comparison of the columnar and scalar pipes.

        Because the clone starts as an exact copy (including absolute LRU
        ticks) and both sides then process the same block, a correct replay
        leaves *identical* absolute state — so this compares raw structures
        directly, which is both stricter and much cheaper than building the
        normalized ``state_signature`` tuples.  Stream-table order matters
        (LRU eviction), hence the item-list comparison.
        """
        ch, ph = clone.hierarchy, pipe.hierarchy
        cf, pf = clone.prefetcher, pipe.prefetcher
        return (
            clone._frontier == pipe._frontier
            and clone._cycle == pipe._cycle
            and clone._issued_this_cycle == pipe._issued_this_cycle
            and clone.makespan == pipe.makespan
            and clone._port_free == pipe._port_free
            and clone._ready == pipe._ready
            and clone.instructions_retired == pipe.instructions_retired
            and clone.instructions_by_port == pipe.instructions_by_port
            and clone.flops == pipe.flops
            and clone.useful_flops == pipe.useful_flops
            and clone.sw_prefetches == pipe.sw_prefetches
            and ch.mem_lines_read == ph.mem_lines_read
            and ch.mem_lines_written == ph.mem_lines_written
            and ch.l1._tick == ph.l1._tick
            and ch.l1._sets == ph.l1._sets
            and ch.l1._dirty == ph.l1._dirty
            and ch.l1.stats == ph.l1.stats
            and ch.l2._tick == ph.l2._tick
            and ch.l2._sets == ph.l2._sets
            and ch.l2._dirty == ph.l2._dirty
            and ch.l2.stats == ph.l2.stats
            and list(cf._streams.items()) == list(pf._streams.items())
            and cf.prefetches_issued == pf.prefetches_issued
            and cf.streams_confirmed == pf.streams_confirmed
            and cf.streams_allocated == pf.streams_allocated
        )

    def _demote(self, template: RowTemplate, state: _ClassState) -> None:
        state.demoted = True
        self.demotions += 1
        program = template.timing_program(self.config)
        # Drop shared state too: other replayers on the same share rebuild
        # plans/memos on demand, so discarding is always safe.
        self.share.drop(program)

    # -- phase one: memory ----------------------------------------------------

    def _phase_memory(
        self,
        plan: _MemPlan,
        S_row: List[int],
        F_row: List[int],
        L_row: List[int],
        pipe: PipelineModel,
    ) -> bytes:
        """Drive the block's memory operations; return per-load-step levels.

        Operation-for-operation identical to the memory handling inside
        ``PipelineModel.process_template`` (same inlined L1 probe, same
        shared miss path, same inlined prefetcher training in the same
        order) — only the scoreboard arithmetic is absent, which is sound
        because nothing in the cache or prefetcher ever reads it.
        """
        hierarchy = pipe.hierarchy
        l1 = hierarchy.l1
        l1_stats = l1.stats
        l1_num_sets = l1.num_sets
        l1_assoc = l1.assoc
        l1_sets = l1._sets
        l1_dirty = l1._dirty
        l2 = hierarchy.l2
        l2_stats = l2.stats
        l2_num_sets = l2.num_sets
        l2_assoc = l2.assoc
        l2_sets = l2._sets
        l2_dirty = l2._dirty
        pf = pipe.prefetcher
        pf_on = pf.enabled and pf.num_streams > 0
        pf_streams = pf._streams
        pf_move = pf_streams.move_to_end
        pf_confirm = pf.confirm_advances
        pf_max = pf.num_streams
        pf_depth = pf.depth
        watch = hierarchy.static_watch
        watch_hits = 0
        demand_accesses = 0
        demand_hits = 0
        l2_demand_accesses = 0
        l2_demand_hits = 0
        mem_reads = 0
        mem_writes = 0
        prefetch_fills = 0
        prefetches_issued = 0
        pf_probes = 0
        pf_probe_hits = 0
        # Both cache ticks run in locals and resynchronize around the one
        # remaining method call (software prefetch) — everything else, the
        # full miss path and the stream fills included, is inlined below
        # and touches no attributes at all.
        l1_tick = l1._tick
        l2_tick = l2._tick
        levels_out: List[int] = []
        append_level = levels_out.append

        lpp_minus1 = LINES_PER_PAGE - 1

        pf_pop = pf_streams.pop

        def advance_stream(line: int, stream) -> None:
            # Inlined stream advance + _issue_ahead/hardware_prefetch (the
            # fill code mirrors the demand path's install/writeback chain).
            # Shared by the L1-hit fast paths and the general training loop
            # below; the caller has already popped ``line - 1``'s stream
            # (one hash probe doubles as the membership test).  Targets
            # ascend, so _issue_ahead's per-target page check is equivalent
            # to clipping the range at the page's last line up front —
            # which also turns the issue counter into one bulk add.
            nonlocal l1_tick, l2_tick, mem_reads, mem_writes
            nonlocal prefetch_fills, prefetches_issued, watch_hits
            stream.advances += 1
            stream.tail_line = line
            pf_streams[line] = stream
            if stream.advances == pf_confirm:
                pf.streams_confirmed += 1
            if stream.advances >= pf_confirm:
                stop = line + pf_depth
                page_end = line - line % LINES_PER_PAGE + lpp_minus1
                if stop > page_end:
                    stop = page_end
                prefetches_issued += stop - line
                for target in range(line + 1, stop + 1):
                    ways = l1_sets[target % l1_num_sets]
                    if target not in ways:
                        if watch is not None and target in watch:
                            watch_hits += 1
                        ways2 = l2_sets[target % l2_num_sets]
                        if target in ways2:
                            l2_tick += 1
                            ways2[target] = l2_tick
                        else:
                            mem_reads += 1
                            l2_tick += 1
                            ways2[target] = l2_tick
                            if len(ways2) > l2_assoc:
                                v2 = _lru_victim(ways2)
                                del ways2[v2]
                                if v2 in l2_dirty:
                                    l2_dirty.discard(v2)
                                    l2_stats.writebacks += 1
                                    mem_writes += 1
                        l1_tick += 1
                        ways[target] = l1_tick
                        if len(ways) > l1_assoc:
                            victim = _lru_victim(ways)
                            del ways[victim]
                            if victim in l1_dirty:
                                if watch is not None and victim in watch:
                                    watch_hits += 1
                                l1_dirty.discard(victim)
                                l1_stats.writebacks += 1
                                wv = l2_sets[victim % l2_num_sets]
                                if victim in wv:
                                    l2_dirty.add(victim)
                                else:
                                    l2_tick += 1
                                    wv[victim] = l2_tick
                                    l2_dirty.add(victim)
                                    if len(wv) > l2_assoc:
                                        v2 = _lru_victim(wv)
                                        del wv[v2]
                                        if v2 in l2_dirty:
                                            l2_dirty.discard(v2)
                                            l2_stats.writebacks += 1
                                            mem_writes += 1
                        prefetch_fills += 1

        # L1-hit fast paths.  Vector loads and stores are narrower than a
        # cache line, so most operations touch exactly one line or
        # straddle two — and out of cache the prefetcher keeps the demand
        # stream hitting in L1.  Probing all touched lines up front (peeks
        # only, no state change) proves the demand pass reduces to tick
        # refreshes with ``level == 1``, so the allocation branch of the
        # training pass is dead and training collapses to the per-line
        # move/advance checks spelled out inline below — the exact
        # ``_observe_line`` sequence the general walk runs, minus its
        # loops.  Misses, wider spans, and multi-memop groups fall through
        # to the general walk untouched.
        for kind, a, b, c in plan.ops:
            if kind == K_PRFM:
                # Inlined CacheHierarchy.software_prefetch: the probe is
                # counted in L1 PMU stats, misses pull the line through L2
                # into L1 with the same install/writeback chain as the
                # demand path — and no demand counters.  The plan records
                # the PRFM's address operand like any other memop, so its
                # line range is F_row/L_row like the rest.
                first = F_row[a]
                last = L_row[a]
                pf_probes += last - first + 1
                for line in range(first, last + 1):
                    ways = l1_sets[line % l1_num_sets]
                    if line in ways:
                        l1_tick += 1
                        ways[line] = l1_tick
                        pf_probe_hits += 1
                        continue
                    if watch is not None and line in watch:
                        watch_hits += 1
                    ways2 = l2_sets[line % l2_num_sets]
                    if line in ways2:
                        l2_tick += 1
                        ways2[line] = l2_tick
                    else:
                        mem_reads += 1
                        l2_tick += 1
                        ways2[line] = l2_tick
                        if len(ways2) > l2_assoc:
                            v2 = _lru_victim(ways2)
                            del ways2[v2]
                            if v2 in l2_dirty:
                                l2_dirty.discard(v2)
                                l2_stats.writebacks += 1
                                mem_writes += 1
                    l1_tick += 1
                    ways[line] = l1_tick
                    if c:
                        l1_dirty.add(line)
                    if len(ways) > l1_assoc:
                        victim = _lru_victim(ways)
                        del ways[victim]
                        if victim in l1_dirty:
                            if watch is not None and victim in watch:
                                watch_hits += 1
                            l1_dirty.discard(victim)
                            l1_stats.writebacks += 1
                            wv = l2_sets[victim % l2_num_sets]
                            if victim in wv:
                                l2_dirty.add(victim)
                            else:
                                l2_tick += 1
                                wv[victim] = l2_tick
                                l2_dirty.add(victim)
                                if len(wv) > l2_assoc:
                                    v2 = _lru_victim(wv)
                                    del wv[v2]
                                    if v2 in l2_dirty:
                                        l2_dirty.discard(v2)
                                        l2_stats.writebacks += 1
                                        mem_writes += 1
                    prefetch_fills += 1
                continue
            if b - a == 1:
                first = F_row[a]
                last = L_row[a]
                if first == last:
                    ways = l1_sets[first % l1_num_sets]
                    if first in ways:
                        l1_tick += 1
                        ways[first] = l1_tick
                        demand_accesses += 1
                        demand_hits += 1
                        if kind == K_STORE:
                            l1_dirty.add(first)
                        else:
                            append_level(1)
                        if pf_on:
                            if first in pf_streams:
                                pf_move(first)
                            else:
                                stream = pf_pop(first - 1, None)
                                if stream is not None:
                                    advance_stream(first, stream)
                        continue
                elif last == first + 1:
                    ways = l1_sets[first % l1_num_sets]
                    if first in ways:
                        waysb = l1_sets[last % l1_num_sets]
                        if last in waysb:
                            l1_tick += 1
                            ways[first] = l1_tick
                            l1_tick += 1
                            waysb[last] = l1_tick
                            demand_accesses += 2
                            demand_hits += 2
                            if kind == K_STORE:
                                l1_dirty.add(first)
                                l1_dirty.add(last)
                            else:
                                append_level(1)
                            if pf_on:
                                if first in pf_streams:
                                    pf_move(first)
                                else:
                                    stream = pf_pop(first - 1, None)
                                    if stream is not None:
                                        advance_stream(first, stream)
                                if last in pf_streams:
                                    pf_move(last)
                                else:
                                    stream = pf_pop(first, None)
                                    if stream is not None:
                                        advance_stream(last, stream)
                            continue
            is_store = kind == K_STORE
            worst = 1  # L1
            for m in range(a, b):
                first = F_row[m]
                last = L_row[m]
                level = 1
                # Demand pass: inlined CacheHierarchy._access_line, miss
                # continuation included — L2 probe-with-promotion, clean L2
                # fill, L1 install with the dirty-victim L1 -> L2 -> DRAM
                # writeback chain (mirrors _access_line_miss/_fill_l1/_fill_l2
                # plus CacheLevel.install; the lines installed here are never
                # resident, so install's already-present branch is dead).
                demand_accesses += last - first + 1
                for line in range(first, last + 1):
                    ways = l1_sets[line % l1_num_sets]
                    if line in ways:
                        l1_tick += 1
                        ways[line] = l1_tick
                        demand_hits += 1
                        if is_store:
                            l1_dirty.add(line)
                    else:
                        if watch is not None and line in watch:
                            watch_hits += 1
                        l2_demand_accesses += 1
                        ways2 = l2_sets[line % l2_num_sets]
                        if line in ways2:
                            l2_tick += 1
                            ways2[line] = l2_tick
                            l2_demand_hits += 1
                            lv = 2
                        else:
                            mem_reads += 1
                            l2_tick += 1
                            ways2[line] = l2_tick
                            if len(ways2) > l2_assoc:
                                v2 = _lru_victim(ways2)
                                del ways2[v2]
                                if v2 in l2_dirty:
                                    l2_dirty.discard(v2)
                                    l2_stats.writebacks += 1
                                    mem_writes += 1
                            lv = 3
                        l1_tick += 1
                        ways[line] = l1_tick
                        if is_store:
                            l1_dirty.add(line)
                        if len(ways) > l1_assoc:
                            victim = _lru_victim(ways)
                            del ways[victim]
                            if victim in l1_dirty:
                                if watch is not None and victim in watch:
                                    watch_hits += 1
                                l1_dirty.discard(victim)
                                l1_stats.writebacks += 1
                                wv = l2_sets[victim % l2_num_sets]
                                if victim in wv:
                                    l2_dirty.add(victim)
                                else:
                                    l2_tick += 1
                                    wv[victim] = l2_tick
                                    l2_dirty.add(victim)
                                    if len(wv) > l2_assoc:
                                        v2 = _lru_victim(wv)
                                        del wv[v2]
                                        if v2 in l2_dirty:
                                            l2_dirty.discard(v2)
                                            l2_stats.writebacks += 1
                                            mem_writes += 1
                        if lv > level:
                            level = lv
                if pf_on:
                    # Training pass: inlined StreamPrefetcher._observe_line.
                    # Membership tests replace ``.get`` calls — the dominant
                    # steady-state case (line neither a stream tail nor one
                    # past a tail) then costs two C-level containment checks.
                    hit = level == 1
                    for line in range(first, last + 1):
                        if line in pf_streams:
                            pf_move(line)
                            continue
                        stream = pf_pop(line - 1, None)
                        if stream is not None:
                            advance_stream(line, stream)
                        elif not hit:
                            pf_streams[line] = _Stream(tail_line=line)
                            pf.streams_allocated += 1
                            if len(pf_streams) > pf_max:
                                pf_streams.popitem(last=False)
                if level > worst:
                    worst = level
            if not is_store:
                append_level(worst)

        l1._tick = l1_tick
        l2._tick = l2_tick
        l1_stats.demand_accesses += demand_accesses
        l1_stats.demand_hits += demand_hits
        l1_stats.prefetch_fills += prefetch_fills
        l1_stats.prefetch_probes += pf_probes
        l1_stats.prefetch_probe_hits += pf_probe_hits
        l2_stats.demand_accesses += l2_demand_accesses
        l2_stats.demand_hits += l2_demand_hits
        hierarchy.mem_lines_read += mem_reads
        hierarchy.mem_lines_written += mem_writes
        pf.prefetches_issued += prefetches_issued
        if watch_hits:
            hierarchy.static_watch_hits += watch_hits
        return bytes(levels_out)

    # -- phase two: scoreboard -------------------------------------------------

    def _phase_scoreboard(
        self,
        program: TimingProgram,
        plan: _MemPlan,
        levels: bytes,
        pipe: PipelineModel,
        slots: List[int],
    ) -> None:
        """Advance the scoreboard through the program, memoized at two grains.

        The max-plus issue recurrence is translation-invariant: shifting
        every entry value (frontier, live slots, busy pipes, cycle) by a
        constant shifts every output by the same constant.  A context is
        keyed on its *complete* relative entry state — live-in slot offsets
        clamped at the frontier (values at or below it can never raise an
        issue cycle), pipe offsets with rank-order for stale pipes (rank
        decides the least-loaded choice), the cycle lag and issue count, and
        the slice of the level vector that sets the load penalties — so a
        hit is exact by construction and needs no verification.

        The *whole-block* table is tried first: in a band's steady state the
        entire entry context recurs block after block and one hit replaces
        the chunk loop outright.  Blocks whose global context is novel
        (boundary lines, set-conflict beats) fall back to the per-chunk
        tables, which still hit on the locally-steady stretches, and the
        chunk walk's outcome is recorded at block grain on the way out.
        """
        port_free = pipe._port_free
        pipes_by_id = [port_free[p] for p in program.ports]

        makespan = pipe.makespan
        cycle = pipe._cycle
        issued = pipe._issued_this_cycle
        frontier = pipe._frontier

        # -- whole-block fast path ----------------------------------------
        bf0 = frontier
        bsb = tuple([(v - bf0) if (v := slots[s]) > bf0 else 0 for s in plan.live_in])
        bsig = []
        for pipes in pipes_by_id:
            if len(pipes) == 1:
                p = pipes[0]
                bsig.append((p - bf0) if p > bf0 else -1)
            elif len(pipes) == 2:
                p0, p1 = pipes
                if p0 > bf0:
                    bsig.append((p0 - bf0, p1 - bf0) if p1 > bf0 else (p0 - bf0, -2))
                elif p1 > bf0:
                    bsig.append((-2, p1 - bf0))
                elif p0 == p1:
                    bsig.append((-2, -2))
                else:
                    bsig.append((-2, -1) if p0 < p1 else (-1, -2))
            else:
                bsig.append(_pipes_key(pipes, bf0))
        btable = self._bmemo.get(program)
        if btable is None:
            btable = self._bmemo[program] = {}
        bkey = (bsb, tuple(bsig), bf0 - cycle, issued, levels)
        bentry = btable.get(bkey)
        if bentry is not None:
            slots_out, pipes_out, frontier_rel, cycle_lag, issued, done_rel = bentry
            for s, rel in slots_out:
                slots[s] = bf0 + rel
            for pid, jj, rel in pipes_out:
                pipes_by_id[pid][jj] = bf0 + rel
            frontier = bf0 + frontier_rel
            cycle = frontier - cycle_lag
            done = bf0 + done_rel
            if done > makespan:
                makespan = done
            pipe._frontier = frontier
            pipe._cycle = cycle
            pipe._issued_this_cycle = issued
            pipe.makespan = makespan
            pipe.instructions_retired += program.count
            by_port = pipe.instructions_by_port
            for port, count in program.port_counts.items():
                by_port[port] += count
            pipe.flops += program.flops
            pipe.useful_flops += program.useful_flops
            pipe.sw_prefetches += program.n_prfm
            return

        # -- chunk loop (block miss) --------------------------------------
        tables = self._pmemo.get(program)
        if tables is None:
            tables = [{} for _ in plan.chunks]
            self._pmemo[program] = tables
        assigned_all: set = set()
        block_done = 0
        for chunk, table in zip(plan.chunks, tables):
            steps, live_in, write_out, port_ids, lev_lo, lev_hi = chunk
            f0 = frontier
            sb = tuple([(v - f0) if (v := slots[s]) > f0 else 0 for s in live_in])
            # Inline the 1- and 2-pipe encodings of _pipes_key (fresh
            # pipes by offset, stale pipes by rank); the generic helper only
            # runs for wider port classes.
            sig = []
            for pid in port_ids:
                pipes = pipes_by_id[pid]
                if len(pipes) == 1:
                    p = pipes[0]
                    sig.append((p - f0) if p > f0 else -1)
                elif len(pipes) == 2:
                    p0, p1 = pipes
                    if p0 > f0:
                        sig.append((p0 - f0, p1 - f0) if p1 > f0 else (p0 - f0, -2))
                    elif p1 > f0:
                        sig.append((-2, p1 - f0))
                    elif p0 == p1:
                        sig.append((-2, -2))
                    else:
                        sig.append((-2, -1) if p0 < p1 else (-1, -2))
                else:
                    sig.append(_pipes_key(pipes, f0))
            key = (sb, tuple(sig), f0 - cycle, issued, levels[lev_lo:lev_hi])

            entry = table.get(key)
            if entry is None:
                entry = self._scoreboard_walk(
                    steps, write_out, levels, lev_lo, f0, cycle, issued,
                    slots, pipes_by_id, pipe.config.issue_width,
                )
                table[key] = entry
            slots_out, pipes_out, frontier_rel, cycle_lag, issued, done_rel = entry
            for s, rel in slots_out:
                slots[s] = f0 + rel
            for pid, jj, rel in pipes_out:
                pipes_by_id[pid][jj] = f0 + rel
                assigned_all.add((pid, jj))
            frontier = f0 + frontier_rel
            cycle = frontier - cycle_lag
            done = f0 + done_rel
            if done > block_done:
                block_done = done
            if done > makespan:
                makespan = done

        # Record the block outcome for the fast path.  Only pipes some
        # chunk assigned are recorded — unassigned pipes keep their
        # (possibly sub-frontier) absolute values, exactly as the scalar
        # walk leaves them, and the key pins their entry encoding.
        btable[bkey] = (
            tuple((s, slots[s] - bf0) for s in plan.write_union),
            tuple(
                (pid, jj, pipes_by_id[pid][jj] - bf0)
                for pid, jj in sorted(assigned_all)
            ),
            frontier - bf0,
            frontier - cycle,
            issued,
            block_done - bf0,
        )

        pipe._frontier = frontier
        pipe._cycle = cycle
        pipe._issued_this_cycle = issued
        pipe.makespan = makespan
        pipe.instructions_retired += program.count
        by_port = pipe.instructions_by_port
        for port, count in program.port_counts.items():
            by_port[port] += count
        pipe.flops += program.flops
        pipe.useful_flops += program.useful_flops
        pipe.sw_prefetches += program.n_prfm

    def _scoreboard_walk(
        self,
        steps: Tuple,
        write_out: Tuple[int, ...],
        levels: bytes,
        li: int,
        f0: int,
        cycle: int,
        issued: int,
        slots: List[int],
        pipes_by_id: List[List[int]],
        issue_width: int,
    ) -> Tuple:
        """Scoreboard-only chunk walk (memo miss); returns the memo entry.

        State is *not* written back here — the caller applies the returned
        entry, so hit and miss share one code path.
        """
        penalty = self._penalty
        frontier = f0
        max_done = 0
        pipes_assigned: set = set()

        for dep_slots, write_slots, port_id, base_latency, ii, kind, _memops in steps:
            t = frontier
            for s in dep_slots:
                r = slots[s]
                if r > t:
                    t = r

            pipes = pipes_by_id[port_id]
            if len(pipes) == 1:
                pipe_idx = 0
            elif len(pipes) == 2:
                pipe_idx = 0 if pipes[0] <= pipes[1] else 1
            else:
                pipe_idx = min(range(len(pipes)), key=pipes.__getitem__)
            if pipes[pipe_idx] > t:
                t = pipes[pipe_idx]

            if t > cycle:
                cycle = t
                issued = 0
            if issued >= issue_width:
                t = cycle + 1
                cycle = t
                issued = 0

            latency = base_latency
            if kind == K_LOAD:
                latency += penalty[levels[li]]
                li += 1

            pipes[pipe_idx] = t + ii
            pipes_assigned.add((port_id, pipe_idx))
            frontier = t
            issued += 1
            done = t + latency
            for s in write_slots:
                slots[s] = done
            if done > max_done:
                max_done = done

        return (
            tuple((s, slots[s] - f0) for s in write_out),
            # Only pipes the walk assigned are recorded: stale pipes keep
            # their (possibly sub-frontier) absolute values, which no
            # relative encoding could restore.
            tuple(
                (pid, jj, pipes_by_id[pid][jj] - f0)
                for pid, jj in sorted(pipes_assigned)
            ),
            frontier - f0,
            frontier - cycle,
            issued,
            max_done - f0,
        )
