"""Fine-grained matrix-vector instruction scheduling (Section 3.2.2).

``schedule_trace`` re-orders a block's instruction trace so that load,
matrix, vector and store instructions interleave across their pipelines —
the software equivalent of the paper's hand scheduling.  The algorithm is
dependence-aware greedy list scheduling driven by the *same* issue rules
the timing engine applies (in-order frontier, operand readiness, port
initiation intervals, issue width), so what the scheduler optimizes is
exactly what the machine measures:

1. build the dependence DAG (RAW/WAR/WAW on registers and tile slices;
   memory edges only when a block actually aliases loads and stores, which
   the generated kernels never do — the check is still performed);
2. compute critical-path priorities;
3. repeatedly pick, among ready instructions, the one that can issue
   earliest on a simulated scoreboard (ties broken by critical path, then
   original order);
4. cost the candidate schedule and the original order on a cold timing
   engine and keep whichever is faster.  The scoreboard is dependence- and
   port-accurate but cache-oblivious, so degenerate traces (e.g. cold-miss
   loads hoisted between aliasing stores) can otherwise be scheduled into
   something slower than program order; the final arbitration makes the
   "scheduling never hurts" property hold by construction.

Because all interior blocks of a kernel share one structure and one
line-relative address pattern, the computed permutation is cached by both
and re-applied in O(n) — without this, band-sampled out-of-cache runs would
re-schedule thousands of identical blocks.  The structure is the trace
signature the template layer already computes
(:func:`repro.machine.compiled.trace_signature`: every instruction's class
and non-address fields), which determines each instruction's mnemonic,
port and register reads and writes, so it pins the dependence DAG.  The
address pattern is part of the key because step 4's verdict depends on
it: a permutation arbitrated for one pattern may lose to program order on
another.  Lines are taken relative to the start of their *cluster* (runs
of lines no further apart than the hardware prefetcher reaches), not to
the trace's first line: a kernel's coefficient tables sit still while its
grid rows move from block to block, and the distance between two clusters
changes neither which accesses hit nor what the prefetcher fetches.

A scheduled trace is a permutation of the input: functional semantics are
preserved by construction (property-tested in the test suite).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.isa.instructions import Instruction, PortClass, PRFM
from repro.isa.program import Trace
from repro.machine.compiled import trace_signature
from repro.machine.config import MachineConfig

#: Ready instructions examined per scheduling step (priority-ordered).
_BEAM = 24

#: Permutation cache keyed by (machine name, trace signature, address
#: pattern).
_PERM_CACHE: Dict[Tuple, Tuple[int, ...]] = {}


def _address_pattern(trace: Sequence[Instruction], line_words: int, reach: int) -> Tuple:
    """Memory footprint up to a translation of each cluster of lines.

    Distinct lines split into clusters wherever two neighbours are more
    than ``reach`` lines apart; clusters are numbered in the order the trace
    first touches them, so moving one past another changes nothing.  One
    ``(instruction index, cluster, line delta from the cluster's first
    line, word offset in line, words)`` entry per accessed region;
    prefetches add their level and write hint, which the structural
    signature does not carry.
    """
    accesses = []
    for idx, ins in enumerate(trace):
        if isinstance(ins, PRFM):
            regions = ((ins.addr, ins.length),)
            extra = (ins.level, ins.write)
        else:
            regions = ins.mem_reads() + ins.mem_writes()
            extra = ()
        for addr, words in regions:
            line, offset = divmod(addr, line_words)
            accesses.append((idx, line, offset, words, extra))
    start = {}
    prev = base = None
    for line in sorted({access[1] for access in accesses}):
        if prev is None or line - prev > reach:
            base = line
        start[line] = base
        prev = line
    number: Dict[int, int] = {}
    return tuple(
        (idx, number.setdefault(start[line], len(number)), line - start[line], offset, words)
        + extra
        for idx, line, offset, words, extra in accesses
    )


def _has_memory_aliasing(trace: Sequence[Instruction]) -> bool:
    """True if any store overlaps any load or another store.

    Either case requires memory ordering edges (and disables permutation
    caching).  The generated kernels keep loads and stores in disjoint
    regions and never store twice to the same words within a block, so the
    fast path applies to them; hand-written traces get the safe path.
    """
    stores: List[Tuple[int, int]] = []
    loads: List[Tuple[int, int]] = []
    s_app = stores.append
    l_app = loads.append
    for ins in trace:
        if isinstance(ins, PRFM):
            continue  # hints carry no ordering requirement
        for a, n in ins.mem_writes():
            s_app((a, a + n))
        for a, n in ins.mem_reads():
            l_app((a, a + n))
    if not stores:
        return False
    stores.sort()
    # store-store overlap (WAW on memory)
    for (lo_a, hi_a), (lo_b, _hi_b) in zip(stores, stores[1:]):
        if lo_b < hi_a:
            return True
    loads.sort()
    si = 0
    for lo, hi in loads:
        while si < len(stores) and stores[si][1] <= lo:
            si += 1
        if si < len(stores) and stores[si][0] < hi:
            return True
    return False


def _build_dag(
    trace: Sequence[Instruction], memory_edges: bool
) -> Tuple[List[List[int]], List[int]]:
    """Return (successors, indegree) of the dependence DAG."""
    n = len(trace)
    succs: List[List[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    edges = set()

    def add_edge(a: int, b: int) -> None:
        if a != b and (a, b) not in edges:
            edges.add((a, b))
            succs[a].append(b)
            indeg[b] += 1

    last_writer: Dict[object, int] = {}
    readers: Dict[object, List[int]] = {}
    mem_stores: List[Tuple[int, int, int]] = []
    mem_loads: List[Tuple[int, int, int]] = []

    for idx, ins in enumerate(trace):
        for key in ins.reads():
            if key in last_writer:
                add_edge(last_writer[key], idx)  # RAW
            readers.setdefault(key, []).append(idx)
        for key in ins.writes():
            if key in last_writer:
                add_edge(last_writer[key], idx)  # WAW
            for r in readers.get(key, ()):  # WAR
                add_edge(r, idx)
            last_writer[key] = idx
            readers[key] = []
        if memory_edges and not isinstance(ins, PRFM):
            for a, cnt in ins.mem_reads():
                for sa, se, sidx in mem_stores:
                    if sa < a + cnt and a < se:
                        add_edge(sidx, idx)
                mem_loads.append((a, a + cnt, idx))
            for a, cnt in ins.mem_writes():
                for sa, se, sidx in mem_stores:
                    if sa < a + cnt and a < se:
                        add_edge(sidx, idx)
                for la, le, lidx in mem_loads:
                    if la < a + cnt and a < le:
                        add_edge(lidx, idx)
                mem_stores.append((a, a + cnt, idx))
    return succs, indeg


def _critical_paths(
    trace: Sequence[Instruction], succs: List[List[int]], config: MachineConfig
) -> List[int]:
    """Longest latency path from each node to any sink."""
    n = len(trace)
    cp = [0] * n
    for idx in range(n - 1, -1, -1):
        lat = config.latency_for(trace[idx]).latency
        best = 0
        for s in succs[idx]:
            if cp[s] > best:
                best = cp[s]
        cp[idx] = lat + best
    return cp


def _greedy_order(
    trace: Sequence[Instruction],
    succs: List[List[int]],
    indeg: List[int],
    config: MachineConfig,
) -> List[int]:
    """Greedy list scheduling against a simulated scoreboard."""
    n = len(trace)
    indeg = list(indeg)
    ready: List[int] = [i for i in range(n) if indeg[i] == 0]

    reg_ready: Dict[object, int] = {}
    port_free: Dict[PortClass, List[int]] = {
        port: [0] * count for port, count in config.ports.items()
    }
    frontier = 0
    cycle = 0
    issued = 0
    order: List[int] = []

    def estimate(idx: int) -> int:
        ins = trace[idx]
        t = frontier
        for key in ins.reads():
            r = reg_ready.get(key, 0)
            if r > t:
                t = r
        for key in ins.writes():
            r = reg_ready.get(key, 0)
            if r > t:
                t = r
        pipes = port_free[ins.port]
        p = min(pipes)
        if p > t:
            t = p
        if t == cycle and issued >= config.issue_width:
            t += 1
        return t

    cps = _critical_paths(trace, succs, config)

    while ready:
        # Examine the highest-priority ready instructions and commit the
        # one that can issue earliest.
        ready.sort(key=lambda i: (-cps[i], i))
        beam = ready[:_BEAM]
        best_idx = None
        best_key = None
        for i in beam:
            t = estimate(i)
            key = (t, -cps[i], i)
            if best_key is None or key < best_key:
                best_key = key
                best_idx = i
        assert best_idx is not None
        ready.remove(best_idx)
        ins = trace[best_idx]
        spec = config.latency_for(ins)
        t = estimate(best_idx)
        if t > cycle:
            cycle = t
            issued = 0
        issued += 1
        pipes = port_free[ins.port]
        pipe = min(range(len(pipes)), key=pipes.__getitem__)
        pipes[pipe] = t + spec.initiation_interval
        frontier = t
        done = t + spec.latency
        for key in ins.writes():
            reg_ready[key] = done
        order.append(best_idx)
        for s in succs[best_idx]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)

    if len(order) != n:
        raise RuntimeError("scheduling failed to order all instructions (cyclic deps?)")
    return order


def _arbitrated_perm(
    trace: Sequence[Instruction], perm: Sequence[int], config: MachineConfig
) -> Tuple[int, ...]:
    """Keep ``perm`` only if it is no slower than program order when timed.

    Both orders are costed on a cold machine, exactly how the scheduling
    quality properties measure them.  The greedy scoreboard ignores the
    cache hierarchy, so this guard is what turns "usually helps" into
    "never hurts".
    """
    from repro.machine.timing import TimingEngine

    scheduled = TimingEngine(config).run_trace(Trace(trace[i] for i in perm))
    original = TimingEngine(config).run_trace(Trace(trace))
    if scheduled.cycles <= original.cycles:
        return tuple(perm)
    return tuple(range(len(trace)))


def schedule_trace(
    trace: Sequence[Instruction],
    config: MachineConfig,
    window: int = 0,
) -> Trace:
    """Reorder a block trace for ILP; semantics-preserving.

    ``window = 0`` schedules the whole block at once — the paper's manual
    fine-grained matrix-vector interleaving.  A positive ``window``
    schedules fixed-size chunks independently, never moving an instruction
    across a chunk boundary: this models the *baseline* a real toolchain
    provides (the compiler's basic-block scheduler plus the core's limited
    reorder capability), which every kernel — including the comparison
    methods — enjoys.  The Figure 13 scheduling ablation is therefore the
    delta between local (windowed) and global scheduling, not between
    scheduled and pathologically serialized code.
    """
    if len(trace) <= 2:
        return Trace(trace)
    if window and window > 0 and len(trace) > window:
        out = Trace()
        for start in range(0, len(trace), window):
            out.extend(schedule_trace(trace[start : start + window], config, window=0))
        return out
    aliasing = _has_memory_aliasing(trace)
    if not aliasing:
        pattern = _address_pattern(trace, config.l1.line_bytes // 8, config.hw_prefetch_depth)
        key = (config.name, trace_signature(trace), pattern)
        perm = _PERM_CACHE.get(key)
        if perm is None:
            succs, indeg = _build_dag(trace, memory_edges=False)
            perm = _arbitrated_perm(trace, _greedy_order(trace, succs, indeg, config), config)
            _PERM_CACHE[key] = perm
        return Trace(trace[i] for i in perm)
    succs, indeg = _build_dag(trace, memory_edges=True)
    order = _arbitrated_perm(trace, _greedy_order(trace, succs, indeg, config), config)
    return Trace(trace[i] for i in order)


def clear_schedule_cache() -> None:
    """Drop the permutation cache (tests / memory hygiene)."""
    _PERM_CACHE.clear()
