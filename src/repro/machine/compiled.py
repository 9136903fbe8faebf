"""Precompiled per-template programs for the trace-replay fast path.

The compiled engine exploits the loop-body regularity of stencil kernels
(the same regularity the vectorization literature leans on): every block of
a given *shape class* emits a structurally identical instruction stream in
which only the word addresses differ.  This module turns one representative
trace into two flat programs that can be replayed per block with nothing
but a rebased address array:

* :class:`TimingProgram` — the static per-instruction metadata the
  scoreboard walk needs (dependence keys from ``reads()``/``writes()``,
  port class, latency spec, memory-op descriptors, flop counts) resolved
  once into parallel step tuples, so the replay loop performs no method
  dispatch, no ``latency_for`` lookup and no dependence-tuple construction.
* :class:`FunctionalProgram` — the architectural semantics lowered to
  small integer opcodes over direct register-file indices, so replay runs
  without per-instruction ``isinstance`` chains or defensive copies.

Both builders are *total* over the instruction set the kernels emit and
return ``None`` for anything else (unknown instruction types, ports with
no pipes, missing latency entries); the caller then falls back to the
reference object walk, which raises the canonical errors.  Address fields
are described by :data:`ADDR_FIELDS`; :func:`trace_signature` masks them
out so the template layer can check structural equality across blocks,
and :func:`trace_addresses` extracts them in program order (the order the
rebased address array uses).

Bit-identity is the design contract: a compiled program replayed through
``PipelineModel.process_template`` / ``FunctionalEngine.execute_template``
performs the same cache, prefetcher and scoreboard operations in the same
order as the reference walk over the original instruction objects.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import fields as _dataclass_fields
from operator import attrgetter as _attrgetter
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.instructions import (
    DUP,
    EXT,
    FADD_V,
    FMLA,
    FMLA_IDX,
    FMLA_M,
    FMOPA,
    FMUL_IDX,
    Instruction,
    LD1D,
    LD1D_STRIDED,
    MOVA_TILE_TO_VEC,
    MOVA_VEC_TO_TILE,
    PRFM,
    PortClass,
    SCALAR_OP,
    SET_LANES,
    ST1D,
    ST1D_SLICE,
    ZERO_TILE,
)
from repro.isa.registers import NUM_TILES, NUM_VREGS, SVL_LANES
from repro.machine import artifacts
from repro.machine.config import MachineConfig

# -- scoreboard slot universe ------------------------------------------------

#: Every scoreboard key the ISA can produce, in canonical order: vector
#: registers by name, then tile slices by (tile, row).  The compiled walk
#: keeps readiness in a flat list indexed by slot instead of the reference
#: walk's dict (tuple keys hash on every probe); the two are synchronized
#: at replay boundaries.
SCOREBOARD_KEYS: Tuple = tuple(f"z{i}" for i in range(NUM_VREGS)) + tuple(
    (f"za{t}", r) for t in range(NUM_TILES) for r in range(SVL_LANES)
)
SLOT_OF: Dict[object, int] = {key: i for i, key in enumerate(SCOREBOARD_KEYS)}
N_SLOTS = len(SCOREBOARD_KEYS)

# -- address/structure description -------------------------------------------

#: Word-address fields per instruction type.  These are the only fields a
#: template allows to vary between blocks of one shape class; the replay
#: driver rebases them per block.  Every other field must match exactly.
ADDR_FIELDS: Dict[type, Tuple[str, ...]] = {
    LD1D: ("addr",),
    LD1D_STRIDED: ("addr",),
    ST1D: ("addr",),
    ST1D_SLICE: ("addr",),
    PRFM: ("addr",),
}

#: Exact instruction types both program builders know how to lower.  An
#: instruction of any other type makes the whole trace non-compilable.
COMPILABLE_TYPES = frozenset(
    {
        LD1D,
        LD1D_STRIDED,
        ST1D,
        ST1D_SLICE,
        PRFM,
        FMLA,
        FMLA_IDX,
        FMUL_IDX,
        FADD_V,
        EXT,
        DUP,
        SET_LANES,
        FMOPA,
        ZERO_TILE,
        MOVA_TILE_TO_VEC,
        MOVA_VEC_TO_TILE,
        FMLA_M,
        SCALAR_OP,
    }
)

#: Per-class C-level getter for all non-address fields (signature probes
#: run over every instruction of every probe emit, so this is hot).
_SIG_GETTERS: Dict[type, object] = {}


def _sig_getter(cls: type):
    getter = _SIG_GETTERS.get(cls)
    if getter is None:
        addr_fields = ADDR_FIELDS.get(cls, ())
        names = [f.name for f in _dataclass_fields(cls) if f.name not in addr_fields]
        if not names:
            getter = lambda ins: ()  # noqa: E731 — address-only instruction
        elif len(names) == 1:
            only = names[0]
            getter = _attrgetter(only)
        else:
            getter = _attrgetter(*names)
        _SIG_GETTERS[cls] = getter
    return getter


def instruction_signature(ins: Instruction) -> Tuple:
    """Structural identity of one instruction with address fields masked."""
    cls = type(ins)
    return (cls, _sig_getter(cls)(ins))


def trace_signature(trace: Sequence[Instruction]) -> Tuple:
    """Structural identity of a whole trace (addresses masked out)."""
    getters = _SIG_GETTERS
    out = []
    for ins in trace:
        cls = type(ins)
        getter = getters.get(cls)
        if getter is None:
            getter = _sig_getter(cls)
        out.append((cls, getter(ins)))
    return tuple(out)


def trace_addresses(trace: Sequence[Instruction]) -> List[int]:
    """All word addresses of a trace, in program order.

    The returned list is the address vector a template's affine model is
    fitted over; replay passes a rebased copy of it to the engines.
    """
    addrs: List[int] = []
    for ins in trace:
        for name in ADDR_FIELDS.get(type(ins), ()):
            addrs.append(getattr(ins, name))
    return addrs


# -- timing program ----------------------------------------------------------

#: Memory-behaviour kinds of a timing step.
K_NONE, K_LOAD, K_STORE, K_PRFM = 0, 1, 2, 3


class TimingProgram:
    """Flattened scoreboard walk for one template trace.

    ``steps`` holds one tuple per instruction::

        (dep_slots, write_slots, port_id, latency, initiation_interval,
         kind, memops)

    ``dep_slots`` covers ``reads() + writes()`` (the issue-cycle max is
    commutative, so the two scans of the reference walk collapse into
    one) as indices into :data:`SCOREBOARD_KEYS`; ``port_id`` indexes the
    program's ``ports`` tuple; ``memops`` rebases through the per-block
    address array: ``(addr_index, word_offset, nwords)`` triples for
    loads/stores, a single ``(addr_index, length, write)`` triple for a
    software prefetch.  The aggregate counters are applied in bulk after
    a replay.
    """

    __slots__ = (
        "steps",
        "count",
        "ports",
        "port_counts",
        "flops",
        "useful_flops",
        "n_prfm",
        "n_addrs",
        "plan_payload",
    )

    def __init__(
        self,
        steps: Tuple,
        ports: Tuple,
        port_counts: Counter,
        flops: int,
        useful_flops: int,
        n_prfm: int,
        n_addrs: int,
    ) -> None:
        self.steps = steps
        self.count = len(steps)
        self.ports = ports
        self.port_counts = port_counts
        self.flops = flops
        self.useful_flops = useful_flops
        self.n_prfm = n_prfm
        self.n_addrs = n_addrs
        #: Serialized columnar plan riding along with a store-loaded program
        #: (see :mod:`repro.machine.columnar`); ``None`` on live builds.
        self.plan_payload = None


#: Config-independent static step data per instruction *signature*:
#: ``(port, mnemonic, dep_slots, write_slots, flops, useful_flops)``, or
#: ``False`` for signatures whose dependence keys fall outside the
#: canonical slot universe.  Dependence keys, ports and flop counts are
#: functions of the non-address fields only, so sharing across traces,
#: templates and kernels is exact.
_STATIC_STEPS: Dict[Tuple, object] = {}


def _static_step(ins: Instruction, sig: Tuple):
    slot_of = SLOT_OF
    try:
        dep_slots = tuple(slot_of[k] for k in ins.reads() + ins.writes())
        write_slots = tuple(slot_of[k] for k in ins.writes())
    except KeyError:
        _STATIC_STEPS[sig] = False  # key outside the canonical universe
        return False
    static = (ins.port, ins.mnemonic, dep_slots, write_slots, ins.flops, ins.useful_flops)
    _STATIC_STEPS[sig] = static
    return static


def build_timing_program(
    trace: Sequence[Instruction], config: MachineConfig
) -> Optional[TimingProgram]:
    """Lower a trace to a :class:`TimingProgram`; ``None`` if not possible.

    A ``None`` return sends the caller to the reference walk, which raises
    the canonical errors for missing latencies / pipes itself.
    """
    latencies = config.latencies
    ports = config.ports
    static_cache = _STATIC_STEPS
    sig_getters = _SIG_GETTERS
    steps: List[Tuple] = []
    ports_used: List = []
    port_ids: Dict = {}
    port_counts: Counter = Counter()
    flops = 0
    useful_flops = 0
    n_prfm = 0
    addr_idx = 0
    for ins in trace:
        cls = type(ins)
        if cls not in COMPILABLE_TYPES:
            return None
        getter = sig_getters.get(cls)
        if getter is None:
            getter = _sig_getter(cls)
        sig = (cls, getter(ins))
        static = static_cache.get(sig)
        if static is None:
            static = _static_step(ins, sig)
        if static is False:
            return None
        port, mnemonic, dep_slots, write_slots, ins_flops, ins_useful = static
        spec = latencies.get(mnemonic)
        if spec is None:
            return None
        if ports.get(port, 0) < 1:
            return None
        port_id = port_ids.get(port)
        if port_id is None:
            port_id = len(ports_used)
            port_ids[port] = port_id
            ports_used.append(port)
        if cls is LD1D:
            kind = K_LOAD
            memops: Tuple = ((addr_idx, 0, ins.mask),)
            addr_idx += 1
        elif cls is LD1D_STRIDED:
            kind = K_LOAD
            stride = ins.stride
            memops = tuple((addr_idx, k * stride, 1) for k in range(SVL_LANES))
            addr_idx += 1
        elif cls is ST1D or cls is ST1D_SLICE:
            kind = K_STORE
            memops = ((addr_idx, 0, ins.mask),)
            addr_idx += 1
        elif cls is PRFM:
            kind = K_PRFM
            memops = (addr_idx, ins.length, ins.write)
            addr_idx += 1
            n_prfm += 1
        else:
            kind = K_NONE
            memops = ()
        steps.append(
            (
                dep_slots,
                write_slots,
                port_id,
                spec.latency,
                spec.initiation_interval,
                kind,
                memops,
            )
        )
        port_counts[port] += 1
        flops += ins_flops
        useful_flops += ins_useful
    return TimingProgram(
        tuple(steps), tuple(ports_used), port_counts, flops, useful_flops, n_prfm, addr_idx
    )


# -- program serialization (artifact store payloads) -------------------------


def timing_program_to_payload(program: TimingProgram) -> Dict:
    """JSON-safe rendering of a :class:`TimingProgram`.

    Steps contain only ints, tuples of ints, bools and :class:`PortClass`
    members, all of which JSON round-trips exactly, so a deserialized
    program replays bit-identically to the live build it came from.
    """
    steps = []
    for dep_slots, write_slots, port_id, latency, ii, kind, memops in program.steps:
        if kind == K_PRFM:
            mem = [memops[0], memops[1], bool(memops[2])]
        else:
            mem = [list(m) for m in memops]
        steps.append([list(dep_slots), list(write_slots), port_id, latency, ii, kind, mem])
    return {
        "steps": steps,
        "ports": [port.name for port in program.ports],
        "port_counts": {port.name: n for port, n in program.port_counts.items()},
        "flops": program.flops,
        "useful_flops": program.useful_flops,
        "n_prfm": program.n_prfm,
        "n_addrs": program.n_addrs,
    }


def timing_program_from_payload(data: Dict) -> Optional[TimingProgram]:
    """Rebuild a :class:`TimingProgram`; ``None`` on any malformation."""
    try:
        steps = []
        for dep_slots, write_slots, port_id, latency, ii, kind, mem in data["steps"]:
            if kind == K_PRFM:
                memops: Tuple = (mem[0], mem[1], bool(mem[2]))
            else:
                memops = tuple(tuple(m) for m in mem)
            steps.append(
                (tuple(dep_slots), tuple(write_slots), port_id, latency, ii, kind, memops)
            )
        ports = tuple(PortClass[name] for name in data["ports"])
        port_counts: Counter = Counter(
            {PortClass[name]: n for name, n in data["port_counts"].items()}
        )
        return TimingProgram(
            tuple(steps),
            ports,
            port_counts,
            data["flops"],
            data["useful_flops"],
            data["n_prfm"],
            data["n_addrs"],
        )
    except (KeyError, TypeError, ValueError, IndexError):
        return None


def _timing_artifact_digest(config: MachineConfig, sig_digest: str) -> str:
    return artifacts.artifact_digest(
        {
            "kind": "timing",
            "meta": artifacts.artifact_meta(),
            "machine": artifacts.machine_digest(config),
            "signature": sig_digest,
        }
    )


def _functional_artifact_digest(sig_digest: str) -> str:
    return artifacts.artifact_digest(
        {
            "kind": "functional",
            "meta": artifacts.artifact_meta(),
            "signature": sig_digest,
        }
    )


# -- the program pool ---------------------------------------------------------

#: Default in-process pool capacity.  A full registry × {LX2, M4} × fig12
#: sweep produces well under a hundred distinct (config, signature) pairs,
#: so this bounds pathological callers (many throwaway configs) without
#: ever evicting during a normal sweep.
DEFAULT_POOL_CAPACITY = 256


class ProgramPool:
    """LRU pool of timing programs keyed by (config identity, signature).

    Every field of a :class:`TimingProgram` derives from the instructions'
    non-address fields (exactly what :func:`trace_signature` captures) plus
    the machine's latency/port tables, so two traces with equal signatures
    lower to interchangeable programs under the same config — templates of
    different kernels (multicore slice heights in particular) can then share
    one program object, and with it every plan/memo layer keyed on program
    identity.  Entries keep a strong reference to the config so a dead
    config's ``id()`` can never be recycled into a stale hit; the explicit
    capacity bounds that retention (oldest entries — configs included — are
    evicted LRU-first instead of living for the process lifetime).

    On an in-process miss the pool falls through to the process-wide
    :class:`~repro.machine.artifacts.ArtifactStore` (when one is active)
    before lowering live; live builds are written back so later processes
    skip the build entirely.
    """

    def __init__(self, capacity: int = DEFAULT_POOL_CAPACITY) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, Tuple[MachineConfig, Optional[TimingProgram]]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0
        self.store_hits = 0
        self.store_writes = 0
        self.functional_builds = 0
        self.functional_store_hits = 0
        self.build_seconds = 0.0

    def lookup(
        self,
        trace: Sequence[Instruction],
        signature: Tuple,
        config: MachineConfig,
        sig_digest: Optional[str] = None,
    ) -> Optional[TimingProgram]:
        key = (id(config), signature)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[1]
        self.misses += 1
        store = artifacts.active_store()
        program: Optional[TimingProgram] = None
        digest: Optional[str] = None
        if store is not None:
            if sig_digest is None:
                sig_digest = artifacts.signature_digest(signature)
            digest = _timing_artifact_digest(config, sig_digest)
            data = store.load("timing", digest)
            if data is not None:
                program = timing_program_from_payload(data)
                if program is not None:
                    program.plan_payload = data.get("plan")
                    self.store_hits += 1
        built = program is None
        if built:
            start = perf_counter()
            program = build_timing_program(trace, config)
            self.build_seconds += perf_counter() - start
            self.builds += 1
        self._entries[key] = (config, program)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        if built and store is not None and program is not None:
            payload = timing_program_to_payload(program)
            # Ship the columnar Phase-M plan alongside the program so warm
            # processes skip plan construction too.  Imported lazily — the
            # columnar module sits above this one in the import graph.
            from repro.machine.columnar import plan_payload_for

            payload["plan"] = plan_payload_for(program)
            if store.store(
                "timing",
                digest,
                payload,
                inputs={
                    "machine": artifacts.machine_digest(config),
                    "signature": sig_digest,
                },
            ):
                self.store_writes += 1
        return program

    def clear(self, reset_stats: bool = False) -> None:
        self._entries.clear()
        if reset_stats:
            self.hits = self.misses = self.builds = self.evictions = 0
            self.store_hits = self.store_writes = 0
            self.functional_builds = self.functional_store_hits = 0
            self.build_seconds = 0.0

    def stats(self) -> Dict:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "build_seconds": self.build_seconds,
            "evictions": self.evictions,
            "store_hits": self.store_hits,
            "store_writes": self.store_writes,
            "functional_builds": self.functional_builds,
            "functional_store_hits": self.functional_store_hits,
        }


_POOL = ProgramPool()


def pooled_timing_program(
    trace: Sequence[Instruction],
    signature: Tuple,
    config: MachineConfig,
    sig_digest: Optional[str] = None,
) -> Optional[TimingProgram]:
    """Build (or reuse) the timing program for a trace with known signature."""
    return _POOL.lookup(trace, signature, config, sig_digest)


def pooled_functional_program(
    trace: Sequence[Instruction], sig_digest: Optional[str] = None
) -> Optional["FunctionalProgram"]:
    """Build a functional program, going through the artifact store.

    Functional programs are config-independent, so the artifact digest
    covers only the trace signature (plus the shared meta block).  Without
    an active store or a signature digest this is a plain live build.
    """
    store = artifacts.active_store()
    digest: Optional[str] = None
    if store is not None and sig_digest is not None:
        digest = _functional_artifact_digest(sig_digest)
        data = store.load("functional", digest)
        if data is not None:
            program = functional_program_from_payload(data)
            if program is not None:
                _POOL.functional_store_hits += 1
                return program
    start = perf_counter()
    program = build_functional_program(trace)
    _POOL.build_seconds += perf_counter() - start
    _POOL.functional_builds += 1
    if store is not None and digest is not None and program is not None:
        store.store(
            "functional",
            digest,
            functional_program_to_payload(program),
            inputs={"signature": sig_digest},
        )
    return program


def program_pool_stats() -> Dict:
    """Hit/miss/build/eviction counters of the shared program pool."""
    return _POOL.stats()


def clear_program_pool(reset_stats: bool = False) -> None:
    """Drop the shared program pool (tests / memory hygiene)."""
    _POOL.clear(reset_stats=reset_stats)


# -- functional program ------------------------------------------------------

#: Functional opcodes (PRFM and SCALAR_OP have no architectural effect and
#: emit no op; the program's ``count`` still covers them).
(
    F_LD,
    F_LD_TAIL,
    F_LD_STRIDED,
    F_ST,
    F_ST_SLICE,
    F_FMLA,
    F_FMLA_IDX,
    F_FMUL_IDX,
    F_FADD,
    F_EXT,
    F_CONST,
    F_FMOPA,
    F_ZERO,
    F_MOVA_TV,
    F_MOVA_VT,
    F_FMLA_M,
) = range(16)


class FunctionalProgram:
    """Architectural semantics of one template trace, as flat opcodes.

    Each op is a tuple with an integer opcode first and direct register
    indices (into ``RegisterFile._vregs`` / ``_tiles``) after it; memory
    operands reference the per-block rebased address array by index.
    """

    __slots__ = ("ops", "count", "n_addrs")

    def __init__(self, ops: Tuple, count: int, n_addrs: int) -> None:
        self.ops = ops
        self.count = count
        self.n_addrs = n_addrs


def build_functional_program(trace: Sequence[Instruction]) -> Optional[FunctionalProgram]:
    """Lower a trace to a :class:`FunctionalProgram`; ``None`` if not possible."""
    ops: List[Tuple] = []
    addr_idx = 0
    for ins in trace:
        cls = type(ins)
        if cls not in COMPILABLE_TYPES:
            return None
        if cls is LD1D:
            if ins.mask == SVL_LANES:
                ops.append((F_LD, ins.dst.index, addr_idx))
            else:
                ops.append((F_LD_TAIL, ins.dst.index, addr_idx, ins.mask))
            addr_idx += 1
        elif cls is LD1D_STRIDED:
            ops.append((F_LD_STRIDED, ins.dst.index, addr_idx, ins.stride))
            addr_idx += 1
        elif cls is ST1D:
            ops.append((F_ST, ins.src.index, addr_idx, ins.mask))
            addr_idx += 1
        elif cls is ST1D_SLICE:
            ops.append((F_ST_SLICE, ins.tile.index, ins.row, addr_idx, ins.mask))
            addr_idx += 1
        elif cls is PRFM:
            addr_idx += 1  # cache hint only; no architectural effect
        elif cls is FMLA:
            ops.append((F_FMLA, ins.dst.index, ins.a.index, ins.b.index))
        elif cls is FMLA_IDX:
            ops.append((F_FMLA_IDX, ins.dst.index, ins.a.index, ins.b.index, ins.idx))
        elif cls is FMUL_IDX:
            ops.append((F_FMUL_IDX, ins.dst.index, ins.a.index, ins.b.index, ins.idx))
        elif cls is FADD_V:
            ops.append((F_FADD, ins.dst.index, ins.a.index, ins.b.index))
        elif cls is EXT:
            ops.append((F_EXT, ins.dst.index, ins.a.index, ins.b.index, ins.imm))
        elif cls is DUP:
            ops.append((F_CONST, ins.dst.index, np.full(SVL_LANES, float(ins.value))))
        elif cls is SET_LANES:
            ops.append((F_CONST, ins.dst.index, np.array(ins.values, dtype=np.float64)))
        elif cls is FMOPA:
            ops.append((F_FMOPA, ins.tile.index, ins.coef.index, ins.src.index))
        elif cls is ZERO_TILE:
            ops.append((F_ZERO, ins.tile.index))
        elif cls is MOVA_TILE_TO_VEC:
            ops.append((F_MOVA_TV, ins.dst.index, ins.tile.index, ins.row))
        elif cls is MOVA_VEC_TO_TILE:
            ops.append((F_MOVA_VT, ins.tile.index, ins.row, ins.src.index))
        elif cls is FMLA_M:
            ops.append((F_FMLA_M, ins.tile.index, ins.a_base.index, ins.b.index, ins.idx))
        # SCALAR_OP: no architectural effect, no op.
    return FunctionalProgram(tuple(ops), len(trace), addr_idx)


def functional_program_to_payload(program: FunctionalProgram) -> Dict:
    """JSON-safe rendering of a :class:`FunctionalProgram`.

    The only non-integer operand is the ``F_CONST`` lane array; JSON float
    ``repr`` round-trips doubles exactly, so the constants stay bit-exact.
    """
    ops = []
    for op in program.ops:
        if op[0] == F_CONST:
            ops.append([F_CONST, op[1], ["v", op[2].tolist()]])
        else:
            ops.append(list(op))
    return {"ops": ops, "count": program.count, "n_addrs": program.n_addrs}


def functional_program_from_payload(data: Dict) -> Optional[FunctionalProgram]:
    """Rebuild a :class:`FunctionalProgram`; ``None`` on any malformation."""
    try:
        ops: List[Tuple] = []
        for op in data["ops"]:
            if op[0] == F_CONST:
                ops.append((F_CONST, op[1], np.array(op[2][1], dtype=np.float64)))
            else:
                ops.append(tuple(op))
        return FunctionalProgram(tuple(ops), data["count"], data["n_addrs"])
    except (KeyError, TypeError, ValueError, IndexError):
        return None
