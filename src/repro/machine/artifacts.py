"""Content-addressed on-disk artifact store for the compile layer.

The trace-replay engine's cold start is dominated by work whose result is a
pure function of the simulator sources, the machine configuration and the
kernel being compiled: template fitting (probe emits + affine address-model
fits in :mod:`repro.kernels.template`), ``TimingProgram`` /
``FunctionalProgram`` lowering (:mod:`repro.machine.compiled`) and columnar
plan construction (:mod:`repro.machine.columnar`).  This module persists
those products across processes the same way :mod:`repro.bench.cache`
persists measurements: one JSON file per artifact under
``<root>/<kind>/<digest[:2]>/<digest>.json``, where the digest hashes a
canonical JSON rendering of every input that determines the artifact —
:func:`code_version`, :func:`machine_digest`, the kernel/grid identity and
the trace signature.  Invalidation is therefore automatic: any source or
config change produces a different digest and the stale entry is simply
never looked up again.

Safety contract: a deserialized template is *never* trusted blindly.  The
template compiler re-runs the cheap probe check (one live emit, signature +
exact address comparison) once per shape class before adopting a stored
template, and demotes the class permanently on mismatch — exactly as the
live compile path does.  Deserialized programs need no probe: their stored
form is bit-exact (JSON round-trips Python ints and float ``repr`` exactly)
and their digest pins the trace signature they were lowered from.

The store is optional and off by default.  It activates when a path is
installed explicitly (:func:`install_artifact_store`, reached through the
``--artifact-dir`` CLI flag and the ``artifact_dir=`` keyword on
``TimingEngine`` / ``ExperimentRunner`` / ``MulticoreModel``) or via the
``REPRO_ARTIFACTS`` environment variable.  Writes are atomic (temp file +
``os.replace``), so concurrent sweep workers can share one store.  Each
entry is rendered with ``json.dumps`` and written in one call: ``json.dump``
to a file object always runs CPython's pure-Python encoder, which made
persisting template bundles the bulk of a precompile run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from functools import lru_cache
from pathlib import Path
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
    SCALAR_OP,
    SET_LANES,
    ST1D,
    ST1D_SLICE,
    ZERO_TILE,
)
from repro.isa.registers import TileReg, VReg
from repro.machine.config import MachineConfig

#: Bump to invalidate every stored artifact regardless of source hashing.
ARTIFACT_SCHEMA = 1

#: Subpackages whose sources determine simulation results.  ``bench`` and
#: ``cli`` are deliberately excluded: harness changes must not invalidate
#: measurements or compiled artifacts.
_SIMULATION_PACKAGES = ("isa", "machine", "kernels", "stencils", "core")


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every simulation-relevant source file in the package."""
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for package in _SIMULATION_PACKAGES:
        for path in sorted((root / package).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine_fingerprint(config: MachineConfig) -> Dict:
    """Canonical JSON-safe rendering of a machine configuration."""
    return {
        "name": config.name,
        "ports": {port.name: count for port, count in sorted(
            config.ports.items(), key=lambda kv: kv[0].name)},
        "issue_width": config.issue_width,
        "latencies": {
            mnemonic: [spec.latency, spec.initiation_interval]
            for mnemonic, spec in sorted(config.latencies.items())
        },
        "has_vector_fmla": config.has_vector_fmla,
        "has_matrix_mla": config.has_matrix_mla,
        "supports_inplace_accumulation": config.supports_inplace_accumulation,
        "l1": dataclasses.asdict(config.l1),
        "l2": dataclasses.asdict(config.l2),
        "l1_load_latency": config.l1_load_latency,
        "l2_load_latency": config.l2_load_latency,
        "mem_load_latency": config.mem_load_latency,
        "hw_prefetch_streams": config.hw_prefetch_streams,
        "hw_prefetch_depth": config.hw_prefetch_depth,
        "hw_prefetch_enabled": config.hw_prefetch_enabled,
        "mem_bandwidth_bytes_per_cycle": config.mem_bandwidth_bytes_per_cycle,
        "clock_ghz": config.clock_ghz,
    }


def machine_digest(config: MachineConfig) -> str:
    """Short stable digest of a machine configuration."""
    blob = json.dumps(machine_fingerprint(config), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def artifact_meta() -> Dict:
    """Environment inputs shared by every artifact digest.

    NumPy participates because the columnar walk and the affine address
    rebasing run on it — source hashing alone cannot see its version.
    """
    return {
        "schema": ARTIFACT_SCHEMA,
        "code_version": code_version(),
        "numpy": np.__version__,
    }


def artifact_digest(inputs: Dict) -> str:
    """Content digest of a canonical (JSON-safe) input description."""
    blob = json.dumps(inputs, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def signature_digest(signature: Tuple) -> str:
    """Cross-process digest of a trace signature.

    ``repr`` of a signature is deterministic: it is built from class reprs,
    register reprs (``z3`` / ``za1``), enum reprs and scalar reprs, all of
    which are stable across processes and platforms.
    """
    return hashlib.sha256(repr(signature).encode()).hexdigest()[:32]


# -- instruction trace codec --------------------------------------------------

#: Every instruction type the codec can round-trip.  A trace containing any
#: other type is simply not persisted (``encode_trace`` returns ``None``).
_TRACE_TYPES: Tuple[type, ...] = (
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
)
_TYPE_BY_NAME: Dict[str, type] = {cls.__name__: cls for cls in _TRACE_TYPES}
_FIELDS_OF: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in _TRACE_TYPES
}


def _encode_value(value):
    # Tagged lists for the structured field values; scalars pass through.
    # JSON float repr round-trips doubles exactly, so floats stay bit-exact.
    if isinstance(value, VReg):
        return ["z", value.index]
    if isinstance(value, TileReg):
        return ["za", value.index]
    if isinstance(value, tuple):
        return ["t", list(value)]
    return value


def _decode_value(value):
    if isinstance(value, list):
        tag, payload = value
        if tag == "z":
            return VReg(payload)
        if tag == "za":
            return TileReg(payload)
        if tag == "t":
            return tuple(payload)
        raise ValueError(f"unknown value tag {tag!r}")
    return value


def encode_trace(trace: Sequence[Instruction]) -> Optional[List]:
    """JSON-safe rendering of an instruction trace, or ``None``.

    ``None`` means some instruction type is outside the codec's registry;
    the caller then skips persistence (the live path is unaffected).
    """
    out: List[List] = []
    for ins in trace:
        cls = type(ins)
        names = _FIELDS_OF.get(cls)
        if names is None:
            return None
        out.append([cls.__name__] + [_encode_value(getattr(ins, n)) for n in names])
    return out


def decode_trace(payload: Sequence) -> Optional[List[Instruction]]:
    """Rebuild a trace from :func:`encode_trace` output, or ``None``.

    Reconstruction goes through the dataclass constructors, so the usual
    ``__post_init__`` validation/normalization runs; any malformed record
    yields ``None`` rather than an exception (corrupt store entries must
    fall back to a live build).
    """
    trace: List[Instruction] = []
    try:
        for record in payload:
            cls = _TYPE_BY_NAME[record[0]]
            trace.append(cls(*(_decode_value(v) for v in record[1:])))
    except (KeyError, IndexError, TypeError, ValueError):
        return None
    return trace


# -- directory scan / prune helpers (shared with the measurement cache) ------


def _kind_of(root: Path, path: Path) -> str:
    """Artifact kind of an entry: its first path component under ``root``.

    The measurement cache stores its entries flat, so files directly under
    the root report as kind ``"."``.
    """
    rel = path.relative_to(root)
    return rel.parts[0] if len(rel.parts) > 1 else "."


def scan_tree(root) -> Dict:
    """Entry count / byte size / age span of a ``*.json`` artifact tree.

    The aggregate keys are kept for existing consumers; ``kinds`` breaks
    entry counts and byte sizes down per artifact kind (``timing``,
    ``functional``, ``templates``, ``steady``, ...).
    """
    root = Path(root)
    entries = 0
    total_bytes = 0
    oldest: Optional[float] = None
    newest: Optional[float] = None
    kinds: Dict[str, Dict[str, int]] = {}
    for path in root.rglob("*.json"):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries += 1
        total_bytes += stat.st_size
        oldest = stat.st_mtime if oldest is None else min(oldest, stat.st_mtime)
        newest = stat.st_mtime if newest is None else max(newest, stat.st_mtime)
        bucket = kinds.setdefault(_kind_of(root, path), {"entries": 0, "bytes": 0})
        bucket["entries"] += 1
        bucket["bytes"] += stat.st_size
    now = time.time()
    return {
        "root": str(root),
        "entries": entries,
        "bytes": total_bytes,
        "kinds": {kind: kinds[kind] for kind in sorted(kinds)},
        "oldest_age_days": (now - oldest) / 86400.0 if oldest is not None else None,
        "newest_age_days": (now - newest) / 86400.0 if newest is not None else None,
    }


def prune_tree(root, max_age_days: Optional[float] = None,
               max_bytes: Optional[int] = None) -> Dict:
    """Delete ``*.json`` entries by age and/or total size (oldest first).

    Aggregate keys are kept for existing consumers; ``kinds`` reports the
    per-kind removed/kept breakdown.
    """
    root = Path(root)
    files: List[Tuple[float, int, Path]] = []
    for path in root.rglob("*.json"):
        try:
            stat = path.stat()
        except OSError:
            continue
        files.append((stat.st_mtime, stat.st_size, path))
    files.sort()  # oldest first
    now = time.time()
    removed = 0
    removed_bytes = 0
    kinds: Dict[str, Dict[str, int]] = {}

    def bucket_for(path: Path) -> Dict[str, int]:
        return kinds.setdefault(
            _kind_of(root, path), {"removed": 0, "removed_bytes": 0, "kept": 0}
        )

    keep: List[Tuple[float, int, Path]] = []
    for mtime, size, path in files:
        if max_age_days is not None and (now - mtime) > max_age_days * 86400.0:
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            removed_bytes += size
            bucket = bucket_for(path)
            bucket["removed"] += 1
            bucket["removed_bytes"] += size
        else:
            keep.append((mtime, size, path))
    if max_bytes is not None:
        total = sum(size for _, size, _ in keep)
        idx = 0
        while total > max_bytes and idx < len(keep):
            _, size, path = keep[idx]
            idx += 1
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            removed_bytes += size
            total -= size
            bucket = bucket_for(path)
            bucket["removed"] += 1
            bucket["removed_bytes"] += size
        keep = keep[idx:]
    for _mtime, _size, path in keep:
        bucket_for(path)["kept"] += 1
    return {
        "root": str(root),
        "removed": removed,
        "removed_bytes": removed_bytes,
        "kept": len(files) - removed,
        "kinds": {kind: kinds[kind] for kind in sorted(kinds)},
    }


# -- the store ----------------------------------------------------------------

#: Per-kind store counters; :meth:`ArtifactStore.stats` also reports their
#: totals under the same names.
_STORE_EVENTS = ("hits", "misses", "stores")


class ArtifactStore:
    """Disk-backed store of compiled artifacts, one JSON file per digest.

    ``kind`` partitions the namespace (``timing`` / ``functional`` /
    ``templates``); the digest already encodes every input, so ``load`` only
    cross-checks the stored meta block as a belt-and-braces guard against a
    digest collision across schema versions.  All read/parse failures count
    as misses — a corrupt or truncated entry must never surface as an error,
    only as a live rebuild.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        #: kind -> {"hits", "misses", "stores"}; ``stats`` sums the kinds.
        self.kinds: Dict[str, Dict[str, int]] = {}
        self.invalid = 0
        self.store_errors = 0

    def path_for(self, kind: str, digest: str) -> Path:
        return self.root / kind / digest[:2] / f"{digest}.json"

    def _count(self, kind: str, event: str) -> None:
        bucket = self.kinds.get(kind)
        if bucket is None:
            bucket = self.kinds[kind] = dict.fromkeys(_STORE_EVENTS, 0)
        bucket[event] += 1

    def load(self, kind: str, digest: str) -> Optional[Dict]:
        """Return the stored data payload, or ``None`` on miss/corruption."""
        path = self.path_for(kind, digest)
        try:
            text = path.read_text()
        except OSError:
            self._count(kind, "misses")
            return None
        try:
            payload = json.loads(text)
            if payload["meta"] != artifact_meta():
                raise ValueError("artifact meta mismatch")
            data = payload["data"]
        except (ValueError, KeyError, TypeError):  # truncated, corrupt or skewed
            self.invalid += 1
            self._count(kind, "misses")
            return None
        self._count(kind, "hits")
        return data

    def store(self, kind: str, digest: str, data, inputs: Optional[Dict] = None) -> bool:
        """Persist an artifact atomically; best-effort (I/O errors counted).

        A store that cannot be written (read-only directory, disk full) must
        not break the simulation that produced the artifact, so failures are
        swallowed and surfaced only through ``store_errors``.
        """
        path = self.path_for(kind, digest)
        payload = {"kind": kind, "meta": artifact_meta(), "inputs": inputs, "data": data}
        text = json.dumps(payload, sort_keys=True)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            self.store_errors += 1
            return False
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError:
            self.store_errors += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self._count(kind, "stores")
        return True

    def stats(self) -> Dict:
        totals = {
            event: sum(bucket[event] for bucket in self.kinds.values())
            for event in _STORE_EVENTS
        }
        return {
            "root": str(self.root),
            **totals,
            "invalid": self.invalid,
            "store_errors": self.store_errors,
            "kinds": {kind: dict(self.kinds[kind]) for kind in sorted(self.kinds)},
        }

    def disk_stats(self) -> Dict:
        return scan_tree(self.root)

    def prune(self, max_age_days: Optional[float] = None,
              max_bytes: Optional[int] = None) -> Dict:
        return prune_tree(self.root, max_age_days=max_age_days, max_bytes=max_bytes)


# -- process-wide active store ------------------------------------------------

_active_store: Optional[ArtifactStore] = None
_active_explicit = False
#: Per-path singletons for the environment fallback, so counters accumulate.
_env_stores: Dict[str, ArtifactStore] = {}


def install_artifact_store(store=None) -> Optional[ArtifactStore]:
    """Install the process-wide artifact store.

    ``store`` may be an :class:`ArtifactStore`, a path, or ``None`` to reset
    to the default behaviour (the ``REPRO_ARTIFACTS`` environment variable,
    or no store at all).  Reinstalling the same path keeps the existing
    store object so its counters keep accumulating.
    """
    global _active_store, _active_explicit
    if store is None:
        _active_store = None
        _active_explicit = False
        return None
    if not isinstance(store, ArtifactStore):
        path = Path(store)
        if _active_explicit and _active_store is not None and _active_store.root == path:
            return _active_store
        store = ArtifactStore(path)
    _active_store = store
    _active_explicit = True
    return store


def active_store() -> Optional[ArtifactStore]:
    """The store compile-layer callers should use, or ``None`` (disabled)."""
    if _active_explicit:
        return _active_store
    path = os.environ.get("REPRO_ARTIFACTS")
    if not path:
        return None
    store = _env_stores.get(path)
    if store is None:
        store = _env_stores.setdefault(path, ArtifactStore(path))
    return store
