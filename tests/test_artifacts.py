"""Round-trip and safety tests for the AOT compiled-artifact store.

The store promises that a warm process — templates, timing/functional
programs and columnar plans all deserialized from disk — produces counters
and grids bit-identical to a cold live build, and that anything wrong with
the on-disk state (truncation, version skew, tampering) degrades to the
live path rather than to wrong answers.  These tests enforce both halves
over the whole method registry on both machine presets, mirroring
``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from repro.cli import main
from repro.kernels import template as template_mod
from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS
from repro.kernels.template import TraceCompiler, compile_stats, reset_compile_stats
from repro.machine import artifacts
from repro.machine import compiled as compiled_mod
from repro.machine.artifacts import (
    ArtifactStore,
    active_store,
    decode_trace,
    encode_trace,
    install_artifact_store,
)
from repro.machine.codegen import codegen_stats
from repro.machine.compiled import (
    ADDR_FIELDS,
    ProgramPool,
    clear_program_pool,
    program_pool_stats,
    trace_addresses,
)
from repro.machine.config import LX2, M4
from repro.machine.functional import FunctionalEngine
from repro.machine.memory import MemorySpace
from repro.machine.multicore import MulticoreModel
from repro.machine.timing import SamplePlan, TimingEngine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark
from tests.capabilities import make_kernel_or_skip

MACHINES = {"LX2": LX2, "M4": M4}


@pytest.fixture(autouse=True)
def _isolated_store(monkeypatch):
    """Keep the process-wide store and pools from leaking across tests."""
    monkeypatch.delenv("REPRO_ARTIFACTS", raising=False)
    install_artifact_store(None)
    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    yield
    install_artifact_store(None)
    clear_program_pool(reset_stats=True)
    reset_compile_stats()


def _build(method, machine_name, stencil="star2d9p", rows=32, cols=32):
    """Kernel + memory space; skips cells the capability table rejects."""
    spec = benchmark(stencil)
    config = MACHINES[machine_name]()
    mem = MemorySpace()
    src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=7)
    dst = Grid2D(mem, rows, cols, spec.radius, "B")
    kernel = make_kernel_or_skip(method, spec, src, dst, config, KernelOptions(unroll_j=2))
    return kernel, config, mem, dst


def _timing_run(method, machine_name, store_dir, **build_kw):
    """Fresh pools + (optional) store, one timing run; counter dict."""
    install_artifact_store(str(store_dir) if store_dir is not None else None)
    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    kernel, config, _, _ = _build(method, machine_name, **build_kw)
    return TimingEngine(config, engine="compiled").run(kernel, sample=False, warm=True).to_dict()


# -- round-trip bit identity --------------------------------------------------


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_timing_round_trip_bit_identical(method, machine_name, tmp_path):
    """serialize -> deserialize -> replay equals the live build exactly."""
    live = _timing_run(method, machine_name, None)
    cold = _timing_run(method, machine_name, tmp_path)
    cold_stats = compile_stats()
    warm = _timing_run(method, machine_name, tmp_path)
    warm_stats = compile_stats()
    assert cold == live
    assert warm == live
    # The warm process must not have fitted anything live ...
    assert warm_stats["compiled_classes"] == 0
    assert warm_stats["fit_seconds"] == 0.0
    assert warm_stats["load_demotions"] == 0
    # ... every class the cold run compiled came back from the store.
    assert warm_stats["loaded_classes"] == cold_stats["compiled_classes"]
    pool = program_pool_stats()
    assert pool["builds"] == 0
    assert pool["store_hits"] >= 1


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", ["hstencil", "vector-only"])
def test_functional_round_trip_bit_identical(method, machine_name, tmp_path):
    grids = {}
    for phase, store_dir in [("live", None), ("cold", tmp_path), ("warm", tmp_path)]:
        install_artifact_store(str(store_dir) if store_dir is not None else None)
        clear_program_pool(reset_stats=True)
        reset_compile_stats()
        kernel, _, mem, dst = _build(method, machine_name)
        fe = FunctionalEngine(mem)
        fe.run_kernel(kernel, engine="compiled")
        grids[phase] = (dst.get_full().copy(), fe.instructions_executed)
    warm_pool = program_pool_stats()
    assert np.array_equal(grids["cold"][0], grids["live"][0])
    assert np.array_equal(grids["warm"][0], grids["live"][0])
    assert grids["cold"][1] == grids["live"][1] == grids["warm"][1]
    assert warm_pool["functional_builds"] == 0
    assert warm_pool["functional_store_hits"] >= 1


def test_trace_codec_round_trip():
    """encode/decode reproduces the exact instruction objects."""
    built = _build("hstencil", "LX2")
    kernel, config, _, _ = built
    nest = kernel.loop_nest()
    block = next(iter(nest.blocks))
    trace = kernel.emit(block)
    payload = encode_trace(trace)
    assert payload is not None
    json.dumps(payload)  # must be JSON-serializable as-is
    back = decode_trace(payload)
    assert back == trace


# -- corruption / skew / tampering -------------------------------------------


def _artifact_files(root):
    out = []
    for dirpath, _dirs, files in os.walk(root):
        out.extend(os.path.join(dirpath, f) for f in files if f.endswith(".json"))
    return sorted(out)


def test_truncated_artifacts_fall_back_to_live_build(tmp_path):
    live = _timing_run("hstencil", "LX2", None)
    _timing_run("hstencil", "LX2", tmp_path)
    files = _artifact_files(tmp_path)
    assert files
    for path in files:
        with open(path, "w") as fh:
            fh.write("{")  # truncated JSON
    rebuilt = _timing_run("hstencil", "LX2", tmp_path)
    stats = compile_stats()
    assert rebuilt == live
    assert stats["compiled_classes"] >= 1  # everything was rebuilt live
    assert stats["load_demotions"] == 0
    store = active_store()
    assert store is not None and store.stats()["invalid"] >= 1


def test_version_skew_misses_and_rebuilds(tmp_path, monkeypatch):
    live = _timing_run("hstencil", "LX2", None)
    _timing_run("hstencil", "LX2", tmp_path)
    # A source change flips code_version, which participates in every
    # digest: stale entries are simply never looked up again.
    monkeypatch.setattr(artifacts, "code_version", lambda: "f" * 16)
    rebuilt = _timing_run("hstencil", "LX2", tmp_path)
    stats = compile_stats()
    pool = program_pool_stats()
    assert rebuilt == live
    assert stats["loaded_classes"] == 0
    assert stats["compiled_classes"] >= 1
    assert pool["store_hits"] == 0 and pool["builds"] >= 1


def test_tampered_template_demoted_on_load(tmp_path):
    """The probe-on-load check catches a template whose address model lies."""
    live = _timing_run("hstencil", "LX2", None)
    _timing_run("hstencil", "LX2", tmp_path)
    bundles = [
        p for p in _artifact_files(tmp_path) if f"{os.sep}templates{os.sep}" in p
    ]
    assert bundles
    tampered = 0
    for path in bundles:
        with open(path) as fh:
            data = json.load(fh)
        for entry in data["data"]["classes"].values():
            if not isinstance(entry, dict) or not entry["deltas"]:
                continue
            # Shift the representative key along a varying dimension: the
            # affine model now rebases every block's addresses wrongly,
            # while the stored trace itself still decodes consistently.
            dim = entry["deltas"][0][0]
            entry["key0"][dim] -= 1
            tampered += 1
        with open(path, "w") as fh:
            json.dump(data, fh)
    assert tampered >= 1
    rebuilt = _timing_run("hstencil", "LX2", tmp_path)
    stats = compile_stats()
    assert rebuilt == live  # demoted classes replay through the live path
    assert stats["load_demotions"] >= 1

    # The demoted mid class widened the edge, so the run rewrote the bundle
    # under the wider edge.  Now tamper an edge class of that bundle (no
    # widening can follow its demotion): the verdict must be on disk when
    # the run returns, and the next run must adopt it without a probe.
    [path] = bundles
    with open(path) as fh:
        data = json.load(fh)
    label, entry = next(
        (label, entry)
        for label, entry in sorted(data["data"]["classes"].items())
        if isinstance(entry, dict) and "'M'" not in label
    )
    # Move every address by one cache line, in the trace and in addr0 alike:
    # the entry still decodes consistently, but no live block matches it.
    trace = [
        dataclasses.replace(ins, addr=ins.addr + 8) if type(ins) in ADDR_FIELDS else ins
        for ins in decode_trace(entry["trace"])
    ]
    entry["trace"] = encode_trace(trace)
    entry["addr0"] = trace_addresses(trace)
    with open(path, "w") as fh:
        json.dump(data, fh)
    assert _timing_run("hstencil", "LX2", tmp_path) == live
    assert compile_stats()["load_demotions"] == 1
    with open(path) as fh:
        assert json.load(fh)["data"]["classes"][label] == "demoted"
    assert _timing_run("hstencil", "LX2", tmp_path) == live
    stats = compile_stats()
    assert stats["load_demotions"] == 0 and stats["compiled_classes"] == 0


# -- write-once template bundles ----------------------------------------------


@pytest.fixture
def template_writes(monkeypatch):
    """Digests of every ``templates`` entry written, in write order."""
    writes = []
    store = ArtifactStore.store

    def spy(self, kind, digest, data, inputs=None):
        if kind == "templates":
            writes.append(digest)
        return store(self, kind, digest, data, inputs=inputs)

    monkeypatch.setattr(ArtifactStore, "store", spy)
    return writes


def _fresh_process(store_dir):
    """Process-wide state a new process would start with, on ``store_dir``."""
    install_artifact_store(str(store_dir))
    clear_program_pool(reset_stats=True)
    reset_compile_stats()


def test_precompile_writes_each_bundle_once(tmp_path, template_writes):
    from repro.bench.runner import ExperimentRunner

    _fresh_process(tmp_path)
    info = ExperimentRunner(LX2(), artifact_dir=str(tmp_path)).precompile_cell(
        "hstencil", "star2d9p", (32, 32)
    )
    assert info["compiled"] >= 2  # several classes, still one write
    assert len(template_writes) == 1
    [path] = [p for p in _artifact_files(tmp_path) if f"{os.sep}templates{os.sep}" in p]
    with open(path) as fh:
        text = fh.read()
    # One C-encoded dump: the file is exactly json.dumps of its payload.
    assert text == json.dumps(json.loads(text), sort_keys=True)

    _fresh_process(tmp_path)
    again = ExperimentRunner(LX2(), artifact_dir=str(tmp_path)).precompile_cell(
        "hstencil", "star2d9p", (32, 32)
    )
    assert again["compiled"] == 0 and again["loaded"] == info["compiled"]
    assert len(template_writes) == 1

    _fresh_process(tmp_path)
    ExperimentRunner(LX2(), artifact_dir=str(tmp_path)).measure("hstencil", "star2d9p", (32, 32))
    assert compile_stats()["compiled_classes"] == 0
    assert len(template_writes) == 1


def _entry_sampled(store_dir):
    kernel, config, _, _ = _build("hstencil", "LX2", stencil="box2d9p", rows=64, cols=32)
    plan = SamplePlan(warmup_bands=1, min_measure_points=600)
    return TimingEngine(config).run(kernel, sample=True, plan=plan).to_dict()


def _entry_lockstep(store_dir):
    kernels = [_build("hstencil", "LX2", rows=rows)[0] for rows in (16, 24)]
    return [c.to_dict() for c in TimingEngine(LX2()).run_lockstep(kernels)]


def _entry_strong_scaling(store_dir):
    def kernel_for_rows(rows):
        return _build("hstencil", "LX2", stencil="box2d9p", rows=rows, cols=32)[0]

    plan = SamplePlan(warmup_bands=1, min_measure_points=600)
    points = MulticoreModel(LX2()).strong_scaling(kernel_for_rows, 48, [1, 2, 4], plan=plan)
    return [dataclasses.asdict(p) for p in points]


def _entry_functional(store_dir):
    kernel, _, mem, dst = _build("hstencil", "LX2")
    FunctionalEngine(mem).run_kernel(kernel, engine="compiled")
    return dst.get_full().tolist()


def _entry_precompile(store_dir):
    from repro.bench.runner import ExperimentRunner

    runner = ExperimentRunner(LX2(), artifact_dir=str(store_dir))
    return runner.precompile_cell("hstencil", "star2d9p", (32, 32))["classes"]


@pytest.mark.parametrize(
    "entry",
    [_entry_sampled, _entry_lockstep, _entry_strong_scaling, _entry_functional,
     _entry_precompile],
    ids=["sampled", "lockstep", "strong_scaling", "functional", "precompile"],
)
def test_every_entry_point_persists_templates(entry, tmp_path, template_writes):
    """Each owner of a template compiler flushes it: after one cold-store
    run, a warm run compiles no class live and writes no bundle."""
    _fresh_process(tmp_path)
    cold = entry(tmp_path)
    compiled = compile_stats()["compiled_classes"]
    assert compiled >= 1
    assert 1 <= len(template_writes) == len(set(template_writes))
    written = len(template_writes)

    _fresh_process(tmp_path)
    warm = entry(tmp_path)
    stats = compile_stats()
    assert warm == cold
    assert stats["compiled_classes"] == 0
    assert stats["loaded_classes"] == compiled
    assert len(template_writes) == written


def test_store_stats_break_down_by_kind(tmp_path):
    _timing_run("hstencil", "LX2", tmp_path)
    stats = active_store().stats()
    kinds = stats["kinds"]
    assert {"templates", "timing", "steady"} <= set(kinds)
    assert kinds["templates"] == {"hits": 0, "misses": 1, "stores": 1}
    for key in ("hits", "misses", "stores"):
        assert sum(k[key] for k in kinds.values()) == stats[key]
    _timing_run("hstencil", "LX2", tmp_path)
    assert active_store().stats()["kinds"]["templates"] == {"hits": 1, "misses": 1, "stores": 1}


# -- program pool ------------------------------------------------------------


def test_program_pool_lru_eviction(monkeypatch):
    monkeypatch.setattr(compiled_mod, "_POOL", ProgramPool(capacity=1))
    built = _build("hstencil", "LX2", stencil="box2d9p", rows=21, cols=27)
    kernel, config, _, _ = built
    TimingEngine(config, engine="compiled").run(kernel, sample=False, warm=True)
    stats = compiled_mod._POOL.stats()
    assert stats["capacity"] == 1
    assert stats["entries"] <= 1
    assert stats["builds"] >= 2  # several shape classes on an odd grid
    assert stats["evictions"] >= 1
    assert stats["evictions"] == stats["builds"] - stats["entries"]


def test_program_pool_counters(tmp_path):
    _timing_run("hstencil", "LX2", tmp_path)
    cold = program_pool_stats()
    assert cold["builds"] >= 1
    assert cold["store_writes"] == cold["builds"]
    assert cold["build_seconds"] > 0.0
    assert cold["hits"] >= 0 and cold["misses"] == cold["builds"]
    _timing_run("hstencil", "LX2", tmp_path)
    warm = program_pool_stats()
    assert warm["builds"] == 0
    assert warm["store_hits"] == cold["builds"]


# -- concurrent cold stores ---------------------------------------------------


def test_concurrent_cold_generation_races_cleanly(tmp_path):
    """Two processes compiling the same classes on a cold store both
    succeed via the atomic-write path, with exactly one entry per digest."""
    import subprocess
    import sys

    store = tmp_path / "store"
    script = (
        "import sys, json; sys.path.insert(0, sys.argv[1])\n"
        "from repro.machine.artifacts import install_artifact_store\n"
        "install_artifact_store(sys.argv[2])\n"
        "from repro.kernels.base import KernelOptions\n"
        "from repro.kernels.registry import make_kernel\n"
        "from repro.machine.config import LX2\n"
        "from repro.machine.memory import MemorySpace\n"
        "from repro.machine.timing import TimingEngine\n"
        "from repro.stencils.grid import Grid2D\n"
        "from repro.stencils.library import benchmark\n"
        "spec = benchmark('star2d9p'); config = LX2(); mem = MemorySpace()\n"
        "src = Grid2D(mem, 33, 48, spec.radius, 'A', fill='random', seed=7)\n"
        "dst = Grid2D(mem, 33, 48, spec.radius, 'B')\n"
        "kernel = make_kernel('hstencil', spec, src, dst, config, KernelOptions(unroll_j=2))\n"
        "pc = TimingEngine(config, engine='compiled').run(kernel, sample=False, warm=True)\n"
        "print(json.dumps(pc.to_dict(), sort_keys=True))\n"
    )
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ARTIFACTS"}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, src_dir, str(store)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=600) for p in procs]
    for proc, (out, err) in zip(procs, outs):
        assert proc.returncode == 0, err.decode()
    # Both raced processes measured bit-identical counters.
    assert outs[0][0] == outs[1][0]
    # Content-addressed paths plus atomic replace: every entry parses and
    # no temp files leak.
    files = _artifact_files(store)
    assert files
    for path in files:
        with open(path) as fh:
            json.load(fh)
    leftovers = [
        os.path.join(d, f)
        for d, _dirs, fs in os.walk(store)
        for f in fs
        if not f.endswith(".json")
    ]
    assert leftovers == []
    # A warm process after the race loads everything: nothing compiled live.
    warm = _timing_run("hstencil", "LX2", store, rows=33, cols=48)
    assert warm == json.loads(outs[0][0])
    assert compile_stats()["compiled_classes"] == 0
    assert program_pool_stats()["builds"] == 0


# -- stores written before the codegen layer was retired ----------------------


def _write_retired_codegen_entries(store_dir, count=3):
    """``codegen/`` entries in the layout the retired exec-compiled kernel
    layer persisted: one generated source per shape class and flavour."""
    import hashlib

    store = ArtifactStore(store_dir)
    paths = []
    for i in range(count):
        signature = f"{i:064x}"
        source = f"def __kernel(pipe, addrs):\n    pipe.flops += {i}\n"
        digest = artifacts.artifact_digest(
            {"kind": "codegen", "flavor": "timing", "meta": artifacts.artifact_meta(),
             "signature": signature, "version": 2}
        )
        payload = {
            "version": 2,
            "flavor": "timing",
            "source": source,
            "sha256": hashlib.sha256(source.encode()).hexdigest(),
            "content": signature,
        }
        assert store.store(
            "codegen", digest, payload,
            inputs={"flavor": "timing", "signature": signature, "content": signature},
        )
        paths.append(store.path_for("codegen", digest))
    return paths


def test_store_with_retired_codegen_entries_stays_usable(tmp_path):
    """Leftover ``codegen/`` entries neither disturb a warm load nor escape
    the per-kind scan and prune tooling."""
    live = _timing_run("hstencil", "LX2", None)
    cold = _timing_run("hstencil", "LX2", tmp_path)
    cold_stats = compile_stats()
    retired = _write_retired_codegen_entries(tmp_path)

    warm = _timing_run("hstencil", "LX2", tmp_path)
    warm_stats = compile_stats()
    assert cold == live and warm == live
    assert warm_stats["compiled_classes"] == 0
    assert warm_stats["loaded_classes"] == cold_stats["compiled_classes"]
    assert active_store().stats()["invalid"] == 0

    scan = artifacts.scan_tree(tmp_path)
    assert scan["kinds"]["codegen"] == {
        "entries": len(retired),
        "bytes": sum(os.path.getsize(p) for p in retired),
    }

    old = time.time() - 10 * 86400
    for path in retired:
        os.utime(path, (old, old))
    pruned = artifacts.prune_tree(tmp_path, max_age_days=5)
    assert pruned["removed"] == len(retired)
    assert pruned["kinds"]["codegen"]["removed"] == len(retired)
    assert not any(os.path.exists(p) for p in retired)
    assert "codegen" not in artifacts.scan_tree(tmp_path)["kinds"]
    assert _timing_run("hstencil", "LX2", tmp_path) == live
    assert compile_stats()["compiled_classes"] == 0


def test_codegen_round_trip_bit_identical(tmp_path):
    """A cold run persists no ``codegen`` kind; the warm process replays
    every class from the remaining kinds bit-identically."""
    live = _timing_run("hstencil", "LX2", None)
    cold = _timing_run("hstencil", "LX2", tmp_path)
    cold_stats = compile_stats()
    kinds = ArtifactStore(tmp_path).disk_stats()["kinds"]
    warm = _timing_run("hstencil", "LX2", tmp_path)
    warm_stats = compile_stats()
    assert cold == live and warm == live
    assert "codegen" not in kinds
    assert {"templates", "timing"} <= set(kinds)
    assert warm_stats["compiled_classes"] == 0
    assert warm_stats["loaded_classes"] == cold_stats["compiled_classes"]
    assert all(v == 0 for v in codegen_stats().values())


def test_tampered_codegen_source_demotes_only_that_class(tmp_path):
    """A corrupt leftover ``codegen/`` source blob is never executed: it
    poisons neither the classes served from the store nor the measurement
    cache."""
    from repro.bench.runner import ExperimentRunner
    from repro.machine.timing import SamplePlan

    live = _timing_run("hstencil", "LX2", None, rows=33, cols=48)
    _timing_run("hstencil", "LX2", tmp_path, rows=33, cols=48)
    total = compile_stats()["compiled_classes"]
    assert total >= 2
    victim = _write_retired_codegen_entries(tmp_path, count=1)[0]
    with open(victim) as fh:
        blob = json.load(fh)
    blob["data"]["source"] += "\npipe.flops += 1\n"
    with open(victim, "w") as fh:
        json.dump(blob, fh)
    rebuilt = _timing_run("hstencil", "LX2", tmp_path, rows=33, cols=48)
    stats = compile_stats()
    assert rebuilt == live
    assert stats["compiled_classes"] == 0
    assert stats["loaded_classes"] == total
    assert active_store().stats()["invalid"] == 0
    # The measurement cache records only bit-identical counters afterwards.
    clear_program_pool(reset_stats=True)
    cache_dir = tmp_path / "meas"
    runner = ExperimentRunner(
        LX2(),
        KernelOptions(unroll_j=2),
        cache_dir=str(cache_dir),
        timing="scalar",
        artifact_dir=str(tmp_path),
    )
    plan = SamplePlan(warmup_bands=1, min_measure_points=600)
    cell = runner.measure("hstencil", "star2d9p", (32, 32), plan=plan)
    entries = _artifact_files(cache_dir)
    assert entries
    with open(entries[0]) as fh:
        cached = json.load(fh)
    assert cached["counters"] == cell.counters.to_dict()


# -- store maintenance -------------------------------------------------------


def test_store_prune_by_age_and_size(tmp_path):
    _timing_run("hstencil", "LX2", tmp_path)
    store = ArtifactStore(tmp_path)
    scan = store.disk_stats()
    assert scan["entries"] >= 2 and scan["bytes"] > 0
    # Per-kind breakdown covers every entry and sums to the aggregate.
    assert sum(k["entries"] for k in scan["kinds"].values()) == scan["entries"]
    assert sum(k["bytes"] for k in scan["kinds"].values()) == scan["bytes"]
    # Age one file far into the past; an age prune removes exactly it.
    victim = _artifact_files(tmp_path)[0]
    old = time.time() - 10 * 86400
    os.utime(victim, (old, old))
    pruned = store.prune(max_age_days=5)
    assert pruned["removed"] == 1
    assert not os.path.exists(victim)
    assert sum(k["removed"] for k in pruned["kinds"].values()) == 1
    assert sum(k["kept"] for k in pruned["kinds"].values()) == pruned["kept"]
    # A zero-byte budget clears the rest, oldest first.
    pruned = store.prune(max_bytes=0)
    assert pruned["kept"] == 0
    assert all(k["kept"] == 0 for k in pruned["kinds"].values())
    assert store.disk_stats()["entries"] == 0


# -- precompile --------------------------------------------------------------


def test_precompile_then_warm_sweep(tmp_path):
    from repro.bench.runner import ExperimentRunner

    runner = ExperimentRunner(LX2(), artifact_dir=str(tmp_path))
    info = runner.precompile_cell("hstencil", "star2d9p", (32, 32))
    assert info["classes"] >= 1
    assert info["compiled"] >= 1 and info["loaded"] == 0
    # A fresh process (fresh pools, same store) measures without compiling.
    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    warm_runner = ExperimentRunner(LX2(), artifact_dir=str(tmp_path))
    warm_runner.measure("hstencil", "star2d9p", (32, 32))
    stats = compile_stats()
    assert stats["compiled_classes"] == 0
    assert stats["loaded_classes"] >= info["compiled"]
    surfaced = warm_runner.artifact_stats()
    assert surfaced["store"] is not None and surfaced["store"]["hits"] >= 1
    assert surfaced["program_pool"]["store_hits"] >= 1


def test_precompile_results_not_adopted_as_measurements(tmp_path):
    from repro.bench.runner import ExperimentRunner

    runner = ExperimentRunner(LX2(), artifact_dir=str(tmp_path))
    results = runner.precompile([("hstencil", "star2d9p", (32, 32))])
    assert len(results) == 1 and results[0].ok
    assert results[0].source == "precompiled"
    assert results[0].counters is None
    assert results[0].info["classes"] >= 1


# -- CLI ---------------------------------------------------------------------


def test_cli_precompile_and_cache(tmp_path, capsys):
    store_dir = str(tmp_path / "artifacts")
    rc = main(
        [
            "precompile",
            "--artifact-dir",
            store_dir,
            "--machines",
            "lx2",
            "--methods",
            "hstencil",
            "--stencils",
            "star2d5p",
            "--size",
            "24x24",
            "--stats",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 cells precompiled" in out
    assert '"program_pool"' in out and '"disk"' in out
    assert ArtifactStore(store_dir).disk_stats()["entries"] >= 2
    # The store counters break down per kind: one bundle, written once.
    stats = json.loads(out[out.index("\n{") :])
    assert stats["store"]["kinds"]["templates"] == {"hits": 0, "misses": 1, "stores": 1}

    rc = main(["cache", "stats", "--artifact-dir", store_dir])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["artifacts"]["entries"] >= 2
    # Per-kind reporting enumerates every kind the precompile wrote.
    kinds = payload["artifacts"]["kinds"]
    assert {"functional", "templates", "timing"} <= set(kinds)
    assert all(k["entries"] >= 1 and k["bytes"] > 0 for k in kinds.values())

    rc = main(["cache", "prune", "--artifact-dir", store_dir, "--max-bytes", "0"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["artifacts"]["kept"] == 0
    assert payload["artifacts"]["kinds"]["timing"]["removed"] >= 1
    assert ArtifactStore(store_dir).disk_stats()["entries"] == 0


def test_cli_cache_requires_a_directory(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    with pytest.raises(SystemExit):
        main(["cache", "stats"])


def test_cli_precompile_requires_store(monkeypatch):
    with pytest.raises(SystemExit):
        main(["precompile", "--machines", "lx2"])


# -- environment activation ---------------------------------------------------


def test_env_var_activates_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
    install_artifact_store(None)  # re-resolve from the environment
    store = active_store()
    assert store is not None and str(store.root) == str(tmp_path)
    # Same path resolves to the same store object (counters accumulate).
    assert active_store() is store
