"""One benchmark child process: runs a workload's cells and writes JSON.

``run.py`` starts this script in a fresh interpreter for every timed
phase, so each cold, set-up and warm figure is one whole process:

* ``--phase run`` without ``--store``: cold -- no artifact store.
* ``--phase run --store DIR``: warm -- templates, programs and codegen
  sources load from ``DIR``.
* ``--phase setup --store DIR``: ``ExperimentRunner.precompile_cell`` for
  every cell into ``DIR``.
* ``--phase prime``: byte-compiles the sources and exits (untimed).

The process times nothing itself but samples the host's speed
(``hostspeed``) from its first line on, and reports the samples so the
parent can normalise its CPU seconds.  With ``--trace 1`` it also records
spans around each call into a simulator layer and snapshots the counters
the program exposes, and reports both as layer metrics.
"""

from __future__ import annotations

import hostspeed

hostspeed.start()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

from spans import Tracer, total_seconds  # noqa: E402
from workloads import FIELD_POOL, Cell, make_field, ordered  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _delta(after: Dict, before: Dict) -> Dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if isinstance(v, (int, float))}


class CellRunner:
    """Runs cells against one set of engines; collects layer counters."""

    def __init__(self, tracer: Tracer, store) -> None:
        from repro.kernels.template import compile_stats
        from repro.machine.codegen import codegen_stats
        from repro.machine.compiled import program_pool_stats

        self.tracer = tracer
        self.store = store
        self._engines: Dict = {}
        self._runners: Dict = {}
        self._machines: Dict = {}
        self._start = (compile_stats(), program_pool_stats(), codegen_stats())
        self.blocks = 0
        self.replay_s = 0.0
        self.sim: List = []
        self.steady = {"detect_sigs": 0, "candidates": 0, "engaged": 0, "demoted": 0,
                       "elided_bands": 0, "bands": 0}
        self.functional_instructions = 0
        self.max_abs_err = 0.0

    # -- construction ---------------------------------------------------

    def machine(self, name: str):
        if name not in self._machines:
            from repro.machine import config

            self._machines[name] = getattr(config, name)()
        return self._machines[name]

    @staticmethod
    def options(cell: Cell):
        from repro.kernels.base import KernelOptions

        return KernelOptions(unroll_j=cell.unroll_j) if cell.unroll_j else KernelOptions()

    def engine(self, machine: str):
        if machine not in self._engines:
            from repro.machine.timing import TimingEngine

            self._engines[machine] = TimingEngine(self.machine(machine))
        return self._engines[machine]

    def build(self, cell: Cell, shape):
        from repro.kernels.registry import make_kernel
        from repro.machine.memory import MemorySpace
        from repro.stencils.grid import Grid2D, Grid3D
        from repro.stencils.library import benchmark

        with self.tracer.span("kernels.build"):
            spec = benchmark(cell.stencil)
            mem = MemorySpace()
            grid = Grid2D if spec.ndim == 2 else Grid3D
            src = grid(mem, *shape, spec.radius, "A")
            dst = grid(mem, *shape, spec.radius, "B")
            kernel = make_kernel(cell.method, spec, src, dst, self.machine(cell.machine),
                                 self.options(cell))
            if self.tracer.enabled:
                self.blocks += len(kernel.loop_nest())
        return kernel

    # -- cells ------------------------------------------------------------

    def run(self, cell: Cell, variants) -> Dict:
        if cell.kind == "timing":
            return self._timing(cell)
        if cell.kind == "scaling":
            return self._scaling(cell)
        return self._functional(cell, variants)

    def _timing(self, cell: Cell) -> Dict:
        from repro.kernels.template import compile_stats
        from repro.machine.compiled import program_pool_stats

        engine = self.engine(cell.machine)
        kernel = self.build(cell, cell.shape)
        traced = self.tracer.enabled
        if traced:
            before = (compile_stats(), program_pool_stats())
            engine.steady_stats = None  # refreshed only by full-grid runs
        with self.tracer.span("timing.run") as span:
            counters = engine.run(kernel, sample=cell.sample, iters=cell.iters)
        if traced:
            fit = _delta(compile_stats(), before[0])
            pool = _delta(program_pool_stats(), before[1])
            run_s = (span["end_ns"] - span["start_ns"]) / 1e9
            self.replay_s += run_s - fit["fit_seconds"] - fit["verify_seconds"] - pool["build_seconds"]
            self.sim.append(counters)
            stats = engine.steady_stats
            if stats is not None:
                for key in ("detect_sigs", "candidates", "engaged", "demoted", "elided_bands"):
                    self.steady[key] += getattr(stats, key)
                self.steady["bands"] += len(kernel.loop_nest().bands()) * (cell.iters + 1)
        return {"counters": counters.to_dict()}

    def _scaling(self, cell: Cell) -> Dict:
        from repro.machine.multicore import MulticoreModel

        rows, cols = cell.shape
        model = MulticoreModel(self.machine(cell.machine), timing_engine=self.engine(cell.machine))
        with self.tracer.span("multicore.sweep"):
            points = model.strong_scaling(
                lambda height: self.build(cell, (height, cols)), rows, cell.cores
            )
        return {"points": [asdict(p) for p in points]}

    def _functional(self, cell: Cell, variants) -> Dict:
        import numpy as np

        from repro.core.hstencil import HStencil
        from repro.core.iterate import StencilIterator
        from repro.stencils.library import benchmark
        from repro.stencils.reference import apply_reference, iterate_reference

        spec = benchmark(cell.stencil)
        machine, options = self.machine(cell.machine), self.options(cell)
        if cell.kind == "iterate":
            iterator = StencilIterator(spec, machine, cell.method, options)
        else:
            stencil = HStencil(spec, machine, cell.method, options)
        digests, close = {}, True
        for variant in variants:
            field = make_field(cell, variant, spec.radius)
            with self.tracer.span("functional.run"):
                if cell.kind == "iterate":
                    got = iterator.run(field, cell.steps)
                else:
                    result = stencil.apply_verbose(field)
                    got = result.values
                    self.functional_instructions += result.instructions_executed
            with self.tracer.span("reference.numpy"):
                if cell.kind == "iterate":
                    ref = iterate_reference(field, spec, cell.steps)
                else:
                    ref = apply_reference(field, spec)
            close = close and bool(np.allclose(got, ref, rtol=1e-10))
            self.max_abs_err = max(self.max_abs_err, float(np.max(np.abs(got - ref))))
            digests[str(variant)] = hashlib.sha256(np.ascontiguousarray(got).tobytes()).hexdigest()
        return {"digests": digests, "matches_reference": close}

    def precompile(self, cell: Cell) -> Dict:
        from repro.bench.runner import ExperimentRunner

        key = (cell.machine, cell.unroll_j)
        if key not in self._runners:
            self._runners[key] = ExperimentRunner(
                self.machine(cell.machine), self.options(cell), artifact_dir=self.store
            )
        runner = self._runners[key]
        if cell.kind == "scaling":
            rows, cols = cell.shape
            shapes = [(h, cols) for h in sorted({rows // c for c in cell.cores} | {rows})]
        else:
            shapes = [cell.shape]
        classes = 0
        for shape in shapes:
            with self.tracer.span("precompile"):
                classes += runner.precompile_cell(cell.method, cell.stencil, shape)["classes"]
        return {"classes": classes}

    # -- layer metrics -----------------------------------------------------

    def layers(self) -> Dict[str, float]:
        from repro.kernels.template import compile_stats
        from repro.machine.artifacts import active_store
        from repro.machine.codegen import codegen_stats
        from repro.machine.compiled import program_pool_stats

        spans = self.tracer.spans
        tpl = _delta(compile_stats(), self._start[0])
        pool = _delta(program_pool_stats(), self._start[1])
        cg = _delta(codegen_stats(), self._start[2])
        store = active_store()
        store = store.stats() if store is not None else {}
        lookups = pool["hits"] + pool["misses"]
        sim_ins = sum(c.instructions for c in self.sim)
        run_s = total_seconds(spans, "timing.run")
        demand = sum(c.l1_demand_accesses for c in self.sim)
        return {
            "kernels.build_s": total_seconds(spans, "kernels.build"),
            "kernels.blocks": self.blocks,
            "template.fit_s": tpl["fit_seconds"],
            "template.classes_compiled": tpl["compiled_classes"],
            "template.probe_emits": tpl["probe_emits"],
            "template.verify_s": tpl["verify_seconds"],
            "template.verify_emits": tpl["verify_emits"],
            "template.verify_memo_hits": tpl["verify_memo_hits"],
            "template.load_demotions": tpl["load_demotions"],
            "pool.build_s": pool["build_seconds"],
            "pool.builds": pool["builds"],
            "pool.hits": pool["hits"],
            "pool.misses": pool["misses"],
            "pool.evictions": pool["evictions"],
            "pool.hit_ratio": pool["hits"] / lookups if lookups else 0.0,
            "codegen.generated": cg["generated"],
            "codegen.chunk_generated": cg["chunk_generated"],
            "codegen.loaded": cg["loaded"],
            "codegen.demoted": cg["demoted"],
            "codegen.chunk_demoted": cg["chunk_demoted"],
            "codegen.exec_failed": cg["exec_failed"],
            "timing.run_s": run_s,
            "timing.replay_s": self.replay_s,
            "timing.host_ns_per_sim_ins": run_s * 1e9 / sim_ins if sim_ins else 0.0,
            "steady.detect_sigs": self.steady["detect_sigs"],
            "steady.candidates": self.steady["candidates"],
            "steady.engaged": self.steady["engaged"],
            "steady.demoted": self.steady["demoted"],
            "steady.elided_bands": self.steady["elided_bands"],
            "steady.elided_ratio": (
                self.steady["elided_bands"] / self.steady["bands"] if self.steady["bands"] else 0.0
            ),
            "multicore.sweep_s": total_seconds(spans, "multicore.sweep"),
            "functional.run_s": total_seconds(spans, "functional.run"),
            "functional.instructions": self.functional_instructions,
            "reference.numpy_s": total_seconds(spans, "reference.numpy"),
            "reference.max_abs_err": self.max_abs_err,
            "store.hits": store.get("hits", 0),
            "store.misses": store.get("misses", 0),
            "store.stores": store.get("stores", 0),
            "store.invalid": store.get("invalid", 0),
            "sim.cycles": sum(c.cycles for c in self.sim),
            "sim.instructions": sim_ins,
            "sim.l1_demand_hit_rate": (
                sum(c.l1_demand_hits for c in self.sim) / demand if demand else 0.0
            ),
            "sim.dram_bytes": sum(c.dram_bytes() for c in self.sim),
            "sim.hw_prefetches": sum(c.hw_prefetches for c in self.sim),
            "sim.sw_prefetches": sum(c.sw_prefetches for c in self.sim),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--phase", choices=("prime", "run", "setup"), required=True)
    parser.add_argument("--store", help="artifact store directory (warm run, set-up)")
    parser.add_argument("--all-fields", action="store_true",
                        help="run every functional input variant (golden recording)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.phase == "prime":
        import compileall

        ok = compileall.compile_dir(str(SRC), quiet=1)
        import repro.bench.runner  # noqa: F401  (fails fast on a broken tree)

        Path(args.out).write_text("{}")
        return 0 if ok else 1

    if args.store:
        from repro.machine.artifacts import install_artifact_store

        install_artifact_store(args.store)
    tracer = Tracer(bool(args.trace))
    runner = CellRunner(tracer, args.store)
    plan = ordered(args.workload, args.seed)
    results, errors = {}, {}
    with tracer.span(args.phase):
        for cell, variant in plan:
            variants = range(FIELD_POOL) if args.all_fields else [variant]
            try:
                with tracer.span("cell"):
                    if args.phase == "setup":
                        results[cell.id] = runner.precompile(cell)
                    else:
                        results[cell.id] = runner.run(cell, variants)
            except Exception:  # one failing cell must not hide the others
                errors[cell.id] = traceback.format_exc()
    out = {
        "order": [cell.id for cell, _ in plan],
        "results": results,
        "errors": errors,
        "spans": tracer.spans,
        "layers": runner.layers() if tracer.enabled else {},
        "hostspeed": hostspeed.stop(),
    }
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
