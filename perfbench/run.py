"""The repo benchmark: host cost of the simulator on two canonical workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload incache_exact --seed 1 --seconds 50 --trace 0

Every timed figure is one fresh ``worker.py`` process at default settings,
run one at a time, with a scrubbed environment (no ``REPRO_*`` variables,
no measurement cache):

* ``setup`` -- precompile every cell into an empty artifact store;
* ``cold``  -- run every cell with no artifact store;
* ``warm``  -- run every cell loading from a private copy of the newest
  set-up store.

The host is a shared machine whose speed for one process swings by up to
1.6x within seconds, so every child samples the host's speed while it runs
(``hostspeed.py``: a fixed probe loop timed after every 50 ms of the
child's CPU time) and its CPU seconds are reported less the probes' and
scaled to a reference host speed, on which the probe loop takes 2 ms.

A run does ``SETUPS`` set-ups, each followed by a cold/warm pair, then more
pairs while ``--seconds`` allow.  The end-to-end metrics are medians of the
children's normalised CPU seconds (user + system), their peak RSS and the
size of the store after the warm run.  Every cold and warm output is
compared against the goldens in ``perfbench/goldens`` (recorded on the
reference engine by ``make_goldens.py``); a cell that raises or differs
counts in ``failed``.

``--trace 1`` adds one traced set-up and pair, and reports the per-layer
metrics instead: layer counters and span times from the traced cold process,
the artifact-store and load-verification counters from the traced warm
process (they are zero without a store), and the tracing overhead (traced
minus median untraced cold CPU seconds).  The traced processes' spans are
written as Chrome trace-event JSON under ``perfbench/out``.

A stdlib-only calibration loop is timed before and after the measurements,
and the children's median host speed is kept (``host.speed``), so host
drift can be told apart from a regression; each invocation appends
one line to ``perfbench/results/history.jsonl``.  The last line of stdout is
the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from hostspeed import normalise
from spans import chrome_trace
from workloads import WORKLOADS, cells

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"
WORK = HERE / ".work"
OUT = HERE / "out"
HISTORY = HERE / "results" / "history.jsonl"

#: No child may outlive this; the whole run must end within 180 s.
CHILD_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 150.0
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

E2E_UNITS = {
    "cold_s": "s",
    "setup_s": "s",
    "warm_s": "s",
    "cold_rss_mb": "MB",
    "warm_rss_mb": "MB",
    "store_mb": "MB",
}

#: Layer metrics that only a process with an artifact store produces.
WARM_LAYER_METRICS = (
    "store.hits",
    "store.misses",
    "store.stores",
    "store.invalid",
    "template.verify_s",
    "template.verify_emits",
    "template.verify_memo_hits",
    "template.load_demotions",
    "codegen.loaded",
)


class ChildFailed(RuntimeError):
    pass


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The parent's environment without ``REPRO_*``, importing ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.update(extra or {})
    return env


def run_child(args: List[str], env: Dict[str, str], scratch: Path,
              timeout: float = CHILD_TIMEOUT_S) -> Tuple[float, float, Dict]:
    """Run ``worker.py`` to completion: ``(cpu seconds, peak RSS MB, output)``.

    CPU and RSS come from ``wait4`` on that one child; the CPU seconds are
    normalised to the reference host speed by the child's own host-speed
    samples (see ``hostspeed``), when it reports them.  Raises
    :class:`ChildFailed` on a non-zero exit or a timeout (the child is
    killed and reaped first).
    """
    out = scratch / f"{uuid.uuid4().hex}.json"
    err = scratch / f"{out.stem}.err"
    with open(err, "wb") as err_file:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args, "--out", str(out)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=err_file, stderr=err_file,
        )
    deadline = time.monotonic() + timeout
    pid = 0
    try:
        while not pid and time.monotonic() < deadline:
            time.sleep(0.01)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    finally:
        if not pid:  # timed out or interrupted: never leave the child running
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
    if not pid:
        raise ChildFailed(f"worker {args} timed out after {timeout:.0f} s")
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"worker {args} exited {proc.returncode}:\n{err.read_text()[-2000:]}")
    result = json.loads(out.read_text())
    cpu = usage.ru_utime + usage.ru_stime
    if "hostspeed" in result:
        cpu = normalise(cpu, result["hostspeed"])
    return cpu, usage.ru_maxrss / 1024.0, result


def load_goldens(workload: str) -> Dict:
    return json.loads((GOLDENS / f"{workload}.json").read_text())["cells"]


def check(workload: str, goldens: Dict, output: Optional[Dict]) -> Tuple[int, List[str]]:
    """``(attempted, failures)`` of one run's cells against the goldens.

    A cell fails if it raised, is missing, or any output differs: every
    ``PerfCounters`` field but the label, every scaling point, every
    functional output digest (and its NumPy-reference agreement).
    """
    failures = []
    results = output["results"] if output else {}
    errors = output["errors"] if output else {}
    for cell in cells(workload):
        reason = _mismatch(goldens.get(cell.id), results.get(cell.id), errors.get(cell.id))
        if reason:
            failures.append(f"{cell.id}: {reason}")
    return len(cells(workload)), failures


def _mismatch(gold: Optional[Dict], got: Optional[Dict], error: Optional[str]) -> str:
    if error is not None:
        return f"raised {error.strip().splitlines()[-1]}"
    if gold is None or got is None:
        return "no golden" if gold is None else "no result"
    if "counters" in gold:
        diff = sorted(
            k for k in gold["counters"].keys() | got["counters"].keys()
            if k != "label" and gold["counters"].get(k) != got["counters"].get(k)
        )
        return f"counters differ in {', '.join(diff)}" if diff else ""
    if "points" in gold:
        return "" if gold["points"] == got["points"] else "scaling points differ"
    if not got["matches_reference"]:
        return "output differs from the NumPy reference"
    bad = [v for v, digest in got["digests"].items() if gold["digests"].get(v) != digest]
    return f"output digest differs (field {', '.join(bad)})" if bad else ""


def calibrate() -> float:
    """CPU seconds of a fixed stdlib-only loop (host speed probe)."""
    start = time.process_time()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    return time.process_time() - start


def store_megabytes(store: Path) -> float:
    from repro.machine.artifacts import scan_tree

    return scan_tree(store)["bytes"] / 1e6


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Run:
    """One invocation: set-ups and cold / warm pairs of children."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.goldens = load_goldens(workload)
        self.attempted = 0
        self.failures: List[str] = []
        self.samples: Dict[str, List[float]] = {name: [] for name in E2E_UNITS}
        self.speeds: List[float] = []  # host speed seen by each untraced child

    def child(self, phase: str, store: Optional[Path] = None,
              trace: int = 0) -> Tuple[float, float, Dict]:
        args = ["--workload", self.workload, "--seed", str(self.seed), "--phase", phase,
                "--trace", str(trace)]
        if store is not None:
            args += ["--store", str(store)]
        cpu, rss, output = run_child(args, child_env(), self.scratch)
        if not trace and "hostspeed" in output:
            self.speeds.append(output["hostspeed"]["speed"])
        return cpu, rss, output

    def checked(self, phase: str, **kwargs) -> Tuple[float, float, Dict]:
        """A ``run`` child whose outputs are checked against the goldens.

        A child that crashes fails every cell it did not report.
        """
        try:
            cpu, rss, output = self.child(phase, **kwargs)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            cpu, rss, output = float("nan"), float("nan"), None
        attempted, failures = check(self.workload, self.goldens, output)
        self.attempted += attempted
        self.failures += failures
        return cpu, rss, output

    def setup(self, trace: int = 0) -> Tuple[Path, Dict]:
        """Precompile every cell into a new, empty store."""
        store = self.scratch / f"store-{uuid.uuid4().hex[:8]}"
        setup_s, _rss, output = self.child("setup", store=store, trace=trace)
        if not trace:
            self.samples["setup_s"].append(setup_s)
        return store, output

    def pair(self, store: Path, trace: int = 0) -> Dict:
        """A cold run, then a warm run on a private copy of ``store``."""
        cold_s, cold_rss, cold = self.checked("run", trace=trace)
        private = self.scratch / f"{store.name}-{uuid.uuid4().hex[:8]}"
        shutil.copytree(store, private)
        warm_s, warm_rss, warm = self.checked("run", store=private, trace=trace)
        store_mb = store_megabytes(private)
        shutil.rmtree(private)
        if not trace:
            for name, value in (("cold_s", cold_s), ("warm_s", warm_s), ("cold_rss_mb", cold_rss),
                                ("warm_rss_mb", warm_rss), ("store_mb", store_mb)):
                self.samples[name].append(value)
        return {"cold": cold, "warm": warm, "cold_s": cold_s}

    def metrics(self) -> Dict[str, float]:
        return {name: statistics.median(values) for name, values in self.samples.items()}


def per_layer(traced: Dict, untraced_cold_s: float, calib_s: float,
              speed: float) -> Dict[str, float]:
    layers = dict(traced["cold"]["layers"]) if traced["cold"] else {}
    if traced["warm"]:
        for name in WARM_LAYER_METRICS:
            layers[name] = traced["warm"]["layers"][name]
    layers["trace.overhead_s"] = traced["cold_s"] - untraced_cold_s
    layers["host.calib_s"] = calib_s
    layers["host.speed"] = speed
    return layers


def write_trace(traced: Dict, workload: str, seed: int) -> Path:
    run_id = uuid.uuid4().hex
    processes = [
        {"name": f"{workload} {phase}", "spans": traced[phase]["spans"]}
        for phase in ("cold", "setup", "warm") if traced[phase]
    ]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{workload}_seed{seed}.json"
    path.write_text(json.dumps(chrome_trace(processes, run_id)))
    return path


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_rate")) or name == "host.speed":
        return "ratio"
    if name == "sim.cycles":
        return "cycles"
    if name == "sim.dram_bytes":
        return "bytes"
    if name.endswith("_per_sim_ins"):
        return "ns/ins"
    if name.endswith("_err"):
        return "abs"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    if not (GOLDENS / f"{args.workload}.json").is_file():
        print(f"error: no goldens for {args.workload}; run perfbench/make_goldens.py",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    scratch = WORK / uuid.uuid4().hex[:12]
    scratch.mkdir()
    try:
        return _measure(args, scratch)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, scratch: Path) -> int:
    from repro.machine.artifacts import code_version

    started = time.monotonic()
    run = Run(args.workload, args.seed, scratch)
    run.child("prime")
    calib = [calibrate()]
    # The first SETUPS pairs each get a fresh store; later pairs reuse the
    # newest one (every warm run starts from a private copy).  A step starts
    # only if it should end within the budget.
    setup_s: List[float] = []
    pair_s: List[float] = []
    store = None
    while True:
        with_setup = len(setup_s) < SETUPS
        if pair_s:
            expected = statistics.median(pair_s) + (statistics.median(setup_s) if with_setup else 0)
            if time.monotonic() - started + expected > min(args.seconds, RUN_DEADLINE_S):
                break
        began = time.monotonic()
        if with_setup:
            if store is not None:
                shutil.rmtree(store)
            store, _setup = run.setup()
            setup_s.append(time.monotonic() - began)
            began = time.monotonic()
        run.pair(store)
        pair_s.append(time.monotonic() - began)
    calib.append(calibrate())
    e2e = run.metrics()

    layers = None
    if args.trace:
        traced_store, traced_setup = run.setup(trace=1)
        traced = run.pair(traced_store, trace=1)
        traced["setup"] = traced_setup
        layers = per_layer(traced, e2e["cold_s"], statistics.median(calib),
                           statistics.median(run.speeds))
        print(f"trace written to {write_trace(traced, args.workload, args.seed).relative_to(ROOT)}")

    failed = len(run.failures)
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"workload {args.workload} seed {args.seed}: {len(run.samples['setup_s'])} set-ups, "
          f"{len(run.samples['cold_s'])} cold/warm pairs, "
          f"host calibration {calib[0]:.4f} s / {calib[-1]:.4f} s, "
          f"median host speed {statistics.median(run.speeds):.3f}")
    for name, value in e2e.items():
        print(f"{name} {value:.6g} {E2E_UNITS[name]}")
    print(f"failed_ops {failed / max(run.attempted, 1):.6g} share ({failed} of {run.attempted})")
    if layers is not None:
        for name, value in layers.items():
            print(f"{name} {value:.6g} {layer_units(name)}")

    HISTORY.parent.mkdir(exist_ok=True)
    record = {
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha(),
        "code_version": code_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "setups": len(run.samples["setup_s"]),
        "pairs": len(run.samples["cold_s"]),
        "host_calib_s": calib,
        "host_speed": statistics.median(run.speeds) if run.speeds else None,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": e2e,
        "per_layer": layers,
    }
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")

    if args.trace:
        metrics = {name: {"value": v, "unit": layer_units(name)} for name, v in layers.items()}
    else:
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in e2e.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
