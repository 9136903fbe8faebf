"""Leave-one-out ablation: what each acceleration switch is worth, cold.

Usage (from the repository root)::

    python3 perfbench/ablate.py --workload incache_exact --seed 1 --repeats 3

Runs the workload's cold process at default settings and once per switch
turned off -- ``REPRO_CODEGEN=off``, ``REPRO_STEADY=off``,
``REPRO_TIMING=scalar``, ``REPRO_MEMO=off`` -- round-robin for
``--repeats`` rounds, and prints each variant's median CPU seconds
(normalised to the reference host speed, as in ``run.py``) and its change
against the default.  Every ablated run must still match the
goldens; mismatches are listed.  A diagnostic: nothing here is gated, and it
exits 0 whenever the processes ran.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import uuid

from run import WORK, ChildFailed, check, child_env, load_goldens, run_child
from workloads import WORKLOADS

VARIANTS = {
    "default": {},
    "codegen=off": {"REPRO_CODEGEN": "off"},
    "steady=off": {"REPRO_STEADY": "off"},
    "timing=scalar": {"REPRO_TIMING": "scalar"},
    "memo=off": {"REPRO_MEMO": "off"},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    goldens = load_goldens(args.workload)
    scratch = WORK / uuid.uuid4().hex[:12]
    scratch.mkdir(parents=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    cpu = {name: [] for name in VARIANTS}
    failures = {name: set() for name in VARIANTS}
    try:
        run_child(base + ["--phase", "prime"], child_env(), scratch)
        for _ in range(args.repeats):
            for name, extra in VARIANTS.items():
                try:
                    seconds, _rss, output = run_child(base + ["--phase", "run"],
                                                      child_env(extra), scratch)
                except ChildFailed as exc:
                    failures[name].add(str(exc))
                    continue
                cpu[name].append(seconds)
                failures[name].update(check(args.workload, goldens, output)[1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    default = statistics.median(cpu["default"]) if cpu["default"] else float("nan")
    print(f"{args.workload} seed {args.seed}: cold CPU seconds, median of {args.repeats}")
    for name in VARIANTS:
        if not cpu[name]:
            print(f"{name:14s} no successful run")
            continue
        median = statistics.median(cpu[name])
        print(f"{name:14s} {median:8.3f} s  {100 * (median / default - 1):+7.1f}% vs default  "
              f"golden mismatches: {len(failures[name])}")
        for failure in sorted(failures[name]):
            print(f"    {failure}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
