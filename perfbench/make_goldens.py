"""Record the benchmark's goldens on the trusted reference walk.

Usage (from the repository root)::

    python3 perfbench/make_goldens.py                 # every workload
    python3 perfbench/make_goldens.py --workload ooc_sampled

Each workload runs once in a fresh process with ``engine="reference"`` and
steady elision, codegen, columnar replay and the pass memo switched off,
every functional cell on every input variant.  The full ``PerfCounters`` of
each timed cell, the points of each scaling sweep and the sha256 of each
functional output land in ``perfbench/goldens/<workload>.json``.  A
functional output that disagrees with the NumPy reference aborts the
recording.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import uuid

from run import GOLDENS, WORK, child_env, run_child
from workloads import WORKLOADS

REFERENCE_ENV = {
    "REPRO_ENGINE": "reference",
    "REPRO_TIMING": "scalar",
    "REPRO_STEADY": "off",
    "REPRO_CODEGEN": "off",
    "REPRO_MEMO": "off",
}


def record(workload: str) -> None:
    scratch = WORK / uuid.uuid4().hex[:12]
    scratch.mkdir(parents=True)
    try:
        args = ["--workload", workload, "--seed", "0", "--phase", "run", "--all-fields"]
        cpu_s, _rss, output = run_child(args, child_env(REFERENCE_ENV), scratch, timeout=7200)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if output["errors"]:
        raise SystemExit(f"{workload}: cells raised:\n" + "\n".join(output["errors"].values()))
    goldens = {}
    for cell_id, result in sorted(output["results"].items()):
        if "matches_reference" in result:
            if not result.pop("matches_reference"):
                raise SystemExit(f"{workload}: {cell_id} differs from the NumPy reference")
        goldens[cell_id] = result
    path = GOLDENS / f"{workload}.json"
    path.write_text(json.dumps({"recorded_with": REFERENCE_ENV, "cells": goldens},
                               indent=1, sort_keys=True) + "\n")
    print(f"{workload}: {len(goldens)} cells recorded in {cpu_s:.1f} normalised CPU s -> {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    GOLDENS.mkdir(exist_ok=True)
    for workload in args.workload or list(WORKLOADS):
        record(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
