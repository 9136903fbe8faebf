"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The end-to-end tests run ``run.py`` in a temporary copy of the checkout, so
they never append to the committed history.
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import hostspeed  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, ordered  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _as_output(goldens):
    """A worker output that reproduces the goldens exactly."""
    results = copy.deepcopy(goldens)
    for result in results.values():
        if "digests" in result:
            result["matches_reference"] = True
    return {"results": results, "errors": {}}


def _checkout(tmp_path: Path, with_sources: bool = True) -> Path:
    dest = tmp_path / "checkout"
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__", ".work", "out", "history.jsonl")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def _bench(checkout: Path, workload: str, trace: int, seconds: int = 1):
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_goldens_cover_every_cell(workload):
    attempted, failures = run.check(workload, run.load_goldens(workload),
                                    _as_output(run.load_goldens(workload)))
    assert attempted == len(WORKLOADS[workload])
    assert failures == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_perturbed_golden_counter_counts_as_failed(workload):
    goldens = run.load_goldens(workload)
    output = _as_output(goldens)
    cell_id = next(k for k, v in goldens.items() if "counters" in v)
    perturbed = copy.deepcopy(goldens)
    perturbed[cell_id]["counters"]["l1_demand_hits"] += 1
    _attempted, failures = run.check(workload, perturbed, output)
    assert len(failures) == 1 and failures[0].startswith(cell_id)
    assert "l1_demand_hits" in failures[0]


def test_functional_digest_and_reference_mismatches_fail():
    workload = "ooc_functional"
    goldens = run.load_goldens(workload)
    cell_id = next(k for k, v in goldens.items() if "digests" in v)
    output = _as_output(goldens)
    output["results"][cell_id]["digests"]["0"] = "0" * 64
    assert len(run.check(workload, goldens, output)[1]) == 1
    output = _as_output(goldens)
    output["results"][cell_id]["matches_reference"] = False
    assert len(run.check(workload, goldens, output)[1]) == 1
    output = _as_output(goldens)
    output["errors"][cell_id] = "Traceback ...\nValueError: boom\n"
    assert run.check(workload, goldens, output)[1] == [f"{cell_id}: raised ValueError: boom"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_second_seed_reorders_cells_and_still_matches_goldens(workload, tmp_path):
    def order(seed):
        return [cell.id for cell, _ in ordered(workload, seed)]

    other = next(seed for seed in itertools.count(2) if order(seed) != order(1))
    assert sorted(order(other)) == sorted(order(1))
    goldens = run.load_goldens(workload)
    for seed in (1, other):
        args = ["--workload", workload, "--seed", str(seed), "--phase", "run"]
        _cpu, _rss, output = run.run_child(args, run.child_env(), tmp_path)
        assert output["order"] == order(seed)
        assert run.check(workload, goldens, output)[1] == []
        assert output["hostspeed"]["samples"] > 0 and output["hostspeed"]["speed"] > 0


def test_host_speed_normalisation_and_clean_exit():
    assert hostspeed.normalise(10.0, {"probe_cpu_s": 1.0, "speed": 0.5}) == 4.5
    # A child that never calls stop() must still exit cleanly, not by SIGPROF.
    code = ("import hostspeed, time; hostspeed.start(); s = time.process_time()\n"
            "while time.process_time() - s < 0.3: pass")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH, timeout=60)
    assert proc.returncode == 0


def self_ns(spans) -> dict:
    """Each span's duration minus the time its direct children cover."""
    out = {s["id"]: s["end_ns"] - s["start_ns"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return out


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _printed_names(stdout: str, names) -> set:
    lines = {line.split(" ", 1)[0] for line in stdout.splitlines()[:-1]}
    return lines & set(names)


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    proc = _bench(_checkout(tmp_path), "incache_exact", trace=0)
    result = _result(proc)
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(result["metrics"]) == names
    assert _printed_names(proc.stdout, names) == set(names)
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_traced_run_reports_layers_and_writes_well_formed_trace(tmp_path):
    checkout = _checkout(tmp_path)
    proc = _bench(checkout, "ooc_functional", trace=1)
    result = _result(proc)
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(result["metrics"]) == names
    assert _printed_names(proc.stdout, names) == set(names)
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"]
    history = (checkout / "perfbench" / "results" / "history.jsonl").read_text().splitlines()
    assert len(history) == 1 and json.loads(history[0])["per_layer"] is not None

    trace = json.loads(next((checkout / "perfbench" / "out").glob("trace_*.json")).read_text())
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["args"]["run_id"] for e in events} == {trace["otherData"]["run_id"]}
    by_process = {}
    for event in events:
        assert event["dur"] >= 0
        by_process.setdefault(event["pid"], {})[event["args"]["span_id"]] = event
    assert len(by_process) == 3  # cold, setup, warm
    depth_max = 0
    for spans in by_process.values():
        roots = [e for e in spans.values() if e["args"]["parent"] is None]
        assert len(roots) == 1
        for event in spans.values():
            depth, parent_id = 0, event["args"]["parent"]
            while parent_id is not None:
                parent = spans[parent_id]
                assert parent["ts"] <= event["ts"]
                assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + 1e-3
                depth, parent_id = depth + 1, parent["args"]["parent"]
            depth_max = max(depth_max, depth)
        records = [
            {"id": i, "parent": e["args"]["parent"],
             "start_ns": round(e["ts"] * 1e3), "end_ns": round((e["ts"] + e["dur"]) * 1e3)}
            for i, e in spans.items()
        ]
        assert min(self_ns(records).values()) >= -1000  # rounding to the microsecond
    assert depth_max >= 2  # phase > cell > layer call


def test_fails_without_the_program(tmp_path):
    proc = _bench(_checkout(tmp_path, with_sources=False), "incache_exact", trace=0)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_environment_is_scrubbed(monkeypatch):
    monkeypatch.setenv("REPRO_STEADY", "off")
    monkeypatch.setenv("REPRO_BENCH_CACHE", "/nonexistent")
    env = run.child_env()
    assert not any(key.startswith("REPRO_") for key in env)
    assert env["PYTHONPATH"] == str(run.SRC)
    assert run.child_env({"REPRO_MEMO": "off"})["REPRO_MEMO"] == "off"
