"""Smoke test of the benchmark harness, in quick mode.

Checks that every run prints the contract line with every metric that
BENCHMARK.json names and counts its pool of operations, and that the suite
prints every headline metric.  It
sets no timing bound.  Run it with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import POOL

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
HEADLINES = ("query_qps", "query_p50_us", "query_p99_us", "verify_s", "cli_p50_ms", "cli_p90_ms")


def test_suite_emits_every_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--suite", "--quick", "--seeds", "1", "--seconds", "1", "--label", "smoke"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    printed = {line.split()[0] for line in proc.stdout.splitlines() if line.strip()}
    workloads = [w["name"] for w in SPEC["workloads"]]
    for name in HEADLINES:
        assert name in printed
    for w in workloads:
        for name in ("setup_s", "peak_rss_mb", "fail_frac"):
            assert f"{name}[{w}]" in printed

    doc = json.loads((BENCH / "out" / "BENCH_smoke.json").read_text())
    assert set(doc["environment"]) >= {"python", "numpy", "nproc", "cpu_model", "git_commit"}
    for w in workloads:
        result = doc["workloads"][w]
        lines = result["runs"] + [result["traced_run"]]
        for line, kind in zip(lines, ["end_to_end"] * len(result["runs"]) + ["per_layer"]):
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["attempted"] == POOL[w][True]
            assert 0 <= line["failed"] <= line["attempted"]
            assert [(k, v["unit"]) for k, v in line["metrics"].items()] == [
                (m["name"], m["unit"]) for m in SPEC[kind]
            ]
            assert all(isinstance(v["value"], float) for v in line["metrics"].values())
        assert set(result["tracing_overhead"]) == {"ops_per_s", "p50_ms", "p90_ms", "peak_rss_mb"}


def test_refuses_to_run_without_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "test_*"))
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
