"""Benchmark of momentbounds: three closed-loop workloads, checked outputs.

One workload run, as the benchmark contract in BENCHMARK.json states it:

    python3 bench/run.py --workload query-mix --seed 1 --seconds 30 --trace 0

prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Each run also writes
a result file with the environment and every figure to ``bench/out/``.

Every workload, untraced on several seeds plus one traced run, with the
tracing overhead and a summary in ``bench/results/BENCH_<label>.json``:

    python3 bench/run.py --suite --label baseline

``--quick`` shrinks the ``verify`` sizes for the smoke test
(``python3 -m pytest bench``).  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RESULTS = BENCH / "results"

#: Set-up is measured this many times in fresh interpreters, spread over the
#: run; the median is reported.
SETUP_REPEATS = {False: 15, True: 2}

#: First calls into each layer a workload uses, timed with the package import.
SETUP_CALLS = {
    "query-mix": """\
import momentbounds as mb
d = mb.DiscreteDistribution.from_pairs([(-1.0, 0.5), (1.0, 0.5)])
mv = mb.moments_from_discrete(d)
mb.feasibility(mv), mb.bound_sqrt(mv), mb.bound_quarter(mv), mb.m3_interval(0.0, 1.0, 1.0)
mb.certificate_from_hankel(mv), mb.moments_from_samples([1.0, 2.0])
mb.two_point_zero_mean(1.0, 2.0), mb.extremal_from_sigma(1.0)
""",
    "verify": """\
import momentbounds as mb
c = mb.OracleConfig(grid_step=0.5)
mb.oracle_max_m3(c), mb.oracle_extreme_m3_given(0.0, 1.0, 1.0, c), mb.random_falsifier(1, 0)
""",
    "cli-oneshot": """\
import contextlib, io
import momentbounds.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["interval", "0", "1", "2"])
""",
}

IMPORT_PROBE = "import momentbounds.cli\n"

#: Runs each subcommand from a small parent and prints the children's peak
#: RSS in KiB; a child's peak includes its parent's RSS at fork.
CLI_RSS_PROBE = """\
import resource, subprocess, sys
for argv in (["interval", "0", "1", "2"], ["extremal", "1"], ["bound", "--moments", "1", "0", "1", "0", "1"],
             ["moments", "--samples", "1", "2", "4"], ["verify", "--step", "0.05", "--trials", "500"]):
    subprocess.run([sys.executable, "-m", "momentbounds.cli", *argv], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""
CLI_SUBCOMMANDS = ("moments", "bound", "interval", "extremal", "verify")


def fail(message: str, code: int = 2) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def python_env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def timed_python(code: str) -> float:
    """Seconds ``code`` takes in a fresh interpreter, measured inside it."""
    probe = f"import time\nt0 = time.perf_counter()\n{code}print(time.perf_counter() - t0)\n"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=python_env(), cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        fail(f"probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def setup_sampler(workload: str, n: int):
    """The list of set-up samples, and a function that takes the samples due.

    Sample k is due once a share k/n of the run has gone, so the first is
    due at once and the samples spread over the run like its operations.
    """
    samples: list[float] = []

    def take_due(share: float) -> None:
        while len(samples) < n and len(samples) <= share * n:
            samples.append(timed_python(SETUP_CALLS[workload]))

    return samples, take_due


def cli_peak_rss_mb() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", CLI_RSS_PROBE], env=python_env(), cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if proc.returncode != 0:
        fail(f"probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) / 1024.0


def startup_s() -> float:
    """Wall time of a bare ``python -c pass``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=60)
    return perf_counter() - t0


# ---------------------------------------------------------------- environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """SHA-256 over the package sources, naming the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "momentbounds").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int | None) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------- metrics


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (``statistics.quantiles``' inclusive method)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def latency_summary(latencies) -> dict:
    lat = sorted(latencies)
    if not lat:
        fail("no operation completed", 3)
    return {
        "ops": len(lat),
        "ops_per_s": len(lat) / sum(lat),
        "mean_ms": 1e3 * statistics.fmean(lat),
        "p50_ms": 1e3 * percentile(lat, 0.50),
        "p90_ms": 1e3 * percentile(lat, 0.90),
        "p99_ms": 1e3 * percentile(lat, 0.99),
        "max_ms": 1e3 * lat[-1],
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(setup: float, lat: dict, rss: float) -> dict:
    return {
        "setup_s": _m(setup, "s"),
        "ops_per_s": _m(lat["ops_per_s"], "1/s"),
        "p50_ms": _m(lat["p50_ms"], "ms"),
        "p90_ms": _m(lat["p90_ms"], "ms"),
        "peak_rss_mb": _m(rss, "MB"),
    }


def per_layer(workload: str, run, cover, tracer, lat: dict, rss: float, mb, quick: bool) -> dict:
    """Per-layer figures of a traced run.

    A layer's figures come from the workload's own loop when the loop calls
    it (``workloads.LAYERS``), else from ``cover``, the round of other
    operations run after the loop.
    """
    import workloads

    def mean_s(span: str) -> float:
        calls = tracer.calls.get(span, 0)
        return tracer.total_s[span] / calls if calls else 0.0

    def tally(layer: str) -> dict:
        return (run if layer in workloads.LAYERS[workload] else cover).tally

    def ratio(num: str, den: str) -> float:
        t = tally("bounds")
        return t.get(num, 0.0) / t[den] if t.get(den) else 0.0

    t = tally("oracle")
    max_m3_s = mean_s("oracle.max_m3")
    oracle_quick = quick or "oracle" not in workloads.LAYERS[workload]
    out = {
        "moments.from_discrete_us": _m(1e6 * mean_s("moments.from_discrete"), "us"),
        "moments.from_samples_us": _m(1e6 * mean_s("moments.from_samples"), "us"),
        "moments.feasibility_us": _m(1e6 * mean_s("moments.feasibility"), "us"),
        "bounds.bound_sqrt_us": _m(1e6 * mean_s("bounds.bound_sqrt"), "us"),
        "bounds.bound_quarter_us": _m(1e6 * mean_s("bounds.bound_quarter"), "us"),
        "bounds.m3_interval_us": _m(1e6 * mean_s("bounds.m3_interval"), "us"),
        "bounds.certificate_us": _m(1e6 * mean_s("bounds.certificate"), "us"),
        "bounds.tight_frac": _m(ratio("tight", "bound_calls"), "ratio"),
        "bounds.witness_ok_frac": _m(ratio("witness_ok", "witnesses"), "ratio"),
        "bounds.certificate_ok_frac": _m(ratio("certificate_ok", "certificates"), "ratio"),
        "oracle.max_m3_s": _m(max_m3_s, "s"),
        "oracle.max_m3_support2_s": _m(mean_s("oracle.max_m3_support2"), "s"),
        "oracle.max_m3_candidates": _m(t["candidates"], "count"),
        "oracle.max_m3_candidates_per_s": _m(t["candidates"] / max_m3_s, "1/s"),
        "oracle.max_m3_gap": _m(t["max_m3_gap"], "m3"),
        "oracle.max_m3_peak_alloc_mb": _m(workloads.verify_peak_alloc_mb(mb, oracle_quick), "MB"),
        "oracle.extreme_m3_s": _m(mean_s("oracle.extreme_m3"), "s"),
        "oracle.extreme_m3_endpoint_gap": _m(t["endpoint_gap"], "m3"),
        "oracle.falsifier_s": _m(mean_s("oracle.falsifier"), "s"),
        "oracle.falsifier_us_per_trial": _m(1e6 * tracer.total_s["oracle.falsifier"] / t["falsifier_trials"], "us"),
        "oracle.falsifier_violations": _m(t["falsifier_violations"], "count"),
        "oracle.falsifier_worst_scaled_slack": _m(t["worst_scaled_slack"], "ratio"),
        "cli.python_startup_ms": _m(1e3 * statistics.median(startup_s() for _ in range(5)), "ms"),
        "cli.import_ms": _m(1e3 * statistics.median(timed_python(IMPORT_PROBE) for _ in range(5)), "ms"),
    }
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_ms"] = _m(1e3 * mean_s(f"cli.{sub}"), "ms")
    out["cli.peak_rss_mb"] = _m(cli_peak_rss_mb(), "MB")
    for key in ("ops_per_s", "p50_ms", "p90_ms"):
        out[f"traced.{key}"] = _m(lat[key], "1/s" if key == "ops_per_s" else "ms")
    out["traced.peak_rss_mb"] = _m(rss, "MB")
    return out


def select(metrics: dict, wanted: list[dict]) -> dict:
    """Exactly the metrics BENCHMARK.json lists, in its order, with its units."""
    out = {}
    for spec in wanted:
        got = metrics.get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} [{spec['unit']}] not measured as listed", 3)
        out[spec["name"]] = got
    return out


# ---------------------------------------------------------------- one run


def load_api(tracer):
    """Import momentbounds from ``src`` and wrap its public functions for the workloads."""
    sys.path.insert(0, str(SRC))
    import momentbounds as mb
    import workloads

    if not Path(mb.__file__).resolve().is_relative_to(SRC):
        fail(f"imported momentbounds from {mb.__file__}, not from {SRC}")
    return mb, workloads.make_api(mb, tracer)


def run_one(args, spec: dict) -> int:
    setup_samples, take_setup_samples = setup_sampler(args.workload, SETUP_REPEATS[args.quick])
    # The first sample runs before this process imports numpy.
    take_setup_samples(0.0)
    import workloads
    from tracer import Tracer

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else workloads.NullTracer()
    wrap = tracer if args.trace else None
    # The CLI workload's own process does not import the package (nor numpy),
    # so that the peak RSS of its children, which includes this process's
    # RSS at fork, reads the CLI's own.
    mb, api = load_api(wrap) if args.workload != "cli-oneshot" else (None, None)
    ctx = SimpleNamespace(
        quick=args.quick, src=SRC, law_file=OUT / f"cli_law_s{args.seed}.json", between=take_setup_samples
    )
    run = workloads.WORKLOADS[args.workload](api, tracer, args.seed, args.seconds, ctx)
    take_setup_samples(1.0)
    # Peak RSS before the summary, whose sorted copy of the latencies grows with throughput.
    rss = peak_rss_mb(args.workload)
    lat = latency_summary(run.latencies)
    extra = {}
    if args.trace:
        layers = tracer.layer_self_s()
        extra["self_ms_per_op"] = {k: 1e3 * v / lat["ops"] for k, v in layers.items()}
        extra["spans_per_op"] = sum(tracer.calls.values()) / lat["ops"]
        if mb is None:
            mb, api = load_api(wrap)
        cover = workloads.cover_other_layers(args.workload, api, tracer, args.seed, ctx)
        extra["cover"] = {"correct": cover.ledger.correct, "misses": dict(cover.ledger.misses)}
        metrics = per_layer(args.workload, run, cover, tracer, lat, rss, mb, args.quick)
        tracer.dump(OUT / f"trace_{args.workload}_s{args.seed}.json")
        correct = run.ledger.correct and cover.ledger.correct
    else:
        metrics = end_to_end(statistics.median(setup_samples), lat, rss)
        correct = run.ledger.correct
    ledger = run.ledger
    line = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": select(metrics, spec["per_layer" if args.trace else "end_to_end"]),
    }
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "quick": args.quick,
        "environment": environment(args.seed),
        **line,
        "fail_frac": ledger.failed / ledger.attempted,
        "misses": dict(ledger.misses),
        "setup_samples_s": setup_samples,
        "latency": lat,
        "tally": run.tally,
        "all_metrics": metrics,
        **extra,
    }
    name = f"{args.workload}_s{args.seed}_t{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, default=float) + "\n")
    print(json.dumps(line))
    return 0


# ---------------------------------------------------------------- suite

#: Headline metrics: (name, workload, figure in the result file, factor, unit).
HEADLINES = (
    ("query_qps", "query-mix", "ops_per_s", 1.0, "1/s"),
    ("query_p50_us", "query-mix", "p50_ms", 1e3, "us"),
    ("query_p99_us", "query-mix", "p99_ms", 1e3, "us"),
    ("verify_s", "verify", "p50_ms", 1e-3, "s"),
    ("cli_p50_ms", "cli-oneshot", "p50_ms", 1.0, "ms"),
    ("cli_p90_ms", "cli-oneshot", "p90_ms", 1.0, "ms"),
)


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def _child(workload: str, seed: int, trace: int, seconds: int, quick: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}", 1)
    json.loads(proc.stdout.strip().splitlines()[-1])
    return json.loads((OUT / f"{workload}_s{seed}_t{trace}.json").read_text())


def suite(args, spec: dict) -> int:
    seconds = args.seconds or spec["run_seconds"]
    per_workload = {}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [_child(w, s, 0, seconds, args.quick) for s in args.seeds]
        traced = _child(w, args.seeds[0], 1, seconds, args.quick)
        figures = {k: _quartiles([r["latency"][k] for r in runs]) for k in runs[0]["latency"]}
        e2e = {m["name"]: _quartiles([r["metrics"][m["name"]]["value"] for r in runs]) for m in spec["end_to_end"]}
        overhead = {}
        for k in ("ops_per_s", "p50_ms", "p90_ms", "peak_rss_mb"):
            base, with_spans = e2e[k]["median"], traced["metrics"][f"traced.{k}"]["value"]
            overhead[k] = {"untraced": base, "traced": with_spans, "rel": with_spans / base - 1.0}
        per_workload[w] = {
            "end_to_end": e2e,
            "latency": figures,
            "fail_frac": _quartiles([r["fail_frac"] for r in runs]),
            "correct": all(r["correct"] for r in runs + [traced]),
            "misses": [r["misses"] for r in runs],
            "tracing_overhead": overhead,
            "self_ms_per_op": traced["self_ms_per_op"],
            "spans_per_op": traced["spans_per_op"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "runs": [{k: r[k] for k in ("correct", "attempted", "failed", "metrics")} for r in runs],
            "traced_run": {k: traced[k] for k in ("correct", "attempted", "failed", "metrics")},
        }
    headlines = {
        name: {"value": factor * per_workload[w]["latency"][key]["median"], "unit": unit, "workload": w}
        for name, w, key, factor, unit in HEADLINES
    }
    for w, pw in per_workload.items():
        for key, unit in (("setup_s", "s"), ("peak_rss_mb", "MB")):
            headlines[f"{key}[{w}]"] = {"value": pw["end_to_end"][key]["median"], "unit": unit, "workload": w}
        headlines[f"fail_frac[{w}]"] = {"value": pw["fail_frac"]["median"], "unit": "ratio", "workload": w}
    for name, h in headlines.items():
        print(f"{name:28s} {h['value']:14.6g} {h['unit']}")
    for w, pw in per_workload.items():
        for k, v in pw["tracing_overhead"].items():
            print(f"tracing_overhead[{w}].{k} {v['rel']:+.2%} ({v['untraced']:.6g} untraced, {v['traced']:.6g} traced)")
        for layer, ms in sorted(pw["self_ms_per_op"].items()):
            print(f"self_ms_per_op[{w}].{layer} {ms:.6g} ms")
    doc = {
        "label": args.label,
        "seeds": args.seeds,
        "seconds": seconds,
        "quick": args.quick,
        "environment": environment(None),
        "headlines": headlines,
        "workloads": per_workload,
    }
    target = (OUT if args.quick else RESULTS) / f"BENCH_{args.label}.json"
    target.parent.mkdir(exist_ok=True)
    target.write_text(json.dumps(doc, indent=1) + "\n")
    print(target.relative_to(ROOT))
    return 0 if all(pw["correct"] for pw in per_workload.values()) else 1


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "momentbounds" / "__init__.py").is_file():
        fail(f"no momentbounds sources under {SRC}")
    spec = json.loads(spec_path.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, help="measured seconds per run (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="small verify sizes, for the smoke test")
    p.add_argument("--suite", action="store_true", help="every workload on --seeds, plus traced runs")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--label", default="latest")
    args = p.parse_args()
    if args.suite:
        return suite(args, spec)
    if args.workload is None:
        p.error("--workload or --suite is required")
    args.seconds = args.seconds or spec["run_seconds"]
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
