"""The three workloads: input generators, closed loops and output checks.

Each workload is one caller in one process, with no threads: it sends its
next operation only after the previous one returned.  A run has a pool of
operations; operation k draws its inputs from a ``random.Random`` seeded by
the workload seed and k, so the program sees only generated numbers and the
same seed gives the same pool.  The loop goes round the pool until the run's
time is up.  Each operation's latency covers the calls into the program and
nothing else; generation and checking happen outside it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace

import checks
from checks import Ledger

#: m3 interval triples for the endpoint check of ``verify``; the seed picks one.
TRIPLES = ((0.0, 1.0, 2.0), (0.0, 2.0, 6.0), (-0.5, 1.0, 2.0))

#: Sizes of the ``verify`` workload, full and quick (smoke test) runs.
VERIFY_SIZES = {False: {"step": 0.01, "trials": 30_000}, True: {"step": 0.02, "trials": 1_000}}

#: The ``verify`` subcommand as the CLI workload runs it.
CLI_VERIFY_ARGS = ["--step", "0.05", "--trials", "500"]

#: Oracle gap accepted by ``verify``, as the CLI's own default.
GAP_TOL = 5e-3

#: Distinct operations in a run, full and quick: one pass over the pool
#: takes about a sixth of a 30 s run (query-mix, cli-oneshot) or half of it
#: (verify, two operations of about 7 s).
POOL = {
    "query-mix": {False: 20_000, True: 2_000},
    "verify": {False: 2, True: 2},
    "cli-oneshot": {False: 48, True: 12},
}


class NullTracer:
    """Stands in for ``tracer.Tracer`` in untraced runs."""

    query = -1

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass

    def unwind(self) -> None:
        pass


def make_api(mb, tracer=None) -> SimpleNamespace:
    """The public functions the workloads call, each wrapped in a span when traced."""
    fns = {
        "distribution": ("moments.distribution", mb.DiscreteDistribution.from_pairs),
        "moments_from_discrete": ("moments.from_discrete", mb.moments_from_discrete),
        "moments_from_samples": ("moments.from_samples", mb.moments_from_samples),
        "feasibility": ("moments.feasibility", mb.feasibility),
        "bound_sqrt": ("bounds.bound_sqrt", mb.bound_sqrt),
        "bound_quarter": ("bounds.bound_quarter", mb.bound_quarter),
        "m3_interval": ("bounds.m3_interval", mb.m3_interval),
        "certificate": ("bounds.certificate", mb.certificate_from_hankel),
        "two_point": ("bounds.two_point", mb.two_point_zero_mean),
        "extremal": ("bounds.extremal", mb.extremal_from_sigma),
        "max_m3": ("oracle.max_m3", mb.oracle_max_m3),
        "max_m3_support2": ("oracle.max_m3_support2", mb.oracle_max_m3),
        "extreme_m3": ("oracle.extreme_m3", mb.oracle_extreme_m3_given),
        "falsifier": ("oracle.falsifier", mb.random_falsifier),
    }
    api = {k: tracer.wrap(span, fn) if tracer else fn for k, (span, fn) in fns.items()}
    return SimpleNamespace(OracleConfig=mb.OracleConfig, **api)


@dataclass
class Run:
    """What one workload run measured."""

    #: Seconds per operation, 8 bytes each, so that peak RSS hardly grows with throughput.
    latencies: array = field(default_factory=lambda: array("d"))
    ledger: Ledger = field(default_factory=Ledger)
    tally: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float = 1.0) -> None:
        self.tally[key] = self.tally.get(key, 0.0) + value


# ---------------------------------------------------------------- inputs


def op_rng(seed: int, k: int) -> Random:
    """The generator of operation k's inputs; string seeds hash the same in every process."""
    return Random(f"{seed}/{k}")


def random_scale(rng: Random) -> float:
    return 10.0 ** rng.uniform(-6.0, 6.0)


def random_law(rng: Random, nonpositive_mean: bool) -> list[tuple[float, float]]:
    """2 to 8 atoms uniform on [-s, s] with Dirichlet(1) weights, s = 10^U[-6,6].

    With ``nonpositive_mean`` the atoms shift left by the mean plus a jitter
    of 1e-9..1e-6 times s, which keeps the law near m1 = 0, where the
    bounds are sharp.
    """
    k = rng.randint(2, 8)
    s = random_scale(rng)
    xs = [s * rng.uniform(-1.0, 1.0) for _ in range(k)]
    ws = [rng.expovariate(1.0) for _ in range(k)]
    total = math.fsum(ws)
    ps = [w / total for w in ws]
    if nonpositive_mean:
        mean = math.fsum(p * x for x, p in zip(xs, ps))
        shift = max(0.0, mean) + s * rng.uniform(1e-9, 1e-6)
        xs = [x - shift for x in xs]
    return list(zip(xs, ps))


def random_support(rng: Random) -> tuple[float, float]:
    """u <= v for the zero-mean law on {-u, v}, which then attains the sqrt bound."""
    s = random_scale(rng)
    u, v = sorted((s * rng.uniform(0.1, 2.0), s * rng.uniform(0.1, 2.0)))
    return u, v


def two_point_moments(u: float, v: float) -> list[float]:
    uv = u * v
    return [1.0, 0.0, uv, uv * (v - u), uv * (u * u - uv + v * v)]


def extremal_moments(sigma: float) -> list[float]:
    return [1.0, 0.0, sigma**2, math.sqrt(2.0) * sigma**3, 3.0 * sigma**4]


# ---------------------------------------------------------------- query-mix


def _vector(mv) -> list[float]:
    return [mv.m0, mv.m1, mv.m2, mv.m3, mv.m4]


def _check_bounds(run: Run, want, rep, rs, rq, iv, expect_tight=()) -> list[str]:
    """Checks shared by every query that evaluates the bounds of a law."""
    misses = []
    tol = checks.VALUE_REL * checks.scale_of(want) ** 3
    m3 = want[3]
    if not rep.psd:
        misses.append("psd")
    if not (
        checks.near(rs.bound, checks.sqrt_bound(want), tol)
        and checks.near(rq.bound, checks.quarter_bound(want), tol)
    ):
        misses.append("bound_value")
    if not (m3 <= rs.bound + tol and rs.bound <= rq.bound + tol):
        misses.append("bound_order")
    lo, hi = checks.interval(want[1], want[2], want[4])
    if not (checks.near(iv.lo, lo, tol) and checks.near(iv.hi, hi, tol) and lo - tol <= m3 <= hi + tol):
        misses.append("interval")
    for name, r in (("sqrt", rs), ("quarter", rq)):
        run.add("bound_calls")
        attains = name in expect_tight
        if attains and not r.tight:
            misses.append(checks.verdict_miss("tight_verdict", want))
        if not r.tight:
            continue
        run.add("tight")
        run.add("witnesses")
        if r.witness is not None and checks.same_moments(
            checks.moments(r.witness.atoms), want, checks.REPRODUCE_REL
        ):
            run.add("witness_ok")
        elif attains:
            misses.append(checks.verdict_miss("witness", want))
        else:
            # A law near, not on, the bound's equality case, called tight.
            misses.append("false_tight")
    return misses


def _check_certificate(run: Run, cert, want) -> list[str]:
    run.add("certificates")
    if cert is None or not checks.same_moments(
        checks.moments(cert.recovered.atoms), want, checks.REPRODUCE_REL
    ):
        return [checks.verdict_miss("certificate", want)]
    run.add("certificate_ok")
    return []


def _moment_misses(got, want, absw) -> list[str]:
    ok = all(abs(got[j] - want[j]) <= 1e-12 * absw[j] for j in range(5))
    return [] if ok else ["moments"]


def q_law(api, tr, rng: Random, run: Run) -> list[str]:
    """A random law with m1 <= 0 through moments, feasibility, both bounds and the interval."""
    pairs = random_law(rng, nonpositive_mean=True)
    tr.begin("op.law")
    t0 = perf_counter()
    dist = api.distribution(pairs)
    mv = api.moments_from_discrete(dist)
    rep = api.feasibility(mv)
    rs = api.bound_sqrt(mv)
    rq = api.bound_quarter(mv)
    iv = api.m3_interval(mv.m1, mv.m2, mv.m4)
    run.latencies.append(perf_counter() - t0)
    tr.end()
    want = checks.moments(pairs)
    misses = _moment_misses(_vector(mv), want, checks.abs_moments(pairs))
    return misses + _check_bounds(run, want, rep, rs, rq, iv)


def _q_equality_case(api, tr, rng: Random, run: Run, extremal: bool) -> list[str]:
    """A law that attains a bound: tight verdicts, witnesses and a Hankel certificate."""
    if extremal:
        sigma = random_scale(rng) * rng.uniform(0.5, 2.0)
        want = extremal_moments(sigma)
        expect_tight = ("sqrt", "quarter")
    else:
        u, v = random_support(rng)
        want = two_point_moments(u, v)
        expect_tight = ("sqrt",)
    tr.begin("op.extremal" if extremal else "op.two_point")
    t0 = perf_counter()
    dist = api.extremal(sigma) if extremal else api.two_point(u, v)
    mv = api.moments_from_discrete(dist)
    rep = api.feasibility(mv)
    rs = api.bound_sqrt(mv)
    rq = api.bound_quarter(mv)
    iv = api.m3_interval(mv.m1, mv.m2, mv.m4)
    try:
        cert = api.certificate(mv)
    except Exception:  # a raise is a missed certificate, checked below
        cert = None
    run.latencies.append(perf_counter() - t0)
    tr.end()
    misses = [] if checks.same_moments(_vector(mv), want, checks.VALUE_REL) else ["moments"]
    misses += _check_certificate(run, cert, want)
    return misses + _check_bounds(run, want, rep, rs, rq, iv, expect_tight)


def q_two_point(api, tr, rng: Random, run: Run) -> list[str]:
    return _q_equality_case(api, tr, rng, run, extremal=False)


def q_extremal(api, tr, rng: Random, run: Run) -> list[str]:
    return _q_equality_case(api, tr, rng, run, extremal=True)


def q_samples(api, tr, rng: Random, run: Run) -> list[str]:
    """Empirical moments of a few hundred samples and their feasibility."""
    s, mu = random_scale(rng), rng.uniform(-1.0, 1.0)
    xs = [s * rng.gauss(mu, 1.0) for _ in range(rng.randint(200, 400))]
    tr.begin("op.samples")
    t0 = perf_counter()
    mv = api.moments_from_samples(xs)
    rep = api.feasibility(mv)
    run.latencies.append(perf_counter() - t0)
    tr.end()
    n = len(xs)
    absw = [math.fsum(abs(x**j) for x in xs) / n for j in range(5)]
    misses = _moment_misses(_vector(mv), checks.sample_moments(xs), absw)
    return misses + ([] if rep.psd else ["psd"])


def q_interval(api, tr, rng: Random, run: Run) -> list[str]:
    """The exact m3 range from a raw (m1, m2, m4) triple, either sign of m1."""
    m = checks.moments(random_law(rng, nonpositive_mean=False))
    run.add("positive_mean_triples", m[1] > 0.0)
    tr.begin("op.interval")
    t0 = perf_counter()
    iv = api.m3_interval(m[1], m[2], m[4])
    run.latencies.append(perf_counter() - t0)
    tr.end()
    lo, hi = checks.interval(m[1], m[2], m[4])
    tol = checks.VALUE_REL * checks.scale_of(m) ** 3
    ok = checks.near(iv.lo, lo, tol) and checks.near(iv.hi, hi, tol) and lo - tol <= m[3] <= hi + tol
    return [] if ok else ["interval"]


#: Query kinds of ``query-mix`` and their shares of the stream.  The shares
#: are an assumption, not drawn from usage data: equal shares for the three
#: kinds of query the workload is defined by (random laws, equality-case
#: laws split evenly between two-point and extremal, raw triples), and 10%
#: for sample moments, which the definition asks for as a small share.
QUERY_MIX = ((q_law, 0.30), (q_two_point, 0.15), (q_extremal, 0.15), (q_samples, 0.10), (q_interval, 0.30))


def _attempt(tr, op, k: int) -> list[str]:
    """Run operation ``op(k)`` and return the checks it missed."""
    tr.query = k
    try:
        return op(k)
    except Exception:  # the program raised on a valid input
        tr.unwind()
        return ["raised"]


def _closed_loop(run: Run, tr, seconds: float, op, between, pool: int) -> Run:
    """Run ``op(0)`` .. ``op(pool - 1)`` round and round for ``seconds`` of loop time.

    The first pass always completes.  Operation k has the same inputs on
    every pass, so ``attempted`` and ``failed`` count the pool, once each,
    whatever the speed of the loop; misses that differ on a later pass are
    a fault of the program.  After each operation ``between(f)`` runs, with
    f the share of the loop time gone; the time it takes is not loop time.
    """
    first: list[list[str]] = []
    start = perf_counter()
    paused = 0.0
    i = 0
    while i < pool or perf_counter() - start - paused < seconds:
        k = i % pool
        misses = _attempt(tr, op, k)
        if i < pool:
            run.ledger.record(misses)
            first.append(misses)
        elif misses != first[k]:
            run.ledger.record_changed()
        i += 1
        t = perf_counter()
        between((t - start - paused) / seconds)
        paused += perf_counter() - t
    return run


def _query_op(api, tr, seed: int, run: Run):
    kinds, weights = zip(*QUERY_MIX)

    def op(k: int) -> list[str]:
        rng = op_rng(seed, k)
        return rng.choices(kinds, weights)[0](api, tr, rng, run)

    return op


def query_mix(api, tr, seed: int, seconds: float, ctx) -> Run:
    run = Run()
    op = _query_op(api, tr, seed, run)
    return _closed_loop(run, tr, seconds, op, ctx.between, POOL["query-mix"][ctx.quick])


# ---------------------------------------------------------------- verify

#: Support {-u, v} of the law attaining the quarter bound with m4 = 1.
_U_STAR = checks.U_FACTOR * 3.0**-0.25
_V_STAR = checks.V_FACTOR * 3.0**-0.25


def _verify_op(api, tr, seed: int, run: Run, quick: bool):
    """The sharpness check: grid oracle, support-2 oracle, m3 range and falsifier."""
    step, trials = VERIFY_SIZES[quick]["step"], VERIFY_SIZES[quick]["trials"]
    triple = Random(seed).choice(TRIPLES)
    grid = {"grid_lo": -3.0, "grid_hi": 3.0, "grid_step": step, "m4_target": 1.0}
    run.tally.update(max_m3_gap=-math.inf, endpoint_gap=-math.inf, worst_scaled_slack=math.inf)

    def op(k: int) -> list[str]:
        tr.begin("op.verify")
        t0 = perf_counter()
        cfg = api.OracleConfig(**grid)
        best = api.max_m3(cfg)
        best2 = api.max_m3_support2(api.OracleConfig(**grid, max_support=2))
        lo, hi = api.extreme_m3(*triple, cfg)
        rep = api.falsifier(trials, seed * 1000 + k)
        run.latencies.append(perf_counter() - t0)
        tr.end()

        misses = []
        gap = checks.QUARTER - best.max_m3
        m = checks.moments(best.argmax.atoms)
        atoms_ok = all(
            min(abs(x + _U_STAR), abs(x - _V_STAR)) <= 2.0 * step for x, p in best.argmax.atoms if p >= 0.01
        )
        if not (-1e-9 <= gap <= GAP_TOL):
            misses.append("oracle_gap")
        if not (
            atoms_ok
            and abs(m[0] - 1.0) <= 1e-12
            and m[1] <= 1e-9
            and abs(m[4] - 1.0) <= 1e-9
            and abs(m[3] - best.max_m3) <= 1e-9
        ):
            misses.append("oracle_argmax")
        if not best2.max_m3 <= best.max_m3 + 1e-12:
            misses.append("oracle_support2")
        want_lo, want_hi = checks.interval(*triple)
        egap = max(abs(lo - want_lo), abs(hi - want_hi))
        if not (lo <= hi and egap <= step / 2):
            misses.append("extreme_gap")
        if not (rep.trials == trials and rep.total_violations == 0 and rep.worst_scaled_slack >= -1e-9):
            misses.append("falsifier")
        t = run.tally
        t["max_m3_gap"] = max(t["max_m3_gap"], gap)
        t["endpoint_gap"] = max(t["endpoint_gap"], egap)
        t["worst_scaled_slack"] = min(t["worst_scaled_slack"], rep.worst_scaled_slack)
        t["candidates"] = best.candidates_examined
        run.add("falsifier_trials", rep.trials)
        run.add("falsifier_violations", rep.total_violations)
        return misses

    return op


def verify(api, tr, seed: int, seconds: float, ctx) -> Run:
    run = Run()
    op = _verify_op(api, tr, seed, run, ctx.quick)
    return _closed_loop(run, tr, seconds, op, ctx.between, POOL["verify"][ctx.quick])


def verify_peak_alloc_mb(mb, quick: bool) -> float:
    """Peak memory traced by ``tracemalloc`` during one ``oracle_max_m3`` call."""
    import tracemalloc

    cfg = mb.OracleConfig(grid_step=VERIFY_SIZES[quick]["step"])
    tracemalloc.start()
    try:
        mb.oracle_max_m3(cfg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------- cli-oneshot


def _arg(x: float) -> str:
    """``x`` as a command-line number that reads back to the same float.

    argparse takes a negative number in exponent form, such as -1e-05, for
    an option flag, so those are written out in fixed point.
    """
    s = repr(x)
    if s.startswith("-") and "e" in s:
        s = format(x, f".{max(0, 17 - math.floor(math.log10(-x)))}f")
    if float(s) != x:
        raise ValueError(f"{x!r} does not round-trip as {s}")
    return s


def _obj_bound(doc: dict) -> SimpleNamespace:
    witness = doc.get("witness")
    atoms = None if witness is None else SimpleNamespace(atoms=[(a["x"], a["p"]) for a in witness])
    return SimpleNamespace(bound=doc["bound"], tight=doc["tight"], witness=atoms)


def _check_bound_report(run: Run, doc: dict, want, expect_tight=()) -> list[str]:
    b = doc["bounds"]
    iv = SimpleNamespace(**doc["interval"])
    # The CLI exits 3 on a non-PSD moment vector, so a report means PSD.
    return _check_bounds(
        run, want, SimpleNamespace(psd=True), _obj_bound(b["sqrt"]), _obj_bound(b["quarter"]), iv, expect_tight
    )


def cli_interval(rng: Random, run: Run, ctx):
    m = checks.moments(random_law(rng, nonpositive_mean=False))

    def check(doc):
        lo, hi = checks.interval(m[1], m[2], m[4])
        tol = checks.VALUE_REL * checks.scale_of(m) ** 3
        got = doc["interval"]
        ok = checks.near(got["lo"], lo, tol) and checks.near(got["hi"], hi, tol)
        return [] if ok and lo - tol <= m[3] <= hi + tol else ["interval"]

    return ["interval", _arg(m[1]), _arg(m[2]), _arg(m[4])], check


def cli_bound(rng: Random, run: Run, ctx):
    m = checks.moments(random_law(rng, nonpositive_mean=True))
    return ["bound", "--moments", *map(_arg, m)], lambda doc: _check_bound_report(run, doc, m)


def cli_bound_singular(rng: Random, run: Run, ctx):
    m = two_point_moments(*random_support(rng))

    def check(doc):
        cert = doc.get("certificate")
        if cert is not None:
            cert = SimpleNamespace(recovered=SimpleNamespace(atoms=[(a["x"], a["p"]) for a in cert["recovered"]]))
        return _check_certificate(run, cert, m) + _check_bound_report(run, doc, m, ("sqrt",))

    return ["bound", "--moments", *map(_arg, m)], check


def cli_extremal(rng: Random, run: Run, ctx):
    sigma = random_scale(rng) * rng.uniform(0.5, 2.0)
    want = extremal_moments(sigma)

    def check(doc):
        atoms = [(a["x"], a["p"]) for a in doc["atoms"]]
        tol = checks.VALUE_REL * sigma**3
        ok = (
            checks.near(doc["u"], checks.U_FACTOR * sigma, 1e-12 * sigma)
            and checks.near(doc["v"], checks.V_FACTOR * sigma, 1e-12 * sigma)
            and checks.same_moments(checks.moments(atoms), want, checks.VALUE_REL)
            and checks.near(doc["quarter_bound"], checks.quarter_bound(want), tol)
        )
        return [] if ok else ["extremal"]

    return ["extremal", _arg(sigma)], check


def cli_moments(rng: Random, run: Run, ctx):
    """Moments of raw samples on the command line, or of a law in a JSON file."""
    if rng.random() < 0.5:
        s = random_scale(rng)
        xs = [s * rng.gauss(0.0, 1.0) for _ in range(rng.randint(10, 40))]
        pairs = [(x, 1.0 / len(xs)) for x in xs]
        argv = ["moments", "--samples", *map(_arg, xs)]
    else:
        pairs = random_law(rng, nonpositive_mean=False)
        ctx.law_file.write_text(json.dumps({"atoms": [{"x": x, "p": p} for x, p in pairs]}))
        argv = ["moments", str(ctx.law_file)]
    want, absw = checks.moments(pairs), checks.abs_moments(pairs)

    def check(doc):
        got = [doc["moments"][f"m{j}"] for j in range(5)]
        return _moment_misses(got, want, absw) + ([] if doc["feasibility"]["psd"] is True else ["psd"])

    return argv, check


def cli_verify(rng: Random, run: Run, ctx):
    def check(doc):
        f = doc["falsifier"]
        violations = sum(f[k] for k in ("eq_sqrt_violations", "eq_quarter_violations", "interval_violations", "psd_violations"))
        gap = doc["gap"]
        ok = (
            doc["verified"] is True
            and checks.near(gap, checks.QUARTER - doc["oracle_max_m3"], 1e-12)
            and -1e-9 <= gap <= GAP_TOL
            and violations == 0
        )
        return [] if ok else ["verify"]

    return ["verify", *CLI_VERIFY_ARGS, "--seed", str(rng.randrange(2**31))], check


#: One of each case per round, in an order the seed shuffles: equal shares of
#: the calls for the cases the workload is defined by, an assumption, not
#: drawn from usage data.
CLI_CASES = (cli_interval, cli_bound, cli_bound_singular, cli_extremal, cli_moments, cli_verify)


def run_cli(argv: list[str], src: Path) -> subprocess.CompletedProcess:
    """``python -m momentbounds.cli`` on ``argv``, importing the package from ``src``."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "momentbounds.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def _cli_op(tr, seed: int, run: Run, ctx):
    def op(k: int) -> list[str]:
        rnd, pos = divmod(k, len(CLI_CASES))
        cases = list(CLI_CASES)
        Random(f"{seed}/round{rnd}").shuffle(cases)
        argv, check = cases[pos](op_rng(seed, k), run, ctx)
        tr.begin("cli." + argv[0])
        t0 = perf_counter()
        proc = run_cli(argv, ctx.src)
        run.latencies.append(perf_counter() - t0)
        tr.end()
        if proc.returncode != 0:
            return ["exit_code"]
        try:
            return check(json.loads(proc.stdout))
        except (ValueError, KeyError, TypeError):
            return ["report"]

    return op


def cli_oneshot(api, tr, seed: int, seconds: float, ctx) -> Run:
    run = Run()
    op = _cli_op(tr, seed, run, ctx)
    return _closed_loop(run, tr, seconds, op, ctx.between, POOL["cli-oneshot"][ctx.quick])


WORKLOADS = {"query-mix": query_mix, "verify": verify, "cli-oneshot": cli_oneshot}

#: The layers whose public functions each workload's loop calls.
LAYERS = {"query-mix": ("moments", "bounds"), "verify": ("oracle",), "cli-oneshot": ("cli",)}


def cover_other_layers(workload: str, api, tr, seed: int, ctx) -> Run:
    """One round of the other workloads' operations, for a traced run.

    Every query kind runs 10 times, ``verify`` once at its quick size and
    every CLI case once, so that a traced run of any workload measures
    every layer, the ones its own loop does not call included.
    """
    run = Run()
    rng = Random(seed)
    if workload != "query-mix":
        for i, (kind, _) in enumerate(QUERY_MIX * 10):
            run.ledger.record(_attempt(tr, lambda i: kind(api, tr, rng, run), i))
    if workload != "verify":
        run.ledger.record(_attempt(tr, _verify_op(api, tr, seed, run, quick=True), 0))
    if workload != "cli-oneshot":
        op = _cli_op(tr, seed, run, ctx)
        for i in range(len(CLI_CASES)):
            run.ledger.record(_attempt(tr, op, i))
    return run
