#!/usr/bin/env python3
"""The osdd benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds as whole passes over a query set the
seed picks, checks every answer against a closed form that shares no code
with the package, and prints each metric by name with its unit.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones, from passes that alternate untraced and traced.

Every measured process is a fresh interpreter (``worker.py``) that imports
the package from ``src/``, so process-global caches start cold as they do
for a user of the ``osdd`` command.  The parent runs one process at a
time, enforces a wall-time limit and an address-space cap on each, and
counts a crash, a timeout or a wrong answer as a failed attempt.  Times
are wall seconds; each query's time is its median over the run's passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference
from layertrace import add

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

JOB_TIMEOUT_S = 60.0
# No run may outlast this, whatever its --seconds; the harness must exit
# within 180 s.
HARD_STOP_S = 150.0
MEMORY_CAP_BYTES = 2 * 2**30
# Two-sided probability of a normal variate beyond 4 standard deviations.
TAIL_PROBABILITY = math.erfc(4 / math.sqrt(2))
# Switch probabilities for palindrome programs: dyadic, so that the decimal
# text in the program parses to exactly this fraction, and all sixteenths in
# lowest terms, so that exact arithmetic costs about the same whichever the
# seed picks.
DYADIC_P = [Fraction(i, 16) for i in range(3, 14, 2)]

END_TO_END = [
    ("setup_s", "s"),
    ("compile_s", "s"),
    ("infer_s", "s"),
    ("answer_s", "s"),
    ("diagram_nodes", "count"),
    ("peak_rss_mb", "MB"),
]

# Functions whose calls and self time are reported, by their traced name.
CALLS_SELF = [
    "constraints.satisfiable", "constraints.close",
    "diagram.make_node", "diagram.normalize", "diagram.combine",
    "diagram.apply_constraint", "diagram.to_proper",
    "engine.EvalSession.query", "concrete.WorldEvaluator.holds",
    "sampling.lw_sample",
]
DISTINCT = [
    "constraints.satisfiable", "diagram.make_node", "diagram.normalize",
    "diagram.combine", "diagram.apply_constraint", "diagram.to_proper",
]
SELF_ONLY = [
    "engine.transform", "exact.measurability", "exact.exact_probability",
    "exact.exact_probability_measurable", "program.parse_program",
]
# Set-up layers, outside compile_s + infer_s.
SETUP_LAYERS = {"engine.transform", "program.parse_program"}
PER_LAYER = (
    [(f"{f}.calls", "count") for f in CALLS_SELF]
    + [(f"{f}.self_s", "s") for f in CALLS_SELF + SELF_ONLY]
    + [(f"{f}.distinct_ratio", "ratio") for f in DISTINCT]
    + [
        ("engine.answer_table.entries", "count"),
        ("sampling.lw.consistent_ratio", "ratio"),
        ("sampling.independent.consistent_ratio", "ratio"),
        ("sampling.lw.samples_per_s", "1/s"),
        ("sampling.independent.samples_per_s", "1/s"),
        ("caches.rss_growth_mb", "MB"),
        ("trace.layers_self_s", "s"),
        ("trace.untraced_compile_infer_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)
# End-to-end figures printed as comment lines: they are zero on some
# workloads, or a function of the metrics above.
EXTRA = [
    ("fail_rate", "ratio"),
    ("queries_per_s", "1/s"),
    ("lw_samples_per_s", "1/s"),
    ("independent_samples_per_s", "1/s"),
    ("rss_growth_mb", "MB"),
]


# ---------------------------------------------------------------------------
# Workloads: each returns the jobs of one pass, a job being the list of
# queries one process answers.  Passes within a run repeat the same jobs.


def birthday_exact(rng: random.Random, tiny: bool) -> list:
    # Sizes from the package's own birthday sweep (6..16); n = 12 alone
    # takes 7 s to compile, too long for more than one pass in 30 s.
    ladder = [2, 3] if tiny else [6, 8, 10]
    queries = [
        {"type": "birthday", "n": n, "days": 365, "mode": "exact-measurable"}
        for n in ladder
    ]
    # General exact inference at n = 4 takes minutes; n = 3 takes seconds.
    queries.append({"type": "birthday", "n": 2 if tiny else 3, "days": 365, "mode": "exact"})
    rng.shuffle(queries)
    return [[q] for q in queries]


def palindrome_joint(rng: random.Random, tiny: bool) -> list:
    # Sizes from the package's own palindrome sweep (6..16); one joint at
    # n = 12 takes 5.5 s to compile, so it gets one count k.  The seed
    # picks only probabilities and order: the diagrams stay the same.
    sizes = [(4, 0), (4, 2)] if tiny else [(8, 2), (8, 4), (10, 2), (10, 4), (12, 2)]
    queries = [
        {"type": "palindrome", "n": n, "k": k, "p": str(rng.choice(DYADIC_P))}
        for n, k in sizes
    ]
    rng.shuffle(queries)
    return [[q] for q in queries]


def palindrome_sampling(rng: random.Random, tiny: bool) -> list:
    # The budgets of a pass, 300 LW and 2400 independent samples, are split
    # over three processes, each with its own cold evidence build, so that
    # a run has more set-ups to take the median of; their estimates are
    # pooled.  About 1 in 64 independent samples is a palindrome, so a pass
    # has about 37 consistent ones (see `samplers_ok`).
    processes = 2 if tiny else 3
    return [[{
        "type": "sampling", "n": 12, "k": 2, "p": "1/2",
        "lw": 300 // processes,
        "independent": (240 if tiny else 2400) // processes,
        "seed": rng.randrange(2**31),
    }] for _ in range(processes)]


def session_stream(rng: random.Random, tiny: bool) -> list:
    days = rng.sample(range(355, 376), 1 if tiny else 2)
    probabilities = rng.sample(DYADIC_P, 2)
    queries = [
        {"type": "birthday", "n": n, "days": d, "mode": "exact-measurable"}
        for d in days
        for n in ([2, 3] if tiny else [6, 8])
    ]
    # The same palindrome shapes under two distributions: distinct queries
    # whose diagrams the second time come from the process-global caches.
    queries += [
        {"type": "palindrome", "n": n, "k": k, "p": str(p)}
        for p in probabilities
        for n in ([4] if tiny else [8, 10])
        for k in (2, 4)
    ]
    rng.shuffle(queries)
    return [queries]


WORKLOADS = {
    "birthday-exact": birthday_exact,
    "palindrome-joint": palindrome_joint,
    "palindrome-sampling": palindrome_sampling,
    "session-stream": session_stream,
}


# ---------------------------------------------------------------------------
# Running processes


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_job(queries: list, trace: bool, seed: int, hard_stop: float):
    """Spawn one worker; return (spawn time, its report) or (None, error)."""
    job = {"src": str(SRC), "trace": trace, "queries": queries}
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(seed % 2**32),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    timeout = min(JOB_TIMEOUT_S, hard_stop - time.monotonic())
    if timeout <= 0:
        return None, "run time exhausted"
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(job)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, env=env, preexec_fn=_limit_memory,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return None, f"exit code {proc.returncode}: {tail[0]}"
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def binomial_tail(n: int, x: int, p: float) -> float:
    """The smaller of P(X <= x) and P(X >= x) for X ~ Binomial(n, p)."""
    def pmf(k):
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p)
        )

    return min(sum(map(pmf, range(x + 1))), sum(map(pmf, range(x, n + 1))))


def target(q: dict) -> Fraction:
    if q["type"] == "birthday":
        return reference.birthday(q["n"], q["days"])
    return reference.palindrome(q["n"], q["k"], Fraction(q["p"]))


def samplers_ok(samplers: dict, target: Fraction) -> bool:
    """Check both samplers' estimates, pooled over a pass's processes."""
    # A sampler fails when its estimate lies further out than 4 standard
    # errors would on a normal curve.  With tens of consistent samples the
    # count is far from normal, so the tail is taken from the binomial of
    # the effective sample size: the plain 4-standard-error rule would fail
    # a correct independent sampler about once in 2500 passes here.
    # The check catches gross errors only: at the independent sampler's
    # 37 or so consistent samples it accepts estimates of 3/32 up to 0.32.
    for mode in ("lw", "independent"):
        s = samplers[mode]
        if s["denominator"] <= 0:
            return False
        n = round(s["denominator"] ** 2 / s["sum_w2"])  # effective sample size
        x = round(s["numerator"] / s["denominator"] * n)
        if binomial_tail(n, x, float(target)) < TAIL_PROBABILITY / 2:
            return False
    return True


class Pass:
    """Results of one pass over a workload's jobs."""

    def __init__(self):
        self.setup = []  # per process
        self.peak_rss_mb = 0.0
        self.rss_growth_mb = 0.0
        self.attempted = self.failed = self.answered = 0
        self.numpy = None
        self.table_entries = 0
        self.layers = {}
        self.samplers = {}  # per sampler, its sums over the pass
        self.target = None  # the samplers' exact answer
        self.records = []
        self.errors = []
        self.per_query = []  # per query of the pass: its figures, or None

    def add_job(self, queries, t_spawn, report):
        self.attempted += len(queries)
        if t_spawn is None:
            self.failed += len(queries)
            self.errors.append(report)
            self.per_query += [None] * len(queries)
            return
        self.setup.append(report["t_setup"] - t_spawn)
        self.peak_rss_mb = max(self.peak_rss_mb, report["peak_rss_mb"])
        self.rss_growth_mb += report["rss_growth_mb"]
        self.numpy = report["numpy"]
        for q, r in zip(queries, report["queries"]):
            if q["type"] == "sampling":
                self.target = target(q)
                for mode in ("lw", "independent"):
                    self.samplers[mode] = add_sums(self.samplers.get(mode, {}), r[mode])
            elif Fraction(r["answer"]) != target(q):
                self.failed += 1
                self.errors.append(f"wrong answer to {describe(q)}: {r.get('answer')}")
                self.per_query.append(None)
                continue
            # One query per process: the user waits from spawn to answer.
            answer_s = r["t_answer"] - t_spawn if len(queries) == 1 else r["wall_s"]
            self.per_query.append({
                "compile_s": r["compile_s"], "infer_s": r["infer_s"],
                "answer_s": answer_s, "nodes": r["nodes"],
            })
            self.answered += 1
            self.table_entries += r["table_entries"]
            self.records.append((describe(q), r["nodes"], r["sha256"]))
            if "layers" in r:
                self.layers = add(self.layers, r["layers"])

    def check_samplers(self):
        """A pass whose pooled estimates are off fails all its answers."""
        if self.samplers and not samplers_ok(self.samplers, self.target):
            self.failed += self.answered
            self.errors.append(f"wrong answer from the samplers, pooled: {self.samplers}")

    def total(self, key: str) -> float:
        return sum(q[key] for q in self.per_query if q is not None)


def add_sums(total: dict, part: dict) -> dict:
    return {k: total.get(k, 0) + v for k, v in part.items()}


def describe(q: dict) -> str:
    if q["type"] == "birthday":
        return f"same_birthday({q['n']}) days={q['days']} {q['mode']}"
    if q["type"] == "palindrome":
        return f"query({q['n']},{q['k']})|evidence({q['n']}) p={q['p']}"
    return (f"sample query({q['n']},{q['k']})|evidence({q['n']}) lw={q['lw']} "
            f"independent={q['independent']}")


def run_pass(jobs, trace, seed, hard_stop) -> Pass:
    p = Pass()
    for queries in jobs:
        t_spawn, report = run_job(queries, trace, seed, hard_stop)
        p.add_job(queries, t_spawn, report)
    p.check_samplers()
    return p


# ---------------------------------------------------------------------------
# Metrics


def summed_medians(passes: list, key: str) -> float:
    """Each query's median over the passes, summed over a pass's queries;
    a burst of host load then moves one query's samples, not the sum."""
    total = 0
    for samples in zip(*(p.per_query for p in passes)):
        got = [s[key] for s in samples if s is not None]
        if got:
            total += statistics.median(got)
    return total


def end_to_end(passes: list) -> dict:
    return {
        "setup_s": statistics.median(s for p in passes for s in p.setup),
        "compile_s": summed_medians(passes, "compile_s"),
        "infer_s": summed_medians(passes, "infer_s"),
        "answer_s": summed_medians(passes, "answer_s"),
        "diagram_nodes": statistics.median(sum(q["nodes"] for q in p.per_query if q) for p in passes),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }


def sampler_metrics(p: Pass) -> dict:
    out = {}
    for mode in ("lw", "independent"):
        s = p.samplers.get(mode)
        out[f"sampling.{mode}.consistent_ratio"] = s["consistent"] / s["samples"] if s else 0.0
        out[f"sampling.{mode}.samples_per_s"] = s["samples"] / s["seconds"] if s else 0.0
    return out


def layer_metrics(traced: Pass, untraced: Pass) -> dict:
    layers = traced.layers
    zero = {"calls": 0, "self_s": 0.0, "distinct": 0}
    get = lambda f: layers.get(f, zero)  # noqa: E731
    out = {}
    for f in CALLS_SELF:
        out[f"{f}.calls"] = get(f)["calls"]
    for f in CALLS_SELF + SELF_ONLY:
        out[f"{f}.self_s"] = get(f)["self_s"]
    for f in DISTINCT:
        calls = get(f)["calls"]
        out[f"{f}.distinct_ratio"] = get(f)["distinct"] / calls if calls else 0.0
    out["engine.answer_table.entries"] = traced.table_entries
    out.update(sampler_metrics(untraced))
    out["caches.rss_growth_mb"] = untraced.rss_growth_mb
    out["trace.layers_self_s"] = sum(
        v["self_s"] for f, v in layers.items() if f not in SETUP_LAYERS
    )
    untraced_s = untraced.total("compile_s") + untraced.total("infer_s")
    out["trace.untraced_compile_infer_s"] = untraced_s
    out["trace.overhead_s"] = traced.total("compile_s") + traced.total("infer_s") - untraced_s
    return out


def extra_metrics(passes: list, attempted: int, failed: int) -> dict:
    rates = median_dicts([sampler_metrics(p) for p in passes])
    return {
        "fail_rate": failed / attempted,
        "queries_per_s": statistics.median(
            p.answered / p.total("answer_s") if p.answered else 0.0 for p in passes
        ),
        "lw_samples_per_s": rates["sampling.lw.samples_per_s"],
        "independent_samples_per_s": rates["sampling.independent.samples_per_s"],
        "rss_growth_mb": statistics.median(p.rss_growth_mb for p in passes),
    }


def median_dicts(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and print its report; return the result object, or
    an empty dict when no measurement completed."""
    start = time.monotonic()
    deadline, hard_stop = start + seconds, start + HARD_STOP_S
    jobs = WORKLOADS[workload](random.Random(seed), tiny)
    print(f"# osdd benchmark: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")

    passes, traced = [], []
    while True:
        t0 = time.monotonic()
        passes.append(run_pass(jobs, False, seed, hard_stop))
        if trace:
            traced.append(run_pass(jobs, True, seed, hard_stop))
        now = time.monotonic()
        if now + (now - t0) > deadline or now >= hard_stop:
            break

    everything = passes + traced
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    for p in everything:
        for e in p.errors:
            print(f"# failure: {e}")
    print(f"# machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={passes[0].numpy} commit={commit()}")
    for name, nodes, shas in passes[0].records:
        print(f"# query {name}: node_count={nodes} sha256={','.join(shas)}")
    print(f"# passes={len(passes)} attempted={attempted} failed={failed}")
    pairs = [(t, u) for t, u in zip(traced, passes) if t.setup and u.setup]
    passes = [p for p in passes if p.setup]
    if not passes or (trace and not pairs):
        print("error: no measured process completed", file=sys.stderr)
        return {}

    if trace:
        units = dict(PER_LAYER)
        values = median_dicts([layer_metrics(t, u) for t, u in pairs])
        inclusive = median_dicts([
            {f: v["inclusive_s"] for f, v in t.layers.items()} for t, _ in pairs
        ])
        print("# inclusive_s, outermost calls only: " + " ".join(
            f"{f}={v:.6g}" for f, v in inclusive.items()
        ))
    else:
        units = dict(END_TO_END)
        values = end_to_end(passes)
        extra = extra_metrics(passes, attempted, failed)
        for name, unit in EXTRA:
            print(f"# {name} = {extra[name]:.6g} {unit}")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "osdd" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'osdd'}", file=sys.stderr)
        return 2
    return 0 if run(args.workload, args.seed, args.seconds, bool(args.trace)) else 1


if __name__ == "__main__":
    sys.exit(main())
