"""One measured process of the benchmark.

Usage: python3 perfbench/worker.py '<job json>'

The job names the package source directory, whether to trace, and the
queries to answer in this process.  The worker pins itself to one core,
imports the package from that directory, answers the queries through its
public API and prints one JSON object on stdout.  Timestamps are
``time.monotonic()``, the same clock the parent reads when it spawns the
process; durations are wall seconds.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

# A diagram whose first evaluation is faster than this is evaluated
# REPEATS more times after the answer is stamped, and infer_s is the
# median evaluation, because one fast-path evaluation lasts milliseconds.
REPEAT_BELOW_S = 0.2
REPEATS = 10

# The switch declaration of ``osdd.programs.PALINDROME``, replaced by the
# query's probabilities.
PALINDROME_SWITCH = "set_sw(flip, [0.5, 0.5])."


def program_source(q: dict) -> str:
    """The program of a query, from the package's own benchmark programs."""
    from osdd import programs

    if q["type"] == "birthday":
        return programs.birthday_source(q["days"])
    if PALINDROME_SWITCH not in programs.PALINDROME:
        raise ValueError(f"osdd.programs.PALINDROME no longer declares {PALINDROME_SWITCH}")
    # Probabilities are dyadic, so their decimal text parses back exactly.
    p = Fraction(q["p"])
    return programs.PALINDROME.replace(
        PALINDROME_SWITCH, f"set_sw(flip, [{float(p)}, {float(1 - p)}])."
    )


def current_rss_mb() -> float:
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Worker:
    def __init__(self, osdd, tracer):
        self.osdd = osdd
        self.tracer = tracer
        self.t_setup = None  # end of the process's first set-up

    def snapshot(self):
        return self.tracer.snapshot() if self.tracer else None

    def layers_since(self, before):
        if not self.tracer:
            return None
        from layertrace import delta

        return delta(self.tracer.snapshot(), before)

    def timed(self, fn):
        """Run fn; return its result, its wall time and the layer counters
        it added."""
        mark = self.snapshot()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        return result, seconds, self.layers_since(mark)

    def session(self, q):
        osdd = self.osdd
        prog = osdd.program.parse_program(program_source(q))
        return prog, osdd.engine.EvalSession(prog)

    def answered(self, out: dict, start: float) -> None:
        """Stamp the answer: the moment the user would have it."""
        out["t_answer"] = time.monotonic()
        out["wall_s"] = time.perf_counter() - start

    def add_layers(self, out: dict, parts: list) -> None:
        if self.tracer:
            from layertrace import add

            total = {}
            for part in parts:
                total = add(total, part)
            out["layers"] = total

    def add_diagrams(self, out: dict, session, consumed: list) -> dict:
        """Add, after the answer, the size and hash of each consumed diagram."""
        osdd = self.osdd
        out["nodes"] = sum(osdd.diagram.node_count(d) for d in consumed)
        out["sha256"] = [
            hashlib.sha256(osdd.diagram_io.format_osdd(d).encode()).hexdigest()
            for d in consumed
        ]
        out["table_entries"] = len(session.table.entries)
        return out

    def exact(self, q) -> dict:
        """Compile then infer one query with the calls ``osdd infer`` makes."""
        osdd = self.osdd
        diagram, exact = osdd.diagram, osdd.exact
        start = time.perf_counter()
        before = self.snapshot()
        prog, session = self.session(q)
        setup_layers = self.layers_since(before)
        if self.t_setup is None:
            self.t_setup = time.monotonic()

        def compile_():
            if q["type"] == "birthday":
                return [session.query(f"same_birthday({q['n']})")]
            query = session.query(f"query({q['n']}, {q['k']})")
            evidence = session.query(f"evidence({q['n']})")
            return [diagram.to_proper(diagram.osdd_and(query, evidence)), evidence]

        consumed, compile_s, compile_layers = self.timed(compile_)

        def evaluate():
            dists = exact.DistMap(prog, exact=True)
            if q["type"] == "birthday":
                if q["mode"] == "exact-measurable":
                    exact.measurability(consumed[0])
                report = exact.infer(consumed[0], dists, q["mode"])
                return Fraction(report.probability_exact)
            p_joint = exact.exact_probability(consumed[0], dists)
            p_evidence = exact.exact_probability(consumed[1], dists)
            exact.measurability(consumed[0])
            return p_joint / p_evidence

        value, infer_s, infer_layers = self.timed(evaluate)
        out = {"answer": f"{value.numerator}/{value.denominator}", "compile_s": compile_s}
        self.answered(out, start)
        if infer_s < REPEAT_BELOW_S:
            runs = [(infer_s, infer_layers)]
            for _ in range(REPEATS):
                again, seconds, layers = self.timed(evaluate)
                if again != value:
                    raise AssertionError(f"evaluation gave {value}, then {again}")
                runs.append((seconds, layers))
            infer_s, infer_layers = sorted(runs, key=lambda r: r[0])[len(runs) // 2]
        out["infer_s"] = infer_s
        self.add_layers(out, [setup_layers, compile_layers, infer_layers])
        return self.add_diagrams(out, session, consumed)

    def sample(self, q) -> dict:
        """Build the evidence diagram, then run both samplers' budgets."""
        sampling = self.osdd.sampling
        start = time.perf_counter()
        before = self.snapshot()
        prog, session = self.session(q)
        layers = [self.layers_since(before)]
        query, evidence = f"query({q['n']}, {q['k']})", f"evidence({q['n']})"
        target, compile_s, compile_layers = self.timed(lambda: session.query(evidence))
        self.t_setup = time.monotonic()
        layers.append(compile_layers)
        out = {"compile_s": compile_s, "infer_s": 0.0}
        for mode, seed in (("lw", q["seed"]), ("independent", q["seed"] + 1)):
            run, seconds, mode_layers = self.timed(lambda: sampling.estimate(
                prog, query, evidence, mode=mode, budget=q[mode], seed=seed,
                stride=q[mode], session=session if mode == "lw" else None,
            ))
            layers.append(mode_layers)
            out["infer_s"] += seconds
            state = run.state
            # Sums from which the parent pools the estimate over processes.
            out[mode] = {
                "seconds": seconds,
                "samples": state.n_total,
                "consistent": state.n_consistent,
                "numerator": state.numerator,
                "denominator": state.denominator,
                "sum_w2": state.m2_w + state.n_total * state.mean_w**2,
            }
        self.answered(out, start)
        self.add_layers(out, layers)
        return self.add_diagrams(out, session, [target])


def main(argv):
    job = json.loads(argv[1])
    # One core for the whole process, so that it never migrates mid-query
    # and the parent, on the other core, does not share its caches.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, job["src"])
    import osdd  # noqa: F401  (loads every submodule the tracer rebinds)
    import osdd.diagram_io
    import osdd.programs

    tracer = None
    if job["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    worker = Worker(osdd, tracer)
    results, rss = [], []
    for q in job["queries"]:
        results.append(worker.sample(q) if q["type"] == "sampling" else worker.exact(q))
        rss.append(current_rss_mb())
    print(json.dumps({
        "t_setup": worker.t_setup,
        "queries": results,
        "rss_growth_mb": rss[-1] - rss[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": sys.modules["numpy"].__version__,
    }))


if __name__ == "__main__":
    main(sys.argv)
