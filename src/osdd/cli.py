"""Command-line interface.

Subcommands:
  compile    program + query -> diagram text, DOT, and build stats
  infer      exact probability (general, measurability-checked, or
             oracle cross-check)
  sample     likelihood-weighted / independent estimation with a
             convergence CSV
  reproduce  the desk-scale experiment sweeps as table files

Exit codes: 0 success, 1 user error or stdout closed by its reader, 2
internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from .diagram import node_count, osdd_and, to_proper
from .diagram_io import format_osdd, parse_osdd, to_dot
from .engine import EvalSession
from .errors import OsddError, UsageError
from .exact import (
    DistMap,
    exact_probability,
    exact_probability_measurable,
    infer,
    measurability,
)
from .oracle import brute_force_probability
from .program import parse_program
from .programs import BIRTHDAY, PALINDROME
from .sampling import RNG_KIND, estimate


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 text ({exc.reason})")


def _load_program(path):
    if path is None:
        raise UsageError("--program is required")
    return parse_program(_read(path))


def _write(path, text):
    if path:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror or exc}")


def cmd_compile(args) -> int:
    program = _load_program(args.program)
    if not args.query:
        raise UsageError("--query is required")
    start = time.perf_counter()
    diagram = EvalSession(program).query(args.query)
    build_ms = (time.perf_counter() - start) * 1000.0
    text = format_osdd(diagram)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    if args.dot:
        _write(args.dot, to_dot(diagram))
    print(json.dumps({"node_count": node_count(diagram), "build_ms": build_ms}))
    return 0


def cmd_infer(args) -> int:
    program = _load_program(args.program)
    if args.osdd:
        text = _read(args.osdd)
        diagram = parse_osdd(
            text, lambda ref: program.switch_spec(ref).domain
        )
        if args.evidence:
            raise UsageError("--evidence cannot be combined with --osdd")
    else:
        if not args.query:
            raise UsageError("--query is required")
        session = EvalSession(program)
        diagram = session.query(args.query)
        if args.evidence:
            evidence_diagram = session.query(args.evidence)
    dists = DistMap(program, exact=args.rational)
    mode = args.mode or "exact"
    if mode not in ("exact", "exact-measurable", "oracle"):
        raise UsageError(f"unknown inference mode {mode!r}")
    if mode == "oracle" and not args.query:
        raise UsageError("--mode oracle needs --query")
    # The oracle cross-checks the general exact recursion.
    exact_mode = "exact" if mode == "oracle" else mode
    start = time.perf_counter()
    if args.evidence:
        joint = infer(
            to_proper(osdd_and(diagram, evidence_diagram)), dists, exact_mode
        )
        evidence = infer(evidence_diagram, dists, exact_mode)
        if args.rational:
            p_joint = Fraction(joint.probability_exact)
            p_evidence = Fraction(evidence.probability_exact)
        else:
            p_joint, p_evidence = joint.probability, evidence.probability
        if p_evidence == 0:
            raise UsageError("evidence has probability zero")
        value = p_joint / p_evidence
        out = joint.as_dict()
        out["probability"] = float(value)
        if args.rational:
            out["probability_exact"] = f"{value.numerator}/{value.denominator}"
    else:
        report = infer(diagram, dists, exact_mode)
        value = report.probability
        out = report.as_dict()
    if mode == "oracle":
        oracle = float(brute_force_probability(program, args.query, args.evidence))
        out["oracle"] = oracle
        out["abs_difference"] = abs(float(value) - oracle)
    if args.evidence or mode == "oracle":
        out["elapsed_ms"] = (time.perf_counter() - start) * 1000.0
    print(json.dumps(out))
    return 0


def cmd_sample(args) -> int:
    program = _load_program(args.program)
    if not args.query:
        raise UsageError("--query is required")
    mode = args.mode or "lw"
    if mode not in ("lw", "independent"):
        raise UsageError(f"sampling mode must be lw or independent, not {mode!r}")
    run = estimate(
        program,
        args.query,
        args.evidence,
        mode=mode,
        budget=args.samples,
        seed=args.seed,
        stride=args.stride,
    )
    csv_text = run.csv()
    if args.out:
        _write(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    state = run.state
    summary = {
        "estimate": state.estimate,
        "variance": state.variance,
        "consistency_rate": state.n_consistent / state.n_total,
        "samples": state.n_total,
        "rejected": run.rejected,
        "mode": mode,
        "seed": args.seed,
        "rng": RNG_KIND,
    }
    if state.estimate is None:
        summary["note"] = "estimate undefined: no consistent evidence samples"
    print(json.dumps(summary))
    return 0


def _median_time(fn, repeats: int = 5):
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def cmd_reproduce(args) -> int:
    sweeps = {"birthday": _birthday_sweep, "palindrome": _palindrome_sweep}
    if args.experiment not in sweeps:
        raise UsageError(
            f"unknown experiment {args.experiment!r}; choose birthday or palindrome"
        )
    if args.repeats < 1:
        raise UsageError("--repeats must be at least 1")
    header, measure = sweeps[args.experiment](args)
    rows = [header]
    failed = []
    for n in range(6, 17, 2):
        try:
            cells, elapsed = measure(n)
            status = "ok" if elapsed <= args.timeout_s else "over-timeout"
            rows.append(f"{n},{cells},{status}")
        except OsddError as exc:
            rows.append(f"{n},,,,,error:{exc}")
            failed.append(f"size {n}: {exc}")
    table = "\n".join(rows) + "\n"
    _write(args.out, table)
    if not args.out:
        sys.stdout.write(table)
    if failed:
        raise OsddError(f"{args.experiment} sweep failed at " + "; ".join(failed))
    return 0


def _birthday_sweep(args):
    """CSV header, and a function from n to (row cells, elapsed seconds)."""
    program = parse_program(BIRTHDAY)
    dists = DistMap(program, exact=True)

    def measure(n):
        # Hash-consing makes rebuilds artificially cheap, so the build
        # is timed once; medians apply to the probability timings.
        start = time.perf_counter()
        diagram = EvalSession(program).query(f"same_birthday({n})")
        build_s = time.perf_counter() - start
        report = measurability(diagram)
        prob_s, value = _median_time(
            lambda: exact_probability_measurable(diagram, dists, report),
            repeats=args.repeats,
        )
        cells = (
            f"{build_s:.6f},{prob_s:.6f},{float(value)!r},{node_count(diagram)}"
        )
        return cells, build_s + prob_s

    return "size,build_s,prob_s,probability,nodes,status", measure


def _palindrome_sweep(args):
    """CSV header, and a function from n to (row cells, elapsed seconds)."""
    program = parse_program(PALINDROME)
    dists = DistMap(program, exact=True)

    def measure(n):
        session = EvalSession(program)
        start = time.perf_counter()
        evidence_diagram = session.query(f"evidence({n})")
        ev_s = time.perf_counter() - start
        joint_s = None
        if args.joint:
            k = max(2, n // 4)
            start = time.perf_counter()
            q = session.query(f"query({n}, {k})")
            to_proper(osdd_and(q, evidence_diagram))
            joint_s = time.perf_counter() - start
        prob_s, value = _median_time(
            lambda: exact_probability(evidence_diagram, dists),
            repeats=args.repeats,
        )
        joint_text = f"{joint_s:.6f}" if joint_s is not None else ""
        cells = f"{ev_s:.6f},{joint_text},{prob_s:.6f},{float(value)!r}"
        return cells, ev_s + prob_s + (joint_s or 0.0)

    return "size,evidence_build_s,joint_build_s,prob_s,probability,status", measure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osdd",
        description="Constraint-labeled decision diagrams for probabilistic "
        "logic programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--program": dict(help="path to a program file"),
        "--query": dict(help="ground query atom, e.g. same_birthday(3)"),
        "--evidence": dict(help="ground evidence atom"),
        "--samples": dict(type=int, default=10_000),
        "--seed": dict(type=int, default=0),
        "--stride": dict(type=int, default=1000),
        "--out": dict(help="output file"),
        "--dot": dict(help="DOT output file"),
        "--osdd": dict(help="read a compiled diagram file instead of "
                       "evaluating the query"),
        "--rational": dict(action="store_true",
                           help="exact rational arithmetic"),
    }

    def subcommand(name, fn, summary, *flags, mode=None):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **options[flag])
        if mode:
            p.add_argument("--mode", help=mode)
        p.set_defaults(fn=fn)

    subcommand("compile", cmd_compile, "build a diagram for a query",
               "--program", "--query", "--out", "--dot")
    subcommand("infer", cmd_infer, "exact inference",
               "--program", "--query", "--evidence", "--osdd", "--rational",
               mode="exact (default), exact-measurable or oracle")
    subcommand("sample", cmd_sample, "sampling-based inference",
               "--program", "--query", "--evidence", "--samples", "--seed",
               "--stride", "--out", mode="lw (default) or independent")

    p_rep = sub.add_parser("reproduce", help="run an experiment sweep")
    p_rep.add_argument("experiment", nargs="?", default="",
                       help="birthday or palindrome")
    p_rep.add_argument("--out", help="output table file")
    p_rep.add_argument("--repeats", type=int, default=5)
    p_rep.add_argument("--timeout-s", type=float, default=60.0)
    p_rep.add_argument("--joint", action="store_true",
                       help="also build the query-and-evidence diagram")
    p_rep.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (say, `| head`).  Point stdout at
        # devnull so the interpreter's flush at exit fails no second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except OsddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
