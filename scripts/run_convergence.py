#!/usr/bin/env python3
"""Convergence experiment: likelihood-weighted vs independent sampling.

Estimates a conditional palindrome query with both samplers and writes
one convergence CSV per mode, plus a small summary with the exact
reference value.  Defaults are desk scale; raise --samples for smoother
curves.
"""

import argparse
import json
from pathlib import Path

from osdd.diagram import osdd_and, to_proper
from osdd.engine import EvalSession
from osdd.exact import DistMap, exact_probability
from osdd.program import parse_program
from osdd.programs import PALINDROME
from osdd.sampling import estimate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=int, default=12)
    ap.add_argument("--count", type=int, default=2)
    ap.add_argument("--samples", type=int, default=20_000)
    ap.add_argument("--stride", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="convergence_out")
    ap.add_argument("--skip-exact", action="store_true",
                    help="skip the exact reference (the joint diagram for "
                    "long strings is expensive to build)")
    args = ap.parse_args()

    program = parse_program(PALINDROME)
    query = f"query({args.length}, {args.count})"
    evidence = f"evidence({args.length})"

    session = EvalSession(program)
    reference = None
    if not args.skip_exact:
        dm = DistMap(program, exact=True)
        joint = to_proper(
            osdd_and(session.query(query), session.query(evidence))
        )
        reference = exact_probability(joint, dm) / exact_probability(
            session.query(evidence), dm
        )

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "query": query,
        "evidence": evidence,
        "exact": None if reference is None else float(reference),
    }
    for mode in ("lw", "independent"):
        run = estimate(
            program,
            query,
            evidence,
            mode=mode,
            budget=args.samples,
            seed=args.seed,
            stride=args.stride,
            session=session,
        )
        path = outdir / f"{mode}.csv"
        path.write_text(run.csv())
        summary[mode] = {
            "estimate": run.state.estimate,
            "variance": run.state.variance,
            "consistent": run.state.n_consistent,
            "csv": str(path),
        }
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
