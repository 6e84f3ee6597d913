#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/selftest.py

1. Cross-checks each closed form in reference.py against the package's
   brute-force possible-worlds oracle at a small size.
2. Runs every workload at a tiny size, untraced and traced, and checks
   that every metric BENCHMARK.json names, and every extra end-to-end
   figure, is printed with its unit.
3. Runs every workload against a deliberately wrong reference and checks
   that the failures raise ``fail_rate``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

import reference
import run
import worker

sys.path.insert(0, str(run.SRC))
from osdd.oracle import brute_force_probability, closed_form_birthday  # noqa: E402
from osdd.program import parse_program  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_references():
    for days, n in ((6, 2), (6, 3), (4, 4)):
        program = parse_program(worker.program_source({"type": "birthday", "days": days}))
        oracle = brute_force_probability(program, f"same_birthday({n})")
        assert reference.birthday(n, days) == oracle, (days, n, oracle)
    for n in (2, 3, 4, 5, 6, 7):
        assert reference.birthday(n, 365) == closed_form_birthday(n, 365), n
    for p in (Fraction(1, 2), Fraction(3, 16)):
        program = parse_program(worker.program_source({"type": "palindrome", "p": str(p)}))
        for n, k in ((4, 0), (4, 2), (3, 1), (3, 2)):
            oracle = brute_force_probability(program, f"query({n}, {k})", f"evidence({n})")
            assert reference.palindrome(n, k, p) == oracle, (n, k, p, oracle)
    assert reference.palindrome(12, 2, Fraction(1, 2)) == Fraction(3, 32)


def tiny_run(workload: str, trace: bool):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, seed=7, seconds=1, trace=trace, tiny=True)
    return result, out.getvalue().splitlines()


def check_metrics():
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        names = {m["name"]: m["unit"] for m in SPEC[section]}
        assert names == dict(run.PER_LAYER if trace else run.END_TO_END), section
        for workload in run.WORKLOADS:
            result, lines = tiny_run(workload, trace)
            assert lines[-1] == json.dumps(result), workload
            assert result["correct"] and result["failed"] == 0, (workload, lines)
            assert result["attempted"] >= 1
            metrics = result["metrics"]
            assert {k: v["unit"] for k, v in metrics.items()} == names, workload
            printed = names if trace else dict(names, **dict(run.EXTRA))
            for name, unit in printed.items():
                assert any(
                    line.startswith(f"# {name} = ") and line.endswith(f" {unit}")
                    for line in lines
                ), (workload, name)
            if not trace:
                for name in names:
                    assert metrics[name]["value"] > 0, (workload, name)
            print(f"ok  {workload:20s} trace={int(trace)} {len(metrics)} metrics")


class WrongReference:
    """The true closed forms, each off by 1/8."""

    @staticmethod
    def birthday(n, days):
        return reference.birthday(n, days) + Fraction(1, 8)

    @staticmethod
    def palindrome(n, k, p):
        return reference.palindrome(n, k, p) + Fraction(1, 8)


def check_wrong_reference():
    run.reference = WrongReference
    try:
        for workload in run.WORKLOADS:
            result, lines = tiny_run(workload, False)
            assert not result["correct"] and result["failed"] > 0, (workload, lines[-1])
            assert any(line.startswith("# failure: wrong answer") for line in lines), workload
            rate = next(line for line in lines if line.startswith("# fail_rate = "))
            assert float(rate.split()[3]) > 0, (workload, rate)
            print(f"ok  {workload:20s} wrong reference counted: {rate[2:]}")
    finally:
        run.reference = reference


def main():
    check_references()
    print("ok  closed forms agree with the brute-force oracle")
    check_metrics()
    check_wrong_reference()
    print("selftest passed")


if __name__ == "__main__":
    main()
