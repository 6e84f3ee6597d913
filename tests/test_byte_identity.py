"""Diagrams stay byte-identical: ``format_osdd`` digests against goldens.

The goldens were recorded before satisfiability switched to lazy residual
domains and interning switched to domain identity keys; both changes must
leave every diagram unchanged.  The builds run in a fresh interpreter
because variable names (``X<k>``) come from a process-global table, so
in-process results would depend on which tests ran first.
"""

import os
import subprocess
import sys

import osdd

SCRIPT = """
import hashlib
from osdd.diagram import osdd_and, to_proper
from osdd.diagram_io import format_osdd
from osdd.engine import EvalSession
from osdd.program import parse_program
from osdd.programs import PALINDROME, birthday_source


def digest(d):
    return hashlib.sha256(format_osdd(d).encode()).hexdigest()


birthday = parse_program(birthday_source(365))
for n in range(2, 11):
    print(f"birthday {n}", digest(EvalSession(birthday).query(f"same_birthday({n})")))
palindrome = parse_program(PALINDROME)
for n, k in [(8, 2), (8, 4), (10, 4)]:
    s = EvalSession(palindrome)
    joint = to_proper(osdd_and(s.query(f"query({n}, {k})"), s.query(f"evidence({n})")))
    print(f"palindrome {n} {k}", digest(joint))
"""

GOLDEN = {
    "birthday 2": "a2a04cbc7b6322109d40316e23da6ac0939b24dd9639d608cb3770d1760895ed",
    "birthday 3": "c75727feb09dce5a7507f26a78cf62fc5241a44d1796ddde53f404858a7852d7",
    "birthday 4": "ee5349da16fd2ec56df4e81e9b4591053e404f157b8a9f13b3328cb7cc43a168",
    "birthday 5": "0520a0ff9edf8a70c7c686f5b8858a6b3f6c888a16a22b2b812bc266f4b2a8bc",
    "birthday 6": "3222c51ffa973342dff6bf0ed2e3a46e3ba828b454095ea541fc51a490be096f",
    "birthday 7": "1ecce1cb278bbe533ff0d4795c7b2a4a3de8bb7d318bbfaf9721b44513ea7e74",
    "birthday 8": "1265d17f6b801689addc12d77f2cc50c1ed7dadb0a3a9375353016a798f06303",
    "birthday 9": "73beecf172cc2e28c9e914220372bac3303c5cc21747ac4810238e0f4746c512",
    "birthday 10": "186bacef767b2c8af3d35d02d508ba427cf8415772577c3dc2b66b7de77aa43c",
    "palindrome 8 2": "f7a9ffbb927713c1317a84768426f5ee0265df605f651585b3c0053803856431",
    "palindrome 8 4": "0e485d7359aa51f9fde4e823405e92f719068b8cde895122fba8006d67741aed",
    "palindrome 10 4": "d57f3a426ae6ce928553944f99b14639a46c80afa5011c06ef22324f5fee6986",
}


def test_format_osdd_digests_match_goldens():
    src = os.path.dirname(os.path.dirname(os.path.abspath(osdd.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    ).stdout
    got = dict(line.rsplit(" ", 1) for line in out.splitlines())
    assert got == GOLDEN
