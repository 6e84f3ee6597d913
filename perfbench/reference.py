"""Closed-form answers for the benchmark queries.

These share no code with the package: they are derived by hand from the
programs' meaning, and the self-test checks each once against the
package's brute-force possible-worlds oracle at the smallest size.
"""

from __future__ import annotations

import math
from fractions import Fraction


def birthday(n: int, days: int) -> Fraction:
    """P(at least two of n people share a birthday among `days` days)."""
    distinct = Fraction(1)
    for i in range(n):
        distinct *= Fraction(max(days - i, 0), days)
    return 1 - distinct


def palindrome(n: int, k: int, p: Fraction) -> Fraction:
    """P(exactly k a's | the length-n string over {a, b} is a palindrome),
    each letter independently `a` with probability p.

    A palindrome is fixed by its first n // 2 letters, mirrored, plus the
    middle letter when n is odd.  Each mirrored pair is `aa` with weight
    p^2 and `bb` with weight q^2, so for even n the answer is
    C(h, j) p^2j q^2(h-j) / (p^2 + q^2)^h with h = n / 2 and k = 2j.
    """
    q = 1 - p
    h, middle = divmod(n, 2)
    pairs = [p * p, q * q]
    evidence = (pairs[0] + pairs[1]) ** h
    joint = Fraction(0)
    for mid_a in ([0, 1] if middle else [0]):
        j, rem = divmod(k - mid_a, 2)
        if rem or not 0 <= j <= h:
            continue
        weight = (p if mid_a else q) if middle else 1
        joint += math.comb(h, j) * pairs[0] ** j * pairs[1] ** (h - j) * weight
    return joint / evidence
