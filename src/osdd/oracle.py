"""Ground-truth machinery, independent of the diagram engine.

Brute force enumerates every assignment of outcomes to the reachable
switch instances, evaluates the query (and evidence) per world by plain
logic evaluation, and sums world probabilities.  It exists to certify
the symbolic engine, so it shares none of its resolution or diagram
code; only the builtin semantics in :mod:`osdd.program` are common.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .concrete import EnumeratingWorld, FixedWorld, WorldEvaluator
from .errors import OracleError
from .program import Program
from .prolog import read_term
WORLD_LIMIT = 10**7


@dataclass(frozen=True)
class World:
    """One total assignment of outcomes to the reachable instances."""

    assignment: tuple  # ((SwitchRef, GroundTerm instance), GroundTerm value)
    probability: Fraction


def reachable_instances(program: Program, goals) -> list:
    """Discover every switch instance any derivation of the goals can
    touch, by evaluating with branching over all outcomes."""
    world = EnumeratingWorld()
    ev = WorldEvaluator(program, world)
    for goal in goals:
        ev.enumerate_all(goal)
    return sorted(world.seen.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))


def iter_worlds(program: Program, goals):
    """All worlds over the reachable instances, with exact probabilities."""
    instances = reachable_instances(program, goals)
    count = 1
    for _, spec in instances:
        count *= spec.domain.size
        if count > WORLD_LIMIT:
            raise OracleError(
                f"world count exceeds the enumeration limit {WORLD_LIMIT}"
            )
    keys = [key for key, _ in instances]
    spaces = [spec.domain.values for _, spec in instances]
    weights = [
        dict(zip(spec.domain.values, spec.dist.weights)) for _, spec in instances
    ]
    for combo in itertools.product(*spaces):
        prob = Fraction(1)
        for w, value in zip(weights, combo):
            prob *= w[value]
        yield World(tuple(zip(keys, combo)), prob)


def brute_force_probability(program: Program, query, evidence=None):
    """P(query | evidence) (or P(query)) by exhaustive enumeration.

    Returns an exact Fraction.  A conditional query whose evidence has
    probability zero raises OracleError.
    """
    if isinstance(query, str):
        query = read_term(query)
    if isinstance(evidence, str):
        evidence = read_term(evidence)
    goals = [query] if evidence is None else [query, evidence]
    p_joint = Fraction(0)
    p_evidence = Fraction(0)
    for world in iter_worlds(program, goals):
        ev = WorldEvaluator(program, FixedWorld(dict(world.assignment)))
        if evidence is None:
            if ev.holds(query):
                p_joint += world.probability
            continue
        if ev.holds(evidence):
            p_evidence += world.probability
            if ev.holds(query):
                p_joint += world.probability
    if evidence is None:
        return p_joint
    if p_evidence == 0:
        raise OracleError("evidence has probability zero")
    return p_joint / p_evidence


def closed_form_birthday(n: int, d: int) -> Fraction:
    """Probability that n draws from d equally likely values collide."""
    if n < 1 or d < 1:
        raise ValueError("population and domain sizes must be positive")
    no_collision = Fraction(1)
    for i in range(n):
        factor = Fraction(max(d - i, 0), d)
        no_collision *= factor
    return 1 - no_collision


# ---------------------------------------------------------------------------
# Random program generation for property testing


@dataclass(frozen=True)
class GenLimits:
    max_switches: int = 2
    max_instances: int = 5
    max_domain: int = 4
    max_depth: int = 3


def random_program(seed: int, limits: GenLimits = GenLimits()) -> tuple[Program, str]:
    """A small, terminating definite program with msw goals and
    equality/disequality constraints; deterministic per seed.

    Returns (parsed program, source text).  The query entry point is
    always the 0-ary predicate ``q``.
    """
    rng = random.Random(seed)
    lines = []

    n_switches = rng.randint(1, limits.max_switches)
    switches = []
    for s in range(n_switches):
        name = f"s{s}"
        size = rng.randint(2, limits.max_domain)
        values = [f"c{v}" for v in range(size)]
        lines.append(f"values({name}, [{', '.join(values)}]).")
        if rng.random() < 0.5:
            lines.append(f"set_sw({name}, uniform).")
        else:
            denom = 8
            cuts = sorted(rng.sample(range(1, denom), size - 1))
            parts = []
            prev = 0
            for c in cuts + [denom]:
                parts.append(c - prev)
                prev = c
            probs = ", ".join(f"{p / denom}" for p in parts)
            lines.append(f"set_sw({name}, [{probs}]).")
        switches.append((name, values))

    instances = []
    for i in range(1, rng.randint(2, limits.max_instances) + 1):
        name, values = rng.choice(switches)
        instances.append((name, i, values))

    def random_body(depth, callable_preds):
        """A conjunction over some instances, with constraints among the
        variables they bind and occasional calls to deeper predicates."""
        chosen = rng.sample(instances, rng.randint(1, len(instances)))
        goals = []
        vars_in_scope = []
        for name, inst, values in chosen:
            var = f"V{inst}"
            goals.append(f"msw({name}, {inst}, {var})")
            vars_in_scope.append((var, values))
        n_constraints = rng.randint(0, min(2, len(vars_in_scope)))
        for _ in range(n_constraints):
            var, values = rng.choice(vars_in_scope)
            op = rng.choice(["=", "\\="])
            peers = [
                v for v, vals in vars_in_scope if v != var and vals == values
            ]
            if peers and rng.random() < 0.5:
                goals.append(f"{var} {op} {rng.choice(peers)}")
            else:
                goals.append(f"{var} {op} {rng.choice(values)}")
        if depth > 1 and callable_preds and rng.random() < 0.7:
            goals.append(rng.choice(callable_preds))
        return goals

    depth = rng.randint(1, limits.max_depth)
    preds = [f"p{i}" for i in range(depth - 1, 0, -1)]
    callable_preds: list[str] = []
    for level, pred in enumerate(preds):
        for _ in range(rng.randint(1, 2)):
            body = random_body(1 + level, callable_preds)
            lines.append(f"{pred} :- {', '.join(body)}.")
        callable_preds.append(pred)
    for _ in range(rng.randint(1, 2)):
        body = random_body(depth, callable_preds)
        lines.append(f"q :- {', '.join(body)}.")

    text = "\n".join(lines) + "\n"
    from .program import parse_program

    return parse_program(text), text
