"""Likelihood-weighted and independent sampling with a streaming estimator.

The LW sampler walks an evidence diagram top down.  At each node it draws
a value for the node's output variable and follows the edge whose label
holds.  Where 0-children exclude part of the output domain it draws from
the declared distribution restricted to the surviving values S and
multiplies the sample weight by P(S), the declared probability of the
whole surviving set; elsewhere it draws from the declared distribution
with the weight untouched.  An empty surviving set rejects the sample.
Conditional estimates extend each consistent evidence sample by
evaluating the query concretely, with already-drawn instances fixed and
fresh ones sampled from their declared distributions.  The independent
sampler evaluates evidence and query on one lazily sampled world with
weight 1, rejecting the worlds where the evidence fails.  Both feed each
attempt to :class:`EstimatorState` the same way.  Program evaluations go
through an :class:`OutcomeTree`, which replays the outcome of a world it
has met instead of evaluating the program again, with the same draws.

Randomness comes from a counter-based Philox generator so seeded runs
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .concrete import SamplingWorld, WorldEvaluator, draw
from .diagram import Osdd, free_vars
from .errors import EvalError
from .exact import DistMap, _admitted_values
from .program import Program
from .prolog import read_term

RNG_KIND = "philox"

CSV_HEADER = "samples,consistent,estimate,variance,mode,seed"

# Most nodes one sampling run keeps in its OutcomeTree (a full tree is a
# few MB: about 450 bytes a node on the 365-value birthday switch).
OUTCOME_TREE_NODES = 10_000


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class WeightedSample:
    assignment: dict  # (SwitchRef, GroundTerm instance) -> GroundTerm value
    weight: float
    consistent: bool


def _select_edge(node, env: dict, dists: DistMap, rng):
    """Draw a value for ``node.out`` into ``env``; return (value, weight
    factor, child).

    The values no 0-edge admits form the surviving set S.  With nothing
    excluded the value is drawn from the declared distribution p and the
    factor is 1.  Otherwise it is drawn from p restricted to S (by
    ``rng.integers`` where p is constant on S) and the factor is P(S), the
    sum of p over S.  The child is the first edge whose label holds; it is
    None when S is empty or no label holds.
    """
    spec = dists.spec(node.si.switch)
    excluded = set()
    for label, child in node.edges:
        if child.is_leaf and child.value == 0:
            excluded.update(_admitted_values(label, node.out, env))
    factor = 1.0
    if excluded:
        surviving = [v for v in spec.domain.values if v not in excluded]
        if not surviving:
            return None, factor, None
        probs = [dists.prob(node.si.switch, v) for v in surviving]
        factor = float(sum(probs))
        if len(set(probs)) == 1:
            value = surviving[int(rng.integers(len(surviving)))]
        else:
            value = draw(rng, surviving, [p / factor for p in probs])
    else:
        value = draw(rng, spec.domain.values, spec.dist.float_weights)
    env[node.out] = value
    for label, child in node.edges:
        if label.holds(env):
            return value, factor, child
    return value, factor, None


def lw_sample(evidence: Osdd, dists: DistMap, rng) -> WeightedSample:
    """One likelihood-weighted traversal of the evidence diagram."""
    if free_vars(evidence):
        raise EvalError("cannot sample a diagram with free variables")
    assignment = {}
    env = {}
    weight = 1.0
    node = evidence
    while not node.is_leaf:
        value, factor, child = _select_edge(node, env, dists, rng)
        if child is None:
            return WeightedSample(assignment, weight, False)
        weight *= factor
        assignment[(node.si.switch, node.si.instance)] = value
        node = child
    return WeightedSample(assignment, weight, node.value != 0)


@dataclass
class EstimatorState:
    """Streaming ratio estimator over per-attempt (numerator, weight)
    pairs, with enough joint moments for a delta-method variance."""

    n_total: int = 0
    n_consistent: int = 0
    numerator: float = 0.0
    denominator: float = 0.0
    mean_u: float = 0.0
    mean_w: float = 0.0
    m2_u: float = 0.0
    m2_w: float = 0.0
    c_uw: float = 0.0

    def update(self, u: float, w: float, consistent: bool):
        self.n_total += 1
        self.n_consistent += int(consistent)
        self.numerator += u
        self.denominator += w
        n = self.n_total
        du = u - self.mean_u
        dw = w - self.mean_w
        self.mean_u += du / n
        self.mean_w += dw / n
        self.m2_u += du * (u - self.mean_u)
        self.m2_w += dw * (w - self.mean_w)
        self.c_uw += du * (w - self.mean_w)

    @property
    def estimate(self):
        if self.denominator <= 0:
            return None
        return self.numerator / self.denominator

    @property
    def variance(self):
        """Delta-method variance of the ratio estimate."""
        r = self.estimate
        n = self.n_total
        if r is None or n < 2 or self.mean_w == 0:
            return None
        var_u = self.m2_u / (n - 1)
        var_w = self.m2_w / (n - 1)
        cov = self.c_uw / (n - 1)
        value = (var_u - 2 * r * cov + r * r * var_w) / (n * self.mean_w**2)
        return max(value, 0.0)

    @property
    def std_error(self):
        v = self.variance
        return math.sqrt(v) if v is not None else None


@dataclass
class SamplingRun:
    state: EstimatorState
    rows: list = field(default_factory=list)

    @property
    def rejected(self) -> int:
        return self.state.n_total - self.state.n_consistent

    def csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(self.rows)
        return "\n".join(lines) + "\n"


class _Draw:
    """An OutcomeTree node: the instance drawn next and a child per value.
    A leaf is the 1-tuple ``(outcome,)``."""

    __slots__ = ("key", "spec", "children")

    def __init__(self, key, spec):
        self.key = key
        self.spec = spec
        self.children = {}


class OutcomeTree:
    """Outcomes of a deterministic evaluation on lazily sampled worlds.

    The evaluation depends only on the values it draws, so the tree
    records, below each preset assignment, the instance the evaluation
    draws next with one child per value drawn, and at a leaf the
    outcome.  Walking a known path makes the draws evaluating would
    make, in the same order from the same generator; an unknown value
    falls back to evaluating on the values drawn so far, and its path is
    added while the tree is below ``OUTCOME_TREE_NODES``.  Seeded runs
    are therefore unchanged.
    """

    def __init__(self, program: Program, evaluate):
        self.program = program
        self.evaluate = evaluate
        self.roots: dict = {}
        self.size = 0

    def outcome(self, rng, preset=None):
        drawn = dict(preset or {})
        slot, at = self.roots, tuple(drawn.items())
        node = slot.get(at)
        while type(node) is _Draw:
            spec = node.spec
            value = draw(rng, spec.domain.values, spec.dist.float_weights)
            drawn[node.key] = value
            slot, at = node.children, value
            node = slot.get(at)
        if node is not None:
            return node[0]
        known = len(drawn)
        world = SamplingWorld(rng, drawn)
        result = self.evaluate(world)
        fresh = list(world.assignment)[known:]
        if self.size + len(fresh) < OUTCOME_TREE_NODES:
            self.size += len(fresh) + 1
            for key in fresh:
                node = slot[at] = _Draw(key, self.program.switch_spec(key[0]))
                slot, at = node.children, world.assignment[key]
            slot[at] = (result,)
        return result


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def estimate(
    program: Program,
    query,
    evidence=None,
    mode: str = "lw",
    budget: int = 1000,
    seed: int = 0,
    stride: int = 100,
    session=None,
) -> SamplingRun:
    """Run a sampling experiment and return the estimator plus CSV rows.

    Conditional runs estimate P(query | evidence) as the weight-sum of
    samples satisfying query-and-evidence over the weight-sum of samples
    satisfying evidence; unconditional runs average the weights of
    samples satisfying the query over all attempts.
    """
    if budget < 1:
        raise EvalError("sample budget must be at least 1")
    if mode not in ("lw", "independent"):
        raise EvalError(f"unknown sampling mode {mode!r}")
    if isinstance(query, str):
        query = read_term(query)
    if isinstance(evidence, str):
        evidence = read_term(evidence)

    rng = make_rng(seed)
    state = EstimatorState()
    run = SamplingRun(state)
    dists = DistMap(program)

    if mode == "lw":
        from .engine import EvalSession

        session = session or EvalSession(program)
        target = session.query(evidence if evidence is not None else query)

        def evaluate(world):
            return WorldEvaluator(program, world).holds(query)

    else:

        def evaluate(world):
            ev = WorldEvaluator(program, world)
            if evidence is None:
                ok = ev.holds(query)
                return ok, ok
            if not ev.holds(evidence):
                return False, False
            return True, ev.holds(query)

    outcomes = OutcomeTree(program, evaluate)

    for done in range(1, budget + 1):
        if mode == "lw":
            sample = lw_sample(target, dists, rng)
            consistent, weight = sample.consistent, sample.weight
            # The query draws come after the evidence draws, and only for a
            # consistent conditional sample.
            q_true = consistent and (
                evidence is None or outcomes.outcome(rng, sample.assignment)
            )
        else:
            consistent, q_true = outcomes.outcome(rng)
            weight = 1.0
        # Unconditional runs average over every attempt; conditional runs
        # divide by the weight of the consistent ones.
        total = 1.0 if evidence is None else (weight if consistent else 0.0)
        state.update(weight if q_true else 0.0, total, consistent)
        if done % stride == 0 or done == budget:
            run.rows.append(
                f"{done},{state.n_consistent},{_fmt(state.estimate)},"
                f"{_fmt(state.variance)},{mode},{seed}"
            )
    return run
