"""Likelihood-weighted and independent sampling with streaming estimators.

The LW sampler walks an evidence diagram top down.  At a node whose
0-children exclude part of the output domain it draws uniformly from the
surviving values and multiplies the sample weight by the declared
probability of the drawn value; elsewhere it draws from the declared
distribution with the weight untouched.  An empty surviving set rejects
the sample.  Conditional estimates extend each consistent evidence
sample by evaluating the query concretely, with already-drawn instances
fixed and fresh ones sampled from their declared distributions.

Randomness comes from a counter-based Philox generator so seeded runs
are reproducible and independent chains can use spawned streams.
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


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def spawn_rngs(seed: int, n: int) -> list:
    """Independent streams for parallel chains, reproducible from one seed."""
    return [
        np.random.Generator(np.random.Philox(key=(seed, i))) for i in range(n)
    ]


CONSISTENT = "consistent"
REJECTED = "rejected"


@dataclass
class WeightedSample:
    assignment: dict  # (SwitchRef, GroundTerm instance) -> GroundTerm value
    weight: float
    status: str

    @property
    def consistent(self) -> bool:
        return self.status == CONSISTENT


def lw_sample(evidence: Osdd, dists: DistMap, rng) -> WeightedSample:
    """One likelihood-weighted traversal of the evidence diagram."""
    if free_vars(evidence):
        raise EvalError("cannot sample a diagram with free variables")
    assignment = {}
    env = {}
    weight = 1.0
    node = evidence
    while not node.is_leaf:
        spec = dists.spec(node.si.switch)
        domain = spec.domain.values
        excluded = set()
        for label, child in node.edges:
            if child.is_leaf and child.value == 0:
                excluded.update(_admitted_values(label, node.out, env))
        if len(excluded) == 0:
            value = draw(rng, domain, spec.dist.weights)
        else:
            surviving = [v for v in domain if v not in excluded]
            if not surviving:
                return WeightedSample(assignment, weight, REJECTED)
            value = surviving[int(rng.integers(len(surviving)))]
            weight *= float(dists.prob(node.si.switch, value))
        env[node.out] = value
        assignment[(node.si.switch, node.si.instance)] = value
        chosen = None
        for label, child in node.edges:
            if value in _admitted_values(label, node.out, env):
                chosen = child
                break
        if chosen is None:
            return WeightedSample(assignment, weight, REJECTED)
        node = chosen
    if node.value == 0:
        return WeightedSample(assignment, weight, REJECTED)
    return WeightedSample(assignment, weight, CONSISTENT)


def independent_sample(program: Program, goal, rng) -> WeightedSample:
    """Evaluate the goal on a lazily sampled world; weight is always 1."""
    world = SamplingWorld(rng)
    ev = WorldEvaluator(program, world)
    ok = ev.holds(goal)
    return WeightedSample(
        world.assignment, 1.0, CONSISTENT if ok else REJECTED
    )


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

    def merge(self, other: "EstimatorState") -> "EstimatorState":
        """Combine two states from independent chains (pairwise moments)."""
        if self.n_total == 0:
            return other
        if other.n_total == 0:
            return self
        n1, n2 = self.n_total, other.n_total
        n = n1 + n2
        du = other.mean_u - self.mean_u
        dw = other.mean_w - self.mean_w
        out = EstimatorState(
            n_total=n,
            n_consistent=self.n_consistent + other.n_consistent,
            numerator=self.numerator + other.numerator,
            denominator=self.denominator + other.denominator,
            mean_u=self.mean_u + du * n2 / n,
            mean_w=self.mean_w + dw * n2 / n,
            m2_u=self.m2_u + other.m2_u + du * du * n1 * n2 / n,
            m2_w=self.m2_w + other.m2_w + dw * dw * n1 * n2 / n,
            c_uw=self.c_uw + other.c_uw + du * dw * n1 * n2 / n,
        )
        return out


@dataclass
class SamplingRun:
    state: EstimatorState
    rows: list = field(default_factory=list)
    mode: str = ""
    seed: int = 0
    rejected: int = 0

    def csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(self.rows)
        return "\n".join(lines) + "\n"


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
    run = SamplingRun(state, mode=mode, seed=seed)
    dists = DistMap(program)

    target = None
    if mode == "lw":
        from .engine import EvalSession

        session = session or EvalSession(program)
        target = session.query(evidence if evidence is not None else query)

    for i in range(budget):
        if mode == "lw":
            sample = lw_sample(target, dists, rng)
            consistent = sample.consistent
            if evidence is None:
                u = sample.weight if consistent else 0.0
                state.update(u, 1.0, consistent)
            else:
                if consistent:
                    world = SamplingWorld(rng, dict(sample.assignment))
                    q_true = WorldEvaluator(program, world).holds(query)
                    state.update(
                        sample.weight if q_true else 0.0, sample.weight, True
                    )
                else:
                    state.update(0.0, 0.0, False)
        else:
            ev = WorldEvaluator(program, SamplingWorld(rng))
            if evidence is None:
                consistent = ev.holds(query)
                state.update(1.0 if consistent else 0.0, 1.0, consistent)
            else:
                consistent = ev.holds(evidence)
                if consistent:
                    q_true = ev.holds(query)
                    state.update(1.0 if q_true else 0.0, 1.0, True)
                else:
                    state.update(0.0, 0.0, False)
        if not consistent:
            run.rejected += 1
        done = i + 1
        if done % stride == 0 or done == budget:
            if not run.rows or not run.rows[-1].startswith(f"{done},"):
                run.rows.append(
                    f"{done},{state.n_consistent},{_fmt(state.estimate)},"
                    f"{_fmt(state.variance)},{mode},{seed}"
                )
    return run


def recompute_weight(sample: WeightedSample, evidence: Osdd, dists: DistMap):
    """Re-derive a consistent sample's weight from its assignment alone:
    the product of declared probabilities over nodes whose surviving
    value set was restricted."""
    env = {}
    weight = 1.0
    node = evidence
    while not node.is_leaf:
        value = sample.assignment[(node.si.switch, node.si.instance)]
        excluded = set()
        for label, child in node.edges:
            if child.is_leaf and child.value == 0:
                excluded.update(_admitted_values(label, node.out, env))
        if excluded:
            weight *= float(dists.prob(node.si.switch, value))
        env[node.out] = value
        nxt = None
        for label, child in node.edges:
            if value in _admitted_values(label, node.out, env):
                nxt = child
                break
        if nxt is None:
            raise EvalError("assignment does not traverse the diagram")
        node = nxt
    return weight
