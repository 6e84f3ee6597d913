"""Likelihood-weighted and independent sampling with a streaming estimator.

Both samplers walk compiled diagrams.  The LW sampler walks an evidence
diagram top down.  At each node it draws a value for the node's output
variable and follows the edge whose label holds.  Where 0-children
exclude part of the output domain it draws from the declared
distribution restricted to the surviving values S and multiplies the
sample weight by P(S), the declared probability of the whole surviving
set; elsewhere it draws from the declared distribution with the weight
untouched.  An empty surviving set rejects the sample.  Conditional
estimates extend each consistent evidence sample by a prior walk of the
query diagram: instances the evidence assigned keep their values, and
fresh ones are drawn from their declared distributions.  The independent
sampler prior-walks the evidence diagram with weight 1, rejecting at a
0 leaf, and then the query diagram on the same assignment.  Both feed
each attempt to :class:`EstimatorState` the same way.

Randomness comes from a counter-based Philox generator so seeded runs
are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagram import Osdd, free_vars
from .engine import EvalSession
from .errors import EvalError
from .exact import DistMap, _admitted_values, _listed
from .program import Program
from .prolog import read_term

RNG_KIND = "philox"

CSV_HEADER = "samples,consistent,estimate,variance,mode,seed"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def draw(rng, values, weights):
    """One categorical draw; midpoint scan over cumulative float weights."""
    u = rng.random()
    acc = 0.0
    for value, w in zip(values, weights):
        acc += w
        if u < acc:
            return value
    return values[-1]


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
            excluded.update(_listed(_admitted_values(label, node.out, env), node.out))
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


def _prior_walk(diagram: Osdd, assignment: dict, dists: DistMap, rng) -> bool:
    """Walk ``diagram`` from the root to a leaf under the declared
    distributions; return whether the leaf is nonzero.

    An instance already in ``assignment`` keeps its value; a fresh one is
    drawn once and recorded there.  No holding label counts as a 0 leaf.
    """
    env = {}
    node = diagram
    while not node.is_leaf:
        key = (node.si.switch, node.si.instance)
        value = assignment.get(key)
        if value is None:
            spec = dists.spec(node.si.switch)
            value = draw(rng, spec.domain.values, spec.dist.float_weights)
            assignment[key] = value
        env[node.out] = value
        for label, child in node.edges:
            if label.holds(env):
                node = child
                break
        else:
            return False
    return node.value != 0


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
    samples satisfying the query over all attempts.  Both modes compile
    their diagrams in ``session`` (a fresh one when None).
    """
    if budget < 1:
        raise EvalError("sample budget must be at least 1")
    if stride < 1:
        raise EvalError("CSV stride must be at least 1")
    if seed < 0:
        raise EvalError("seed must be non-negative")
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
    session = session or EvalSession(program)
    # The first diagram decides consistency.  Only a consistent conditional
    # sample walks the query diagram, with its draws after the evidence's.
    target = session.query(evidence if evidence is not None else query)
    query_diagram = None if evidence is None else session.query(query)

    for done in range(1, budget + 1):
        if mode == "lw":
            sample = lw_sample(target, dists, rng)
            consistent, weight = sample.consistent, sample.weight
            assignment = sample.assignment
        else:
            assignment = {}
            consistent = _prior_walk(target, assignment, dists, rng)
            weight = 1.0
        q_true = consistent and (
            query_diagram is None
            or _prior_walk(query_diagram, assignment, dists, rng)
        )
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
