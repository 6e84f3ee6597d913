"""Exact probability computation over diagrams.

The general recursion sums, per node, over the values of the output
variable admitted by each edge label under the accumulated grounding of
free variables, weighting by the switch distribution; memoization keys
on the restriction of that grounding to the variables a subtree actually
reads.  When every path constraint is measurable and all switches are
uniform, the per-edge solution count is a constant, so each edge adds
its measure times the uniform probability times its child's probability:
the sum reads no grounding, and its cost follows the diagram, not the
domain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import constraints as cf
from .constraints import TRUE, ConstraintFormula
from .diagram import Mdd, Osdd, free_vars, internal_nodes, max_free_vars, node_count
from .errors import DiagramError
from .program import Program, SwitchSpec
from .terms import GroundTerm, Var


class DistMap:
    """Resolves the switch of a node to its outcome distribution."""

    def __init__(self, program: Program, exact: bool = False):
        self.program = program
        self.exact = exact
        self._prob_cache: dict = {}

    def spec(self, ref) -> SwitchSpec:
        return self.program.switch_spec(ref)

    def prob(self, ref, value: GroundTerm):
        table = self._prob_cache.get(ref)
        if table is None:
            spec = self.spec(ref)
            weights = spec.dist.weights
            if not self.exact:
                weights = [float(w) for w in weights]
            table = dict(zip(spec.domain.values, weights))
            self._prob_cache[ref] = table
        return table[value]

    def all_uniform(self, d: Osdd) -> bool:
        return all(
            self.spec(n.si.switch).dist.is_uniform for n in internal_nodes(d)
        )


def _admitted_values(label: ConstraintFormula, out: Var, env: dict):
    """Values of ``out`` satisfying the label under a grounding of all its
    other variables; returned in domain order."""
    fixed = None
    excluded = set()
    for atom in label.atoms:
        if atom.lhs == out:
            other = atom.rhs if isinstance(atom.rhs, GroundTerm) else env[atom.rhs]
        elif isinstance(atom.rhs, Var) and atom.rhs == out:
            other = env[atom.lhs]
        else:
            a = env[atom.lhs]
            b = atom.rhs if isinstance(atom.rhs, GroundTerm) else env[atom.rhs]
            if (a == b) != (atom.polarity == cf.EQ):
                return ()
            continue
        if atom.polarity == cf.EQ:
            if fixed is not None and fixed != other:
                return ()
            fixed = other
        else:
            excluded.add(other)
    if fixed is not None:
        if fixed in excluded or fixed not in out.domain:
            return ()
        return (fixed,)
    return tuple(v for v in out.domain.values if v not in excluded)


def exact_probability(d: Osdd, dists: DistMap):
    """Answer probability of a proper diagram (general recursion)."""
    if free_vars(d):
        raise DiagramError(
            f"cannot compute a probability with free variables "
            f"{sorted(str(v) for v in free_vars(d))}"
        )
    one = Fraction(1) if dists.exact else 1.0
    zero = Fraction(0) if dists.exact else 0.0
    memo = {}
    free_order: dict = {}

    def free_tuple(n):
        got = free_order.get(id(n))
        if got is None:
            got = tuple(sorted(free_vars(n), key=lambda v: v.uid))
            free_order[id(n)] = got
        return got

    def pi(n, env):
        if n.is_leaf:
            return one if n.value else zero
        key = (id(n), tuple(env[v] for v in free_tuple(n)))
        got = memo.get(key)
        if got is not None:
            return got
        total = zero
        for label, child in n.edges:
            if child.is_leaf and child.value == 0:
                continue
            admitted = _admitted_values(label, n.out, env)
            if child.is_leaf:
                for value in admitted:
                    total += dists.prob(n.si.switch, value)
                continue
            for value in admitted:
                p = dists.prob(n.si.switch, value)
                env[n.out] = value
                total += p * pi(child, env)
            env.pop(n.out, None)
        memo[key] = total
        return total

    return pi(d, {})


@dataclass
class MeasurabilityReport:
    measurable: bool
    edge_measures: list = field(default_factory=list)  # (constrained, count)
    offending_node: str | None = None
    measure_map: dict = field(default_factory=dict)  # (node id, edge idx) -> m

    def constrained_measures(self):
        return tuple(m for constrained, m in self.edge_measures if constrained)

    def all_measures(self):
        return tuple(m for _, m in self.edge_measures)


def measurability(d: Osdd) -> MeasurabilityReport:
    """Check each edge's path-conjoined label for saturation and collect
    the per-edge solution counts of the node's output variable."""
    report = MeasurabilityReport(True)

    def walk(n, path, route):
        if n.is_leaf:
            return True
        for i, (label, child) in enumerate(n.edges):
            conj = path.conjoin(label)
            m = cf.measure(conj, n.out)
            if m is None:
                report.measurable = False
                report.offending_node = (
                    f"{n.si}@{'.'.join(map(str, route)) or 'root'}"
                )
                return False
            report.edge_measures.append((not label.is_empty(), m))
            report.measure_map[(id(n), i)] = m
            if not walk(child, conj, route + [i]):
                return False
        return True

    walk(d, TRUE, [])
    if not report.measurable:
        report.edge_measures = []
        report.measure_map = {}
    return report


def exact_probability_measurable(
    d: Osdd, dists: DistMap, report: MeasurabilityReport | None = None
):
    """Fast path: measurable diagram, all switches uniform.

    Each edge adds its measure (the constant number of values it admits)
    times the uniform probability times its child's probability, so no
    grounding is kept.  It is a plain recursion without a memo:
    ``measurability``, which it needs, already walks every path.
    """
    if report is None:
        report = measurability(d)
    if not report.measurable:
        raise DiagramError(
            f"diagram is not measurable (at {report.offending_node}); "
            "use the general exact computation"
        )
    if not dists.all_uniform(d):
        raise DiagramError(
            "the measurable fast path requires uniform switch distributions; "
            "use the general exact computation"
        )
    one = Fraction(1) if dists.exact else 1.0
    zero = Fraction(0) if dists.exact else 0.0
    measures = report.measure_map

    def pi(n):
        if n.is_leaf:
            return one if n.value else zero
        # Uniform: every value of the switch has this probability.
        p = dists.prob(n.si.switch, n.out.domain.values[0])
        total = zero
        for i, (_, child) in enumerate(n.edges):
            m = measures[(id(n), i)]
            if m:
                total += m * p * pi(child)
        return total

    return pi(d)


def mdd_probability(d: Mdd, dists: DistMap):
    """Probability of a ground diagram by direct weighted traversal."""
    one = Fraction(1) if dists.exact else 1.0
    zero = Fraction(0) if dists.exact else 0.0
    memo = {}

    def walk(n):
        if n.is_leaf:
            return one if n.value else zero
        got = memo.get(id(n))
        if got is not None:
            return got
        total = zero
        for value, child in n.edges:
            total += dists.prob(n.si.switch, value) * walk(child)
        memo[id(n)] = total
        return total

    return walk(d)


@dataclass
class InferenceReport:
    probability: float
    probability_exact: str | None
    measurable: bool
    node_count: int
    max_free_vars: int
    elapsed_ms: float

    def as_dict(self):
        out = {
            "probability": self.probability,
            "measurable": self.measurable,
            "node_count": self.node_count,
            "max_free_vars": self.max_free_vars,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.probability_exact is not None:
            out["probability_exact"] = self.probability_exact
        return out


def infer(d: Osdd, dists: DistMap, mode: str = "exact") -> InferenceReport:
    """Run one exact computation and package the diagnostics."""
    start = time.perf_counter()
    report = measurability(d)
    if mode == "exact-measurable":
        value = exact_probability_measurable(d, dists, report)
    elif mode == "exact":
        value = exact_probability(d, dists)
    else:
        raise DiagramError(f"unknown inference mode {mode!r}")
    elapsed = (time.perf_counter() - start) * 1000.0
    exact_str = None
    if isinstance(value, Fraction):
        exact_str = f"{value.numerator}/{value.denominator}"
    return InferenceReport(
        probability=float(value),
        probability_exact=exact_str,
        measurable=report.measurable,
        node_count=node_count(d),
        max_free_vars=max_free_vars(d),
        elapsed_ms=elapsed,
    )
