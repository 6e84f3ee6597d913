"""Exact probability computation over diagrams.

The general recursion sums, per node, over the values of the output
variable admitted by each edge label under the accumulated grounding of
free variables, weighting by the switch distribution.  It is lifted over
interchangeable values: values that no label names and that every
domain and every switch of the diagram treat alike.  Such values give the
same probability wherever they stand in a grounding, so an edge sums the
mass of each class once and recurses on one representative, and the
memo keys on the grounding's class pattern (which positions hold equal
values of which class), not on the grounding itself.  An edge counts
each class's admitted values from what its label excludes and what the
child's free variables hold, so after one O(domain) class set-up per
call its work follows its label, not the domain size.  The
``exact-measurable`` mode is a check in front of that same recursion:
every path-conjoined label saturated, checked node by node, and every
switch uniform.  There the recursion meets each edge about once, so its
cost follows the diagram, not the domain's groundings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import constraints as cf
from .constraints import TRUE, ConstraintFormula
from .diagram import (
    Mdd, Osdd, _restrict, free_vars, internal_nodes, max_free_vars, node_count,
)
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
            weights = spec.dist.weights if self.exact else spec.dist.float_weights
            table = dict(zip(spec.domain.values, weights))
            self._prob_cache[ref] = table
        return table[value]

    def all_uniform(self, d: Osdd) -> bool:
        switches = {n.si.switch for n in internal_nodes(d)}
        return all(self.spec(s).dist.is_uniform for s in switches)


def _admitted_values(label: ConstraintFormula, out: Var, env: dict):
    """Values of ``out`` satisfying the label under a grounding of all its
    other variables, kept compact: ``None`` when no value does, else
    ``(fixed, excluded)``.  A ``fixed`` value is the one admitted value,
    checked against ``excluded`` and the domain; ``fixed is None`` admits
    every value of the domain outside ``excluded``."""
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
                return None
            continue
        if atom.polarity == cf.EQ:
            if fixed is not None and fixed != other:
                return None
            fixed = other
        else:
            excluded.add(other)
    if fixed is not None and (fixed in excluded or fixed not in out.domain):
        return None
    return fixed, excluded


def _listed(admitted, out: Var) -> tuple:
    """The values an :func:`_admitted_values` result admits, in domain
    order."""
    if admitted is None:
        return ()
    fixed, excluded = admitted
    if fixed is not None:
        return (fixed,)
    return tuple(v for v in out.domain.values if v not in excluded)


def _value_classes(d: Osdd, dists: DistMap) -> dict:
    """Class number of each value that is interchangeable in ``d`` with
    another value.

    Two values are interchangeable when neither is a constant in a label
    of ``d`` and, for every (switch, domain) pair of its nodes, both are
    outside the domain or both are inside it with the same probability.
    Values with no partner are left out.  Weights are compared as
    ``(numerator, denominator)`` pairs, and a uniform switch gives every
    value of its domain the same one.
    """
    nodes = list(internal_nodes(d))
    pairs = {}
    for n in nodes:
        pairs.setdefault((n.si.switch, n.out.domain.values_id), n.out.domain)
    columns = []
    for (switch, _), dom in pairs.items():
        spec = dists.spec(switch)
        if spec.dist.is_uniform:
            columns.append(dict.fromkeys(dom.values, 0))
        else:
            weight = dict(zip(spec.domain.values, spec.dist.weights))
            columns.append(
                {v: (weight[v].numerator, weight[v].denominator) for v in dom.values}
            )
    groups: dict = {}
    for domain in {dom.values_id: dom for dom in pairs.values()}.values():
        signatures = zip(*[map(col.get, domain.values) for col in columns])
        for value, signature in zip(domain.values, signatures):
            groups.setdefault(signature, {})[value] = None
    shared = [members for members in groups.values() if len(members) > 1]
    if not shared:
        return {}
    constants = {
        atom.rhs
        for n in nodes
        for label, _ in n.edges
        for atom in label.atoms
        if isinstance(atom.rhs, GroundTerm)
    }
    classes = {}
    for number, members in enumerate(shared):
        members = members.keys() - constants
        if len(members) > 1:
            classes.update(dict.fromkeys(members, number))
    return classes


def exact_probability(d: Osdd, dists: DistMap):
    """Answer probability of a proper diagram (general recursion).

    ``pi(n, env)`` is memoized on the class pattern of ``env`` restricted
    to the free variables of ``n``: constants and values without a
    partner stand for themselves, and a value of a class of
    interchangeable values (see :func:`_value_classes`) stands as its
    class and the first position it takes.  At an edge, the admitted
    values of one class that no free variable of the child holds give one
    recursion on a representative, weighted by their summed probability;
    every other admitted value recurses alone.  Those sums are counted
    from the label's excluded and taken values, never listed, so after
    one O(domain) class set-up per call an edge costs O(|excluded| +
    |taken| + classes) plus its lone values, whatever the domain size.  A
    diagram with no such class keeps plain value tuples as keys and the
    per-value loop.  Rational results are the same ``Fraction``s either
    way; float results may differ in the last bits from a per-value sum.
    """
    if free_vars(d):
        raise DiagramError(
            f"cannot compute a probability with free variables "
            f"{sorted(str(v) for v in free_vars(d))}"
        )
    one = Fraction(1) if dists.exact else 1.0
    zero = Fraction(0) if dists.exact else 0.0
    classes = _value_classes(d, dists)
    memo = {}
    free_order: dict = {}
    layouts: dict = {}

    def free_tuple(n):
        got = free_order.get(n)
        if got is None:
            got = tuple(sorted(free_vars(n), key=lambda v: v.uid))
            free_order[n] = got
        return got

    def pattern(values):
        first = {}
        return tuple(
            value if c is None else (c, first.setdefault(value, i))
            for i, value in enumerate(values)
            for c in (classes.get(value),)
        )

    def layout(domain):
        """Each value's position, the values in no class, and each class's
        members, all in domain order."""
        got = layouts.get(domain.values_id)
        if got is None:
            alone = []
            members: dict = {}
            for value in domain.values:
                c = classes.get(value)
                if c is None:
                    alone.append(value)
                else:
                    members.setdefault(c, []).append(value)
            position = {value: i for i, value in enumerate(domain.values)}
            got = layouts[domain.values_id] = (position, alone, members)
        return got

    def lifted(n, admitted, taken):
        """(value, probability mass) pairs, one recursion each: the values
        that recurse alone in domain order, then one representative per
        class in the order of its first admitted value."""
        switch = n.si.switch
        fixed, excluded = admitted
        if fixed is not None:
            return [(fixed, dists.prob(switch, fixed))]
        position, alone, members = layout(n.out.domain)
        blocked = excluded | taken
        single = [value for value in alone if value not in excluded]
        shared_taken = [
            value for value in taken
            if value in classes and value in position and value not in excluded
        ]
        if shared_taken:
            single = sorted(single + shared_taken, key=position.__getitem__)
        pairs = [(value, dists.prob(switch, value)) for value in single]
        hits: dict = {}
        for value in blocked:
            c = classes.get(value)
            if c is not None:
                hits[c] = hits.get(c, 0) + 1
        reps = []
        for c, values in members.items():
            count = len(values) - hits.get(c, 0)
            if count:
                i = 0
                while values[i] in blocked:
                    i += 1
                reps.append((position[values[i]], values[i], count))
        reps.sort()
        # A class's values share one probability under every switch.
        pairs.extend(
            (value, count * dists.prob(switch, value)) for _, value, count in reps
        )
        return pairs

    def pi(n, env):
        if n.is_leaf:
            return one if n.value else zero
        values = tuple(env[v] for v in free_tuple(n))
        key = (n, pattern(values) if classes else values)
        got = memo.get(key)
        if got is not None:
            return got
        total = zero
        for label, child in n.edges:
            if child.is_leaf and child.value == 0:
                continue
            admitted = _admitted_values(label, n.out, env)
            if admitted is None:
                continue
            if not classes:
                pairs = [
                    (value, dists.prob(n.si.switch, value))
                    for value in _listed(admitted, n.out)
                ]
            elif child.is_leaf:
                pairs = lifted(n, admitted, frozenset())
            else:
                taken = {env[v] for v in free_tuple(child) if v != n.out}
                pairs = lifted(n, admitted, taken)
            if child.is_leaf:
                for _, p in pairs:
                    total += p
                continue
            for value, p in pairs:
                env[n.out] = value
                total += p * pi(child, env)
            env.pop(n.out, None)
        memo[key] = total
        return total

    return pi(d, {})


@dataclass
class MeasurabilityReport:
    """``edge_measures``: one entry per (node, restricted path) edge in DFS
    order, empty if not measurable.  On chains such as ``same_birthday(n)``
    and ``evidence(n)`` that is one entry per path."""

    measurable: bool
    edge_measures: list = field(default_factory=list)  # (constrained, count)
    offending_node: str | None = None

    def constrained_measures(self):
        return tuple(m for constrained, m in self.edge_measures if constrained)

    def all_measures(self):
        return tuple(m for _, m in self.edge_measures)


def measurability(d: Osdd) -> MeasurabilityReport:
    """Check each edge's path-conjoined label for saturation and collect
    the per-edge solution counts of the node's output variable.

    Paths are restricted as ``normalize`` restricts them, and a node is
    walked once per restricted path: the dropped atoms were checked where
    they were added, and no label below reaches them."""
    report = MeasurabilityReport(True)
    walked = set()

    def walk(n, path, route):
        if n.is_leaf:
            return True
        path = _restrict(path, n)
        key = (n, path)
        if key in walked:
            return True
        walked.add(key)
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
            if not walk(child, conj, route + [i]):
                return False
        return True

    walk(d, TRUE, [])
    if not report.measurable:
        report.edge_measures = []
    return report


def exact_probability_measurable(
    d: Osdd, dists: DistMap, report: MeasurabilityReport | None = None
):
    """Answer probability of a measurable diagram with uniform switches:
    both conditions checked, then :func:`exact_probability`."""
    if report is None:
        report = measurability(d)
    if not report.measurable:
        raise DiagramError(
            f"diagram is not measurable (at {report.offending_node}); "
            "use the general exact computation"
        )
    if not dists.all_uniform(d):
        raise DiagramError(
            "the measurable mode requires uniform switch distributions; "
            "use the general exact computation"
        )
    return exact_probability(d, dists)


def mdd_probability(d: Mdd, dists: DistMap):
    """Probability of a ground diagram by direct weighted traversal."""
    one = Fraction(1) if dists.exact else 1.0
    zero = Fraction(0) if dists.exact else 0.0
    memo = {}

    def walk(n):
        if n.is_leaf:
            return one if n.value else zero
        got = memo.get(n)
        if got is not None:
            return got
        total = zero
        for value, child in n.edges:
            total += dists.prob(n.si.switch, value) * walk(child)
        memo[n] = total
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
