"""Exact probability computation over diagrams.

The general recursion sums, per node, over the values of the output
variable admitted by each edge label under the accumulated grounding of
free variables, weighting by the switch distribution.  It is lifted over
interchangeable values: values that no label names and that every
domain and every switch of the diagram treat alike.  Such values give the
same probability wherever they stand in a grounding, so an edge sums the
mass of each class once and recurses on one representative, and the
memo keys on the grounding's class pattern (which positions hold equal
values of which class), not on the grounding itself.  The classes are
read off each switch's weight groups and each domain's value positions,
both kept on the program objects, and an edge counts each class's
admitted values from what its label excludes and what the child's free
variables hold.  So when the diagram's nodes share one (switch, domain)
pair whose switch is over that domain, as in ``same_birthday``, a call's
work follows the labels and the weight groups, not the domain size;
other diagrams still pass over single values when the classes are set
up.  The ``exact-measurable`` mode is a check in front of that same
recursion: every path-conjoined label saturated, checked node by node
and per disequality the label adds, and every switch uniform.  There the
recursion meets each edge about once, so its cost follows the diagram,
not the domain's groundings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import constraints as cf
from .constraints import ConstraintFormula
from .diagram import (
    Mdd, Osdd, free_vars, internal_nodes, max_free_vars, node_count, walk_paths,
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
        got = self._prob_cache.get(ref)
        if got is None:
            spec = self.spec(ref)
            weights = spec.dist.weights if self.exact else spec.dist.float_weights
            got = self._prob_cache[ref] = (weights, spec.domain.positions)
        weights, positions = got
        return weights[positions[value]]

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


class _ValueClasses:
    """The classes of interchangeable values of a diagram, read off its
    switches' weight groups (``Distribution.groups``) and its domains'
    ``positions``.  Single values are looked at only where the diagram
    has more than one (switch, domain) pair or its switch is over another
    domain (see :meth:`_blocks`), and for weight groups of one value,
    which are listed as lone values.

    A value's signature holds, for each (switch, domain) pair of the
    diagram's nodes, the value's weight group in that switch, or ``None``
    when the domain lacks it.  A class is the values of one signature that
    no label names, when there are two or more.  ``of(value)`` is a
    value's class (its signature) or ``None``; ``layouts[values_id]`` holds
    a domain's values that are in no class, in domain order, and one
    ``(class, size, positions)`` triple per class in the domain, where
    ``positions`` lists its members and maybe label constants in domain
    order.
    """

    __slots__ = ("constants", "layouts", "_pairs", "_sizes")

    def __init__(self, pairs, constants):
        self.constants = constants
        self._pairs = pairs
        self._sizes = {}
        domains = {dom.values_id: dom for dom, _ in pairs}
        blocks = {values_id: self._blocks(dom) for values_id, dom in domains.items()}
        for domain_blocks in blocks.values():
            for key, group in domain_blocks:
                self._sizes[key] = len(group)
        for value in constants:
            key = self._signature(value)
            if key in self._sizes:
                self._sizes[key] -= 1
        self.layouts = {}
        for values_id, domain_blocks in blocks.items():
            domain = domains[values_id]
            members = []
            alone = [domain.positions[c] for c in constants if c in domain]
            for key, group in domain_blocks:
                size = self._sizes[key]
                if size > 1:
                    members.append((key, size, group))
                elif size:
                    alone.extend(i for i in group if domain.values[i] not in constants)
            alone.sort()
            self.layouts[values_id] = ([domain.values[i] for i in alone], members)
        self._sizes = {k: size for k, size in self._sizes.items() if size > 1}

    def _component(self, i, value):
        dom, spec = self._pairs[i]
        if value not in dom:
            return None
        return spec.dist.group_of[spec.domain.positions[value]]

    def _signature(self, value):
        return tuple(self._component(i, value) for i in range(len(self._pairs)))

    def _blocks(self, domain):
        """``(signature, positions)`` for each signature of ``domain``'s
        values.  The first pair over this domain whose switch is over it
        too splits the whole domain into its weight groups; every other
        pair splits the blocks value by value."""
        values = domain.values
        blocks = [({}, range(len(values)))]
        for i, (dom, spec) in enumerate(self._pairs):
            if not blocks[0][0] and (
                dom.values_id == spec.domain.values_id == domain.values_id
            ):
                blocks = [({i: g}, group) for g, group in enumerate(spec.dist.groups)]
                continue
            split = []
            for sig, group in blocks:
                parts: dict = {}
                for p in group:
                    parts.setdefault(self._component(i, values[p]), []).append(p)
                split.extend(({**sig, i: c}, ps) for c, ps in parts.items())
            blocks = split
        n = len(self._pairs)
        return [(tuple(sig.get(i) for i in range(n)), group) for sig, group in blocks]

    def of(self, value):
        if value in self.constants:
            return None
        key = self._signature(value)
        return key if key in self._sizes else None


def _value_classes(d: Osdd, dists: DistMap):
    """The classes of values that are interchangeable in ``d`` (a
    :class:`_ValueClasses`), or ``None`` when there is none.

    Two values are interchangeable when neither is a constant in a label
    of ``d`` and, for every (switch, domain) pair of its nodes, both are
    outside the domain or both are inside it with the same probability.
    """
    nodes = list(internal_nodes(d))
    pairs = {}
    for n in nodes:
        key = (n.si.switch, n.out.domain.values_id)
        if key not in pairs:
            pairs[key] = (n.out.domain, dists.spec(n.si.switch))
    constants = {
        atom.rhs
        for n in nodes
        for label, _ in n.edges
        for atom in label.atoms
        if isinstance(atom.rhs, GroundTerm)
    }
    classes = _ValueClasses(list(pairs.values()), constants)
    if not any(members for _, members in classes.layouts.values()):
        return None
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
    from the label's excluded and taken values, never listed, and a
    class's representative is found by skipping at most its constants,
    excluded and taken values, so an edge costs O(|constants| +
    |excluded| + |taken| + classes) plus its lone values, whatever the
    domain size.  Setting the classes up reads weight groups, not values,
    only under the conditions :class:`_ValueClasses` states; otherwise it
    passes over the values of a domain.  A diagram with no such class
    keeps plain value tuples as keys and the per-value loop.  Rational
    results are the same ``Fraction``s either way; float results may
    differ in the last bits from a per-value sum.
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
            for c in (classes.of(value),)
        )

    def lifted(n, admitted, taken):
        """(value, probability mass) pairs, one recursion each: the values
        that recurse alone in domain order, then one representative per
        class in the order of its first admitted value."""
        switch = n.si.switch
        fixed, excluded = admitted
        if fixed is not None:
            return [(fixed, dists.prob(switch, fixed))]
        domain = n.out.domain
        alone, members = classes.layouts[domain.values_id]
        blocked = excluded | taken
        single = [value for value in alone if value not in excluded]
        shared_taken = [
            value for value in taken
            if value in domain and value not in excluded
            and classes.of(value) is not None
        ]
        if shared_taken:
            single = sorted(single + shared_taken, key=domain.positions.__getitem__)
        pairs = [(value, dists.prob(switch, value)) for value in single]
        hits: dict = {}
        for value in blocked:
            c = classes.of(value)
            if c is not None:
                hits[c] = hits.get(c, 0) + 1
        # A class's first admitted value lies past at most its blocked
        # members and the label constants among its positions.
        skip = blocked | classes.constants
        values = domain.values
        reps = []
        for c, size, positions in members:
            count = size - hits.get(c, 0)
            if count:
                i = next(i for i in positions if values[i] not in skip)
                reps.append((i, values[i], count))
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
    """``edge_measures``: one entry per edge of each node that
    :func:`diagram.walk_paths` visits, in DFS order, empty if not
    measurable.  On chains such as ``same_birthday(n)`` and
    ``evidence(n)`` that is one entry per path."""

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

    The walk (:func:`diagram.walk_paths`) visits a node once per restricted
    path and walks each edge's subtree before the next edge.

    It stops at the first unsaturated edge, so every path it extends is
    saturated, and the saturation test of ``path & label`` runs over the
    label's disequalities only (see :func:`constraints.is_saturated`).
    Restricting keeps a path saturated.  It drops whole groups of atoms
    that share no variable with the kept ones, so a kept lone variable
    keeps its atoms and its neighbours.  Two of its neighbour classes that
    were adjacent only through a dropped atom both hold a constant (a
    dropped variable joins a kept class only through one), so they stay
    adjacent as classes pinned to distinct constants."""
    measures = []

    def visit(n, path, above):
        for i, (label, _) in enumerate(n.edges):
            conj = path.conjoin(label)
            m = cf.measure(conj, n.out, added=label)
            if m is None:
                return f"{n.si}@{'.'.join(str(j) for _, j in above) or 'root'}"
            measures.append((not label.is_empty(), m))
            yield i, conj

    offending = walk_paths(d, visit)
    if offending is not None:
        return MeasurabilityReport(False, offending_node=offending)
    return MeasurabilityReport(True, measures)


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
