"""Ordered symbolic derivation diagrams and their algebra.

An Osdd is a decision diagram whose internal nodes name switch instances
and whose edges carry constraint formulas over the output variables bound
so far.  Nodes are immutable and hash-consed: nodes with the same
instance, output variable and edges (identical labels to identical
children) are one object, so equality checks are identity checks.
Nothing is renamed, since each switch instance has one
:func:`canonical_instance_var`.

The well-formedness conditions checked by :func:`validate`:

  ordering             parent instance strictly precedes child instance,
                       edges sorted by the labels' canonical keys
  mutual-exclusion     sibling labels pairwise unsatisfiable together
  completeness         every path-satisfying grounding picks some edge
  urgency              a label's variables are all bound on the path and
                       not all bound strictly above (empty labels exempt)
  explicit-constraints an atom entailed by a label over path variables
                       must already be entailed by the path itself

A diagram that satisfies the first three only is "improper";
:func:`to_proper` rewrites it into a proper one with the same grounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import constraints as cf
from .constraints import AtomicConstraint, ConstraintFormula, TRUE
from .errors import DiagramError, SolverLimitError
from .terms import GroundTerm, Var, term_key


@dataclass(frozen=True)
class SwitchRef:
    """A switch identifier, possibly applied to ground arguments."""

    name: str
    args: tuple[GroundTerm, ...] = ()

    def sort_key(self):
        return (self.name, tuple(a.sort_key() for a in self.args))

    def __str__(self):
        if not self.args:
            return self.name
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class SwitchInstance:
    """A (switch, instance) pair; ordering compares instance first."""

    switch: SwitchRef
    instance: GroundTerm

    def sort_key(self):
        return (term_key(self.instance), self.switch.sort_key())

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        return f"({self.switch}, {self.instance})"


class Osdd:
    """Base class; concrete nodes are Leaf and Node, always interned."""

    __slots__ = ()

    @property
    def is_leaf(self):
        return isinstance(self, Leaf)


class Leaf(Osdd):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Leaf({self.value})"


class Node(Osdd):
    __slots__ = ("si", "out", "edges", "_free", "_bound")

    def __init__(self, si, out, edges):
        self.si = si
        self.out = out
        self.edges = edges
        self._free = None
        self._bound = None

    def __repr__(self):
        return f"Node({self.si}, {self.out}, {len(self.edges)} edges)"


ZERO = Leaf(0)
ONE = Leaf(1)

_intern: dict = {}


def bound_vars(d: Osdd) -> frozenset[Var]:
    """Output variables of all internal nodes."""
    if d.is_leaf:
        return frozenset()
    if d._bound is None:
        acc = {d.out}
        for _, child in d.edges:
            acc |= bound_vars(child)
        d._bound = frozenset(acc)
    return d._bound


def free_vars(d: Osdd) -> frozenset[Var]:
    """Label variables not bound by any node of the diagram itself."""
    if d.is_leaf:
        return frozenset()
    if d._free is None:
        acc = set()
        for label, child in d.edges:
            acc |= label.variables()
            acc |= free_vars(child)
        acc.discard(d.out)
        acc -= {v for _, c in d.edges for v in bound_vars(c)}
        d._free = frozenset(acc)
    return d._free


_instance_var_table: dict = {}


def canonical_instance_var(ref: SwitchRef, instance: GroundTerm, domain) -> Var:
    """The one variable naming the outcome of a switch instance.

    Canonical per (switch, instance, outcome space) so that independently
    built diagrams over the same instances intern to identical nodes.
    """
    key = (ref, instance, domain.values_id)
    got = _instance_var_table.get(key)
    if got is None:
        got = Var(f"X{len(_instance_var_table) + 1}", domain)
        _instance_var_table[key] = got
    return got


def make_node(si: SwitchInstance, out: Var, edges) -> Osdd:
    """Intern a node; edges are sorted by label key.  Formulas are
    hash-consed and children are interned first, and both compare by
    identity, so the unique table keys on the sorted edges themselves."""
    edges = tuple(sorted(edges, key=lambda e: e[0].key()))
    if not edges:
        raise DiagramError(f"node {si} has no edges")
    key = (si, out, edges)
    node = _intern.get(key)
    if node is None:
        node = _intern[key] = Node(si, out, edges)
    return node


def internal_nodes(d: Osdd):
    """Yield each distinct internal node once, depth-first in edge order."""
    seen = set()
    stack = [d]
    while stack:
        n = stack.pop()
        if n.is_leaf or n in seen:
            continue
        seen.add(n)
        yield n
        stack.extend(c for _, c in reversed(n.edges))


def has_live_leaf(d: Osdd) -> bool:
    """True iff some path reaches the 1 leaf (the diagram is not empty)."""
    if d.is_leaf:
        return d.value == 1
    return any(
        c.is_leaf and c.value == 1 for n in internal_nodes(d) for _, c in n.edges
    )


def node_count(d: Osdd) -> int:
    """Number of distinct internal nodes (shared subtrees counted once)."""
    return sum(1 for _ in internal_nodes(d))


def max_free_vars(d: Osdd) -> int:
    """Largest free-variable set over all subdiagrams (the V diagnostic)."""
    return max((len(free_vars(n)) for n in internal_nodes(d)), default=0)


# ---------------------------------------------------------------------------
# Conjunction / disjunction


def combine(a: Osdd, b: Osdd, op: str) -> Osdd:
    """Boolean combination of two diagrams (op is "and" or "or").

    Smaller roots lift; equal roots must share their output variable,
    and their edge labels are conjoined pairwise, dropping unsatisfiable
    combinations eagerly.  The result may be improper; run it through
    :func:`to_proper` (or at least :func:`normalize`).
    """
    if op not in ("and", "or"):
        raise DiagramError(f"unknown combination operator {op!r}")
    return _combine(a, b, op, {})


def _combine(a, b, op, memo):
    if a.is_leaf:
        if op == "and":
            return b if a.value == 1 else ZERO
        return a if a.value == 1 else b
    if b.is_leaf:
        return _combine(b, a, op, memo)

    key = (frozenset((a, b)), op)
    got = memo.get(key)
    if got is not None:
        return got

    if a.si < b.si:
        result = make_node(
            a.si, a.out, [(g, _combine(child, b, op, memo)) for g, child in a.edges]
        )
    elif b.si < a.si:
        result = make_node(
            b.si, b.out, [(g, _combine(child, a, op, memo)) for g, child in b.edges]
        )
    else:
        if b.out != a.out:
            raise DiagramError(
                f"cannot combine roots at {a.si}: output variables "
                f"{a.out} and {b.out} differ"
            )
        edges = []
        for ga, ca in a.edges:
            for gb, cb in b.edges:
                g = ga.conjoin(gb)
                if not cf.label_satisfiable(g):
                    continue
                edges.append((g, _combine(ca, cb, op, memo)))
        if not edges:
            raise DiagramError(f"combination at {a.si} produced no edges")
        result = make_node(a.si, a.out, edges)
    memo[key] = result
    return result


def osdd_and(a: Osdd, b: Osdd) -> Osdd:
    return combine(a, b, "and")


def osdd_or(a: Osdd, b: Osdd) -> Osdd:
    return combine(a, b, "or")


# ---------------------------------------------------------------------------
# Constraint application


def apply_constraint(d: Osdd, beta: AtomicConstraint) -> Osdd:
    """Specialize a diagram with one atomic constraint.

    The constraint attaches at the shallowest nodes where every variable
    of ``beta`` that the diagram binds is on the path: the edge labels
    are conjoined with beta (unsatisfiable ones dropped) and one fresh
    edge per negation member routes to the 0 leaf.  Paths that end
    before binding those variables are left unchanged, as are leaves.
    """
    if d.is_leaf:
        return d
    needed = {v for v in beta.variables() if v in bound_vars(d)}
    if not needed:
        raise DiagramError(
            f"constraint {beta} mentions no variable bound by the diagram"
        )
    members = cf.negate(cf.formula(beta))
    memo = {}

    # A node's rewrite depends only on which needed variables are still
    # unbound above it, so each (node, missing) pair is rebuilt once.
    def walk(n, missing):
        if n.is_leaf:
            return n
        key = (n, missing)
        got = memo.get(key)
        if got is not None:
            return got
        missing = missing - {n.out}
        if not missing:
            edges = []
            for g, child in n.edges:
                g2 = g.conjoin(beta)
                if cf.label_satisfiable(g2):
                    edges.append((g2, child))
            for m in members:
                edges.append((m, ZERO))
            result = make_node(n.si, n.out, edges)
        else:
            result = make_node(
                n.si, n.out, [(g, walk(child, missing)) for g, child in n.edges]
            )
        memo[key] = result
        return result

    return walk(d, frozenset(needed))


# ---------------------------------------------------------------------------
# Normalization: pruning, label simplification, canonical edge order


_normalize_memo: dict = {}


def normalize(d: Osdd, path: ConstraintFormula = TRUE) -> Osdd:
    """Canonical form with respect to the accumulated path formula.

    Drops edges whose label contradicts the path, removes label atoms
    that the path plus the rest of the label already entail (only when
    absolute mutual exclusion against the current siblings survives),
    re-sorts edges, and re-interns so equivalent subtrees share.

    ``path`` must be satisfiable.  Only its atoms connected, through
    shared variables, to a variable of ``d`` are kept: every formula the
    subtree tests is ``path`` conjoined with labels over ``d``'s
    variables, and the dropped atoms share no variable with it and are
    satisfiable on their own, so no answer changes.  The memo is keyed
    on that restricted path, so its size follows diagram nodes rather
    than root-to-leaf paths.
    """
    if d.is_leaf:
        return d
    path = _restrict(path, d)
    memo_key = (d, path)
    cached = _normalize_memo.get(memo_key)
    if cached is not None:
        return cached
    result = _normalize_memo[memo_key] = _normalize(d, path)
    return result


def _restrict(path: ConstraintFormula, d: Osdd) -> ConstraintFormula:
    """The atoms of ``path`` connected to a variable of ``d`` through
    shared variables."""
    free, bound = free_vars(d), bound_vars(d)
    reached = set()
    kept = []
    pending = path.atoms
    grew = True
    while pending and grew:
        grew = False
        rest = []
        for atom in pending:
            vs = atom.variables()
            if any(v in free or v in bound or v in reached for v in vs):
                kept.append(atom)
                reached.update(vs)
                grew = True
            else:
                rest.append(atom)
        pending = rest
    if not pending:
        return path
    return ConstraintFormula(kept)


def walk_paths(d: Osdd, visit):
    """Visit each (node, restricted path) pair of ``d`` once, depth first.

    ``visit(n, path, above)`` is a generator.  ``path`` is the conjunction
    of the labels above ``n``, restricted as :func:`normalize` restricts
    it, and ``above`` is the tuple of (node, edge index) pairs from the
    root to ``n``.  Each ``(i, formula)`` it yields walks edge ``i``'s
    child with ``formula`` as its path before the visitor resumes; a value
    other than None that it returns ends the walk and is returned.  The
    walk keeps its own stack, not one Python frame per level.

    Restricting is sound: it drops whole groups of atoms that share no
    variable with ``n``'s labels or those below.  They were checked where
    they were added, and no label below reaches them, so on a satisfiable
    path a test over those labels reads the same with or without them.

    A pair met before is skipped: its first visit saw everything below it
    and returned None.  A label can name a variable that only some paths
    bind, so the key also holds the node's free variables unbound above.
    """
    seen = set()
    stack = []  # (node, its visitor, the edges above it), root first

    def push(n, path, above):
        path = _restrict(path, n)
        key = (n, path, free_vars(n).difference(m.out for m, _ in above))
        if key not in seen:
            seen.add(key)
            stack.append((n, visit(n, path, above), above))

    if not d.is_leaf:
        push(d, TRUE, ())
    while stack:
        n, visitor, above = stack[-1]
        try:
            i, path = next(visitor)
        except StopIteration as stop:
            if stop.value is not None:
                return stop.value
            stack.pop()
        else:
            child = n.edges[i][1]
            if not child.is_leaf:
                push(child, path, above + ((n, i),))
    return None


def _normalize(d: Osdd, path: ConstraintFormula) -> Osdd:
    kept = []
    for g, child in d.edges:
        if cf.satisfiable(path.conjoin(g)):
            kept.append((g, child))
    if not kept:
        raise DiagramError(
            f"all edges of node {d.si} contradict their path; input was incomplete"
        )

    labels = [g for g, _ in kept]
    changed = True
    while changed:
        changed = False
        for i in range(len(labels)):
            for atom in labels[i].sorted_atoms():
                g = labels[i]
                if atom not in g.atoms:
                    continue
                rest = g.without(atom)
                # Both tests must pass; the sibling test reads labels
                # only, so it runs before the one over the whole path.
                if any(
                    cf.compatible(rest, labels[j])
                    for j in range(len(labels))
                    if j != i
                ):
                    continue  # dropping it would break mutual exclusion
                if cf.satisfiable(path.conjoin(rest).conjoin(atom.negated())):
                    continue  # not redundant under the path
                labels[i] = rest
                changed = True

    out_edges = [
        (g, normalize(child, path.conjoin(g)))
        for g, (_, child) in zip(labels, kept)
    ]
    return make_node(d.si, d.out, out_edges)


# ---------------------------------------------------------------------------
# Improper -> proper rewriting


def _find_implicit(d: Osdd):
    """First label atom entailed-but-implicit over path variables.

    An atom is implicit when the closure of an edge label entails it but
    the path formula alone does not.  Returns (edge index path to the
    insertion node, atom) or None; the insertion node is the shallowest
    on the violating path binding all of the atom's variables.  A node's
    edges are all checked before the walk descends any of them.
    """

    def visit(n, path, above):
        outs = [m.out for m, _ in above] + [n.out]
        for g, _ in n.edges:
            graph = g.graph()
            if not graph.contradiction:
                for beta in sorted(
                    graph.entailed_atoms() - g.atoms, key=AtomicConstraint.sort_key
                ):
                    if not all(v in outs for v in beta.variables()):
                        continue
                    if cf.entails(path, beta):
                        continue
                    depth = max(outs.index(v) for v in beta.variables())
                    return ([i for _, i in above[:depth]], beta)
        for i, (g, _) in enumerate(n.edges):
            yield i, path.conjoin(g)

    return walk_paths(d, visit)


def _insert_constraint(d: Osdd, route, beta: AtomicConstraint) -> Osdd:
    """Split the edges of the node at ``route`` on beta / not-beta."""
    members = cf.negate(cf.formula(beta))

    def rebuild(n, depth):
        if depth == len(route):
            edges = []
            for g, child in n.edges:
                g2 = g.conjoin(beta)
                if cf.label_satisfiable(g2):
                    edges.append((g2, child))
                for m in members:
                    gm = g.conjoin(m)
                    if cf.label_satisfiable(gm):
                        edges.append((gm, child))
            return make_node(n.si, n.out, edges)
        i = route[depth]
        edges = list(n.edges)
        g, child = edges[i]
        edges[i] = (g, rebuild(child, depth + 1))
        return make_node(n.si, n.out, edges)

    return rebuild(d, 0)


MAX_PROPER_ROUNDS = 10_000


def to_proper(d: Osdd) -> Osdd:
    """Rewrite an improper diagram into a proper, canonical one.

    Repeatedly finds an implicit atom entailed by some edge label over
    path output variables but absent from the path, inserts it (with its
    negation members) at the shallowest node binding its variables, and
    prunes edges whose accumulated formula became unsatisfiable.  The
    grounding of the diagram is preserved at every step.  The search for
    an implicit atom visits each node once per restricted path (see
    :func:`walk_paths`), not once per root-to-leaf path.
    """
    d = normalize(d)
    for _ in range(MAX_PROPER_ROUNDS):
        found = _find_implicit(d)
        if found is None:
            return d
        route, beta = found
        d = normalize(_insert_constraint(d, route, beta))
    raise DiagramError("improper-to-proper rewriting did not converge")


# ---------------------------------------------------------------------------
# Grounding to value-labeled diagrams (MDDs)


class Mdd:
    __slots__ = ()

    @property
    def is_leaf(self):
        return isinstance(self, MddLeaf)


class MddLeaf(Mdd):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"MddLeaf({self.value})"


class MddNode(Mdd):
    __slots__ = ("si", "out", "edges")

    def __init__(self, si, out, edges):
        self.si = si
        self.out = out
        self.edges = edges

    def __repr__(self):
        return f"MddNode({self.si}, {len(self.edges)} edges)"


MDD_ZERO = MddLeaf(0)
MDD_ONE = MddLeaf(1)

_mdd_intern: dict = {}


def make_mdd_node(si, out, edges) -> Mdd:
    edges = tuple(sorted(edges, key=lambda e: term_key(e[0])))
    values = [v for v, _ in edges]
    if len(set(values)) != len(values):
        raise DiagramError(f"duplicate edge values at {si}")
    sig = (si.sort_key(), edges)
    got = _mdd_intern.get(sig)
    if got is not None:
        return got
    node = _mdd_intern[sig] = MddNode(si, out, edges)
    return node


def ground(d: Osdd) -> Mdd:
    """Ground a diagram: one edge per domain value, routed to the unique
    child whose label the value satisfies under the accumulated
    substitution.  Mutual exclusion gives uniqueness, completeness gives
    existence; violations raise DiagramError."""
    memo = {}

    def walk(n, env):
        if n.is_leaf:
            return MDD_ONE if n.value else MDD_ZERO
        restriction = frozenset(
            (v.uid, env[v]) for v in free_vars(n) if v in env
        )
        key = (n, restriction)
        got = memo.get(key)
        if got is not None:
            return got
        edges = []
        for value in n.out.domain.values:
            env2 = dict(env)
            env2[n.out] = value
            matches = []
            for i, (g, child) in enumerate(n.edges):
                missing = [v for v in g.variables() if v not in env2]
                if missing:
                    raise DiagramError(
                        f"cannot ground: label {g} at {n.si} has unbound "
                        f"variables {sorted(str(v) for v in missing)}"
                    )
                if g.holds(env2):
                    matches.append(i)
            if not matches:
                raise DiagramError(
                    f"completeness violation at {n.si}: no edge accepts {value}"
                )
            if len(matches) > 1:
                raise DiagramError(
                    f"mutual-exclusion violation at {n.si}: value {value} "
                    f"satisfies {len(matches)} edges"
                )
            edges.append((value, walk(n.edges[matches[0]][1], env2)))
        node = make_mdd_node(n.si, n.out, edges)
        memo[key] = node
        return node

    return walk(d, {})


def mdd_combine(a: Mdd, b: Mdd, op: str) -> Mdd:
    """Boolean combination of ground diagrams, aligning equal edge values."""
    memo = {}

    def walk(a, b):
        if a.is_leaf:
            if op == "and":
                return b if a.value == 1 else MDD_ZERO
            return a if a.value == 1 else b
        if b.is_leaf:
            return walk(b, a)
        key = frozenset((a, b))
        got = memo.get(key)
        if got is not None:
            return got
        if a.si < b.si:
            result = make_mdd_node(
                a.si, a.out, [(v, walk(c, b)) for v, c in a.edges]
            )
        elif b.si < a.si:
            result = make_mdd_node(
                b.si, b.out, [(v, walk(c, a)) for v, c in b.edges]
            )
        else:
            bmap = dict(b.edges)
            if set(bmap) != {v for v, _ in a.edges}:
                raise DiagramError(
                    f"ground diagrams disagree on the values of {a.si}"
                )
            result = make_mdd_node(
                a.si, a.out, [(v, walk(c, bmap[v])) for v, c in a.edges]
            )
        memo[key] = result
        return result

    return walk(a, b)


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    condition: str
    node: str
    detail: str

    def __str__(self):
        return f"{self.condition} at {self.node}: {self.detail}"


COMPLETENESS_BUDGET = 2_000_000


def validate(d: Osdd) -> list[Violation]:
    """Check the five well-formedness conditions; empty list means proper.

    Exhaustive completeness checking enumerates path assignments and
    raises SolverLimitError past ``COMPLETENESS_BUDGET``.
    """
    reports = []
    flagged = set()

    def report(condition, node_name, detail):
        key = (condition, node_name)
        if key not in flagged:
            flagged.add(key)
            reports.append(Violation(condition, node_name, detail))

    def walk(n, path, outs, route):
        if n.is_leaf:
            return
        name = f"{n.si}@{'.'.join(map(str, route)) or 'root'}"
        if n.out in outs:
            report("ordering", name, f"output variable {n.out} rebound on path")
        outs2 = outs + [n.out]

        keys = [g.key() for g, _ in n.edges]
        if keys != sorted(keys):
            report("ordering", name, "edges not in canonical label order")
        for g, child in n.edges:
            if not child.is_leaf and not (n.si < child.si):
                report(
                    "ordering",
                    name,
                    f"child instance {child.si} does not follow {n.si}",
                )

        for (g1, _), (g2, _) in itertools.combinations(n.edges, 2):
            if cf.compatible(g1, g2):
                report(
                    "mutual-exclusion",
                    name,
                    f"labels {{{g1}}} and {{{g2}}} are jointly satisfiable",
                )

        parent_outs = set(outs)
        for g, _ in n.edges:
            vars_g = g.variables()
            if not vars_g:
                continue  # unconstrained edges carry no urgency obligation
            if not vars_g <= set(outs2):
                report(
                    "urgency",
                    name,
                    f"label {{{g}}} uses variables not bound on the path",
                )
            elif vars_g <= parent_outs:
                report(
                    "urgency",
                    name,
                    f"label {{{g}}} could have been placed on an ancestor",
                )

        if not cf.satisfiable(path):
            report("explicit-constraints", name, "path formula unsatisfiable")
        else:
            for g, _ in n.edges:
                graph = g.graph()
                if graph.contradiction:
                    report(
                        "mutual-exclusion", name, f"label {{{g}}} is unsatisfiable"
                    )
                    continue
                for beta in graph.entailed_atoms() - g.atoms:
                    if not all(v in outs2 for v in beta.variables()):
                        continue
                    if not cf.entails(path, beta):
                        report(
                            "explicit-constraints",
                            name,
                            f"label {{{g}}} entails implicit {beta} "
                            "absent from the path",
                        )

        _check_completeness(n, path, outs2, name, report)

        for i, (g, child) in enumerate(n.edges):
            walk(child, path.conjoin(g), outs2, route + [i])

    walk(d, TRUE, [], [])
    return reports


def _check_completeness(n, path, outs, name, report):
    domains = [v.domain.values for v in outs]
    total = 1
    for dom in domains:
        total *= len(dom)
    free_in_path = [v for v in path.variables() if v not in outs]
    if free_in_path:
        for v in free_in_path:
            total *= v.domain.size
        domains = domains + [v.domain.values for v in free_in_path]
        outs = outs + free_in_path
    if total > COMPLETENESS_BUDGET:
        raise SolverLimitError(
            f"completeness check at {name} needs {total} assignments"
        )
    out_set = set(outs)
    checkable = [g for g, _ in n.edges if g.variables() <= out_set]
    for combo in itertools.product(*domains):
        env = dict(zip(outs, combo))
        if not path.holds(env):
            continue
        hits = sum(1 for g in checkable if g.holds(env))
        if hits == 0:
            report(
                "completeness",
                name,
                f"no edge accepts {env[n.out]} under a satisfying grounding",
            )
            return


def path_formulas(d: Osdd):
    """Yield (leaf value, accumulated formula) for every root-to-leaf path."""

    def walk(n, acc):
        if n.is_leaf:
            yield (n.value, acc)
            return
        for g, child in n.edges:
            yield from walk(child, acc.conjoin(g))

    yield from walk(d, TRUE)
