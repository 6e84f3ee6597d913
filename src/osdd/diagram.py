"""Ordered symbolic derivation diagrams and their algebra.

An Osdd is a decision diagram whose internal nodes name switch instances
and whose edges carry constraint formulas over the output variables bound
so far.  Nodes are immutable and hash-consed: structurally equivalent
subtrees (modulo renaming of their own output variables) are shared, so
equality checks are identity checks.

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
import threading
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
    __slots__ = ("si", "out", "edges", "_free", "_bound", "_sig_cache")

    def __init__(self, si, out, edges):
        self.si = si
        self.out = out
        self.edges = edges
        self._free = None
        self._bound = None
        self._sig_cache = {}

    def __repr__(self):
        return f"Node({self.si}, {self.out}, {len(self.edges)} edges)"


ZERO = Leaf(0)
ONE = Leaf(1)

_intern_lock = threading.Lock()
_intern: dict = {}


def leaf(value) -> Leaf:
    if value not in (0, 1):
        raise DiagramError(f"leaf value must be 0 or 1, got {value!r}")
    return ONE if value else ZERO


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


def _signature(d: Osdd, env: dict) -> tuple:
    """Structural fingerprint, invariant under renaming of the diagram's
    own output variables.  ``env`` maps enclosing bound vars to de Bruijn
    style indices; free variables serialize by identity."""
    if d.is_leaf:
        return ("leaf", d.value)
    # Bound-variable indices below are assigned from the absolute depth,
    # so the cache key must carry the depth along with the restriction of
    # the environment to the variables this subtree actually reads.
    relevant = (
        len(env),
        tuple(sorted((v.uid, env[v]) for v in free_vars(d) if v in env)),
    )
    cached = d._sig_cache.get(relevant)
    if cached is not None:
        return cached
    inner = dict(env)
    inner[d.out] = len(env)
    parts = []
    for label, child in d.edges:
        atoms = []
        for a in label.sorted_atoms():
            ends = sorted((_term_sig(a.lhs, inner), _term_sig(a.rhs, inner)))
            atoms.append((ends[0], ends[1], a.polarity))
        parts.append((tuple(sorted(atoms)), _signature(child, inner)))
    sig = ("node", d.si.sort_key(), d.out.domain.values_id, tuple(parts))
    d._sig_cache[relevant] = sig
    return sig


def _term_sig(t, env):
    if isinstance(t, Var):
        if t in env:
            return ("b", str(env[t]))
        return ("f", str(t.uid))
    return ("g", repr(t.symbol))


_instance_var_table: dict = {}


def canonical_instance_var(ref: SwitchRef, instance: GroundTerm, domain) -> Var:
    """The one variable naming the outcome of a switch instance.

    Canonical per (switch, instance, outcome space) so that independently
    built diagrams over the same instances intern to identical nodes.
    """
    key = (ref, instance, domain.values_id)
    with _intern_lock:
        got = _instance_var_table.get(key)
        if got is None:
            got = Var(f"X{len(_instance_var_table) + 1}", domain)
            _instance_var_table[key] = got
    return got


def make_node(si: SwitchInstance, out: Var, edges) -> Osdd:
    """Intern a node; edges are sorted by label key and children must
    already be interned."""
    edges = tuple(sorted(edges, key=lambda e: e[0].key()))
    if not edges:
        raise DiagramError(f"node {si} has no edges")
    probe = Node(si, out, edges)
    sig = _signature(probe, {})
    with _intern_lock:
        existing = _intern.get(sig)
        if existing is not None:
            return existing
        _intern[sig] = probe
    return probe


def has_live_leaf(d: Osdd) -> bool:
    """True iff some path reaches the 1 leaf (the diagram is not empty)."""
    seen = set()

    def walk(n):
        if n.is_leaf:
            return n.value == 1
        if id(n) in seen:
            return False
        seen.add(id(n))
        return any(walk(c) for _, c in n.edges)

    return walk(d)


def node_count(d: Osdd) -> int:
    """Number of distinct internal nodes (shared subtrees counted once)."""
    seen = set()

    def walk(n):
        if n.is_leaf or id(n) in seen:
            return
        seen.add(id(n))
        for _, c in n.edges:
            walk(c)

    walk(d)
    return len(seen)


def max_free_vars(d: Osdd) -> int:
    """Largest free-variable set over all subdiagrams (the V diagnostic)."""
    best = 0
    seen = set()

    def walk(n):
        nonlocal best
        if n.is_leaf or id(n) in seen:
            return
        seen.add(id(n))
        best = max(best, len(free_vars(n)))
        for _, c in n.edges:
            walk(c)

    walk(d)
    return best


def substitute(d: Osdd, mapping: dict[Var, Var]) -> Osdd:
    """Rename variables throughout the diagram (labels and output vars)."""
    memo = {}

    def sub_term(t):
        return mapping.get(t, t) if isinstance(t, Var) else t

    def sub_formula(f):
        if not any(v in mapping for v in f.variables()):
            return f
        return ConstraintFormula(
            AtomicConstraint(sub_term(a.lhs), sub_term(a.rhs), a.polarity)
            for a in f.atoms
        )

    def walk(n):
        if n.is_leaf:
            return n
        got = memo.get(id(n))
        if got is not None:
            return got
        out = make_node(
            n.si,
            mapping.get(n.out, n.out),
            [(sub_formula(label), walk(child)) for label, child in n.edges],
        )
        memo[id(n)] = out
        return out

    return walk(d)


def all_vars(d: Osdd) -> frozenset[Var]:
    return bound_vars(d) | free_vars(d)


# ---------------------------------------------------------------------------
# Conjunction / disjunction


def combine(a: Osdd, b: Osdd, op: str, _memo=None) -> Osdd:
    """Boolean combination of two diagrams (op is "and" or "or").

    Smaller roots lift; equal roots rename the second operand's output
    variable to the first's and conjoin edge labels pairwise, dropping
    unsatisfiable combinations eagerly.  The result may be improper; run
    it through :func:`to_proper` (or at least :func:`normalize`).
    """
    if op not in ("and", "or"):
        raise DiagramError(f"unknown combination operator {op!r}")
    if _memo is None:
        _memo = {}
    return _combine(a, b, op, _memo)


def _combine(a, b, op, memo):
    if a.is_leaf:
        if op == "and":
            return b if a.value == 1 else ZERO
        return a if a.value == 1 else b
    if b.is_leaf:
        return _combine(b, a, op, memo)

    key = (frozenset((id(a), id(b))), op)
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
            if a.out in all_vars(b):
                raise DiagramError(
                    f"cannot align roots {a.si}: variable {a.out} already "
                    "occurs in the second operand"
                )
            b = substitute(b, {b.out: a.out})
        edges = []
        for ga, ca in a.edges:
            for gb, cb in b.edges:
                g = ga.conjoin(gb)
                if not cf.satisfiable(g):
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

    def walk(n, seen):
        if n.is_leaf:
            return n
        seen = seen | {n.out}
        if needed <= seen:
            edges = []
            for g, child in n.edges:
                g2 = g.conjoin(beta)
                if cf.satisfiable(g2):
                    edges.append((g2, child))
            for m in members:
                edges.append((m, ZERO))
            return make_node(n.si, n.out, edges)
        return make_node(n.si, n.out, [(g, walk(child, seen)) for g, child in n.edges])

    return walk(d, set())


# ---------------------------------------------------------------------------
# Normalization: pruning, label simplification, canonical edge order


_normalize_memo: dict = {}


def normalize(d: Osdd, path: ConstraintFormula = TRUE) -> Osdd:
    """Canonical form with respect to the accumulated path formula.

    Drops edges whose label contradicts the path, removes label atoms
    that the path plus the rest of the label already entail (only when
    absolute mutual exclusion against the current siblings survives),
    re-sorts edges, and re-interns so equivalent subtrees share.
    """
    if d.is_leaf:
        return d
    memo_key = (id(d), path.atoms)
    cached = _normalize_memo.get(memo_key)
    if cached is not None:
        return cached
    result = _normalize(d, path)
    _normalize_memo[memo_key] = result
    return result


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
                if cf.satisfiable(path.conjoin(rest).conjoin(atom.negated())):
                    continue  # not redundant under the path
                ok = all(
                    not cf.compatible(rest, labels[j])
                    for j in range(len(labels))
                    if j != i
                )
                if ok:
                    labels[i] = rest
                    changed = True

    out_edges = [
        (g, normalize(child, path.conjoin(g)))
        for g, (_, child) in zip(labels, kept)
    ]
    return make_node(d.si, d.out, out_edges)


def canonicalize(d: Osdd) -> Osdd:
    """Sort edges canonically and merge equivalent subtrees; idempotent."""
    return normalize(d)


# ---------------------------------------------------------------------------
# Improper -> proper rewriting


def _find_implicit(d: Osdd):
    """First label atom entailed-but-implicit over path variables.

    An atom is implicit when the closure of an edge label entails it but
    the path formula alone does not.  Returns (edge index path to the
    insertion node, atom) or None; the insertion node is the shallowest
    on the violating path binding all of the atom's variables.
    """

    def walk(n, path, outs, route):
        if n.is_leaf:
            return None
        outs = outs + [n.out]
        for g, child in n.edges:
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
                    return (route[:depth], beta)
        for i, (g, child) in enumerate(n.edges):
            found = walk(child, path.conjoin(g), outs, route + [i])
            if found is not None:
                return found
        return None

    return walk(d, TRUE, [], [])


def _insert_constraint(d: Osdd, route, beta: AtomicConstraint) -> Osdd:
    """Split the edges of the node at ``route`` on beta / not-beta."""
    members = cf.negate(cf.formula(beta))

    def rebuild(n, depth):
        if depth == len(route):
            edges = []
            for g, child in n.edges:
                g2 = g.conjoin(beta)
                if cf.satisfiable(g2):
                    edges.append((g2, child))
                for m in members:
                    gm = g.conjoin(m)
                    if cf.satisfiable(gm):
                        edges.append((gm, child))
            return make_node(n.si, n.out, edges)
        i = route[depth]
        edges = list(n.edges)
        g, child = edges[i]
        edges[i] = (g, rebuild(child, depth + 1))
        return make_node(n.si, n.out, edges)

    return rebuild(d, 0)


def to_proper(d: Osdd, max_rounds: int = 10_000) -> Osdd:
    """Rewrite an improper diagram into a proper, canonical one.

    Repeatedly finds an implicit atom entailed by some edge label over
    path output variables but absent from the path, inserts it (with its
    negation members) at the shallowest node binding its variables, and
    prunes edges whose accumulated formula became unsatisfiable.  The
    grounding of the diagram is preserved at every step.
    """
    d = normalize(d)
    for _ in range(max_rounds):
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
    sig = (si.sort_key(), tuple((v, id(c)) for v, c in edges))
    with _intern_lock:
        got = _mdd_intern.get(sig)
        if got is not None:
            return got
        node = MddNode(si, out, edges)
        _mdd_intern[sig] = node
    return node


def ground(d: Osdd, env: dict | None = None) -> Mdd:
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
        key = (id(n), restriction)
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

    return walk(d, env or {})


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
        key = frozenset((id(a), id(b)))
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


def validate(d: Osdd, completeness_budget: int = 2_000_000) -> list[Violation]:
    """Check the five well-formedness conditions; empty list means proper.

    Exhaustive completeness checking enumerates path assignments and
    raises SolverLimitError past ``completeness_budget``.
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

        _check_completeness(n, path, outs2, name, report, completeness_budget)

        for i, (g, child) in enumerate(n.edges):
            walk(child, path.conjoin(g), outs2, route + [i])

    walk(d, TRUE, [], [])
    return reports


def _check_completeness(n, path, outs, name, report, budget):
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
    if total > budget:
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
