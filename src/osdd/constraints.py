"""Conjunctive equality/disequality constraints over finite domains.

A constraint formula is a set of atoms ``X = T`` / ``X != T`` read as a
conjunction.  The module provides entailment closure (as a labeled graph
over equivalence classes), satisfiability, negation into a mutually
exclusive cover, canonical byte keys, solution projection, and the
saturation/measure machinery used by the measurable fast path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import SolverLimitError
from .terms import GroundTerm, Var, term_key

EQ = "eq"
NEQ = "neq"

# Residual search spaces larger than this raise SolverLimitError rather
# than silently degrading to an approximation.
EXHAUSTIVE_LIMIT = 10**6


@dataclass(frozen=True)
class AtomicConstraint:
    """One atom ``lhs = rhs`` or ``lhs != rhs`` with lhs always a Var."""

    lhs: Var
    rhs: Var | GroundTerm
    polarity: str

    def __post_init__(self):
        if self.polarity not in (EQ, NEQ):
            raise ValueError(f"bad polarity {self.polarity!r}")
        if isinstance(self.rhs, Var):
            if self.rhs == self.lhs:
                raise ValueError("constraint relates a variable to itself")
            if self.lhs.domain.values != self.rhs.domain.values:
                raise ValueError(
                    f"variables {self.lhs} and {self.rhs} range over different domains"
                )
            # Normalize variable pairs so {X=Y} and {Y=X} are one atom.
            if term_key(self.rhs) < term_key(self.lhs):
                lhs, rhs = self.rhs, self.lhs
                object.__setattr__(self, "lhs", lhs)
                object.__setattr__(self, "rhs", rhs)
        else:
            if self.rhs not in self.lhs.domain:
                raise ValueError(
                    f"value {self.rhs} outside the domain of {self.lhs}"
                )

    def negated(self) -> "AtomicConstraint":
        return AtomicConstraint(self.lhs, self.rhs, NEQ if self.polarity == EQ else EQ)

    def variables(self):
        if isinstance(self.rhs, Var):
            return (self.lhs, self.rhs)
        return (self.lhs,)

    def sort_key(self):
        ka, kb = term_key(self.lhs), term_key(self.rhs)
        lo, hi = (ka, kb) if ka <= kb else (kb, ka)
        return (lo, hi, 0 if self.polarity == EQ else 1)

    def holds(self, value_of) -> bool:
        """Evaluate against a total assignment (mapping Var -> GroundTerm)."""
        a = value_of[self.lhs]
        b = self.rhs if isinstance(self.rhs, GroundTerm) else value_of[self.rhs]
        return (a == b) if self.polarity == EQ else (a != b)

    def __str__(self):
        op = "=" if self.polarity == EQ else "!="
        return f"{self.lhs} {op} {self.rhs}"


def eq(lhs: Var, rhs) -> AtomicConstraint:
    return AtomicConstraint(lhs, rhs, EQ)


def neq(lhs: Var, rhs) -> AtomicConstraint:
    return AtomicConstraint(lhs, rhs, NEQ)


class ConstraintFormula:
    """An immutable conjunction of atomic constraints."""

    __slots__ = ("atoms", "_graph", "_key", "_hash")

    def __init__(self, atoms: Iterable[AtomicConstraint] = ()):
        self.atoms = frozenset(atoms)
        self._graph = None
        self._key = None
        self._hash = None

    def conjoin(self, other) -> "ConstraintFormula":
        if isinstance(other, AtomicConstraint):
            if other in self.atoms:
                return self
            return ConstraintFormula(self.atoms | {other})
        if not other.atoms:
            return self
        if not self.atoms:
            return other
        return ConstraintFormula(self.atoms | other.atoms)

    def without(self, atom: AtomicConstraint) -> "ConstraintFormula":
        return ConstraintFormula(self.atoms - {atom})

    def sorted_atoms(self) -> list[AtomicConstraint]:
        return sorted(self.atoms, key=AtomicConstraint.sort_key)

    def variables(self) -> frozenset[Var]:
        out = set()
        for a in self.atoms:
            out.update(a.variables())
        return frozenset(out)

    def is_empty(self) -> bool:
        return not self.atoms

    def holds(self, value_of) -> bool:
        return all(a.holds(value_of) for a in self.atoms)

    def graph(self) -> "ConstraintGraph":
        if self._graph is None:
            self._graph = close(self)
        return self._graph

    def key(self) -> bytes:
        if self._key is None:
            self._key = canonical_key(self)
        return self._key

    def __eq__(self, other):
        return isinstance(other, ConstraintFormula) and other.atoms == self.atoms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.atoms)
        return self._hash

    def __iter__(self):
        return iter(self.sorted_atoms())

    def __len__(self):
        return len(self.atoms)

    def __str__(self):
        if not self.atoms:
            return "true"
        return ", ".join(str(a) for a in self.sorted_atoms())

    def __repr__(self):
        return f"ConstraintFormula({self})"


TRUE = ConstraintFormula()


def formula(*atoms) -> ConstraintFormula:
    return ConstraintFormula(atoms)


def substitution(bindings: dict[Var, GroundTerm]) -> ConstraintFormula:
    """A ground substitution expressed as a formula of equalities."""
    return ConstraintFormula(eq(v, t) for v, t in bindings.items())


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent.setdefault(p, p)
            x, p = p, self.parent[p]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class ConstraintGraph:
    """Entailment closure of a formula, over eq-classes of its terms.

    ``classes`` partitions the mentioned Vars and GroundTerms; two terms
    are in one class iff their equality is entailed.  ``neq_pairs`` holds
    unordered class-index pairs whose disequality is entailed.  A
    contradiction (X != X, or two distinct constants forced equal) is
    recorded rather than raised.
    """

    __slots__ = ("formula", "contradiction", "classes", "class_index", "neq_pairs")

    def __init__(self, formula, contradiction, classes, class_index, neq_pairs):
        self.formula = formula
        self.contradiction = contradiction
        self.classes = classes
        self.class_index = class_index
        self.neq_pairs = neq_pairs

    @property
    def nodes(self):
        return tuple(self.class_index)

    def class_of(self, term):
        return self.class_index[term]

    def ground_of_class(self, idx) -> Optional[GroundTerm]:
        for t in self.classes[idx]:
            if isinstance(t, GroundTerm):
                return t
        return None

    def eq_edges(self):
        """Node-level eq edges: every pair inside a class."""
        for cls in self.classes:
            members = sorted(cls, key=term_key)
            for a, b in itertools.combinations(members, 2):
                yield (a, b)

    def neq_edges(self):
        """Node-level neq edges; pairs of two constants are never stored."""
        for pair in self.neq_pairs:
            i, j = tuple(pair)
            for a in self.classes[i]:
                for b in self.classes[j]:
                    if isinstance(a, GroundTerm) and isinstance(b, GroundTerm):
                        continue
                    x, y = (a, b) if term_key(a) <= term_key(b) else (b, a)
                    yield (x, y)

    def edge_triples(self):
        """Sorted (source, destination, label) triples; eq sorts before neq."""
        triples = [(term_key(a), term_key(b), 0, a, b) for a, b in self.eq_edges()]
        triples += [(term_key(a), term_key(b), 1, a, b) for a, b in self.neq_edges()]
        triples.sort(key=lambda t: t[:3])
        return [(a, b, EQ if lab == 0 else NEQ) for _, _, lab, a, b in triples]

    def entailed_atoms(self) -> set[AtomicConstraint]:
        """All atomic constraints with at least one Var endpoint entailed."""
        out = set()
        for x, y in self.eq_edges():
            atom = _atom_between(x, y, EQ)
            if atom is not None:
                out.add(atom)
        for x, y in self.neq_edges():
            atom = _atom_between(x, y, NEQ)
            if atom is not None:
                out.add(atom)
        return out

    def neq_neighbor_classes(self, idx) -> set[int]:
        out = set()
        for pair in self.neq_pairs:
            if idx in pair:
                out.add(next(iter(pair - {idx})))
        return out


def _atom_between(a, b, polarity) -> Optional[AtomicConstraint]:
    # Pairs of two constants, and pairs of variables over different
    # domains (relatable only through shared constants), have no atomic
    # form; they stay implicit in the graph structure.
    if isinstance(a, Var) and isinstance(b, Var):
        if a.domain.values != b.domain.values:
            return None
        return AtomicConstraint(a, b, polarity)
    if isinstance(a, Var) and isinstance(b, GroundTerm):
        return AtomicConstraint(a, b, polarity) if b in a.domain else None
    if isinstance(b, Var) and isinstance(a, GroundTerm):
        return AtomicConstraint(b, a, polarity) if a in b.domain else None
    return None


def close(f: ConstraintFormula) -> ConstraintGraph:
    """Entailment closure of ``f``.

    Equalities are closed under symmetry/transitivity; disequalities
    propagate across eq-classes; a variable equal to a constant is
    unequal to every other constant mentioned.  Contradictions (a class
    with two distinct constants, or a class unequal to itself) yield a
    graph with ``contradiction=True``.
    """
    uf = _UnionFind()
    terms = set()
    for atom in f.atoms:
        terms.add(atom.lhs)
        terms.add(atom.rhs)
        if atom.polarity == EQ:
            uf.union(atom.lhs, atom.rhs)
    roots = {}
    for t in sorted(terms, key=term_key):
        roots.setdefault(uf.find(t), []).append(t)
    classes = tuple(frozenset(members) for members in roots.values())
    class_index = {}
    for i, cls in enumerate(classes):
        for t in cls:
            class_index[t] = i

    # Two distinct constants in one class is a contradiction; equal
    # constants are one node, so any class holds at most one constant.
    for cls in classes:
        consts = [t for t in cls if isinstance(t, GroundTerm)]
        if len(consts) > 1:
            return ConstraintGraph(f, True, (), {}, frozenset())

    neq_pairs = set()
    for atom in f.atoms:
        if atom.polarity != NEQ:
            continue
        i, j = class_index[atom.lhs], class_index[atom.rhs]
        if i == j:
            return ConstraintGraph(f, True, (), {}, frozenset())
        neq_pairs.add(frozenset((i, j)))

    # Classes pinned to distinct constants are pairwise unequal.
    pinned = [i for i, cls in enumerate(classes)
              if any(isinstance(t, GroundTerm) for t in cls)]
    for i, j in itertools.combinations(pinned, 2):
        neq_pairs.add(frozenset((i, j)))

    return ConstraintGraph(f, False, classes, class_index, frozenset(neq_pairs))


def canonical_key(f: ConstraintFormula) -> bytes:
    """Canonical byte serialization of the closed graph.

    Logically equal formulas (same mentioned terms) produce identical
    keys, and byte order on keys is a total order on formulas.  All
    unsatisfiable formulas share one sentinel key.
    """
    g = f.graph()
    if g.contradiction:
        return b"\xffunsat"
    parts = []
    for a, b, label in g.edge_triples():
        parts.append(a.encode())
        parts.append(b.encode())
        parts.append(b"\x00" if label == EQ else b"\x01")
    return b"".join(parts)


class _Residual:
    """The candidate values of one equivalence class, kept lazily: an
    ordered base (a domain's values, or one constant) minus a set of
    excluded values.  Only :meth:`values` walks the whole base."""

    __slots__ = ("ordered", "members", "excluded")

    def __init__(self, ordered, members):
        self.ordered = ordered
        self.members = members
        self.excluded = set()

    def __len__(self):
        return len(self.ordered) - len(self.excluded)

    def __contains__(self, value):
        return value in self.members and value not in self.excluded

    def first(self, taken=frozenset()):
        """The first value in base order that is neither excluded nor
        taken; it costs O(excluded + taken + 1), not O(domain)."""
        return next(
            (v for v in self.ordered if v not in self.excluded and v not in taken),
            None,
        )

    def values(self) -> list:
        return [v for v in self.ordered if v not in self.excluded]


def _residual(cls) -> _Residual:
    """A class's residual before propagation.

    Atoms relate only variables over equal domains, and a constant only
    to variables whose domain holds it, so a class pinned to a constant
    has that constant alone and any other class has the domain of any of
    its variables.
    """
    for t in cls:
        if isinstance(t, GroundTerm):
            return _Residual((t,), (t,))
    domain = next(iter(cls)).domain
    return _Residual(domain.values, domain)


_sat_cache: dict = {}


def satisfiable(f: ConstraintFormula) -> bool:
    """Exact satisfiability over the variables' finite domains.

    Closure and unit propagation first, then a greedy distinct-value
    assignment (smallest residual domain first); greedy success is a
    witness.  On greedy failure an exhaustive backtracking search runs,
    bounded by EXHAUSTIVE_LIMIT.

    Residual domains are a domain minus a set of excluded values, never
    listed, so the cost does not depend on domain size unless the
    backtracking fallback runs.
    """
    cached = _sat_cache.get(f.atoms)
    if cached is None:
        cached = _sat_cache[f.atoms] = _satisfiable(f)
    return cached


def _satisfiable(f: ConstraintFormula) -> bool:
    g = f.graph()
    if g.contradiction:
        return False
    if not g.classes:
        return True

    residuals = [_residual(cls) for cls in g.classes]
    neighbors = {i: set() for i in range(len(g.classes))}
    for pair in g.neq_pairs:
        i, j = tuple(pair)
        neighbors[i].add(j)
        neighbors[j].add(i)

    # Unit propagation: a singleton class removes its value from every
    # neq-neighbor, possibly creating new singletons.
    fixed = {}
    queue = [i for i, r in enumerate(residuals) if len(r) == 1]
    while queue:
        i = queue.pop()
        if i in fixed:
            continue
        if not residuals[i]:
            return False
        fixed[i] = residuals[i].first()
        for j in neighbors[i]:
            if j in fixed:
                if fixed[j] == fixed[i]:
                    return False
                continue
            if fixed[i] in residuals[j]:
                residuals[j].excluded.add(fixed[i])
                if not residuals[j]:
                    return False
                if len(residuals[j]) == 1:
                    queue.append(j)

    open_classes = [i for i in range(len(g.classes)) if i not in fixed]
    if not open_classes:
        return True
    if any(not residuals[i] for i in open_classes):
        return False

    # Greedy witness: assign classes in ascending residual-domain order,
    # avoiding values taken by already-assigned neq-neighbors.
    order = sorted(open_classes, key=lambda i: (len(residuals[i]), i))
    chosen = {}
    for i in order:
        taken = {chosen[j] for j in neighbors[i] if j in chosen}
        pick = residuals[i].first(taken)
        if pick is None:
            break
        chosen[i] = pick
    else:
        return True

    # Complete fallback: backtracking over the residual product.
    space = 1
    for i in open_classes:
        space *= len(residuals[i])
        if space > EXHAUSTIVE_LIMIT:
            raise SolverLimitError(
                f"residual search space exceeds {EXHAUSTIVE_LIMIT} assignments"
            )
    candidates = {i: residuals[i].values() for i in open_classes}

    def search(pos, assigned):
        if pos == len(order):
            return True
        i = order[pos]
        taken = {assigned[j] for j in neighbors[i] if j in assigned}
        for v in candidates[i]:
            if v in taken:
                continue
            assigned[i] = v
            if search(pos + 1, assigned):
                return True
            del assigned[i]
        return False

    return search(0, {})


def compatible(f: ConstraintFormula, g: ConstraintFormula) -> bool:
    """True iff the conjunction of the two formulas is satisfiable."""
    return satisfiable(f.conjoin(g))


def entails(f: ConstraintFormula, atom: AtomicConstraint) -> bool:
    """f entails atom iff f plus the negated atom is unsatisfiable."""
    return not satisfiable(f.conjoin(atom.negated()))


def negate(f: ConstraintFormula) -> list[ConstraintFormula]:
    """Negation as a pairwise mutually exclusive list of formulas.

    With atoms b1..bn in canonical order the cover is
    [{not b1}, {b1, not b2}, ..., {b1..b(n-1), not bn}]; members that are
    unsatisfiable are dropped.
    """
    atoms = f.sorted_atoms()
    out = []
    for i, atom in enumerate(atoms):
        member = ConstraintFormula(list(atoms[:i]) + [atom.negated()])
        if satisfiable(member):
            out.append(member)
    return out


def solutions(f: ConstraintFormula, x: Var, partial: ConstraintFormula = TRUE):
    """Values v of x's domain such that f & partial & {x=v} is satisfiable.

    When partial grounds every other variable of f the check per value is
    a direct evaluation; otherwise it falls back to satisfiability.
    """
    bound = {}
    for atom in partial.atoms:
        if atom.polarity == EQ and isinstance(atom.rhs, GroundTerm):
            bound[atom.lhs] = atom.rhs
    others = [v for v in f.variables() if v != x]
    if all(v in bound for v in others) and all(
        a.polarity == EQ and isinstance(a.rhs, GroundTerm) for a in partial.atoms
    ):
        out = set()
        if x in bound:
            candidates = [bound[x]] if bound[x] in x.domain else []
        else:
            candidates = x.domain.values
        for v in candidates:
            env = dict(bound)
            env[x] = v
            if f.holds(env):
                out.add(v)
        return out
    conj = f.conjoin(partial)
    return {
        v for v in x.domain.values if satisfiable(conj.conjoin(eq(x, v)))
    }


def is_saturated(f: ConstraintFormula) -> bool:
    """Saturation: for each Var X, its neq-neighborhood is pairwise
    connected by some edge (pairs of two constants exempt).

    A variable that is eq-connected to anything has exactly one solution
    under every grounding, so the neighborhood condition is waived for
    it; without the waiver the condition would reject formulas such as
    {Z = c, X != Z, Y != Z} whose solution counts are nevertheless
    constant.
    """
    g = f.graph()
    if g.contradiction:
        raise ValueError("saturation is only defined for satisfiable formulas")
    for v in f.variables():
        vi = g.class_index[v]
        if len(g.classes[vi]) > 1:
            continue  # pinned or aliased: always exactly one solution
        neighbor_classes = g.neq_neighbor_classes(vi)
        zone = [t for ci in neighbor_classes for t in g.classes[ci]]
        for a, b in itertools.combinations(zone, 2):
            if isinstance(a, GroundTerm) and isinstance(b, GroundTerm):
                continue
            ia, ib = g.class_index[a], g.class_index[b]
            if ia == ib:
                continue  # eq edge
            if frozenset((ia, ib)) not in g.neq_pairs:
                return False
    return True


def measure(f: ConstraintFormula, x: Var) -> Optional[int]:
    """The constant solution count of x under f, or None if not saturated.

    For saturated formulas: 1 when x is eq-connected to anything, else
    the domain size minus the number of distinct eq-classes among x's
    neq-neighbors.
    """
    if not satisfiable(f):
        raise ValueError("measure is only defined for satisfiable formulas")
    if not is_saturated(f):
        return None
    g = f.graph()
    if x not in g.class_index:
        return x.domain.size
    xi = g.class_index[x]
    if len(g.classes[xi]) > 1:
        return 1
    return x.domain.size - len(g.neq_neighbor_classes(xi))
