"""Constraint core: closure, satisfiability, negation, keys, measures."""

import itertools

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from osdd.constraints import (
    EQ,
    EXHAUSTIVE_LIMIT,
    NEQ,
    AtomicConstraint,
    ConstraintFormula,
    TRUE,
    canonical_key,
    close,
    compatible,
    eq,
    formula,
    is_saturated,
    measure,
    negate,
    neq,
    satisfiable,
    solutions,
    substitution,
)
from osdd.diagram import _restrict, osdd_and, to_proper
from osdd.engine import EvalSession
from osdd.errors import SolverLimitError
from osdd.oracle import random_program
from osdd.terms import GroundTerm, Var, domain_of_symbols, term_key

from conftest import all_assignments, models, non_measurable_diagram

D3 = domain_of_symbols("t3", ["a", "b", "c"])
D2 = domain_of_symbols("t2", ["a", "b"])
D4 = domain_of_symbols("t4", ["a", "b", "c", "d"])
D365 = domain_of_symbols("days", range(1, 366))

A, B, C = GroundTerm("a"), GroundTerm("b"), GroundTerm("c")


def v3(name):
    return Var(name, D3)


class TestClose:
    def test_transitive_closure(self):
        x, y, z = v3("X"), v3("Y"), v3("Z")
        g = close(formula(eq(x, y), eq(y, z)))
        pairs = {frozenset(e) for e in g.eq_edges()}
        assert pairs == {
            frozenset((x, y)),
            frozenset((y, z)),
            frozenset((x, z)),
        }

    def test_neq_propagates_over_equality(self):
        x, y, z = v3("X"), v3("Y"), v3("Z")
        f = formula(eq(x, y), neq(y, z))
        # Independent check: X != Z holds in every model over a 3-value
        # domain.
        for m in models(f, [x, y, z]):
            assert m[x] != m[z]
        g = close(f)
        assert frozenset((x, z)) in {frozenset(e) for e in g.neq_edges()}

    def test_distinct_constants_contradict(self):
        x = v3("X")
        assert close(formula(eq(x, A), eq(x, B))).contradiction

    def test_pinned_variable_unequal_to_other_constants(self):
        x, y = v3("X"), v3("Y")
        g = close(formula(eq(x, A), eq(y, B)))
        neqs = {frozenset(e) for e in g.neq_edges()}
        assert frozenset((x, y)) in neqs
        assert frozenset((x, B)) in neqs

    def test_closure_idempotent(self):
        x, y, z = v3("X"), v3("Y"), v3("Z")
        f = formula(eq(x, y), neq(y, z), eq(z, A))
        g = close(f)
        reclosed = close(ConstraintFormula(g.entailed_atoms()))
        assert g.edge_triples() == reclosed.edge_triples()


class TestSatisfiable:
    def test_single_disequality_two_values(self):
        x, y = Var("X", D2), Var("Y", D2)
        assert satisfiable(formula(neq(x, y)))

    def test_three_clique_two_values(self):
        x, y, z = Var("X", D2), Var("Y", D2), Var("Z", D2)
        f = formula(neq(x, y), neq(y, z), neq(x, z))
        assert not satisfiable(f)
        assert not models(f, [x, y, z])  # all 8 assignments fail

    def test_three_clique_large_domain(self):
        x1, x2, x3 = Var("X1", D365), Var("X2", D365), Var("X3", D365)
        assert satisfiable(formula(neq(x1, x3), neq(x2, x3), neq(x1, x2)))

    def test_pinning_prunes(self):
        x, y = v3("X"), v3("Y")
        assert not satisfiable(formula(eq(x, A), eq(x, y), neq(y, A)))

    def test_greedy_failure_falls_back_to_search(self):
        # Greedy assigns M0 = M1 = a, then M2 = b, and finds nothing left
        # for M3; the path is still 2-colourable.
        m = [Var(f"M{i}", D2) for i in range(4)]
        f = formula(neq(m[0], m[3]), neq(m[1], m[2]), neq(m[2], m[3]))
        assert satisfiable(f)
        assert models(f, m)

    def test_free_variable_avoids_pinned_variables_large_domain(self):
        pinned = [Var(f"P{k}", D365) for k in range(1, 6)]
        y = Var("Y", D365)
        atoms = [eq(p, GroundTerm(k)) for k, p in enumerate(pinned, 1)]
        atoms += [neq(y, p) for p in pinned]
        assert satisfiable(ConstraintFormula(atoms))
        assert not satisfiable(ConstraintFormula(atoms + [eq(y, GroundTerm(3))]))
        assert satisfiable(ConstraintFormula(atoms + [eq(y, GroundTerm(6))]))

    def test_free_variable_left_one_value_large_domain(self):
        y = Var("Y", D365)
        atoms = [neq(y, GroundTerm(d)) for d in range(1, 365)]
        assert satisfiable(ConstraintFormula(atoms))
        assert satisfiable(ConstraintFormula(atoms + [eq(y, GroundTerm(365))]))
        assert not satisfiable(ConstraintFormula(atoms + [neq(y, GroundTerm(365))]))


class TestSolverLimit:
    """The limit multiplies the open classes' residual sizes: a 5-clique
    of disequalities over 4 values has no solution, greedy fails on it,
    and each extra 4-value variable multiplies the search space by 4."""

    @staticmethod
    def clique_with_extras(extras):
        # The clique is created first, so its classes lead the search
        # order and the search refutes it without enumerating the extras.
        clique = [Var(f"K{i}", D4) for i in range(5)]
        chain = [Var(f"E{i}", D4) for i in range(extras)]
        atoms = [neq(a, b) for a, b in itertools.combinations(clique, 2)]
        atoms += [neq(a, b) for a, b in zip(chain, chain[1:])]
        return ConstraintFormula(atoms)

    def test_limit_sits_between_the_cases(self):
        assert 4**9 <= EXHAUSTIVE_LIMIT < 4**10

    @pytest.mark.parametrize("extras", [0, 4])
    def test_within_limit_returns_false(self, extras):
        assert not satisfiable(self.clique_with_extras(extras))

    def test_beyond_limit_raises(self):
        with pytest.raises(SolverLimitError):
            satisfiable(self.clique_with_extras(5))


class TestNegate:
    def test_single_equality(self):
        x = v3("X")
        assert negate(formula(eq(x, A))) == [formula(neq(x, A))]

    def test_two_atom_schema(self):
        x, y = v3("X"), v3("Y")
        f = formula(eq(x, A), eq(y, B))
        b1, b2 = f.sorted_atoms()
        assert negate(f) == [
            formula(b1.negated()),
            formula(b1, b2.negated()),
        ]

    def test_cover_is_exclusive_and_complete(self):
        x, y = v3("X"), v3("Y")
        f = formula(neq(x, y), eq(x, A))
        vs = [x, y]
        f_models = {tuple(m[v] for v in vs) for m in models(f, vs)}
        cover = set()
        member_models = []
        for member in negate(f):
            mm = {tuple(m[v] for v in vs) for m in models(member, vs)}
            member_models.append(mm)
            cover |= mm
        for m1, m2 in itertools.combinations(member_models, 2):
            assert not (m1 & m2)
        universe = {tuple(m[v] for v in vs) for m in all_assignments(vs)}
        assert cover == universe - f_models

    def test_unsatisfiable_members_dropped(self):
        x = v3("X")
        for member in negate(formula(eq(x, A), neq(x, B))):
            assert satisfiable(member)


class TestCanonicalKey:
    def test_symmetry(self):
        x, y = v3("X"), v3("Y")
        assert canonical_key(formula(eq(x, y))) == canonical_key(formula(eq(y, x)))

    def test_empty(self):
        assert canonical_key(TRUE) == b""

    def test_eq_sorts_before_neq(self):
        x, y = v3("X"), v3("Y")
        assert canonical_key(formula(eq(x, y))) < canonical_key(formula(neq(x, y)))

    def test_logically_equal_formulas_share_keys(self):
        x, y, z = v3("X"), v3("Y"), v3("Z")
        assert canonical_key(formula(eq(x, y), eq(y, z))) == canonical_key(
            formula(eq(x, z), eq(y, z))
        )

    def test_sorting_is_idempotent(self):
        x, y, z = v3("X"), v3("Y"), v3("Z")
        fs = [
            formula(neq(x, y)),
            formula(eq(x, y)),
            TRUE,
            formula(eq(x, z), neq(y, z)),
            formula(eq(x, A)),
        ]
        once = sorted(fs, key=canonical_key)
        assert sorted(once, key=canonical_key) == once


class TestHashConsing:
    def test_equal_atom_sets_are_one_formula(self):
        x, y = v3("X"), v3("Y")
        a, b = eq(x, A), neq(y, x)
        assert ConstraintFormula([a, b]) is ConstraintFormula((b, a))
        assert formula(eq(x, y)) is formula(eq(y, x))

    def test_empty_formula_is_true(self):
        x = v3("X")
        assert ConstraintFormula() is TRUE
        assert formula(eq(x, A)).without(eq(x, A)) is TRUE

    def test_conjoin_commutes_to_one_object(self):
        x, y, z = v3("X"), v3("Y"), v3("Z")
        f = formula(eq(x, y), neq(z, A))
        g = formula(neq(y, z), eq(x, B))
        assert f.conjoin(g) is g.conjoin(f)
        assert f.conjoin(g).without(eq(x, B)).without(neq(y, z)) is f

    def test_key_and_satisfiability_are_kept_on_the_formula(self):
        x, y = v3("X"), v3("Y")
        f = formula(eq(x, y), neq(y, A))
        assert satisfiable(f) and f.key() == canonical_key(f)
        g = formula(neq(y, A), eq(x, y))
        assert g._sat is True and g._key == f.key()
        assert g._graph is None  # only graph() keeps a closure graph

    def test_variables_are_equal_only_to_themselves(self):
        x, twin = Var("X", D3), Var("X", D3)
        assert x == x and x != twin
        assert len({x, twin}) == 2
        assert formula(eq(x, A)) is not formula(eq(twin, A))


class TestSolutions:
    def test_equality_projection(self):
        x, y = v3("X"), v3("Y")
        assert solutions(formula(eq(x, y)), x, substitution({y: A})) == {A}

    def test_two_exclusions_large_domain(self):
        x1, x2, x3 = Var("X1", D365), Var("X2", D365), Var("X3", D365)
        f = formula(neq(x1, x3), neq(x2, x3))
        partial = substitution({x1: GroundTerm(1), x2: GroundTerm(2)})
        assert len(solutions(f, x3, partial)) == 363

    def test_exclusion_with_constant(self):
        x, y = v3("X"), v3("Y")
        f = formula(neq(x, y), neq(x, A))
        assert solutions(f, x, substitution({y: A})) == {B, C}


class TestSaturationAndMeasure:
    def test_singleton_neighborhood(self):
        x, y = v3("X"), v3("Y")
        assert is_saturated(formula(neq(x, y)))

    def test_unconnected_neighbors(self):
        x, y, z = v3("X"), v3("Y"), v3("Z")
        assert not is_saturated(formula(neq(x, y), neq(x, z)))

    def test_triangle_saturated_and_constant_count(self):
        x, y, z = [Var(n, D4) for n in "XYZ"]
        f = formula(neq(x, y), neq(x, z), neq(y, z))
        assert is_saturated(f)
        counts = set()
        for asg in all_assignments([y, z]):
            part = substitution(asg)
            if compatible(f, part):
                counts.add(len(solutions(f, x, part)))
        assert counts == {2}
        assert measure(f, x) == 2

    def test_equality_measure_is_one(self):
        x1, x2, x3 = Var("X1", D365), Var("X2", D365), Var("X3", D365)
        assert measure(formula(neq(x1, x3), eq(x2, x3)), x3) == 1

    def test_collision_tail_measure(self):
        x1, x2, x3 = Var("X1", D365), Var("X2", D365), Var("X3", D365)
        f = formula(neq(x1, x3), neq(x2, x3), neq(x1, x2))
        assert measure(f, x3) == 363

    def test_constant_exclusions(self):
        w = Var("W", D4)
        assert measure(formula(neq(w, GroundTerm("a")), neq(w, GroundTerm("b"))), w) == 2

    def test_not_measurable_returns_none(self):
        x, y, z = v3("X"), v3("Y"), v3("Z")
        assert measure(formula(neq(x, y), neq(x, z)), x) is None

    def test_unconstrained_variable_measure_is_domain_size(self):
        x = v3("X")
        assert measure(TRUE, x) == 3


class TestCompatible:
    def test_contradictory(self):
        x = v3("X")
        assert not compatible(formula(eq(x, A)), formula(neq(x, A)))

    def test_empty_with_anything(self):
        x, y = v3("X"), v3("Y")
        assert compatible(TRUE, formula(neq(x, y)))

    def test_distinct_constants(self):
        x, y = v3("X"), v3("Y")
        assert compatible(formula(neq(x, y)), formula(eq(x, A), eq(y, B)))


# ---------------------------------------------------------------------------
# Property tests over randomized formulas


def _formula_strategy(n_vars=3, domain=D4):
    variables = [Var(f"H{i}", domain) for i in range(n_vars)]

    def build(picks):
        atoms = []
        for i, j, pol in picks:
            lhs = variables[i]
            rhs = variables[j] if j < n_vars else domain.values[j - n_vars]
            if isinstance(rhs, Var) and rhs == lhs:
                continue
            atoms.append(AtomicConstraint(lhs, rhs, EQ if pol else NEQ))
        return ConstraintFormula(atoms), variables

    pick = st.tuples(
        st.integers(0, n_vars - 1),
        st.integers(0, n_vars + domain.size - 1),
        st.booleans(),
    )
    return st.lists(pick, max_size=5).map(build)


@settings(max_examples=150, deadline=None)
@given(_formula_strategy())
def test_satisfiable_matches_enumeration(case):
    f, variables = case
    assert satisfiable(f) == bool(models(f, variables))


# Domains of sizes 1-4 over shared prefix values, so constants relate
# variables of different domains; two size-2 domains are distinct objects
# over equal values.
MIXED_DOMAINS = [domain_of_symbols(f"m{k}", "abcd"[:k]) for k in range(1, 5)]
MIXED_DOMAINS.append(domain_of_symbols("m2b", "ab"))


@st.composite
def _mixed_formula(draw):
    """Three to five variables over one or two of the mixed domains, with
    mostly variable-variable disequalities, so the greedy witness can fail
    and leave the decision to the backtracking fallback."""
    pool = draw(st.lists(st.sampled_from(MIXED_DOMAINS), min_size=1, max_size=2))
    domains = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=5))
    variables = [Var(f"M{i}", d) for i, d in enumerate(domains)]
    atoms = []
    for _ in range(draw(st.integers(3, 10))):
        lhs = draw(st.sampled_from(variables))
        peers = [
            v for v in variables
            if v != lhs and v.domain.values == lhs.domain.values
        ]
        rhs = draw(st.sampled_from(3 * peers + list(lhs.domain.values)))
        polarity = draw(st.sampled_from([NEQ, NEQ, NEQ, EQ]))
        atoms.append(AtomicConstraint(lhs, rhs, polarity))
    return ConstraintFormula(atoms), variables


@settings(max_examples=300, deadline=None)
@given(_mixed_formula())
def test_satisfiable_matches_enumeration_mixed_domains(case):
    f, variables = case
    assert satisfiable(f) == bool(models(f, variables))


@settings(max_examples=100, deadline=None)
@given(_formula_strategy())
def test_negate_cover_property(case):
    f, variables = case
    f_models = {tuple(m[v] for v in variables) for m in models(f, variables)}
    universe = {tuple(m[v] for v in variables) for m in all_assignments(variables)}
    cover = set()
    member_sets = []
    for member in negate(f):
        mm = {tuple(m[v] for v in variables) for m in models(member, variables)}
        member_sets.append(mm)
        cover |= mm
    for m1, m2 in itertools.combinations(member_sets, 2):
        assert not (m1 & m2)
    assert cover == universe - f_models


@settings(max_examples=100, deadline=None)
@given(_formula_strategy())
def test_closure_graph_matches_entailment(case):
    f, variables = case
    g = close(f)
    sat_models = models(f, variables)
    if not sat_models:
        # A contradiction marker is only reported when closure finds it;
        # unsatisfiable-but-closure-quiet formulas are caught by the full
        # satisfiability procedure.
        assert not satisfiable(f)
        return
    assert not g.contradiction
    for atom in g.entailed_atoms():
        assert all(atom.holds(m) for m in sat_models)


@settings(max_examples=80, deadline=None)
@given(_formula_strategy())
def test_measure_agrees_with_counting(case):
    f, variables = case
    if not satisfiable(f):
        return
    for x in variables:
        m = measure(f, x)
        others = [v for v in variables if v != x]
        counts = set()
        for asg in all_assignments(others):
            part = substitution(asg)
            if not compatible(f, part):
                continue
            counts.add(len(solutions(f, x, part)))
        if m is not None:
            assert counts == {m}


# ---------------------------------------------------------------------------
# Neighbour sets against the term-pair saturation test of earlier versions


def neq_pairs(g):
    """The unordered class-index pairs that earlier versions stored as
    ``neq_pairs``, read off ``neighbors``."""
    return {frozenset((i, j)) for i, adj in enumerate(g.neighbors) for j in adj}


def neighbor_classes_by_pairs(pairs, idx):
    return {next(iter(pair - {idx})) for pair in pairs if idx in pair}


def is_saturated_by_term_pairs(f):
    """Reference: expand each lone variable's neighbour classes into
    terms and test every term pair against the pair set, exempting pairs
    of two constants and pairs inside one class."""
    g = f.graph()
    pairs = neq_pairs(g)
    for v in f.variables():
        vi = g.class_index[v]
        if len(g.classes[vi]) > 1:
            continue
        zone = [t for ci in neighbor_classes_by_pairs(pairs, vi) for t in g.classes[ci]]
        for a, b in itertools.combinations(zone, 2):
            if isinstance(a, GroundTerm) and isinstance(b, GroundTerm):
                continue
            ia, ib = g.class_index[a], g.class_index[b]
            if ia == ib:
                continue
            if frozenset((ia, ib)) not in pairs:
                return False
    return True


def measure_by_term_pairs(f, x):
    if not is_saturated_by_term_pairs(f):
        return None
    g = f.graph()
    if x not in g.class_index:
        return x.domain.size
    xi = g.class_index[x]
    if len(g.classes[xi]) > 1:
        return 1
    return x.domain.size - len(neighbor_classes_by_pairs(neq_pairs(g), xi))


def assert_neighbors_match_reference(f, extra=()):
    """``neighbors`` is symmetric and irreflexive, ``neq_edges`` yields
    each node pair of neighbouring classes once except pairs of two
    constants, and saturation and measures agree with the reference."""
    g = f.graph()
    for i, adj in enumerate(g.neighbors):
        assert i not in adj
        assert all(i in g.neighbors[j] for j in adj)
    edges = list(g.neq_edges())
    assert all(term_key(a) <= term_key(b) for a, b in edges)
    expected = {
        frozenset((a, b))
        for pair in neq_pairs(g)
        for i, j in [tuple(pair)]
        for a in g.classes[i]
        for b in g.classes[j]
        if not (isinstance(a, GroundTerm) and isinstance(b, GroundTerm))
    }
    assert len(edges) == len(expected)
    assert {frozenset(e) for e in edges} == expected
    assert is_saturated(f) == is_saturated_by_term_pairs(f)
    for x in f.variables() | set(extra):
        assert measure(f, x) == measure_by_term_pairs(f, x)


def node_path_conjunctions(d):
    """(output variable, restricted path conjoined with the edge label)
    for every edge of every (node, restricted path) pair of ``d``, the
    formulas ``measurability`` measures."""
    out = []
    walked = set()
    stack = [(d, TRUE)]
    while stack:
        n, path = stack.pop()
        if n.is_leaf:
            continue
        path = _restrict(path, n)
        if (n, path) in walked:
            continue
        walked.add((n, path))
        for label, child in n.edges:
            conj = path.conjoin(label)
            out.append((n.out, conj))
            stack.append((child, conj))
    return out


class TestNeighborSets:
    def test_pinned_classes_are_neighbors(self):
        # No atom relates X and Y; closure alone makes them neighbours.
        x, y = v3("X"), v3("Y")
        g = close(formula(eq(x, A), eq(y, B)))
        assert g.neighbors[g.class_index[x]] == {g.class_index[y]}
        assert g.neighbors[g.class_index[y]] == {g.class_index[x]}
        assert {frozenset(e) for e in g.neq_edges()} == {
            frozenset((x, y)), frozenset((x, B)), frozenset((y, A))
        }

    def test_saturation_over_pinned_neighbors(self):
        # X's neighbours are the classes of a and b, which closure makes
        # neighbours of each other; no pair exemption is needed.
        x = Var("X", D4)
        f = formula(neq(x, A), neq(x, B))
        assert is_saturated(f)
        assert measure(f, x) == 2
        assert_neighbors_match_reference(f)

    def test_birthday_chains(self, birthday_program):
        checked = 0
        for n in range(2, 17):
            d = EvalSession(birthday_program).query(f"same_birthday({n})")
            for out, conj in node_path_conjunctions(d):
                assert_neighbors_match_reference(conj, extra=(out,))
                checked += 1
        assert checked > 100

    def test_palindrome_joints(self, palindrome_program):
        for n in range(4, 15, 2):
            s = EvalSession(palindrome_program)
            joint = to_proper(
                osdd_and(s.query(f"query({n}, {n // 4})"), s.query(f"evidence({n})"))
            )
            for out, conj in node_path_conjunctions(joint):
                assert_neighbors_match_reference(conj, extra=(out,))

    def test_random_programs(self):
        for seed in range(200):
            program, _ = random_program(seed)
            d = EvalSession(program).query("q")
            for out, conj in node_path_conjunctions(d):
                assert_neighbors_match_reference(conj, extra=(out,))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        _formula_strategy(),
        _formula_strategy(n_vars=6, domain=D3),
        _formula_strategy(n_vars=4, domain=domain_of_symbols("t6", "abcdef")),
    )
)
def test_neighbors_match_term_pair_reference(case):
    f, _ = case
    if satisfiable(f):
        assert_neighbors_match_reference(f)


# ---------------------------------------------------------------------------
# Saturation by the atoms a label adds, against the test over every class


def assert_delta_saturation_matches(d):
    """Walk every (node, restricted path, edge) of ``d``.  A path restricted
    below a saturated conjunction is saturated, and when a path is
    saturated, testing only the label's atoms gives the full test's
    verdict on ``path & label``.  Returns the verdicts met."""
    verdicts = set()
    walked = set()
    stack = [(d, TRUE, True)]
    while stack:
        n, path, above_saturated = stack.pop()
        if n.is_leaf:
            continue
        path = _restrict(path, n)
        if (n, path) in walked:
            continue
        walked.add((n, path))
        saturated = is_saturated(path)
        if above_saturated:
            assert saturated, path
        for label, child in n.edges:
            conj = path.conjoin(label)
            if not satisfiable(conj):
                continue
            full = is_saturated(conj)
            if saturated:
                assert is_saturated(conj, added=label) == full, (path, label)
                verdicts.add(full)
            stack.append((child, conj, full))
    return verdicts


class TestDeltaSaturation:
    def test_birthday_chains(self, birthday_program):
        session = EvalSession(birthday_program)
        for n in range(2, 17):
            d = session.query(f"same_birthday({n})")
            assert assert_delta_saturation_matches(d) == {True}

    def test_palindrome_joints(self, palindrome_program):
        session = EvalSession(palindrome_program)
        for n in range(4, 15):
            joint = to_proper(osdd_and(
                session.query(f"query({n}, {n // 4})"),
                session.query(f"evidence({n})"),
            ))
            assert_delta_saturation_matches(joint)

    def test_random_programs(self):
        verdicts = set()
        for seed in range(200):
            program, _ = random_program(seed)
            verdicts |= assert_delta_saturation_matches(
                EvalSession(program).query("q")
            )
        assert verdicts == {True, False}

    def test_non_measurable_diagram(self, dom4):
        verdicts = assert_delta_saturation_matches(non_measurable_diagram(dom4))
        assert verdicts == {True, False}


_DELTA_ATOMS = _formula_strategy(n_vars=4)


@st.composite
def _saturated_and_label(draw):
    """A formula and a label over the same four variables."""
    (f, _), (label, _) = draw(_DELTA_ATOMS), draw(_DELTA_ATOMS)
    return f, label


def _delta_verdict(case):
    """The saturation of ``f & label`` when ``f`` is saturated and the
    conjunction satisfiable, after checking that the label's atoms alone
    give it; ``None`` otherwise."""
    f, label = case
    if not satisfiable(f) or not is_saturated(f):
        return None
    conj = f.conjoin(label)
    if not satisfiable(conj):
        return None
    full = is_saturated(conj)
    assert is_saturated(conj, added=label) == full, (f, label)
    return full


@settings(max_examples=300, deadline=None)
@given(_saturated_and_label())
def test_delta_saturation_matches_full_test(case):
    _delta_verdict(case)


def test_delta_saturation_small_scope_exhaustively():
    """Every formula and label of at most two atoms over three variables
    and the constants a and b of a three-value domain."""
    x, y, z = v3("X"), v3("Y"), v3("Z")
    atoms = [
        AtomicConstraint(lhs, rhs, pol)
        for lhs, rhs in [(x, y), (x, z), (y, z)] + [
            (v, t) for v in (x, y, z) for t in (A, B)
        ]
        for pol in (EQ, NEQ)
    ]
    small = [
        ConstraintFormula(c)
        for k in range(3)
        for c in itertools.combinations(atoms, k)
    ]
    verdicts = [_delta_verdict((f, label)) for f in small for label in small]
    assert {True, False} <= set(verdicts)


@pytest.mark.parametrize("verdict", [True, False])
def test_delta_saturation_cases_reach_both_verdicts(verdict):
    find(
        _saturated_and_label(),
        lambda case: _delta_verdict(case) is verdict,
        settings=settings(max_examples=2000, database=None),
    )
