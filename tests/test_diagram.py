"""Diagram algebra: validation, combination, application, rewriting,
grounding, canonicalization."""

import random

import pytest

from osdd.constraints import TRUE, eq, formula, neq, satisfiable
from osdd.diagram import (
    ONE,
    SwitchInstance,
    SwitchRef,
    ZERO,
    apply_constraint,
    bound_vars,
    canonical_instance_var,
    canonicalize,
    combine,
    free_vars,
    ground,
    make_node,
    mdd_combine,
    node_count,
    normalize,
    osdd_and,
    osdd_or,
    path_formulas,
    to_proper,
    validate,
)
from osdd.errors import DiagramError
from osdd.terms import GroundTerm, Var, domain_of_symbols

from conftest import instance_chain, mdd_accepts, msw_node, random_proper_diagram

DOM = domain_of_symbols("letters", ["a", "b", "c"])
DOM2 = domain_of_symbols("bits", ["a", "b"])
A, B, C = GroundTerm("a"), GroundTerm("b"), GroundTerm("c")


def si(name, k):
    return SwitchInstance(SwitchRef(name), GroundTerm(k))


@pytest.fixture()
def shared_entangled():
    """Three instances over one domain, where two diagrams constrain a
    shared third variable: combining them forces an implicit relation."""
    s = SwitchRef("w")
    x = canonical_instance_var(s, GroundTerm(1), DOM)
    y = canonical_instance_var(s, GroundTerm(2), DOM)
    z = canonical_instance_var(s, GroundTerm(3), DOM)
    left = osdd_and(
        msw_node(si("w", 1), x),
        msw_node(si("w", 3), z, formula(eq(z, x))),
    )
    right = osdd_and(
        msw_node(si("w", 2), y),
        msw_node(si("w", 3), z, formula(eq(z, y))),
    )
    return left, right, (x, y, z)


class TestValidate:
    def test_leaf_is_proper(self):
        assert validate(ONE) == []
        assert validate(ZERO) == []

    def test_collision_diagram_is_proper(self):
        x = canonical_instance_var(SwitchRef("v"), GroundTerm(1), DOM)
        y = canonical_instance_var(SwitchRef("v"), GroundTerm(2), DOM)
        inner = make_node(
            si("v", 2), y, [(formula(eq(x, y)), ONE), (formula(neq(x, y)), ZERO)]
        )
        d = make_node(si("v", 1), x, [(TRUE, inner)])
        assert validate(d) == []

    def test_shared_variable_conjunction_violates_explicit_constraints(self):
        s = SwitchRef("s")
        x = canonical_instance_var(s, GroundTerm(1), DOM)
        y = canonical_instance_var(s, GroundTerm(2), DOM)
        z = canonical_instance_var(s, GroundTerm(3), DOM)
        znode = make_node(
            si("s", 3),
            z,
            [
                (formula(eq(z, x), eq(z, y)), ONE),
                (formula(eq(z, x), neq(z, y)), ONE),
                (formula(neq(z, x), eq(z, y)), ONE),
                (formula(neq(z, x), neq(z, y)), ZERO),
            ],
        )
        d = make_node(
            si("s", 1), x, [(TRUE, make_node(si("s", 2), y, [(TRUE, znode)]))]
        )
        violations = validate(d)
        assert len(violations) == 1
        assert violations[0].condition == "explicit-constraints"
        assert "(s, 3)" in violations[0].node

    def test_ordering_violation_detected(self):
        s = SwitchRef("s")
        x = canonical_instance_var(s, GroundTerm(5), DOM)
        y = canonical_instance_var(s, GroundTerm(4), DOM)
        child = make_node(si("s", 4), y, [(TRUE, ONE)])
        d = make_node(si("s", 5), x, [(TRUE, child)])
        assert any(v.condition == "ordering" for v in validate(d))

    def test_mutual_exclusion_violation_detected(self):
        s = SwitchRef("m")
        x = canonical_instance_var(s, GroundTerm(1), DOM)
        d = make_node(
            si("m", 1), x, [(formula(eq(x, A)), ONE), (TRUE, ZERO)]
        )
        assert any(v.condition == "mutual-exclusion" for v in validate(d))

    def test_completeness_violation_detected(self):
        s = SwitchRef("c")
        x = canonical_instance_var(s, GroundTerm(1), DOM)
        d = make_node(
            si("c", 1), x, [(formula(eq(x, A)), ONE), (formula(eq(x, B)), ZERO)]
        )
        assert any(v.condition == "completeness" for v in validate(d))


class TestCombine:
    def test_leaf_identities(self):
        x = canonical_instance_var(SwitchRef("v"), GroundTerm(1), DOM)
        node = msw_node(si("v", 1), x)
        assert osdd_and(ONE, node) is node
        assert osdd_and(ZERO, node) is ZERO
        assert osdd_or(ZERO, node) is node
        assert osdd_or(ONE, node) is ONE

    def test_disjunction_of_pair_diagrams(self):
        s = SwitchRef("p")
        x1 = canonical_instance_var(s, GroundTerm(1), DOM)
        x2 = canonical_instance_var(s, GroundTerm(2), DOM)
        x3 = canonical_instance_var(s, GroundTerm(3), DOM)
        pair12 = osdd_and(
            msw_node(si("p", 1), x1),
            msw_node(si("p", 2), x2, formula(eq(x2, x1))),
        )
        pair13 = osdd_and(
            msw_node(si("p", 1), x1),
            msw_node(si("p", 3), x3, formula(eq(x3, x1))),
        )
        merged = normalize(osdd_or(pair12, pair13))
        expected_inner3 = make_node(
            si("p", 3),
            x3,
            [(formula(eq(x1, x3)), ONE), (formula(neq(x1, x3)), ZERO)],
        )
        expected_inner2 = make_node(
            si("p", 2),
            x2,
            [(formula(eq(x1, x2)), ONE), (formula(neq(x1, x2)), expected_inner3)],
        )
        expected = make_node(si("p", 1), x1, [(TRUE, expected_inner2)])
        assert merged is normalize(expected)

    def test_commutative_and_associative_up_to_canonical_form(self):
        rng = random.Random(5)
        chain = instance_chain("ca", DOM, 3)
        for _ in range(12):
            a = random_proper_diagram(rng, chain)
            b = random_proper_diagram(rng, chain)
            c = random_proper_diagram(rng, chain)
            for op in ("and", "or"):
                ab = to_proper(combine(a, b, op))
                ba = to_proper(combine(b, a, op))
                assert ab is ba
                left = to_proper(combine(combine(a, b, op), c, op))
                right = to_proper(combine(a, combine(b, c, op), op))
                assert left is right

    def test_grounding_compatibility_on_random_pairs(self):
        rng = random.Random(11)
        chain = instance_chain("gc", DOM, 3)
        for _ in range(25):
            a = random_proper_diagram(rng, chain)
            b = random_proper_diagram(rng, chain)
            for op in ("and", "or"):
                assert ground(combine(a, b, op)) is mdd_combine(
                    ground(a), ground(b), op
                )


class TestApplyConstraint:
    def test_leaves_unchanged(self):
        x = canonical_instance_var(SwitchRef("v"), GroundTerm(1), DOM)
        assert apply_constraint(ONE, eq(x, A)) is ONE
        assert apply_constraint(ZERO, eq(x, A)) is ZERO
        d = msw_node(si("v", 1), x)
        applied = apply_constraint(d, eq(x, A))
        for _, child in applied.edges:
            assert child in (ONE, ZERO)

    def test_equality_across_two_nodes(self):
        s = SwitchRef("f")
        x1 = canonical_instance_var(s, GroundTerm(1), DOM2)
        x2 = canonical_instance_var(s, GroundTerm(2), DOM2)
        plain = osdd_and(msw_node(si("f", 1), x1), msw_node(si("f", 2), x2))
        applied = normalize(apply_constraint(plain, eq(x1, x2)))
        expected = make_node(
            si("f", 1),
            x1,
            [
                (
                    TRUE,
                    make_node(
                        si("f", 2),
                        x2,
                        [
                            (formula(eq(x1, x2)), ONE),
                            (formula(neq(x1, x2)), ZERO),
                        ],
                    ),
                )
            ],
        )
        assert applied is normalize(expected)
        # Grounding oracle over {a, b}: accepted worlds are the diagonal.
        sref = SwitchRef("f")
        accepted = {
            (va.symbol, vb.symbol)
            for va in DOM2.values
            for vb in DOM2.values
            if mdd_accepts(
                ground(applied),
                {
                    (sref, GroundTerm(1)): va,
                    (sref, GroundTerm(2)): vb,
                },
            )
        }
        assert accepted == {("a", "a"), ("b", "b")}

    def test_constant_constraint_on_single_node(self):
        x = canonical_instance_var(SwitchRef("g"), GroundTerm(1), DOM)
        d = msw_node(si("g", 1), x)
        applied = apply_constraint(d, eq(x, A))
        assert [(str(g), c.value) for g, c in applied.edges] == [
            ("X = a".replace("X", str(x)), 1),
            (f"{x} != a", 0),
        ]

    def test_unbound_variable_rejected(self):
        x = canonical_instance_var(SwitchRef("g"), GroundTerm(1), DOM)
        other = Var("Q", DOM)
        d = msw_node(si("g", 1), x)
        with pytest.raises(DiagramError):
            apply_constraint(d, eq(other, A))


class TestToProper:
    def test_entangled_conjunction_becomes_proper(self, shared_entangled):
        left, right, (x, y, z) = shared_entangled
        raw = combine(left, right, "and")
        assert any(v.condition == "explicit-constraints" for v in validate(raw))
        fixed = to_proper(raw)
        assert validate(fixed) == []
        assert ground(fixed) is ground(raw)

    def test_proper_input_is_fixpoint(self):
        rng = random.Random(3)
        chain = instance_chain("fx", DOM, 3)
        for _ in range(10):
            d = random_proper_diagram(rng, chain)
            assert to_proper(d) is d

    def test_randomized_combinations_preserve_grounding(self):
        rng = random.Random(17)
        chain = instance_chain("rg", DOM, 3)
        for _ in range(20):
            a = random_proper_diagram(rng, chain)
            b = random_proper_diagram(rng, chain)
            raw = combine(a, b, "and")
            assert ground(to_proper(raw)) is ground(raw)


class TestGround:
    def test_leaves(self):
        assert ground(ONE).value == 1
        assert ground(ZERO).value == 0

    def test_sibling_values_enumerate_domain(self):
        rng = random.Random(23)
        chain = instance_chain("en", DOM, 3)
        for _ in range(10):
            d = random_proper_diagram(rng, chain)
            mdd = ground(d)
            stack = [mdd]
            seen = set()
            while stack:
                node = stack.pop()
                if node.is_leaf or id(node) in seen:
                    continue
                seen.add(id(node))
                values = [v for v, _ in node.edges]
                assert values == list(node.out.domain.values)
                stack.extend(c for _, c in node.edges)

    def test_toy_collision_grounding_matches_enumeration(self):
        s = SwitchRef("t")
        x1 = canonical_instance_var(s, GroundTerm(1), DOM)
        x2 = canonical_instance_var(s, GroundTerm(2), DOM)
        x3 = canonical_instance_var(s, GroundTerm(3), DOM)
        d = ONE
        for k, var in ((1, x1), (2, x2), (3, x3)):
            d = normalize(osdd_and(d, msw_node(si("t", k), var)))
        pairs = [
            formula(eq(x1, x2)),
            formula(eq(x1, x3)),
            formula(eq(x2, x3)),
        ]
        collision = ZERO
        for k, var, f in ((2, x2, pairs[0]), (3, x3, pairs[1]), (3, x3, pairs[2])):
            collision = normalize(
                osdd_or(collision, apply_constraint(d, list(f.atoms)[0]))
            )
        collision = to_proper(collision)
        mdd = ground(collision)
        import itertools

        hits = 0
        for combo in itertools.product(DOM.values, repeat=3):
            world = {
                (s, GroundTerm(1)): combo[0],
                (s, GroundTerm(2)): combo[1],
                (s, GroundTerm(3)): combo[2],
            }
            expect = len(set(combo)) < 3
            assert mdd_accepts(mdd, world) == expect
            hits += expect
        assert hits == 27 - 6  # all but the 3! distinct-value worlds


class TestCanonicalize:
    def test_idempotent(self):
        rng = random.Random(29)
        chain = instance_chain("id", DOM, 3)
        for _ in range(10):
            d = random_proper_diagram(rng, chain)
            assert canonicalize(canonicalize(d)) is canonicalize(d)

    def test_merges_renamed_subtrees(self):
        s = SwitchRef("mg")
        x = canonical_instance_var(s, GroundTerm(1), DOM)
        y1 = Var("Y1", DOM)
        y2 = Var("Y2", DOM)
        sub1 = make_node(
            si("mg", 2), y1, [(formula(eq(x, y1)), ONE), (formula(neq(x, y1)), ZERO)]
        )
        sub2 = make_node(
            si("mg", 2), y2, [(formula(eq(x, y2)), ONE), (formula(neq(x, y2)), ZERO)]
        )
        assert sub1 is sub2

    def test_interning_shares_across_branches(self):
        s = SwitchRef("sh")
        x = canonical_instance_var(s, GroundTerm(1), DOM2)
        y = canonical_instance_var(s, GroundTerm(2), DOM2)
        tail = make_node(
            si("sh", 2), y, [(formula(eq(x, y)), ONE), (formula(neq(x, y)), ZERO)]
        )
        d = make_node(
            si("sh", 1),
            x,
            [(formula(eq(x, A)), tail), (formula(neq(x, A)), tail)],
        )
        assert node_count(d) == 2

    def test_interning_keys_on_domain_values(self):
        # Equal value tuples share nodes whichever domain object carries
        # them; a different tuple, even a reordering, never does.
        same = domain_of_symbols("letters-again", ["a", "b", "c"])
        reordered = domain_of_symbols("letters-reordered", ["c", "b", "a"])

        def unconstrained(dom):
            return make_node(si("dk", 1), Var("Y", dom), [(TRUE, ONE)])

        assert unconstrained(same) is unconstrained(DOM)
        assert unconstrained(reordered) is not unconstrained(DOM)
        assert unconstrained(DOM2) is not unconstrained(DOM)


class TestVariableSets:
    def test_closed_diagram_has_no_free_variables(self, shared_entangled):
        left, right, _ = shared_entangled
        d = to_proper(combine(left, right, "and"))
        assert free_vars(d) == frozenset()

    def test_subdiagram_reports_free_variables(self):
        s = SwitchRef("fv")
        z = Var("Z", DOM)
        x = canonical_instance_var(s, GroundTerm(1), DOM)
        d = make_node(
            si("fv", 1), x, [(formula(eq(x, z)), ONE), (formula(neq(x, z)), ZERO)]
        )
        assert free_vars(d) == {z}
        assert bound_vars(d) == {x}

    def test_pair_diagram_bound_vars(self, shared_entangled):
        left, _, (x, _, z) = shared_entangled
        assert bound_vars(left) == {x, z}


def test_every_path_formula_of_a_proper_diagram_is_satisfiable():
    rng = random.Random(31)
    chain = instance_chain("pf", DOM, 3)
    for _ in range(15):
        d = random_proper_diagram(rng, chain)
        for value, acc in path_formulas(d):
            assert satisfiable(acc)


def test_combinations_of_proper_diagrams_stay_proper():
    rng = random.Random(37)
    chain = instance_chain("cl", DOM, 3)
    for _ in range(20):
        a = random_proper_diagram(rng, chain)
        b = random_proper_diagram(rng, chain)
        for op in ("and", "or"):
            result = to_proper(combine(a, b, op))
            assert validate(result) == []
