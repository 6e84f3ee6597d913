"""Diagram algebra: validation, combination, application, rewriting,
grounding, canonicalization."""

import random

import pytest

from osdd import constraints as cf
from osdd import diagram
from osdd.constraints import AtomicConstraint, TRUE, eq, formula, neq, satisfiable
from osdd.diagram import (
    ONE,
    SwitchInstance,
    SwitchRef,
    ZERO,
    apply_constraint,
    bound_vars,
    canonical_instance_var,
    combine,
    free_vars,
    ground,
    has_live_leaf,
    internal_nodes,
    make_node,
    max_free_vars,
    mdd_combine,
    node_count,
    normalize,
    osdd_and,
    osdd_or,
    path_formulas,
    to_proper,
    validate,
)
from osdd.diagram_io import parse_osdd
from osdd.engine import EvalSession
from osdd.errors import DiagramError
from osdd.exact import measurability
from osdd.oracle import random_program
from osdd.terms import GroundTerm, Var, domain_of_symbols

from conftest import (
    instance_chain,
    mdd_accepts,
    msw_node,
    random_proper_diagram,
    run_fresh,
)

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


    def test_equal_roots_with_different_output_variables_rejected(self):
        p, q = Var("P", DOM), Var("Q", DOM)
        a = make_node(si("dv", 1), p, [(TRUE, ONE)])
        b = make_node(si("dv", 1), q, [(TRUE, ONE)])
        for op in ("and", "or"):
            with pytest.raises(DiagramError, match=r"\bP\b.*\bQ\b"):
                combine(a, b, op)


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


def apply_constraint_by_paths(d, beta):
    """Reference: the unmemoized walk that visits a node once per path."""
    needed = {v for v in beta.variables() if v in bound_vars(d)}
    members = cf.negate(cf.formula(beta))

    def walk(n, seen):
        if n.is_leaf:
            return n
        seen = seen | {n.out}
        if needed <= seen:
            edges = [
                (g.conjoin(beta), child)
                for g, child in n.edges
                if satisfiable(g.conjoin(beta))
            ]
            edges += [(m, ZERO) for m in members]
            return make_node(n.si, n.out, edges)
        return make_node(n.si, n.out, [(g, walk(c, seen)) for g, c in n.edges])

    return walk(d, set())


@pytest.mark.parametrize(
    "program, query",
    [
        ("palindrome", "query(8, 2)"),
        ("palindrome", "evidence(8)"),
        ("palindrome", "joint(8, 2)"),
        ("birthday", "same_birthday(3)"),
        ("toy_birthday", "same_birthday(4)"),
    ],
)
def test_apply_constraint_matches_path_walking_reference(
    program, query, request
):
    prog = request.getfixturevalue(f"{program}_program")
    session = EvalSession(prog)
    if query.startswith("joint"):
        d = to_proper(
            osdd_and(session.query("query(8, 2)"), session.query("evidence(8)"))
        )
    else:
        d = session.query(query)
    variables = sorted(bound_vars(d), key=lambda v: v.uid)
    betas = [eq(v, v.domain.values[0]) for v in variables]
    betas += [neq(v, v.domain.values[-1]) for v in variables]
    for i, x in enumerate(variables):
        for y in variables[i + 1 :]:
            betas += [eq(x, y), neq(x, y)]
    for beta in betas:
        assert apply_constraint(d, beta) is apply_constraint_by_paths(d, beta)


def test_apply_constraint_shared_node_under_different_bindings():
    # The (sn, 3) node is reached with Y bound on one path and not on the
    # other, so it must be rewritten on the first and left alone on the
    # second.
    x, y, z = (var for _, var in instance_chain("sn", DOM, 3))
    shared = make_node(si("sn", 3), z, [(TRUE, ONE)])
    middle = make_node(si("sn", 2), y, [(TRUE, shared)])
    d = make_node(
        si("sn", 1), x, [(formula(eq(x, A)), middle), (formula(neq(x, A)), shared)]
    )
    for beta in (eq(y, z), neq(y, z), eq(x, z)):
        assert apply_constraint(d, beta) is apply_constraint_by_paths(d, beta)
    rewritten = apply_constraint(d, eq(y, z))
    below = dict(rewritten.edges)
    assert below[formula(neq(x, A))] is shared
    assert below[formula(eq(x, A))].edges[0][1] is not shared


def signature_by_renaming(d, env, cache):
    """Reference: the structural fingerprint interning used to key on,
    invariant under renaming of the diagram's own output variables.
    ``env`` maps enclosing bound variables to de Bruijn style indices;
    free variables serialize by identity."""
    if d.is_leaf:
        return ("leaf", d.value)
    relevant = (
        id(d),
        len(env),
        tuple(sorted((v.uid, env[v]) for v in free_vars(d) if v in env)),
    )
    if relevant in cache:
        return cache[relevant]

    def term(t):
        if isinstance(t, Var):
            return ("b", str(inner[t])) if t in inner else ("f", str(t.uid))
        return ("g", repr(t.symbol))

    inner = dict(env)
    inner[d.out] = len(env)
    parts = []
    for label, child in d.edges:
        atoms = []
        for a in label.sorted_atoms():
            ends = sorted((term(a.lhs), term(a.rhs)))
            atoms.append((ends[0], ends[1], a.polarity))
        child_sig = signature_by_renaming(child, inner, cache)
        parts.append((tuple(sorted(atoms)), child_sig))
    sig = ("node", d.si.sort_key(), d.out.domain.values_id, tuple(parts))
    cache[relevant] = sig
    return sig


def test_interning_by_child_identity_matches_renaming_signature(
    palindrome_program, birthday_program, toy_birthday_program
):
    # Over every internal node the suites build from programs and random
    # combinations, two nodes share a renaming-invariant signature exactly
    # when they are one object.
    palindrome = EvalSession(palindrome_program)
    diagrams = [
        palindrome.query("query(8, 2)"),
        palindrome.query("evidence(8)"),
        to_proper(
            osdd_and(palindrome.query("query(8, 2)"), palindrome.query("evidence(8)"))
        ),
        EvalSession(birthday_program).query("same_birthday(3)"),
        EvalSession(toy_birthday_program).query("same_birthday(4)"),
    ]
    rng = random.Random(41)
    chain = instance_chain("ri", DOM, 3)
    for _ in range(20):
        a = random_proper_diagram(rng, chain)
        b = random_proper_diagram(rng, chain)
        diagrams += [a, b, to_proper(combine(a, b, "and"))]
    cache = {}
    by_signature = {}
    nodes = {id(n): n for d in diagrams for n in internal_nodes(d)}
    for n in nodes.values():
        sig = signature_by_renaming(n, {}, cache)
        assert by_signature.setdefault(sig, n) is n
    assert len(nodes) > 100


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


class TestNodeStatistics:
    @pytest.mark.parametrize(
        "which, nodes, max_free, live",
        [
            ("same_birthday(3)", 3, 2, True),
            ("evidence(6)", 6, 3, True),
            ("ZERO", 0, 0, False),
            ("ONE", 0, 0, True),
        ],
    )
    def test_pinned_statistics(
        self, which, nodes, max_free, live, birthday_program, palindrome_program
    ):
        if which == "ZERO":
            d = ZERO
        elif which == "ONE":
            d = ONE
        elif which.startswith("same_birthday"):
            d = EvalSession(birthday_program).query(which)
        else:
            d = EvalSession(palindrome_program).query(which)
        assert node_count(d) == nodes
        assert max_free_vars(d) == max_free
        assert has_live_leaf(d) is live


class TestCanonicalize:
    def test_idempotent(self):
        rng = random.Random(29)
        chain = instance_chain("id", DOM, 3)
        for _ in range(10):
            d = random_proper_diagram(rng, chain)
            assert normalize(normalize(d)) is normalize(d)

    def test_atoms_over_unread_variables_change_nothing(self, palindrome_program):
        session = EvalSession(palindrome_program)
        d = osdd_and(session.query("query(8, 2)"), session.query("evidence(8)"))
        x = d.out
        value = x.domain.values[0]
        z1, z2 = Var("Z1", x.domain), Var("Z2", x.domain)
        unread = formula(eq(z1, value), neq(z1, z2))
        for n in internal_nodes(d):
            assert normalize(n, unread) is normalize(n, TRUE)
        children = [(g, c) for g, c in d.edges if not c.is_leaf]
        assert children and all(x in free_vars(c) for _, c in children)
        for g, child in children:
            assert normalize(child, g.conjoin(unread)) is normalize(child, g)
            # Atoms linked to the diagram through an outside variable stay:
            # X = Z1, Z1 != w says X != w.
            for w in x.domain.values:
                linked = formula(eq(x, z1), neq(z1, w))
                narrowed = normalize(child, formula(neq(x, w)))
                assert normalize(child, linked) is narrowed
                assert narrowed is not normalize(child, TRUE)

    def test_texts_differing_in_variable_names_parse_to_one_node(self):
        text = "(mg, 1, {x})[ true : (mg, 2, {y})[ {x} = {y} : 1 ; {x} != {y} : 0 ] ]"
        first = parse_osdd(text.format(x="X", y="Y"), lambda ref: DOM)
        second = parse_osdd(text.format(x="A", y="Q7"), lambda ref: DOM)
        assert first is second
        x = canonical_instance_var(SwitchRef("mg"), GroundTerm(1), DOM)
        y = canonical_instance_var(SwitchRef("mg"), GroundTerm(2), DOM)
        assert (first.out, first.edges[0][1].out) == (x, y)

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
            out = canonical_instance_var(SwitchRef("dk"), GroundTerm(1), dom)
            return make_node(si("dk", 1), out, [(TRUE, ONE)])

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


def random_combinations():
    """Conjunctions and disjunctions of random proper diagrams, improper
    in general."""
    rng = random.Random(37)
    chain = instance_chain("cl", DOM, 3)
    for _ in range(20):
        a = random_proper_diagram(rng, chain)
        b = random_proper_diagram(rng, chain)
        for op in ("and", "or"):
            yield combine(a, b, op)


def test_combinations_of_proper_diagrams_stay_proper():
    for d in random_combinations():
        assert validate(to_proper(d)) == []


def find_implicit_by_paths(d):
    """The implicit-atom search of earlier versions: every root-to-leaf
    path, unrestricted, a node's edges all checked before any descent."""

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


def test_implicit_search_matches_path_walk_reference(
    monkeypatch, birthday_program, palindrome_program
):
    search = diagram._find_implicit
    results = []

    def checked(d):
        found = search(d)
        assert found == find_implicit_by_paths(d)
        results.append(found)
        return found

    monkeypatch.setattr(diagram, "_find_implicit", checked)
    for seed in range(200):
        program, _ = random_program(seed)
        EvalSession(program).query("q")
    for n in range(2, 13):
        EvalSession(birthday_program).query(f"same_birthday({n})")
    for n in range(4, 15):
        s = EvalSession(palindrome_program)
        to_proper(
            osdd_and(s.query(f"query({n}, {n // 4})"), s.query(f"evidence({n})"))
        )
    for d in random_combinations():
        to_proper(d)
    found = [r for r in results if r is not None]
    assert len(found) > 10 and any(route for route, _ in found), len(found)


def test_implicit_search_keys_on_variables_bound_above():
    # The low node's label names y, which only the path through the middle
    # node binds.  Both paths reach the low node with the same restricted
    # path, so a walk keyed on that alone skips it on the second path,
    # where its label entails y = b.
    (sx, x), (sy, y), (sz, z) = instance_chain("ub", DOM, 3)
    low = make_node(
        sz, z, [(formula(eq(z, y), eq(z, B)), ONE), (formula(neq(z, B)), ZERO)]
    )
    middle = make_node(sy, y, [(TRUE, low)])
    d = make_node(sx, x, [(formula(eq(x, A)), low), (formula(neq(x, A)), middle)])
    expected = ([1], AtomicConstraint(y, B, cf.EQ))
    assert diagram._find_implicit(d) == find_implicit_by_paths(d) == expected


IMPLICIT_SEARCH_WORK = """
from osdd import constraints, diagram
from osdd.engine import EvalSession
from osdd.program import parse_program
from osdd.programs import PALINDROME

search, walk = diagram._find_implicit, diagram.walk_paths
searches = []


def counting_walk(d, visit):
    def counted(*args):
        searches[-1][0] += 1
        return visit(*args)

    return walk(d, counted)


def measured_search(d):
    searches.append([0, len(constraints._formulas)])
    found = search(d)
    searches[-1][1] = len(constraints._formulas) - searches[-1][1]
    return found


diagram.walk_paths = counting_walk
diagram._find_implicit = measured_search
d = EvalSession(parse_program(PALINDROME)).query("query(20, 5)")
print(sum(len(n.edges) for n in diagram.internal_nodes(d)), *searches[-1])
"""


def test_implicit_search_work_follows_nodes_not_paths():
    # The final search of query(20, 5) finds nothing.  By root-to-leaf
    # paths it formed one formula per path prefix, about 10^5 of them;
    # by (node, restricted path) it meets formulas normalize already made.
    edges, visits, added = map(int, run_fresh(IMPLICIT_SEARCH_WORK).split())
    assert edges == 190
    assert visits <= edges and added <= edges, (visits, added)


def test_walks_reach_a_500_deep_chain():
    # One frame per level would come within reach of the recursion limit.
    chain = instance_chain("deep", DOM, 500)
    d = ONE
    for s, x in reversed(chain):
        d = make_node(s, x, [(formula(eq(x, A)), d), (formula(neq(x, A)), ZERO)])
    report = measurability(d)
    assert report.measurable
    assert report.all_measures() == (1,) * 500 + (2,) * 500
    assert diagram._find_implicit(d) is None


MAKE_NODE_COUNT = """
import sys
from osdd import diagram
from osdd.diagram import osdd_and, to_proper
from osdd.engine import EvalSession
from osdd.program import parse_program
from osdd.programs import PALINDROME

original = diagram.make_node
calls = 0


def counting(*args):
    global calls
    calls += 1
    return original(*args)


for module in list(sys.modules.values()):
    if getattr(module, "make_node", None) is original:
        module.make_node = counting
session = EvalSession(parse_program(PALINDROME))
to_proper(osdd_and(session.query("query(14, 3)"), session.query("evidence(14)")))
print(calls)
"""


def test_joint_build_cost_follows_nodes_not_paths():
    # The joint has 81 nodes.  A build whose apply_constraint and
    # normalize visit nodes once per path makes about 315,000 make_node
    # calls; one that memoizes them per node about 9,500.  A fresh
    # interpreter keeps the intern and normalize caches of other tests
    # out of the count.
    assert int(run_fresh(MAKE_NODE_COUNT)) < 20_000


REBUILD_WORK = """
from osdd import constraints
from osdd.engine import EvalSession
from osdd.program import parse_program
from osdd.programs import PALINDROME

calls = dict.fromkeys(("close", "_satisfiable"), 0)


def counted(name):
    inner = getattr(constraints, name)

    def wrapper(*args):
        calls[name] += 1
        return inner(*args)

    return wrapper


for name in calls:
    setattr(constraints, name, counted(name))
program = parse_program(PALINDROME)
EvalSession(program).query("query(12, 2)")
first = dict(calls)
EvalSession(program).query("query(12, 2)")
print(*first.values(), *(calls[k] - first[k] for k in calls))
"""


def test_rebuild_in_a_fresh_session_closes_no_formula():
    # Formulas are hash-consed, so the second build meets only formulas
    # the first one made, and their keys and satisfiability are already
    # known.  Without hash-consing it makes about 1,800 close calls.
    first_close, first_sat, close_calls, sat_calls = map(
        int, run_fresh(REBUILD_WORK).split()
    )
    assert first_close > 0 and first_sat > 0
    assert (close_calls, sat_calls) == (0, 0)


CLOSE_COUNT = """
from osdd import constraints
from osdd.engine import EvalSession
from osdd.program import parse_program
from osdd.programs import BIRTHDAY

close = constraints.close
closed = []


def counting(f):
    closed.append(id(f))
    return close(f)


constraints.close = counting
EvalSession(parse_program(BIRTHDAY)).query("same_birthday(10)")
print(len(closed), len(set(closed)))
"""


def test_cold_build_closes_each_formula_about_once():
    # Edge labels are sat-checked and then keyed, or keyed and then
    # sat-checked; label_satisfiable and key() answer both from one
    # closure.  Closing once per question made 2,819 close calls for 2,331
    # formulas here, and closing again for a sat test after key() made
    # 2,444.  2,398 remain: graph() re-closing formulas already keyed
    # (55) and formulas sat-checked before make_node keys them (12).
    # Formulas are hash-consed and never freed, so ids are not reused.
    calls, distinct = map(int, run_fresh(CLOSE_COUNT).split())
    assert 0 < distinct <= calls <= 1.04 * distinct, (calls, distinct)
