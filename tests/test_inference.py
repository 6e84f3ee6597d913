"""Exact probability computation: general path, measurability check."""

import random
import re
from fractions import Fraction

import pytest

from osdd import constraints, exact
from osdd.constraints import TRUE, eq, formula, neq
from osdd.diagram import (
    ONE,
    ZERO,
    SwitchInstance,
    SwitchRef,
    _restrict,
    canonical_instance_var,
    combine,
    free_vars,
    ground,
    internal_nodes,
    make_node,
    osdd_and,
    to_proper,
    validate,
)
from osdd.engine import EvalSession
from osdd.errors import DiagramError, EvalError
from osdd.exact import (
    DistMap,
    exact_probability,
    exact_probability_measurable,
    infer,
    mdd_probability,
    measurability,
)
from osdd.oracle import (
    brute_force_probability,
    closed_form_birthday,
    random_program,
)
from osdd.program import parse_program
from osdd.programs import birthday_source
from osdd.sampling import estimate
from osdd.terms import GroundTerm

from conftest import instance_chain, random_proper_diagram


@pytest.fixture(scope="module")
def small_birthday():
    return parse_program(birthday_source(days=8))


@pytest.fixture(scope="module")
def birthday_diagrams(birthday_program):
    """same_birthday(n) at 365 days for n = 3..16, built in one session."""
    session = EvalSession(birthday_program)
    return {n: session.query(f"same_birthday({n})") for n in range(3, 17)}


@pytest.fixture(scope="module")
def palindrome_query_20_5(palindrome_program):
    """95 nodes and 190 edges, met on 118,216 edge visits by a walk by
    root-to-leaf paths."""
    return EvalSession(palindrome_program).query("query(20, 5)")


NM_PROGRAM = "values(nm, [a, b, c, d]).\nset_sw(nm, uniform).\n"


def non_measurable_diagram(dom4):
    s = SwitchRef("nm")
    x = canonical_instance_var(s, GroundTerm(1), dom4)
    y = canonical_instance_var(s, GroundTerm(2), dom4)
    z = canonical_instance_var(s, GroundTerm(3), dom4)
    # The cover below keeps the x/y relation inside the 0-labels, so
    # the diagram is proper, but the surviving label's neighborhood
    # {x, y} is unrelated: the count of values open to z is 2 or 3
    # depending on the grounding above.
    level3 = make_node(
        SwitchInstance(s, GroundTerm(3)),
        z,
        [
            (formula(neq(z, x), neq(z, y)), ONE),
            (formula(eq(z, x), eq(z, y), eq(x, y)), ZERO),
            (formula(eq(z, x), neq(z, y), neq(x, y)), ZERO),
            (formula(eq(z, y), neq(z, x), neq(x, y)), ZERO),
        ],
    )
    level2 = make_node(SwitchInstance(s, GroundTerm(2)), y, [(TRUE, level3)])
    return make_node(SwitchInstance(s, GroundTerm(1)), x, [(TRUE, level2)])


def edge_count(d):
    return sum(len(n.edges) for n in internal_nodes(d))


def uniform_switches(source):
    return re.sub(r"set_sw\((\w+), \[[^]]*\]\)", r"set_sw(\1, uniform)", source)


def path_walk_reference(d):
    """The measurability walk of earlier versions: every edge label is
    conjoined with its whole path and measured once per root-to-leaf path.

    Returns the verdict, the offending node, the set of measures each
    ``(node id, edge index)`` met over all paths, and the
    ``(constrained, measure)`` entries of the node visits whose restricted
    path had not reached that node before, in DFS order.
    """
    measures = {}
    entries = []
    seen = set()
    offending = None

    def walk(n, path, route):
        nonlocal offending
        if n.is_leaf:
            return True
        key = (id(n), id(_restrict(path, n)))
        fresh = key not in seen
        seen.add(key)
        for i, (label, child) in enumerate(n.edges):
            conj = path.conjoin(label)
            m = constraints.measure(conj, n.out)
            if m is None:
                offending = f"{n.si}@{'.'.join(map(str, route)) or 'root'}"
                return False
            measures.setdefault((id(n), i), set()).add(m)
            if fresh:
                entries.append((not label.is_empty(), m))
            if not walk(child, conj, route + [i]):
                return False
        return True

    return walk(d, TRUE, []), offending, measures, entries


def measure_weighted_reference(d, dists, measures):
    """The paper's formula, as the fast path of earlier versions computed
    it: each edge adds its measure times the uniform probability times its
    child's probability.  ``dists`` is exact."""

    def pi(n):
        if n.is_leaf:
            return Fraction(n.value)
        p = dists.prob(n.si.switch, n.out.domain.values[0])
        total = Fraction(0)
        for i, (_, child) in enumerate(n.edges):
            (m,) = measures[(id(n), i)]
            if m:
                total += m * p * pi(child)
        return total

    return pi(d)


def assert_matches_references(d, program):
    """``measurability`` and ``exact_probability_measurable`` agree with
    the path walk and the measure-weighted recursion on ``d``."""
    measurable, offending, measures, entries = path_walk_reference(d)
    report = measurability(d)
    assert report.measurable == measurable
    assert report.offending_node == offending
    if not measurable:
        assert report.edge_measures == []
        return
    assert all(len(ms) == 1 for ms in measures.values()), measures
    assert report.edge_measures == entries
    dm = DistMap(program, exact=True)
    if not dm.all_uniform(d):
        with pytest.raises(DiagramError, match="uniform"):
            exact_probability_measurable(d, dm, report)
        return
    expected = measure_weighted_reference(d, dm, measures)
    assert exact_probability_measurable(d, dm, report) == expected


LIFTED_SOURCES = [
    # A label constant inside a uniform domain: 3 is not
    # interchangeable with 1, 2, 4 and 5.
    (
        "q :- msw(s, 1, X), msw(s, 2, Y), X \\= Y, Y \\= 3.\n"
        "set_sw(s, uniform(1, 5)).\n",
        Fraction(16, 25),
    ),
    # Two switches over the same values whose equal-weight values
    # differ: s1 pairs b with c, s2 pairs a with b.
    (
        "q :- msw(s1, 1, X), msw(s2, 1, Y), X = Y.\n"
        "values(s1, [a, b, c]).\nset_sw(s1, [0.5, 0.25, 0.25]).\n"
        "values(s2, [a, b, c]).\nset_sw(s2, [0.25, 0.25, 0.5]).\n",
        Fraction(5, 16),
    ),
    # Partially equal weights: a and b are interchangeable, c is not.
    (
        "q :- msw(s, 1, X), msw(s, 2, Y), msw(s, 3, Z), "
        "X \\= Y, Y \\= Z.\n"
        "values(s, [a, b, c]).\nset_sw(s, [0.25, 0.25, 0.5]).\n",
        Fraction(13, 32),
    ),
]

HAND_BUILT_PROGRAM = (
    "values(nm, [a, b, c, d]).\nset_sw(nm, uniform).\n"
    "p :- msw(nm, 1, X), msw(nm, 2, Y), X \\= Y, Y \\= c.\n"
    "q :- msw(nm, 1, X), msw(nm, 2, Y), msw(nm, 3, Z), Z \\= X, Z \\= Y.\n"
)


def hand_built_diagrams(dom4):
    """Proper diagrams for ``HAND_BUILT_PROGRAM``'s queries whose upper
    edges admit every value: one names a constant below, one compares two
    variables below.  Returns ``(diagram, query)`` pairs."""
    s = SwitchRef("nm")
    x, y, z = (canonical_instance_var(s, GroundTerm(i), dom4) for i in (1, 2, 3))
    c = GroundTerm("c")

    def node(i, out, edges):
        return make_node(SwitchInstance(s, GroundTerm(i)), out, edges)

    names_constant = node(1, x, [(TRUE, node(2, y, [
        (formula(neq(y, x), neq(y, c)), ONE),
        (formula(eq(y, x)), ZERO),
        (formula(eq(y, c), neq(y, x), neq(x, c)), ZERO),
    ]))])
    compares_two = node(1, x, [(TRUE, node(2, y, [(TRUE, node(3, z, [
        (formula(neq(z, x), neq(z, y)), ONE),
        (formula(eq(z, x), eq(z, y), eq(x, y)), ZERO),
        (formula(eq(z, x), neq(z, y), neq(x, y)), ZERO),
        (formula(eq(z, y), neq(z, x), neq(x, y)), ZERO),
    ]))]))])
    return [(names_constant, "p"), (compares_two, "q")]


def value_classes_reference(d, dists):
    """The class map of earlier versions, keyed on each value's tuple of
    probabilities, one per (switch, domain) pair of ``d``."""
    nodes = list(internal_nodes(d))
    pairs = {}
    for n in nodes:
        pairs.setdefault((n.si.switch, n.out.domain.values_id), n.out.domain)
    groups = {}
    for domain in {dom.values_id: dom for dom in pairs.values()}.values():
        for value in domain.values:
            signature = tuple(
                dists.prob(switch, value) if value in dom else None
                for (switch, _), dom in pairs.items()
            )
            groups.setdefault(signature, set()).add(value)
    shared = [members for members in groups.values() if len(members) > 1]
    constants = {
        atom.rhs
        for n in nodes
        for label, _ in n.edges
        for atom in label.atoms
        if isinstance(atom.rhs, GroundTerm)
    }
    classes = {}
    for number, members in enumerate(shared):
        members = members - constants
        if len(members) > 1:
            classes.update(dict.fromkeys(members, number))
    return classes


def lifted_reference(d, dists):
    """The lifted recursion of earlier versions: every admitted value of
    an edge is listed, and a class's values are counted one by one."""
    one = Fraction(1) if dists.exact else 1.0
    zero = Fraction(0) if dists.exact else 0.0
    classes = value_classes_reference(d, dists)
    memo = {}

    def free_tuple(n):
        return tuple(sorted(free_vars(n), key=lambda v: v.uid))

    def pattern(values):
        first = {}
        return tuple(
            value if c is None else (c, first.setdefault(value, i))
            for i, value in enumerate(values)
            for c in (classes.get(value),)
        )

    def lifted(n, child, admitted, env):
        switch = n.si.switch
        taken = {env[v] for v in free_tuple(child) if v != n.out}
        pairs = []
        reps = {}
        for value in admitted:
            c = classes.get(value)
            if c is None or value in taken:
                pairs.append((value, dists.prob(switch, value)))
            elif c in reps:
                reps[c][1] += 1
            else:
                reps[c] = [value, 1]
        pairs.extend(
            (value, count * dists.prob(switch, value))
            for value, count in reps.values()
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
            admitted = exact._listed(
                exact._admitted_values(label, n.out, env), n.out
            )
            if child.is_leaf:
                for value in admitted:
                    total += dists.prob(n.si.switch, value)
                continue
            if classes:
                pairs = lifted(n, child, admitted, env)
            else:
                pairs = [(v, dists.prob(n.si.switch, v)) for v in admitted]
            for value, p in pairs:
                env[n.out] = value
                total += p * pi(child, env)
            env.pop(n.out, None)
        memo[key] = total
        return total

    return pi(d, {})


def assert_matches_lifted_reference(d, program):
    """Counted classes and sums give the listing recursion's class maps
    and ``Fraction``s, and its floats up to rounding."""
    rational, floats = DistMap(program, exact=True), DistMap(program)
    for dm in (rational, floats):
        assert exact._value_classes(d, dm) == value_classes_reference(d, dm)
    assert exact_probability(d, rational) == lifted_reference(d, rational)
    assert exact_probability(d, floats) == pytest.approx(
        lifted_reference(d, floats), rel=1e-12
    )


class TestExactProbability:
    def test_palindrome_evidence_six(self, palindrome_program):
        d = EvalSession(palindrome_program).query("evidence(6)")
        dm = DistMap(palindrome_program, exact=True)
        assert exact_probability(d, dm) == Fraction(1, 8)

    def test_collision_small_domain_rational(self, small_birthday):
        d = EvalSession(small_birthday).query("same_birthday(3)")
        dm = DistMap(small_birthday, exact=True)
        assert exact_probability(d, dm) == closed_form_birthday(3, 8)

    def test_collision_full_domain(self, birthday_program):
        d = EvalSession(birthday_program).query("same_birthday(3)")
        dm = DistMap(birthday_program)
        value = exact_probability(d, dm)
        assert value == pytest.approx(float(Fraction(1093, 133225)), abs=1e-15)

    def test_leaves(self, palindrome_program):
        dm = DistMap(palindrome_program, exact=True)
        assert exact_probability(ONE, dm) == 1
        assert exact_probability(ZERO, dm) == 0


class TestMeasurability:
    def test_collision_measures(self, birthday_program):
        d = EvalSession(birthday_program).query("same_birthday(3)")
        report = measurability(d)
        assert report.measurable
        assert report.constrained_measures() == (1, 364, 1, 1, 363)

    def test_palindrome_constrained_edges_have_unit_measure(
        self, palindrome_program
    ):
        d = EvalSession(palindrome_program).query("evidence(6)")
        report = measurability(d)
        assert report.measurable
        assert report.constrained_measures() == (1,) * 6

    def test_unconstrained_node_measures_domain_size(self, small_birthday):
        d = EvalSession(small_birthday).query("same_birthday(2)")
        report = measurability(d)
        assert report.measurable
        assert report.all_measures()[0] == 8

    def test_non_measurable_diagram_reported(self, dom4):
        d = non_measurable_diagram(dom4)
        assert validate(d) == []
        report = measurability(d)
        assert not report.measurable
        assert "(nm, 3)" in report.offending_node
        with pytest.raises(DiagramError):
            exact_probability_measurable(
                d, DistMap(parse_program(NM_PROGRAM), exact=True), report
            )

    def test_measures_once_per_edge_not_per_path(
        self, palindrome_query_20_5, monkeypatch
    ):
        calls = []
        measure = constraints.measure

        def counting(f, x):
            calls.append(x)
            return measure(f, x)

        monkeypatch.setattr(constraints, "measure", counting)
        d = palindrome_query_20_5
        edges = edge_count(d)
        report = measurability(d)
        assert report.measurable
        # The walk by root-to-leaf paths made 118,216 calls here.
        assert 0 < len(calls) <= 2 * edges, (len(calls), edges)


class TestFastPath:
    def test_agrees_with_general_exactly_small_domain(self, small_birthday):
        d = EvalSession(small_birthday).query("same_birthday(3)")
        dm = DistMap(small_birthday, exact=True)
        assert exact_probability_measurable(d, dm) == exact_probability(d, dm)

    def test_agrees_with_general_full_domain(self, birthday_program):
        d = EvalSession(birthday_program).query("same_birthday(3)")
        dm = DistMap(birthday_program)
        fast = exact_probability_measurable(d, dm)
        general = exact_probability(d, dm)
        assert abs(fast - general) <= 1e-12

    def test_two_person_closed_form(self, birthday_program):
        d = EvalSession(birthday_program).query("same_birthday(2)")
        dm = DistMap(birthday_program, exact=True)
        assert exact_probability_measurable(d, dm) == Fraction(1, 365)

    def test_leaf_zero(self, birthday_program):
        dm = DistMap(birthday_program, exact=True)
        assert exact_probability_measurable(ZERO, dm) == 0

    def test_refuses_non_uniform_distributions(self):
        p = parse_program(
            "q :- msw(s, 1, X), msw(s, 2, Y), X = Y.\n"
            "values(s, [a, b]).\nset_sw(s, [0.25, 0.75]).\n"
        )
        d = EvalSession(p).query("q")
        with pytest.raises(DiagramError):
            exact_probability_measurable(d, DistMap(p, exact=True))
        # the general path handles it
        assert exact_probability(d, DistMap(p, exact=True)) == Fraction(10, 16)

    def test_agrees_with_general_on_random_uniform_programs(self):
        measurable = 0
        for seed in range(200):
            _, source = random_program(seed)
            prog = parse_program(uniform_switches(source))
            d = EvalSession(prog).query("q")
            report = measurability(d)
            if not report.measurable:
                continue
            measurable += 1
            dm = DistMap(prog, exact=True)
            fast = exact_probability_measurable(d, dm, report)
            assert fast == exact_probability(d, dm), f"seed {seed}"
        assert measurable >= 100

    def test_admits_values_at_most_once_per_edge(
        self,
        birthday_program,
        birthday_diagrams,
        palindrome_program,
        palindrome_query_20_5,
        monkeypatch,
    ):
        calls = []
        admitted = exact._admitted_values

        def counting(label, out, env):
            calls.append(out)
            return admitted(label, out, env)

        monkeypatch.setattr(exact, "_admitted_values", counting)
        for program, d in (
            (birthday_program, birthday_diagrams[16]),
            (palindrome_program, palindrome_query_20_5),
        ):
            for dm in (DistMap(program, exact=True), DistMap(program)):
                calls.clear()
                exact_probability_measurable(d, dm)
                assert 0 < len(calls) <= edge_count(d), (len(calls), edge_count(d))


class TestAgainstPathWalkReference:
    """The walk by nodes gives the path walk's verdicts and measures, and
    the measurable mode the measure-weighted formula's probabilities."""

    def test_birthday(self, birthday_program, birthday_diagrams, small_birthday):
        session = EvalSession(birthday_program)
        assert_matches_references(session.query("same_birthday(2)"), birthday_program)
        for d in birthday_diagrams.values():
            assert_matches_references(d, birthday_program)
        session = EvalSession(small_birthday)
        for n in (2, 3):
            assert_matches_references(
                session.query(f"same_birthday({n})"), small_birthday
            )

    def test_palindrome_evidence(self, palindrome_program):
        d = EvalSession(palindrome_program).query("evidence(6)")
        assert_matches_references(d, palindrome_program)

    def test_leaf_non_measurable_and_non_uniform(self, dom4):
        assert_matches_references(ZERO, parse_program(NM_PROGRAM))
        assert_matches_references(
            non_measurable_diagram(dom4), parse_program(NM_PROGRAM)
        )
        p = parse_program(
            "q :- msw(s, 1, X), msw(s, 2, Y), X = Y.\n"
            "values(s, [a, b]).\nset_sw(s, [0.25, 0.75]).\n"
        )
        assert_matches_references(EvalSession(p).query("q"), p)

    def test_random_uniform_programs(self):
        for seed in range(200):
            _, source = random_program(seed)
            prog = parse_program(uniform_switches(source))
            assert_matches_references(EvalSession(prog).query("q"), prog)


class TestLifted:
    """The general recursion sums interchangeable values once."""

    def test_birthday_matches_closed_form(self, birthday_program, birthday_diagrams):
        rational = DistMap(birthday_program, exact=True)
        floats = DistMap(birthday_program)
        for n, d in birthday_diagrams.items():
            expected = closed_form_birthday(n, 365)
            assert exact_probability(d, rational) == expected, n
            assert exact_probability(d, floats) == pytest.approx(
                float(expected), rel=1e-12
            ), n

    def test_work_follows_edges_not_groundings(
        self, birthday_program, birthday_diagrams, monkeypatch
    ):
        calls = []
        admitted = exact._admitted_values

        def counting(label, out, env):
            calls.append(out)
            return admitted(label, out, env)

        monkeypatch.setattr(exact, "_admitted_values", counting)
        dm = DistMap(birthday_program, exact=True)
        for n in (3, 16):
            d = birthday_diagrams[n]
            edges = sum(len(m.edges) for m in internal_nodes(d))
            calls.clear()
            exact_probability(d, dm)
            # One call per edge per class pattern reaching its node; the
            # per-grounding recursion made 266,451 calls at n = 3.
            assert 0 < len(calls) <= 2 * edges, (n, len(calls), edges)

    @pytest.mark.parametrize("source, expected", LIFTED_SOURCES)
    def test_classes_respect_constants_and_every_switch(self, source, expected):
        prog = parse_program(source)
        d = EvalSession(prog).query("q")
        assert brute_force_probability(prog, "q") == expected
        assert exact_probability(d, DistMap(prog, exact=True)) == expected
        assert exact_probability(d, DistMap(prog)) == pytest.approx(
            float(expected), rel=1e-12
        )

    def test_classes_where_parent_edges_admit_every_value(self, dom4):
        """Proper diagrams whose upper edges do not split on the constant,
        or on the equality, that a lower label names: only the classes
        keep those values apart."""
        prog = parse_program(HAND_BUILT_PROGRAM)
        for d, query in hand_built_diagrams(dom4):
            assert validate(d) == []
            expected = brute_force_probability(prog, query)
            assert expected == Fraction(9, 16)
            assert exact_probability(d, DistMap(prog, exact=True)) == expected, query

    def test_probability_lookups_do_not_depend_on_the_domain(self, monkeypatch):
        calls = []
        prob = DistMap.prob

        def counting(self, ref, value):
            calls.append(value)
            return prob(self, ref, value)

        monkeypatch.setattr(DistMap, "prob", counting)
        counts = []
        for days in (365, 36_500):
            program = parse_program(birthday_source(days))
            d = EvalSession(program).query("same_birthday(10)")
            calls.clear()
            exact_probability(d, DistMap(program, exact=True))
            counts.append(len(calls))
            assert 0 < len(calls) <= 2 * edge_count(d), (days, len(calls))
        # Listing each edge's admitted values made 419 and 36,554 lookups.
        assert counts[0] == counts[1], counts

    def test_random_uniform_programs_match_the_oracle(self):
        for seed in range(60):
            _, source = random_program(seed)
            prog = parse_program(uniform_switches(source))
            d = EvalSession(prog).query("q")
            engine = exact_probability(d, DistMap(prog, exact=True))
            assert engine == brute_force_probability(prog, "q"), f"seed {seed}"


class TestAgainstListingReference:
    """Counting each edge's admitted values gives the listing recursion's
    class maps and ``Fraction``s, and its floats up to rounding."""

    @pytest.mark.parametrize("days", [5, 365, 3650])
    def test_birthday(self, days):
        program = parse_program(birthday_source(days))
        session = EvalSession(program)
        for n in range(2, 17):
            d = session.query(f"same_birthday({n})")
            assert_matches_lifted_reference(d, program)

    def test_palindrome_joints(self, palindrome_program):
        session = EvalSession(palindrome_program)
        for n in range(4, 13):
            joint = to_proper(osdd_and(
                session.query(f"query({n}, {n // 4})"),
                session.query(f"evidence({n})"),
            ))
            assert_matches_lifted_reference(joint, palindrome_program)

    def test_lifted_programs(self, dom4):
        for source, _ in LIFTED_SOURCES:
            prog = parse_program(source)
            assert_matches_lifted_reference(EvalSession(prog).query("q"), prog)
        prog = parse_program(HAND_BUILT_PROGRAM)
        for d, _ in hand_built_diagrams(dom4):
            assert_matches_lifted_reference(d, prog)

    def test_random_programs(self):
        for seed in range(200):
            _, source = random_program(seed)
            for text in (source, uniform_switches(source)):
                prog = parse_program(text)
                assert_matches_lifted_reference(EvalSession(prog).query("q"), prog)


class TestAgainstIndependentOracles:
    def test_oracle_equivalence_sample(self):
        for seed in range(25):
            prog, _ = random_program(seed)
            d = EvalSession(prog).query("q")
            engine = exact_probability(d, DistMap(prog, exact=True))
            oracle = brute_force_probability(prog, "q")
            assert engine == oracle, f"seed {seed}"

    def test_grounding_consistency(self):
        for seed in range(15):
            prog, _ = random_program(seed + 1000)
            d = EvalSession(prog).query("q")
            dm = DistMap(prog, exact=True)
            direct = exact_probability(d, dm)
            via_mdd = (
                mdd_probability(ground(d), dm) if not d.is_leaf else direct
            )
            assert direct == via_mdd, f"seed {seed + 1000}"

    def test_disjunction_monotone(self, dom3):
        rng = random.Random(41)
        chain = instance_chain("mono", dom3, 3)
        p = parse_program("values(mono, [a, b, c]).\nset_sw(mono, uniform).\n")
        dm = DistMap(p, exact=True)
        for _ in range(15):
            a = random_proper_diagram(rng, chain)
            b = random_proper_diagram(rng, chain)
            pa = exact_probability(a, dm)
            pb = exact_probability(b, dm)
            por = exact_probability(to_proper(combine(a, b, "or")), dm)
            assert por >= max(pa, pb)


class TestSharedBuiltins:
    """The diagram engine and the concrete evaluator (oracle, samplers)
    give builtins one meaning."""

    DIVISION = (
        "p :- 3/2 > 1, msw(c, 1, a).\n"
        "values(c, [a, b]).\nset_sw(c, uniform).\n"
    )
    FRACTIONAL_FOR = (
        "p :- for(I, 1, 5/2), msw(c, I, a).\n"
        "values(c, [a, b]).\nset_sw(c, uniform).\n"
    )

    def test_division_agrees_with_the_oracle(self):
        prog = parse_program(self.DIVISION)
        d = EvalSession(prog).query("p")
        assert exact_probability(d, DistMap(prog, exact=True)) == Fraction(1, 2)
        assert brute_force_probability(prog, "p") == Fraction(1, 2)
        for mode in ("lw", "independent"):
            run = estimate(prog, "p", mode=mode, budget=20, stride=10)
            assert run.state.n_total == 20

    def test_fractional_for_bound_is_an_eval_error_everywhere(self):
        prog = parse_program(self.FRACTIONAL_FOR)
        with pytest.raises(EvalError, match="for/3 bounds"):
            EvalSession(prog).query("p")
        with pytest.raises(EvalError, match="for/3 bounds"):
            brute_force_probability(prog, "p")
        for mode in ("lw", "independent"):
            with pytest.raises(EvalError, match="for/3 bounds"):
                estimate(prog, "p", mode=mode, budget=5)


class TestDivisionByZero:
    """Division by zero is an evaluation error of the program, in every
    evaluator."""

    @pytest.mark.parametrize("expr", ["1//0", "1 mod 0", "1/0"])
    def test_is_an_eval_error_everywhere(self, expr):
        prog = parse_program(
            f"p :- X is {expr}, msw(c, 1, a).\n"
            "values(c, [a, b]).\nset_sw(c, uniform).\n"
        )
        with pytest.raises(EvalError, match="division by zero"):
            EvalSession(prog).query("p")
        with pytest.raises(EvalError, match="division by zero"):
            brute_force_probability(prog, "p")
        for mode in ("lw", "independent"):
            with pytest.raises(EvalError, match="division by zero"):
                estimate(prog, "p", mode=mode, budget=5)


class TestInferReport:
    def test_report_fields(self, small_birthday):
        d = EvalSession(small_birthday).query("same_birthday(3)")
        report = infer(d, DistMap(small_birthday, exact=True), "exact-measurable")
        out = report.as_dict()
        assert set(out) >= {
            "probability",
            "measurable",
            "node_count",
            "max_free_vars",
            "elapsed_ms",
        }
        assert out["measurable"] is True
        assert out["node_count"] == 3
        expected = closed_form_birthday(3, 8)
        assert out["probability_exact"] == f"{expected.numerator}/{expected.denominator}"
