"""Parsing, transformation, and symbolic evaluation of programs."""

import pytest

from osdd import diagram, engine
from osdd.constraints import TRUE, eq, formula, neq
from osdd.diagram import (
    ONE,
    SwitchInstance,
    SwitchRef,
    ZERO,
    canonical_instance_var,
    make_node,
    node_count,
    normalize,
    osdd_or,
    to_proper,
    validate,
)
from osdd.diagram_io import format_osdd
from osdd.engine import EvalSession, evaluate, transform
from osdd.errors import EvalError, OsddError, ParseError
from osdd.oracle import GenLimits, random_program
from osdd.program import parse_program
from osdd.prolog import (
    LVar,
    Num,
    PVar,
    Struct,
    Trail,
    freeze,
    instantiate,
    read_term,
    resolve,
    thaw,
)
from osdd.terms import GroundTerm, domain_of_symbols


class TestParse:
    def test_birthday_source(self, birthday_program):
        p = birthday_program
        assert set(p.clauses) == {("same_birthday", 1), ("person", 2)}
        spec = p.switch_spec(SwitchRef("b"))
        assert spec.domain.size == 365
        assert spec.dist.is_uniform

    def test_palindrome_source(self, palindrome_program):
        p = palindrome_program
        assert ("palindrome", 1) in p.clauses
        assert ("palindrome", 2) in p.clauses  # grammar expansion
        assert len(p.clauses[("palindrome", 2)]) == 3
        assert ("count_as", 2) in p.clauses
        # the case split doubles the second count_as clause
        assert len(p.clauses[("count_as", 2)]) == 3
        spec = p.switch_spec(SwitchRef("flip"))
        assert [v.symbol for v in spec.domain.values] == ["a", "b"]
        assert [float(w) for w in spec.dist.weights] == [0.5, 0.5]

    def test_empty_input(self):
        p = parse_program("")
        assert p.clauses == {}

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError):
            parse_program("p :- q(.\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_program(":- frobnicate(3).\n")

    def test_parameterized_switch_declaration_matches_bare_name(self):
        p = parse_program(":- set_sw(b(_), uniform(1, 10)).\n")
        assert p.switch_spec(SwitchRef("b")).domain.size == 10


class TestTransform:
    def test_fact_threads_identity(self):
        p = parse_program("person(3, 1).\n")
        t = transform(p)
        (clause,) = t.clauses[("person", 4)]
        assert clause.body == ()
        assert clause.head.args[:2] == (Num(3), Num(1))
        assert clause.head.args[2] == clause.head.args[3]
        assert isinstance(clause.head.args[2], PVar)

    def test_two_goal_body_threads_a_chain(self):
        p = parse_program("p :- q, r.\nq.\nr.\n")
        t = transform(p)
        (clause,) = t.clauses[("p", 2)]
        o1, o3 = clause.head.args
        q_goal, r_goal = clause.body
        assert q_goal.args[0] == o1
        assert q_goal.args[1] == r_goal.args[0]
        assert r_goal.args[1] == o3
        assert q_goal.args[0] != q_goal.args[1]

    def test_single_goal_body(self):
        p = parse_program("p :- q.\nq.\n")
        t = transform(p)
        (clause,) = t.clauses[("p", 2)]
        (q_goal,) = clause.body
        assert q_goal.args == clause.head.args

    def test_builtins_stay_unthreaded(self):
        p = parse_program("p(N) :- N > 0, q, N1 is N - 1.\nq.\n")
        t = transform(p)
        (clause,) = t.clauses[("p", 3)]
        gt, q_goal, is_goal = clause.body
        assert len(gt.args) == 2
        assert len(is_goal.args) == 2
        assert len(q_goal.args) == 2  # 0-ary q plus the two thread slots

    def test_every_user_literal_gains_two_arguments(self, palindrome_program):
        t = transform(palindrome_program)
        for (name, arity), clauses in t.clauses.items():
            src_arity = arity - 2
            assert (name, src_arity) in palindrome_program.clauses
            for clause in clauses:
                assert len(clause.head.args) == arity

    def test_msw_becomes_five_ary(self):
        p = parse_program("p :- msw(s, 1, X).\nvalues(s, [a]).\nset_sw(s, uniform).\n")
        t = transform(p)
        (clause,) = t.clauses[("p", 2)]
        (goal,) = clause.body
        assert goal.name == "msw"
        assert len(goal.args) == 5

    def test_reserved_predicate_name_rejected(self):
        p = parse_program("msw(a, b).\n")
        with pytest.raises(EvalError):
            transform(p)


class TestEvaluate:
    def test_collision_query_matches_reference_diagram(self, toy_birthday_program):
        d = EvalSession(toy_birthday_program).query("same_birthday(3)")
        b = SwitchRef("b")
        dom = toy_birthday_program.switch_spec(b).domain
        x1 = canonical_instance_var(b, GroundTerm(1), dom)
        x2 = canonical_instance_var(b, GroundTerm(2), dom)
        x3 = canonical_instance_var(b, GroundTerm(3), dom)
        level3 = make_node(
            SwitchInstance(b, GroundTerm(3)),
            x3,
            [
                (formula(eq(x1, x3)), ONE),
                (formula(neq(x1, x3), eq(x2, x3)), ONE),
                (formula(neq(x1, x3), neq(x2, x3)), ZERO),
            ],
        )
        level2 = make_node(
            SwitchInstance(b, GroundTerm(2)),
            x2,
            [(formula(eq(x1, x2)), ONE), (formula(neq(x1, x2)), level3)],
        )
        expected = make_node(
            SwitchInstance(b, GroundTerm(1)), x1, [(TRUE, level2)]
        )
        assert d is to_proper(expected)
        assert validate(d) == []

    def test_palindrome_evidence_shape(self, palindrome_program):
        d = EvalSession(palindrome_program).query("evidence(6)")
        assert node_count(d) == 6
        assert validate(d) == []
        constrained_levels = 0
        node = d
        while not node.is_leaf:
            labels = [g for g, _ in node.edges if not g.is_empty()]
            if labels:
                constrained_levels += 1
            node = next(c for _, c in node.edges if not c.is_leaf or c.value == 1)
            if node.is_leaf:
                break
        assert constrained_levels == 3

    def test_false_body_yields_zero_leaf(self):
        p = parse_program(
            "p :- msw(s, 1, X), X = a, X = b.\n"
            "values(s, [a, b]).\nset_sw(s, uniform).\n"
        )
        assert EvalSession(p).query("p") is ZERO

    def test_answer_combination_is_clause_order_insensitive(self):
        base = (
            "values(s, [a, b, c]).\nset_sw(s, uniform).\n"
            "q :- msw(s, 1, X), X = a.\n"
            "q :- msw(s, 1, X), msw(s, 2, Y), X \\= Y.\n"
        )
        flipped = (
            "values(s, [a, b, c]).\nset_sw(s, uniform).\n"
            "q :- msw(s, 1, X), msw(s, 2, Y), X \\= Y.\n"
            "q :- msw(s, 1, X), X = a.\n"
        )
        d1 = EvalSession(parse_program(base)).query("q")
        d2 = EvalSession(parse_program(flipped)).query("q")
        assert d1 is d2

    def test_repeated_evaluation_is_interned(self, toy_birthday_program):
        d1 = EvalSession(toy_birthday_program).query("same_birthday(3)")
        d2 = EvalSession(toy_birthday_program).query("same_birthday(3)")
        assert d1 is d2

    def test_non_ground_query_rejected(self, toy_birthday_program):
        with pytest.raises(EvalError):
            EvalSession(toy_birthday_program).query("same_birthday(N)")

    def test_undeclared_switch_rejected(self):
        p = parse_program("p :- msw(nope, 1, X).\n")
        with pytest.raises(EvalError):
            EvalSession(p).query("p")

    def test_depth_limit(self, monkeypatch):
        from osdd import engine

        monkeypatch.setattr(engine, "MAX_DEPTH", 5)
        p = parse_program(
            "count(0).\ncount(N) :- N > 0, N1 is N - 1, count(N1).\n"
        )
        with pytest.raises(EvalError):
            EvalSession(p).query("count(50)")

    def test_shared_output_variable_becomes_equality(self):
        # One program variable naming the outcome of two instances is the
        # same as an explicit equality constraint between them.
        shared = (
            "values(s, [a, b, c]).\nset_sw(s, uniform).\n"
            "q :- msw(s, 1, D), msw(s, 2, D).\n"
        )
        explicit = (
            "values(s, [a, b, c]).\nset_sw(s, uniform).\n"
            "q :- msw(s, 1, D), msw(s, 2, E), D = E.\n"
        )
        d1 = EvalSession(parse_program(shared)).query("q")
        d2 = EvalSession(parse_program(explicit)).query("q")
        assert d1 is d2

    def test_evaluate_convenience_wrapper(self, toy_birthday_program):
        assert evaluate(toy_birthday_program, "same_birthday(2)") is EvalSession(
            toy_birthday_program
        ).query("same_birthday(2)")

    def test_evidence_constraint_lands_on_diagram(self, palindrome_program):
        d = EvalSession(palindrome_program).query("evidence(2)")
        assert node_count(d) == 2
        inner = next(c for _, c in d.edges)
        labels = sorted(str(g) for g, _ in inner.edges)
        assert any("=" in s for s in labels)


def linear_disjoin(diagrams):
    """Reference: each derivation OR-ed into a running union that is
    normalized again every time it grows."""
    result = diagrams[0]
    for d in diagrams[1:]:
        result = normalize(osdd_or(result, d))
    return result


def build_both_ways(program, query, monkeypatch):
    """format_osdd of the query under the balanced fold and under the
    linear reference, or the error class each raised."""
    outputs = []
    for fold in (engine.disjoin, linear_disjoin):
        monkeypatch.setattr(engine, "disjoin", fold)
        try:
            outputs.append(format_osdd(EvalSession(program).query(query)))
        except OsddError as exc:
            outputs.append(type(exc))
    return outputs


class TestFoldOrder:
    """Folding a tabled answer's derivations pairwise gives the diagram
    the one-at-a-time fold gives."""

    @pytest.mark.parametrize(
        "limits",
        [GenLimits(), GenLimits(max_switches=1, max_instances=6, max_domain=5)],
    )
    def test_random_programs(self, limits, monkeypatch):
        for seed in range(300):
            program, _ = random_program(seed, limits)
            balanced, linear = build_both_ways(program, "q", monkeypatch)
            assert balanced == linear, f"seed {seed}"

    def test_birthday(self, birthday_program, monkeypatch):
        for n in range(3, 11):
            balanced, linear = build_both_ways(
                birthday_program, f"same_birthday({n})", monkeypatch
            )
            assert balanced == linear, f"same_birthday({n})"

    def test_palindrome(self, palindrome_program, monkeypatch):
        for n in range(8, 13):
            for query in (f"evidence({n})", f"query({n}, 2)", f"query({n}, {n // 2})"):
                balanced, linear = build_both_ways(
                    palindrome_program, query, monkeypatch
                )
                assert balanced == linear, query

    def test_birthday_build_combines_a_bounded_number_of_times(
        self, birthday_program, monkeypatch
    ):
        # same_birthday(14) has 91 derivations.  Re-normalizing a growing
        # union once per derivation makes 4,851 _combine calls; the
        # pairwise fold about 1,840.  Nodes are interned and _combine's
        # memo is per call, so the count does not depend on what ran
        # earlier in the process.
        calls = 0
        original = diagram._combine

        def counting(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(diagram, "_combine", counting)
        EvalSession(birthday_program).query("same_birthday(14)")
        assert calls <= 2_500


class TestSnapshot:
    """``freeze``/``thaw``: the one snapshot format of engine answer
    tables and concrete memo entries."""

    def test_repeated_variable_comes_back_as_one_variable(self):
        term = instantiate(read_term("f(X, a, 3, g(X))"), {})
        frozen = freeze(term, {})
        assert frozen == (
            "s", "f", (("open", 0), ("a", "a"), ("n", 3), ("s", "g", (("open", 0),)))
        )
        back = thaw(frozen, {}, Trail())
        x = back.args[0]
        assert isinstance(x, LVar) and x is not term.args[0]
        assert back.args[3].args[0] is x
        assert resolve(back).args[1:3] == term.args[1:3]

    def test_switch_output_comes_back_marked_until_undone(self):
        y = canonical_instance_var(
            SwitchRef("s"), GroundTerm(1), domain_of_symbols("ab", ["a", "b"])
        )
        x = LVar()
        x.svar = y
        frozen = freeze(Struct("f", (x,)), {})
        assert frozen == ("s", "f", (("svar", y),))
        trail = Trail()
        mark = trail.mark()
        (back,) = thaw(frozen, {}, trail).args
        assert back is not x and back.svar == y
        trail.undo_to(mark)
        assert back.svar is None

    def test_equal_terms_freeze_to_equal_hashable_snapshots(self):
        one = freeze(instantiate(read_term("p([1, X, c], X)"), {}), {})
        other = freeze(instantiate(read_term("p([1, Y, c], Y)"), {}), {})
        assert one == other and hash(one) == hash(other)
        assert {one: "answer"}[other] == "answer"
        bound = LVar()
        bound.ref = Num(3)  # a bound variable freezes as its value
        assert freeze(bound, {}) == freeze(Num(3), {})
