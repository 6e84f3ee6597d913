"""Exact probability computation: general path, measurability, fast path."""

import random
import re
from fractions import Fraction

import pytest

from osdd.diagram import ONE, ZERO, combine, ground, to_proper
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

from conftest import instance_chain, random_proper_diagram


@pytest.fixture(scope="module")
def small_birthday():
    return parse_program(birthday_source(days=8))


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
        from osdd.constraints import TRUE, eq, formula, neq
        from osdd.diagram import (
            SwitchInstance,
            SwitchRef,
            canonical_instance_var,
            make_node,
            validate,
        )
        from osdd.terms import GroundTerm

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
        d = make_node(SwitchInstance(s, GroundTerm(1)), x, [(TRUE, level2)])
        assert validate(d) == []
        report = measurability(d)
        assert not report.measurable
        assert "(nm, 3)" in report.offending_node
        with pytest.raises(DiagramError):
            exact_probability_measurable(d, DistMap(parse_program(
                "values(nm, [a, b, c, d]).\nset_sw(nm, uniform).\n"
            ), exact=True), report)


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
            source = re.sub(
                r"set_sw\((\w+), \[[^]]*\]\)", r"set_sw(\1, uniform)", source
            )
            prog = parse_program(source)
            d = EvalSession(prog).query("q")
            report = measurability(d)
            if not report.measurable:
                continue
            measurable += 1
            dm = DistMap(prog, exact=True)
            fast = exact_probability_measurable(d, dm, report)
            assert fast == exact_probability(d, dm), f"seed {seed}"
        assert measurable >= 100


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
