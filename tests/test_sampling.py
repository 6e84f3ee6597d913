"""Likelihood-weighted and independent sampling, estimator behavior."""

from collections import Counter
from fractions import Fraction

import pytest

from osdd import sampling
from osdd.concrete import WorldEvaluator
from osdd.diagram import osdd_and, to_proper
from osdd.engine import EvalSession
from osdd.errors import EvalError
from osdd.exact import DistMap, exact_probability
from osdd.oracle import brute_force_probability, random_program
from osdd.program import parse_program
from osdd.programs import birthday_source
from osdd.sampling import (
    EstimatorState,
    estimate,
    lw_sample,
    make_rng,
)


class TestLwSample:
    def test_constrained_levels_force_half_weights(self, palindrome_program):
        d = EvalSession(palindrome_program).query("evidence(6)")
        dm = DistMap(palindrome_program)
        rng = make_rng(1)
        for _ in range(500):
            sample = lw_sample(d, dm, rng)
            assert sample.consistent
            assert sample.weight == 0.5**3

    def test_no_zero_leaves_means_weight_one(self):
        p = parse_program(
            "q :- msw(s, 1, X), msw(s, 2, Y).\n"
            "values(s, [a, b, c]).\nset_sw(s, uniform).\n"
        )
        d = EvalSession(p).query("q")
        dm = DistMap(p)
        rng = make_rng(2)
        for _ in range(100):
            sample = lw_sample(d, dm, rng)
            assert sample.consistent and sample.weight == 1.0

    def test_two_person_collision_weight_constant(self, birthday_program):
        d = EvalSession(birthday_program).query("same_birthday(2)")
        dm = DistMap(birthday_program)
        rng = make_rng(3)
        weights = {lw_sample(d, dm, rng).weight for _ in range(300)}
        assert weights == {1.0 / 365.0}

    def test_six_person_weight_structure(self, birthday_program):
        # Only the last node of the all-distinct prefix restricts its
        # domain; samples that collide early carry weight 1.  At that
        # node the sixth day must equal one of the five distinct earlier
        # days, so five values survive and the weight is
        # P(S) = 5 * 1/365.
        d = EvalSession(birthday_program).query("same_birthday(6)")
        dm = DistMap(birthday_program)
        rng = make_rng(4)
        weights = Counter()
        for _ in range(1500):
            sample = lw_sample(d, dm, rng)
            assert sample.consistent
            weights[sample.weight] += 1
        assert set(weights) == {1.0, 5.0 / 365.0}
        assert weights[5.0 / 365.0] > weights[1.0]

    def test_empty_diagram_rejects(self, palindrome_program):
        from osdd.diagram import ZERO

        dm = DistMap(palindrome_program)
        sample = lw_sample(ZERO, dm, make_rng(6))
        assert not sample.consistent


def independent_hits(program, goal, budget, seed):
    run = estimate(program, goal, mode="independent", budget=budget, seed=seed)
    return run.state.n_consistent


class TestIndependentSample:
    def test_palindrome_consistency_rate(self, palindrome_program):
        hits = independent_hits(palindrome_program, "evidence(6)", 4000, 7)
        # Binomial(4000, 1/8): mean 500, sd ~20.9; allow 5 sigma.
        assert abs(hits - 500) < 105

    def test_deterministic_program_always_consistent(self):
        p = parse_program("yes.\n")
        assert independent_hits(p, "yes", 1, 8) == 1

    def test_toy_collision_rate(self):
        p = parse_program(birthday_source(days=4))
        hits = independent_hits(p, "same_birthday(2)", 4000, 9)
        # Binomial(4000, 1/4): mean 1000, sd ~27.4; allow 5 sigma.
        assert abs(hits - 1000) < 137


class TestEstimate:
    def test_unconditional_matches_exact_within_four_se(self, palindrome_program):
        session = EvalSession(palindrome_program)
        run = estimate(
            palindrome_program,
            "evidence(8)",
            mode="lw",
            budget=20_000,
            seed=13,
            stride=5_000,
            session=session,
        )
        exact = float(
            exact_probability(
                session.query("evidence(8)"),
                DistMap(palindrome_program, exact=True),
            )
        )
        se = run.state.std_error
        assert abs(run.state.estimate - exact) <= max(4 * se, 1e-12)

    def test_query_equal_to_evidence_estimates_one(self, palindrome_program):
        run = estimate(
            palindrome_program,
            "evidence(6)",
            "evidence(6)",
            mode="lw",
            budget=300,
            seed=14,
            stride=100,
        )
        assert run.state.estimate == 1.0

    def test_conditional_agrees_with_exact(self, palindrome_program):
        run = estimate(
            palindrome_program,
            "query(8, 2)",
            "evidence(8)",
            mode="lw",
            budget=4_000,
            seed=15,
            stride=1_000,
        )
        se = run.state.std_error
        assert abs(run.state.estimate - 0.25) <= 4 * se

    def test_zero_probability_evidence_reports_undefined(self):
        p = parse_program(
            "never :- msw(s, 1, X), X = a, X = b.\n"
            "values(s, [a, b]).\nset_sw(s, uniform).\n"
            "q :- msw(s, 1, X), X = a.\n"
        )
        run = estimate(p, "q", "never", mode="lw", budget=50, seed=16, stride=10)
        assert run.state.estimate is None
        assert run.state.n_consistent == 0
        assert ",,," in run.csv().splitlines()[1] or run.csv().count(",,") > 0

    def test_budget_one_yields_single_row(self, palindrome_program):
        run = estimate(
            palindrome_program, "evidence(4)", mode="lw", budget=1, seed=17
        )
        lines = run.csv().strip().splitlines()
        assert len(lines) == 2  # header plus one row
        assert lines[1].startswith("1,")

    def test_seeded_runs_are_bit_identical(self, palindrome_program):
        runs = [
            estimate(
                palindrome_program,
                "query(6, 2)",
                "evidence(6)",
                mode="lw",
                budget=400,
                seed=18,
                stride=100,
            )
            for _ in range(2)
        ]
        assert runs[0].csv() == runs[1].csv()
        assert runs[0].state == runs[1].state

    def test_independent_mode_conditional(self, palindrome_program):
        run = estimate(
            palindrome_program,
            "query(6, 2)",
            "evidence(6)",
            mode="independent",
            budget=4_000,
            seed=19,
            stride=1_000,
        )
        # exact conditional at length 6: counts are even along pairs;
        # P(K=2 | palindrome) = C(3,1)/2^3 = 3/8
        se = run.state.std_error
        assert abs(run.state.estimate - 0.375) <= 4 * se

    def test_variance_dominance_trend(self, palindrome_program):
        lw = estimate(
            palindrome_program,
            "query(8, 2)",
            "evidence(8)",
            mode="lw",
            budget=3_000,
            seed=20,
            stride=1_000,
        )
        ind = estimate(
            palindrome_program,
            "query(8, 2)",
            "evidence(8)",
            mode="independent",
            budget=3_000,
            seed=20,
            stride=1_000,
        )
        assert lw.rejected == 0
        assert lw.state.variance < ind.state.variance

    @pytest.mark.parametrize("query", ["q", "r"])
    @pytest.mark.parametrize(
        "set_sw", ["set_sw(s, uniform).", "set_sw(s, [0.5, 0.3, 0.2])."]
    )
    def test_conditional_with_several_surviving_values(self, set_sw, query):
        # Y survives with two values when X = a and with one otherwise, so
        # a weight of p(Y) instead of P(S) under-weights the X = a
        # samples: the uniform program then estimates P(q | e) at about
        # 1/3, not 1/2.  r reads Y, so it also needs Y drawn from p
        # restricted to the survivors, not uniformly among them.
        p = parse_program(
            "e :- msw(s, 1, X), msw(s, 2, Y), Y \\= X, Y \\= a.\n"
            "q :- msw(s, 1, X), X = a.\n"
            "r :- msw(s, 2, Y), Y = b.\n"
            f"values(s, [a, b, c]).\n{set_sw}\n"
        )
        session = EvalSession(p)
        evidence = session.query("e")
        joint = to_proper(osdd_and(session.query(query), evidence))
        dm = DistMap(p, exact=True)
        exact = exact_probability(joint, dm) / exact_probability(evidence, dm)
        run = estimate(
            p, query, "e", mode="lw", budget=10_000, seed=1, stride=10_000
        )
        assert abs(run.state.estimate - float(exact)) <= 4 * run.state.std_error

    def test_bad_budget_rejected(self, palindrome_program):
        with pytest.raises(EvalError):
            estimate(palindrome_program, "evidence(4)", budget=0)


class TestWorkBounds:
    """The samplers walk compiled diagrams: they never evaluate the
    program concretely, and a rejected sample stops at its first 0 leaf."""

    @pytest.mark.parametrize("mode", ["lw", "independent"])
    @pytest.mark.parametrize(
        "query, evidence",
        [("query(8, 2)", "evidence(8)"), ("evidence(8)", None)],
    )
    def test_no_concrete_evaluation(
        self, monkeypatch, palindrome_program, mode, query, evidence
    ):
        def refuse(*args):
            raise AssertionError("a sampler evaluated the program concretely")

        monkeypatch.setattr(WorldEvaluator, "holds", refuse)
        run = estimate(
            palindrome_program, query, evidence, mode=mode, budget=300, seed=3
        )
        assert run.state.n_total == 300

    def test_independent_rejection_draws_fewer_than_every_letter(
        self, monkeypatch, palindrome_program
    ):
        # Evaluating the program draws all 12 letters of a string before it
        # checks the palindrome; the walk stops at the first mismatch.
        calls = 0
        draw = sampling.draw

        def counted(rng, values, weights):
            nonlocal calls
            calls += 1
            return draw(rng, values, weights)

        monkeypatch.setattr(sampling, "draw", counted)
        run = estimate(
            palindrome_program, "evidence(12)", mode="independent",
            budget=800, seed=5,
        )
        assert run.rejected > 0
        assert calls < 12 * 800


class TestEstimatorState:
    def test_variance_nonnegative(self):
        s = EstimatorState()
        for u, w in [(0.1, 1.0), (0.9, 1.0), (0.4, 1.0)]:
            s.update(u, w, True)
        assert s.variance >= 0


def _exact(x: float) -> Fraction:
    """The ratio of small integers that a float probability or weight
    stands for.  Here every one has a denominator below 10**6 (declared
    weights are multiples of 1/8, domains have at most 4 values and paths
    at most 6 nodes), and float error is far below the gap between such
    fractions, so the result is exact."""
    return Fraction(x).limit_denominator(10**6)


class _Exhausted(Exception):
    pass


class _EveryChoice:
    """A stand-in generator under which successive attempts of
    ``estimate`` take every sequence of random choices once.

    ``estimate`` draws only through ``sampling.draw`` and
    ``rng.integers``.  An attempt replays a script of choice indices,
    taking index 0 at a choice point the script does not reach yet, and
    multiplies up the exact probability of its choices.  At the attempt's
    estimator update, :meth:`end_attempt` records the attempt and
    advances the script like an odometer.
    """

    def __init__(self):
        self.script = []  # [index, number of options] per choice point
        self.pos = 0
        self.prob = Fraction(1)
        self.attempts = []  # (probability, numerator, denominator)

    def _choose(self, probs):
        if self.pos == len(self.script):
            self.script.append([0, len(probs)])
        i = self.script[self.pos][0]
        self.pos += 1
        self.prob *= probs[i]
        return i

    def integers(self, n):
        return self._choose([Fraction(1, n)] * n)

    def draw(self, rng, values, weights):
        return values[self._choose([_exact(w) for w in weights])]

    def end_attempt(self, u, w):
        assert self.pos == len(self.script)
        self.attempts.append((self.prob, _exact(u), _exact(w)))
        while self.script and self.script[-1][0] + 1 == self.script[-1][1]:
            self.script.pop()
        if not self.script:
            raise _Exhausted
        self.script[-1][0] += 1
        self.pos, self.prob = 0, Fraction(1)


def _expected_sums(monkeypatch, program, query, evidence, mode):
    """Exact E[numerator] and E[denominator] of one attempt."""
    choices = _EveryChoice()
    update = EstimatorState.update

    def update_then_advance(self, u, w, consistent):
        update(self, u, w, consistent)
        choices.end_attempt(u, w)

    with monkeypatch.context() as m:
        m.setattr(sampling, "make_rng", lambda seed: choices)
        m.setattr(sampling, "draw", choices.draw)
        m.setattr(EstimatorState, "update", update_then_advance)
        with pytest.raises(_Exhausted):
            estimate(program, query, evidence, mode=mode, budget=10**6)
    assert sum(p for p, _, _ in choices.attempts) == 1
    return (
        sum(p * u for p, u, _ in choices.attempts),
        sum(p * w for p, _, w in choices.attempts),
    )


# A query over s0 (every random program declares it, with values c0 and
# c1 at least) whose second clause reads an instance no random program
# has, so a conditional LW sample must draw it fresh.
EXTRA_QUERY = (
    "r :- msw(s0, 1, X), X = c0.\n"
    "r :- msw(s0, 6, Y), Y \\= c1.\n"
    "qr :- q, r.\n"
)


class TestExactExpectation:
    """Both estimators are unbiased in numerator and denominator: summed
    over every traversal, weighted by its probability, they give
    P(query and evidence) and P(evidence) (1 unconditionally)."""

    @pytest.mark.parametrize("seeds", [range(0, 20), range(20, 40)])
    def test_matches_brute_force(self, monkeypatch, seeds):
        for seed in seeds:
            _, source = random_program(seed)
            program = parse_program(source + EXTRA_QUERY)
            p_q = brute_force_probability(program, "q")
            p_qr = brute_force_probability(program, "qr")
            for mode in ("lw", "independent"):
                got = _expected_sums(monkeypatch, program, "q", None, mode)
                assert got == (p_q, 1), (seed, mode)
                got = _expected_sums(monkeypatch, program, "r", "q", mode)
                assert got == (p_qr, p_q), (seed, mode)
