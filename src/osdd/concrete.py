"""Deterministic program evaluation with concrete switch outcomes.

This resolution path never touches diagrams: ``msw(S, K, X)`` unifies X
with the value a policy assigns to the instance.  Policies cover the
three users: a fixed world (brute-force enumeration), sample-on-first-use
(the samplers), and branch-over-all-values (reachable-instance
discovery).  It shares the builtin semantics of :mod:`osdd.program` and
the term snapshots of :mod:`osdd.prolog` with the symbolic engine.
"""

from __future__ import annotations

from .errors import EvalError, OracleError
from .program import (
    COMPARISON_GOALS,
    Program,
    compare,
    eval_arith,
    for_range,
    ground_of,
    switch_ref,
    term_of,
)
from .prolog import (
    Num,
    Struct,
    Trail,
    deref,
    freeze,
    functor_of,
    instantiate,
    is_ground,
    read_term,
    resolve,
    thaw,
    unify,
)

# Deepest goal nesting one evaluation may reach before it gives up.
MAX_DEPTH = 10_000


class FixedWorld:
    """Outcomes fixed up front; unknown instances are an error."""

    def __init__(self, assignment):
        self.assignment = assignment

    def outcomes(self, ref, inst, program):
        got = self.assignment.get((ref, inst))
        if got is None:
            raise OracleError(f"world has no outcome for {ref} instance {inst}")
        return (got,)


class SamplingWorld:
    """Outcomes drawn from the declared distribution on first use.

    Pre-seeded assignments (an evidence sample being extended by a query)
    are respected; fresh draws are recorded.
    """

    def __init__(self, rng, assignment=None):
        self.rng = rng
        self.assignment = assignment if assignment is not None else {}

    def outcomes(self, ref, inst, program):
        got = self.assignment.get((ref, inst))
        if got is None:
            spec = program.switch_spec(ref)
            got = draw(self.rng, spec.domain.values, spec.dist.weights)
            self.assignment[(ref, inst)] = got
        return (got,)


class EnumeratingWorld:
    """Branches over every outcome, recording each instance it meets."""

    def __init__(self):
        self.seen = {}

    def outcomes(self, ref, inst, program):
        spec = program.switch_spec(ref)
        self.seen.setdefault((ref, inst), spec)
        return spec.domain.values


def draw(rng, values, weights):
    """One categorical draw; midpoint scan over cumulative weights."""
    u = rng.random()
    acc = 0.0
    for value, w in zip(values, weights):
        acc += float(w)
        if u < acc:
            return value
    return values[-1]


class WorldEvaluator:
    """Plain depth-first resolution over a program with ground outcomes.

    User-predicate calls are memoized per evaluator (all answers of a
    call pattern computed once as :func:`~osdd.prolog.freeze` snapshots,
    then replayed with :func:`~osdd.prolog.thaw`), which keeps programs
    whose clause alternatives re-derive a shared deterministic prefix,
    like per-element case splits over a list, linear instead of
    exponential.  Memoization is disabled for branching outcome policies,
    where one call pattern legitimately has world-dependent answers.
    """

    def __init__(self, program: Program, world):
        self.program = program
        self.world = world
        self.trail = Trail()
        self.memo_enabled = not isinstance(world, EnumeratingWorld)
        self._memo: dict = {}
        self._seen: dict = {}

    def holds(self, goal) -> bool:
        """True iff the (ground) goal has at least one derivation."""
        if isinstance(goal, str):
            goal = read_term(goal)
        runtime = instantiate(goal, {})
        mark = self.trail.mark()
        try:
            for _ in self._solve((runtime,), 0):
                return True
            return False
        finally:
            self.trail.undo_to(mark)

    def enumerate_all(self, goal) -> int:
        """Drive every derivation to completion (used for discovery)."""
        if isinstance(goal, str):
            goal = read_term(goal)
        runtime = instantiate(goal, {})
        mark = self.trail.mark()
        n = 0
        for _ in self._solve((runtime,), 0):
            n += 1
        self.trail.undo_to(mark)
        return n

    def _solve(self, goals, depth):
        if depth > MAX_DEPTH:
            raise EvalError(f"recursion depth limit {MAX_DEPTH} exceeded")
        if not goals:
            yield
            return
        goal, rest = deref(goals[0]), goals[1:]
        f = functor_of(goal)
        if f is None:
            raise EvalError(f"goal {goal} is not callable")
        name, arity = f
        if name == "msw" and arity == 3:
            yield from self._msw(goal, rest, depth)
        elif name == "true" and arity == 0:
            yield from self._solve(rest, depth)
        elif name == "=" and arity == 2:
            mark = self.trail.mark()
            if unify(goal.args[0], goal.args[1], self.trail):
                yield from self._solve(rest, depth)
            self.trail.undo_to(mark)
        elif name == "\\=" and arity == 2:
            a, b = resolve(goal.args[0]), resolve(goal.args[1])
            if not (is_ground(a) and is_ground(b)):
                raise EvalError("disequality needs ground operands here")
            if a != b:
                yield from self._solve(rest, depth)
        elif name == "is" and arity == 2:
            value = eval_arith(goal.args[1])
            mark = self.trail.mark()
            if unify(goal.args[0], Num(value), self.trail):
                yield from self._solve(rest, depth)
            self.trail.undo_to(mark)
        elif name in COMPARISON_GOALS and arity == 2:
            if compare(name, goal.args[0], goal.args[1]):
                yield from self._solve(rest, depth)
        elif name == "for" and arity == 3:
            for i in for_range(goal.args[1], goal.args[2]):
                mark = self.trail.mark()
                if unify(goal.args[0], Num(i), self.trail):
                    yield from self._solve(rest, depth)
                self.trail.undo_to(mark)
        elif (name, arity) in self.program.clauses:
            yield from self._call(goal, name, arity, rest, depth)
        else:
            raise EvalError(f"unknown goal {name}/{arity}")

    def _msw(self, goal, rest, depth):
        s_t, k_t, x_t = goal.args
        ref = switch_ref(resolve(s_t))
        inst = ground_of(resolve(k_t))
        if ref is None or inst is None:
            raise EvalError("msw switch and instance must be ground")
        for value in self.world.outcomes(ref, inst, self.program):
            mark = self.trail.mark()
            if unify(x_t, term_of(value), self.trail):
                yield from self._solve(rest, depth)
            self.trail.undo_to(mark)

    def _call(self, goal, name, arity, rest, depth):
        args = goal.args if isinstance(goal, Struct) else ()
        if self.memo_enabled:
            openmap = {}
            key = (name, arity) + tuple(freeze(a, openmap) for a in args)
            entry = self._memo.get(key)
            if entry is None:
                # Memoize only call patterns that recur: the first
                # occurrence streams (keeping short-circuit evaluation
                # cheap); repeats pay once for the full answer set.
                count = self._seen.get(key, 0) + 1
                self._seen[key] = count
                if count > 1:
                    self._memo[key] = "computing"
                    answers = {}
                    mark = self.trail.mark()
                    for _ in self._resolve_clauses(args, name, arity, (), depth):
                        amap = {}
                        answers.setdefault(tuple(freeze(a, amap) for a in args))
                    self.trail.undo_to(mark)
                    entry = self._memo[key] = list(answers)
            if entry == "computing":
                entry = None  # recursive pattern: resolve directly
            if entry is not None:
                for answer in entry:
                    mark = self.trail.mark()
                    opens = {}
                    ok = all(
                        unify(a, thaw(t, opens, self.trail), self.trail)
                        for a, t in zip(args, answer)
                    )
                    if ok:
                        yield from self._solve(rest, depth)
                    self.trail.undo_to(mark)
                return
        yield from self._resolve_clauses(args, name, arity, rest, depth)

    def _resolve_clauses(self, args, name, arity, rest, depth):
        for clause in self.program.clauses_for(name, arity):
            env = {}
            head = instantiate(clause.head, env)
            head_args = head.args if isinstance(head, Struct) else ()
            mark = self.trail.mark()
            if all(unify(a, h, self.trail) for a, h in zip(args, head_args)):
                body = tuple(instantiate(g, env) for g in clause.body)
                yield from self._solve(body + rest, depth + 1)
            self.trail.undo_to(mark)
