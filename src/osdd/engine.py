"""Symbolic query evaluation: building diagrams from transformed programs.

Each user predicate p/n is rewritten to p/(n+2); the two extra arguments
thread a diagram through the body, facts pass it unchanged, and the
``msw`` and ``constraint`` builtins grow it.  Evaluation is depth-first
with tabling: a call is keyed on the :func:`~osdd.prolog.freeze` snapshot
of its arguments plus the identity of the incoming diagram, and answers
whose argument snapshots are equal have their output diagrams merged by
disjunction, which is the observable behavior of answer combination over
a lattice.  Stored answers are replayed with :func:`~osdd.prolog.thaw`.

Switch outputs are special logic variables that never take ordinary
bindings.  A unification that would equate two of them, or one of them
with a constant, surfaces as an atomic constraint instead, which is
applied to the threaded diagram (every switch variable already has a
node there) so equality imposed by plain unification, e.g. through list
cells, lands as edge constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import constraints as cf
from .constraints import EQ, NEQ, AtomicConstraint
from .diagram import (
    ONE,
    Osdd,
    SwitchInstance,
    ZERO,
    apply_constraint,
    bound_vars,
    canonical_instance_var,
    has_live_leaf,
    make_node,
    normalize,
    osdd_and,
    osdd_or,
    to_proper,
)
from .errors import EvalError
from .program import (
    BUILTIN_GOALS,
    COMPARISON_GOALS,
    CONSTRAINT_GOALS,
    Clause,
    Program,
    compare,
    eval_arith,
    for_range,
    ground_of,
    switch_ref,
)
from .prolog import (
    LVar,
    Num,
    PVar,
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
from .terms import Var


# Deepest clause nesting a query may reach before evaluation gives up.
MAX_DEPTH = 4000


class OsddVal:
    """Opaque runtime wrapper carrying a diagram through the threading."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"OsddVal({self.value!r})"


# ---------------------------------------------------------------------------
# Program transformation


@dataclass
class TransformedProgram:
    clauses: dict  # (name, arity+2) -> [Clause], one key per user predicate


def _threaded_goal(goal, o_in, o_out):
    f = functor_of(goal)
    if f == ("msw", 3):
        return Struct("msw", goal.args + (o_in, o_out))
    if f is not None and f[1] == 2 and f[0] in CONSTRAINT_GOALS:
        return Struct("constraint", (goal, o_in, o_out))
    return Struct(goal.name, goal.args + (o_in, o_out)) if isinstance(
        goal, Struct
    ) else Struct(goal.name, (o_in, o_out))


def _needs_thread(goal, user_preds):
    f = functor_of(goal)
    if f is None:
        raise EvalError(f"goal {goal} is not callable")
    if f == ("msw", 3):
        return True
    if f[1] == 2 and f[0] in CONSTRAINT_GOALS:
        return True
    if f in user_preds:
        return True
    name, arity = f
    if name in BUILTIN_GOALS or name in COMPARISON_GOALS:
        return False
    raise EvalError(f"unknown predicate {name}/{arity}")


def transform(program: Program) -> TransformedProgram:
    """Add diagram-threading arguments to every user predicate.

    Facts become ``p(T, O, O)``; rule bodies thread O through each user
    call, msw, and constraint goal in order, leaving arithmetic and
    comparison builtins untouched.
    """
    user_preds = set(program.clauses)
    reserved = {"msw", "constraint"} | BUILTIN_GOALS
    for name, arity in user_preds:
        if name in reserved:
            raise EvalError(f"predicate name {name}/{arity} is reserved")
    out = {}
    counter = itertools.count(1)
    for (name, arity), clauses in program.clauses.items():
        new_key = (name, arity + 2)
        for clause in clauses:
            o0 = PVar(f"_O{next(counter)}")
            head_args = clause.head.args if isinstance(clause.head, Struct) else ()
            goals = []
            o_prev = o0
            for goal in clause.body:
                if _needs_thread(goal, user_preds):
                    o_next = PVar(f"_O{next(counter)}")
                    goals.append(_threaded_goal(goal, o_prev, o_next))
                    o_prev = o_next
                else:
                    goals.append(goal)
            new_head = Struct(name, tuple(head_args) + (o0, o_prev))
            out.setdefault(new_key, []).append(Clause(new_head, tuple(goals)))
    return TransformedProgram(out)


# ---------------------------------------------------------------------------
# Answer tables


@dataclass
class TableEntry:
    status: str  # "computing" | "done"
    answers: dict = field(default_factory=dict)  # answer snapshots -> Osdd


class AnswerTable:
    """Tabled answers per (predicate, call pattern, incoming diagram).

    Re-deriving an existing answer replaces its stored diagram with the
    disjunction of old and new.  Constraint handling is call-local: the
    builtins surface constraints exactly where they arise, so no separate
    store survives an answer (plain variables bind eagerly and a switch
    variable always has a node in the threaded diagram already).
    """

    def __init__(self):
        self.entries: dict = {}

    def get(self, key):
        return self.entries.get(key)

    def create(self, key):
        entry = TableEntry("computing")
        self.entries[key] = entry
        return entry

    def add_answer(self, entry, templates, delta):
        got = entry.answers.get(templates)
        if got is not None:
            delta = normalize(osdd_or(got, delta))
        entry.answers[templates] = delta


# ---------------------------------------------------------------------------
# The evaluation session


class EvalSession:
    """One evaluation context: shared switch-instance variables, answer
    table, and trail.  Evaluate related queries (a query and its
    evidence) in a single session so their diagrams share variables."""

    def __init__(self, program: Program):
        self.program = program
        self.transformed = transform(program)
        self.table = AnswerTable()
        self.trail = Trail()

    # -- public API ----------------------------------------------------------

    def query(self, atom) -> Osdd:
        """Evaluate a ground atom to its diagram (disjunction of answers)."""
        if isinstance(atom, str):
            atom = read_term(atom)
        goal = instantiate(atom, {})
        if not is_ground(goal):
            raise EvalError(f"query {atom} is not ground")
        f = functor_of(goal)
        if f is None:
            raise EvalError(f"query {atom} is not callable")
        key = (f[0], f[1] + 2)
        if key not in self.transformed.clauses:
            raise EvalError(f"unknown predicate {f[0]}/{f[1]}")
        o_out = LVar()
        args = (goal.args if isinstance(goal, Struct) else ()) + (
            OsddVal(ONE),
            o_out,
        )
        call = Struct(f[0], args)
        result = ZERO
        mark = self.trail.mark()
        for _ in self._solve((call,), 0):
            diagram = deref(o_out)
            result = normalize(osdd_or(result, diagram.value))
        self.trail.undo_to(mark)
        if not has_live_leaf(result):
            return ZERO  # no worlds at all: canonical empty diagram
        return to_proper(result)

    # -- resolution ----------------------------------------------------------

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
        if name == "msw" and arity == 5:
            yield from self._msw(goal, rest, depth)
        elif name == "constraint" and arity == 3:
            yield from self._constraint(goal, rest, depth)
        elif name == "true" and arity == 0:
            yield from self._solve(rest, depth)
        elif name == "is" and arity == 2:
            yield from self._is(goal, rest, depth)
        elif name in COMPARISON_GOALS and arity == 2:
            if compare(name, goal.args[0], goal.args[1]):
                yield from self._solve(rest, depth)
        elif name == "for" and arity == 3:
            yield from self._for(goal, rest, depth)
        elif (name, arity) in self.transformed.clauses:
            yield from self._call_tabled(goal, rest, depth)
        else:
            raise EvalError(f"unknown goal {name}/{arity}")

    # -- tabled user calls ----------------------------------------------------

    def _call_tabled(self, goal, rest, depth):
        name, arity = functor_of(goal)
        base_args = goal.args[:-2]
        o_in = deref(goal.args[-2])
        o_out_t = goal.args[-1]
        if not isinstance(o_in, OsddVal):
            raise EvalError(f"call {name}/{arity - 2} has no threaded diagram")
        openmap = {}
        templates = tuple(freeze(a, openmap) for a in base_args)
        key = ((name, arity), templates, id(o_in.value))
        entry = self.table.get(key)
        if entry is None:
            entry = self._compute(key, (name, arity), templates, o_in.value, depth)
        elif entry.status == "computing":
            raise EvalError(
                f"recursive tabled call {name}/{arity - 2} is not supported"
            )
        for templates_ans, delta in list(entry.answers.items()):
            mark = self.trail.mark()
            opens = {}
            inst = [thaw(t, opens, self.trail) for t in templates_ans]
            emitted = []
            ok = True
            for live, stored in zip(base_args, inst):
                if not unify(live, stored, self.trail, self._emitter(emitted)):
                    ok = False
                    break
            if ok:
                out = delta
                for beta in emitted:
                    out = self._apply_to_thread(out, beta)
                if not unify(o_out_t, OsddVal(out), self.trail):
                    raise EvalError("output argument of a call was already bound")
                yield from self._solve(rest, depth)
            self.trail.undo_to(mark)

    def _compute(self, key, pred_key, templates, o_in, depth):
        entry = self.table.create(key)
        opens = {}
        fresh_args = [thaw(t, opens, self.trail) for t in templates]
        mark0 = self.trail.mark()
        for clause in self.transformed.clauses[pred_key]:
            env = {}
            head = instantiate(clause.head, env)
            body = tuple(instantiate(g, env) for g in clause.body)
            head_base = head.args[:-2]
            head_oin, head_oout = head.args[-2], head.args[-1]
            mark = self.trail.mark()
            emitted = []
            ok = all(
                unify(h, a, self.trail, self._emitter(emitted))
                for h, a in zip(head_base, fresh_args)
            )
            if ok:
                o_start = o_in
                for beta in emitted:
                    o_start = self._apply_to_thread(o_start, beta)
                o_out_local = LVar()
                if not unify(head_oin, OsddVal(o_start), self.trail) or not unify(
                    head_oout, o_out_local, self.trail
                ):
                    raise EvalError("thread variables of a clause were bound")
                for _ in self._solve(body, depth + 1):
                    delta_t = deref(o_out_local)
                    if not isinstance(delta_t, OsddVal):
                        raise EvalError(
                            f"clause for {pred_key[0]} did not produce a diagram"
                        )
                    answer_map = {}
                    answer = tuple(freeze(a, answer_map) for a in fresh_args)
                    self.table.add_answer(entry, answer, delta_t.value)
            self.trail.undo_to(mark)
        self.trail.undo_to(mark0)
        entry.status = "done"
        return entry

    # -- constraint surfacing --------------------------------------------------

    def _emitter(self, out):
        def emit(svar, other):
            beta = self._as_constraint(svar, other, EQ)
            if beta is None:
                return False
            if beta is not True:
                out.append(beta)
            return True

        return emit

    def _as_constraint(self, svar, other, polarity):
        """Build an atomic constraint between a switch variable and a
        diagram Var or constant; True means trivially satisfied, None
        means unsatisfiable."""
        if isinstance(other, Var):
            if other == svar:
                return True if polarity == EQ else None
            try:
                return AtomicConstraint(svar, other, polarity)
            except ValueError as exc:
                raise EvalError(str(exc))
        value = ground_of(other)
        if value is None:
            raise EvalError(f"switch outcomes are atomic; got {other}")
        if value not in svar.domain:
            return None if polarity == EQ else True
        return AtomicConstraint(svar, value, polarity)

    def _msw(self, goal, rest, depth):
        s_t, k_t, x_t, o1_t, o2_t = goal.args
        ref = switch_ref(resolve(s_t))
        inst = ground_of(resolve(k_t))
        if ref is None or inst is None:
            raise EvalError(
                f"msw switch and instance must be ground, got {resolve(s_t)}, "
                f"{resolve(k_t)}"
            )
        spec = self.program.switch_spec(ref)
        y = canonical_instance_var(ref, inst, spec.domain)
        mark = self.trail.mark()
        gamma_atoms = []
        x = deref(x_t)
        if isinstance(x, LVar) and x.svar is None:
            x.svar = y
            self.trail.push_svar(x)
        elif isinstance(x, LVar):
            if x.svar != y:
                beta = self._as_constraint(y, x.svar, EQ)
                if beta is None:
                    self.trail.undo_to(mark)
                    return
                if beta is not True:
                    gamma_atoms.append(beta)
        else:
            beta = self._as_constraint(y, x, EQ)
            if beta is None:
                self.trail.undo_to(mark)
                return
            if beta is not True:
                gamma_atoms.append(beta)

        gamma = cf.ConstraintFormula(gamma_atoms)
        si = SwitchInstance(ref, inst)
        if gamma.is_empty():
            node = make_node(si, y, [(cf.TRUE, ONE)])
        else:
            edges = [(gamma, ONE)] + [(m, ZERO) for m in cf.negate(gamma)]
            node = make_node(si, y, edges)
        o1 = deref(o1_t)
        combined = normalize(osdd_and(o1.value, node))
        if not unify(o2_t, OsddVal(combined), self.trail):
            raise EvalError("msw output thread was already bound")
        yield from self._solve(rest, depth)
        self.trail.undo_to(mark)

    def _constraint(self, goal, rest, depth):
        c_t, o1_t, o2_t = goal.args
        c = deref(c_t)
        if not isinstance(c, Struct) or len(c.args) != 2:
            raise EvalError(f"bad constraint goal {c}")
        a, b = c.args
        o1 = deref(o1_t)
        mark = self.trail.mark()
        emitted = []
        if c.name == "=":
            ok = unify(a, b, self.trail, self._emitter(emitted))
        elif c.name == "\\=":
            ok, emitted = self._disequality(a, b)
        else:
            raise EvalError(f"unsupported constraint operator {c.name}")
        if ok:
            out = o1.value
            for beta in emitted:
                out = self._apply_to_thread(out, beta)
            if not unify(o2_t, OsddVal(out), self.trail):
                raise EvalError("constraint output thread was already bound")
            yield from self._solve(rest, depth)
        self.trail.undo_to(mark)

    def _apply_to_thread(self, diagram, beta):
        """Constrain the threaded diagram, tolerating already-dead threads.

        Every switch variable has a node in its thread from the moment it
        exists; a missing node therefore means the node was absorbed into
        a 0 leaf, in which case the diagram denotes no worlds and the
        constraint changes nothing.
        """
        if set(beta.variables()) <= bound_vars(diagram):
            return normalize(apply_constraint(diagram, beta))
        if has_live_leaf(diagram):
            raise EvalError(
                f"constraint {beta} references a switch variable with no "
                "node in the threaded diagram"
            )
        return diagram

    def _disequality(self, a, b):
        a, b = deref(a), deref(b)
        a_sv = isinstance(a, LVar) and a.svar is not None
        b_sv = isinstance(b, LVar) and b.svar is not None
        if a_sv or b_sv:
            if a_sv and b_sv:
                beta = self._as_constraint(a.svar, b.svar, NEQ)
            else:
                sv, other = (a, b) if a_sv else (b, a)
                other = deref(other)
                if isinstance(other, LVar):
                    raise EvalError(
                        "disequality against an unbound plain variable is "
                        "not supported"
                    )
                beta = self._as_constraint(sv.svar, other, NEQ)
            if beta is None:
                return False, []
            if beta is True:
                return True, []
            return True, [beta]
        ra, rb = resolve(a), resolve(b)
        if not is_ground(ra) or not is_ground(rb):
            raise EvalError(
                "disequality between non-ground plain terms is not supported"
            )
        return (ra != rb), []

    # -- plain builtins ---------------------------------------------------------

    def _is(self, goal, rest, depth):
        lhs, rhs = goal.args
        value = eval_arith(rhs)
        emitted = []
        mark = self.trail.mark()
        if unify(lhs, Num(value), self.trail, self._emitter(emitted)):
            if emitted:
                raise EvalError("arithmetic cannot bind a switch output")
            yield from self._solve(rest, depth)
        self.trail.undo_to(mark)

    def _for(self, goal, rest, depth):
        p_t, lo_t, hi_t = goal.args
        for i in for_range(lo_t, hi_t):
            mark = self.trail.mark()
            if unify(p_t, Num(i), self.trail):
                yield from self._solve(rest, depth)
            self.trail.undo_to(mark)


def evaluate(program: Program, query) -> Osdd:
    """Build the proper, canonical diagram for a ground query atom."""
    return EvalSession(program).query(query)
