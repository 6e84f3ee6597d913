"""Programs: clauses, switch declarations, and source-level desugaring.

Parsing normalizes the source so both evaluators (symbolic and concrete)
see plain definite clauses:

  * DCG rules (``-->``) expand via the standard difference-list
    translation, and ``phrase/2,3`` goals are rewritten to direct calls;
  * if-then-else and bare disjunction split a clause into alternatives
    (conditions must be constraint or comparison goals so their negation
    is exact);
  * module qualifiers (``basics:for``) are stripped;
  * ``values/2`` and ``set_sw/2``, whether facts or directives, become
    switch declarations.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .diagram import SwitchRef
from .errors import EvalError, ParseError
from .prolog import (
    NIL,
    Atom,
    Num,
    PVar,
    Struct,
    deref,
    functor_of,
    make_list,
    read_terms,
    resolve,
)
from .terms import GroundTerm, TypeDomain

COMPARISON_GOALS = {"<", ">", "=<", ">=", "=:=", "=\\="}
CONSTRAINT_GOALS = {"=", "\\="}
BUILTIN_GOALS = COMPARISON_GOALS | CONSTRAINT_GOALS | {"is", "for", "true", "msw"}

_NEGATION = {
    "=": "\\=",
    "\\=": "=",
    "<": ">=",
    ">=": "<",
    ">": "=<",
    "=<": ">",
    "=:=": "=\\=",
    "=\\=": "=:=",
}


# ---------------------------------------------------------------------------
# Builtin semantics shared by the symbolic and the concrete evaluator


def ground_of(t) -> GroundTerm | None:
    """The ground term an atomic runtime term denotes, else None."""
    if isinstance(t, Atom):
        return GroundTerm(t.name)
    if isinstance(t, Num) and isinstance(t.value, int):
        return GroundTerm(t.value)
    return None


def term_of(value: GroundTerm):
    """The runtime term for a ground term (inverse of :func:`ground_of`)."""
    if isinstance(value.symbol, int):
        return Num(value.symbol)
    return Atom(value.symbol)


def switch_ref(t) -> SwitchRef | None:
    """The switch a resolved msw/3 first argument names, else None."""
    if isinstance(t, Atom):
        return SwitchRef(t.name)
    if isinstance(t, Struct):
        args = []
        for a in t.args:
            g = ground_of(a)
            if g is None:
                return None
            args.append(g)
        return SwitchRef(t.name, tuple(args))
    return None


_ARITH = {
    ("+", 2): operator.add,
    ("-", 2): operator.sub,
    ("-", 1): operator.neg,
    ("*", 2): operator.mul,
    ("//", 2): operator.floordiv,
    ("/", 2): lambda a, b: Fraction(a) / Fraction(b),
    ("mod", 2): operator.mod,
}

_COMPARE = {
    "<": operator.lt,
    ">": operator.gt,
    "=<": operator.le,
    ">=": operator.ge,
    "=:=": operator.eq,
    "=\\=": operator.ne,
}


def eval_arith(t):
    """Value of an arithmetic expression over runtime terms."""
    t = deref(t)
    if isinstance(t, Num):
        return t.value
    if isinstance(t, Struct):
        fn = _ARITH.get((t.name, len(t.args)))
        if fn is not None:
            args = [eval_arith(a) for a in t.args]
            try:
                return fn(*args)
            except ZeroDivisionError:
                raise EvalError(f"division by zero in {resolve(t)}") from None
    raise EvalError(f"cannot evaluate arithmetic term {resolve(t)}")


def compare(op: str, lhs, rhs) -> bool:
    """Truth of the comparison goal ``lhs op rhs`` (op in COMPARISON_GOALS)."""
    return _COMPARE[op](eval_arith(lhs), eval_arith(rhs))


def for_range(lo_t, hi_t) -> range:
    """The values ``for(I, Lo, Hi)`` binds I to, in order."""
    lo, hi = eval_arith(lo_t), eval_arith(hi_t)
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise EvalError("for/3 bounds must be integers")
    return range(lo, hi + 1)


@dataclass(frozen=True)
class Clause:
    head: object
    body: tuple

    def __str__(self):
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(g) for g in self.body)}."


@dataclass(frozen=True)
class Distribution:
    """Outcome weights for one switch, aligned with its domain values.

    ``float_weights`` holds the same weights converted to floats once, for
    the samplers' draws.  ``groups`` holds the domain positions grouped by
    equal weight, each group in domain order and the groups in the order
    of their first position (a uniform distribution has one group, a
    ``range``), and ``group_of[i]`` is the index of position ``i``'s
    group; exact inference reads interchangeable values off them.
    """

    weights: tuple[Fraction, ...]
    float_weights: tuple[float, ...] = field(
        default=(), init=False, repr=False, compare=False
    )
    groups: tuple = field(default=(), init=False, repr=False, compare=False)
    group_of: tuple[int, ...] = field(
        default=(), init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ParseError("distribution weights must be nonnegative")
        total = sum(self.weights)
        if abs(float(total) - 1.0) > 1e-9:
            raise ParseError(f"distribution weights sum to {float(total)}, not 1")
        if total != 1:
            object.__setattr__(
                self, "weights", tuple(w / total for w in self.weights)
            )
        object.__setattr__(
            self, "float_weights", tuple(float(w) for w in self.weights)
        )
        n = len(self.weights)
        # count() tries identity before ==, and a uniform declaration repeats
        # one Fraction object; a set would hash every weight.
        if self.weights.count(self.weights[0]) == n:
            groups, group_of = (range(n),), (0,) * n
        else:
            by_weight: dict = {}
            for i, w in enumerate(self.weights):
                by_weight.setdefault(w, []).append(i)
            groups = tuple(tuple(g) for g in by_weight.values())
            index = {w: k for k, w in enumerate(by_weight)}
            group_of = tuple(index[w] for w in self.weights)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "group_of", group_of)

    @property
    def is_uniform(self) -> bool:
        return len(self.groups) == 1


@dataclass(frozen=True)
class SwitchSpec:
    domain: TypeDomain
    dist: Distribution


@dataclass
class Program:
    """A parsed, desugared program plus its switch declarations."""

    clauses: dict = field(default_factory=dict)  # (name, arity) -> [Clause]
    switch_decls: list = field(default_factory=list)  # (pattern, values, dist)
    _spec_cache: dict = field(default_factory=dict)

    def clauses_for(self, name, arity):
        return self.clauses.get((name, arity), [])

    def add_clause(self, clause: Clause):
        key = functor_of(clause.head)
        if key is None:
            raise ParseError(f"clause head {clause.head} is not callable")
        self.clauses.setdefault(key, []).append(clause)

    def switch_spec(self, ref: SwitchRef) -> SwitchSpec:
        """Resolve the outcome space and distribution of a switch."""
        cached = self._spec_cache.get(ref)
        if cached is not None:
            return cached
        values_decl = None
        dist_decl = None
        for pattern, values, dist in self.switch_decls:
            if not _pattern_matches(pattern, ref):
                continue
            if values is not None and values_decl is None:
                values_decl = values
            if dist is not None and dist_decl is None:
                dist_decl = dist
        spec = _build_spec(ref, values_decl, dist_decl)
        self._spec_cache[ref] = spec
        return spec


def _pattern_matches(pattern, ref: SwitchRef) -> bool:
    name, args = _pattern_parts(pattern)
    if name != ref.name:
        return False
    if len(args) == len(ref.args):
        return all(
            isinstance(p, PVar) or _declared_value(p) == a
            for p, a in zip(args, ref.args)
        )
    # Tolerate a parameterized declaration like s(_) naming the bare
    # switch s, and vice versa, as long as every argument is a wildcard.
    if not ref.args and all(isinstance(p, PVar) for p in args):
        return True
    if not args and ref.args:
        return True
    return False


def _pattern_parts(pattern):
    if isinstance(pattern, Atom):
        return pattern.name, ()
    if isinstance(pattern, Struct):
        return pattern.name, pattern.args
    raise ParseError(f"bad switch pattern {pattern}")


def _declared_value(t) -> GroundTerm:
    g = ground_of(t)
    if g is None:
        raise ParseError(f"{t} is not an atomic ground term")
    return g


def _build_spec(ref, values_decl, dist_decl) -> SwitchSpec:
    if dist_decl is None:
        raise EvalError(f"switch {ref} has no set_sw declaration")
    f = functor_of(dist_decl)
    if f == ("uniform", 2):
        lo, hi = dist_decl.args
        if not (isinstance(lo, Num) and isinstance(hi, Num)):
            raise ParseError(f"uniform bounds must be integers in {dist_decl}")
        lo, hi = int(lo.value), int(hi.value)
        if hi < lo:
            raise ParseError(f"empty uniform range in {dist_decl}")
        domain = TypeDomain(str(ref), tuple(GroundTerm(i) for i in range(lo, hi + 1)))
        n = hi - lo + 1
        return SwitchSpec(domain, Distribution((Fraction(1, n),) * n))
    if values_decl is None:
        raise EvalError(f"switch {ref} has no values declaration")
    domain = TypeDomain(str(ref), tuple(_declared_value(v) for v in values_decl))
    if dist_decl == Atom("uniform"):
        n = domain.size
        return SwitchSpec(domain, Distribution((Fraction(1, n),) * n))
    weights = []
    t = dist_decl
    items = _list_items(t)
    if items is None:
        raise ParseError(f"unsupported distribution {dist_decl}")
    for item in items:
        if not isinstance(item, Num):
            raise ParseError(f"distribution weight {item} is not a number")
        weights.append(Fraction(item.value))
    if len(weights) != domain.size:
        raise ParseError(
            f"switch {ref}: {len(weights)} weights for {domain.size} values"
        )
    return SwitchSpec(domain, Distribution(tuple(weights)))


def _list_items(t):
    items = []
    while isinstance(t, Struct) and t.name == "." and len(t.args) == 2:
        items.append(t.args[0])
        t = t.args[1]
    if t != NIL:
        return None
    return items


# ---------------------------------------------------------------------------
# Source-level desugaring


_fresh_counter = itertools.count(1)


def _fresh_var():
    return PVar(f"_D{next(_fresh_counter)}")


def _strip_module(goal):
    if isinstance(goal, Struct) and goal.name == ":" and len(goal.args) == 2:
        return goal.args[1]
    return goal


def _conjunction_list(term):
    if isinstance(term, Struct) and term.name == "," and len(term.args) == 2:
        return _conjunction_list(term.args[0]) + _conjunction_list(term.args[1])
    return [term]


def _negate_goal(goal):
    f = functor_of(goal)
    if f is None or f[1] != 2 or f[0] not in _NEGATION:
        raise ParseError(
            f"cannot negate condition {goal}; if-then-else conditions must be "
            "constraint or comparison goals"
        )
    return Struct(_NEGATION[f[0]], goal.args)


def _alternatives(term):
    """Expand ; and -> into alternative flat goal sequences."""
    if isinstance(term, Struct) and term.name == "," and len(term.args) == 2:
        lefts = _alternatives(term.args[0])
        rights = _alternatives(term.args[1])
        return [l + r for l in lefts for r in rights]
    if isinstance(term, Struct) and term.name == ";" and len(term.args) == 2:
        first, second = term.args
        if isinstance(first, Struct) and first.name == "->" and len(first.args) == 2:
            cond, then = first.args
            out = []
            for alt in _alternatives(then):
                out.append([cond] + alt)
            for alt in _alternatives(second):
                out.append([_negate_goal(cond)] + alt)
            return out
        return _alternatives(first) + _alternatives(second)
    if isinstance(term, Struct) and term.name == "->" and len(term.args) == 2:
        raise ParseError("if-then without else is not supported")
    return [[_strip_module(term)]]


def _rewrite_phrase(goal):
    f = functor_of(goal)
    if f == ("phrase", 2):
        body, lst = goal.args
        return _dcg_call(body, lst, NIL)
    if f == ("phrase", 3):
        body, lst, rest = goal.args
        return _dcg_call(body, lst, rest)
    return goal


def _dcg_call(nonterminal, s0, s):
    if isinstance(nonterminal, Atom):
        return Struct(nonterminal.name, (s0, s))
    if isinstance(nonterminal, Struct):
        return Struct(nonterminal.name, nonterminal.args + (s0, s))
    raise ParseError(f"bad grammar body {nonterminal}")


def _dcg_body(body, s0, s):
    """Difference-list translation of a grammar rule body."""
    if isinstance(body, Struct) and body.name == "," and len(body.args) == 2:
        mid = _fresh_var()
        return _dcg_body(body.args[0], s0, mid) + _dcg_body(body.args[1], mid, s)
    if body == NIL:
        return [Struct("=", (s0, s))]
    items = _list_items(body) if isinstance(body, Struct) else None
    if items is not None:
        return [Struct("=", (s0, make_list(items, s)))]
    return [_dcg_call(body, s0, s)]


def _expand_dcg_rule(head, body):
    s0, s = _fresh_var(), _fresh_var()
    new_head = _dcg_call(head, s0, s)
    goals = _dcg_body(body, s0, s)
    return new_head, goals


def parse_program(text: str) -> Program:
    """Parse, desugar, and collect switch declarations."""
    program = Program()
    for term in read_terms(text):
        f = functor_of(term)
        if f == (":-", 1):
            _collect_declaration(program, term.args[0], directive=True)
            continue
        if f == (":-", 2):
            head, body = term.args
            _add_rule(program, head, body)
            continue
        if f == ("-->", 2):
            head, body = term.args
            new_head, goals = _expand_dcg_rule(head, body)
            _add_rule_goals(program, new_head, goals)
            continue
        if f in (("values", 2), ("set_sw", 2)):
            _collect_declaration(program, term, directive=False)
            continue
        if isinstance(term, (Atom, Struct)):
            program.add_clause(Clause(term, ()))
            continue
        raise ParseError(f"cannot interpret top-level term {term}")
    return program


def _collect_declaration(program, goal, directive):
    f = functor_of(goal)
    if f == ("values", 2):
        pattern, values = goal.args
        items = _list_items(values)
        if items is None:
            raise ParseError(f"values/2 needs a proper list, got {values}")
        program.switch_decls.append((pattern, items, None))
        return
    if f == ("set_sw", 2):
        pattern, dist = goal.args
        program.switch_decls.append((pattern, None, dist))
        return
    if f == ("table", 1):
        return  # tabling is implicit for every user predicate
    raise ParseError(f"unsupported directive {goal}")


def _add_rule(program, head, body):
    goals = [_rewrite_phrase(_strip_module(g)) for g in _conjunction_list(body)]
    _add_rule_goals(program, head, goals)


def _add_rule_goals(program, head, goals):
    rejoined = goals[0]
    for g in goals[1:]:
        rejoined = Struct(",", (rejoined, g))
    for alternative in _alternatives(rejoined):
        body = tuple(
            _rewrite_phrase(g) for g in alternative if g != Atom("true")
        )
        program.add_clause(Clause(head, body))
