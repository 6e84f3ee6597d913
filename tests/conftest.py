"""Shared fixtures and brute-force helpers for the test suite."""

import itertools
import os
import subprocess
import sys

import pytest

import osdd
from osdd.constraints import ConstraintFormula, TRUE, eq, formula, neq
from osdd.diagram import (
    ONE,
    SwitchInstance,
    SwitchRef,
    ZERO,
    canonical_instance_var,
    make_node,
    normalize,
    osdd_and,
)
from osdd.program import parse_program
from osdd.programs import BIRTHDAY, PALINDROME, birthday_source
from osdd.terms import GroundTerm, domain_of_symbols


def fresh_env(**env_overrides):
    """An environment in which a fresh interpreter imports this checkout
    of the package, with the keyword arguments set."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(osdd.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.update(env_overrides)
    return env


def run_fresh(script, **env_overrides):
    """Stdout of ``script`` run in a fresh interpreter that imports this
    checkout of the package; the keyword arguments are set in its
    environment.  Process-global tables (variable names, the intern and
    formula tables) then hold nothing from other tests."""
    return subprocess.run(
        [sys.executable, "-c", script],
        env=fresh_env(**env_overrides),
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    ).stdout


@pytest.fixture(scope="session")
def palindrome_program():
    return parse_program(PALINDROME)


@pytest.fixture(scope="session")
def birthday_program():
    return parse_program(BIRTHDAY)


@pytest.fixture(scope="session")
def toy_birthday_program():
    return parse_program(birthday_source(days=4))


@pytest.fixture()
def dom3():
    return domain_of_symbols("abc", ["a", "b", "c"])


@pytest.fixture()
def dom4():
    return domain_of_symbols("abcd", ["a", "b", "c", "d"])


def all_assignments(variables):
    """Every ground substitution over the variables' domains."""
    variables = list(variables)
    for combo in itertools.product(*(v.domain.values for v in variables)):
        yield dict(zip(variables, combo))


def models(f: ConstraintFormula, variables):
    """Satisfying assignments over the given variables."""
    return [a for a in all_assignments(variables) if f.holds(a)]


def mdd_accepts(mdd, world):
    """Evaluate a ground diagram on a world mapping (switch, inst) -> value."""
    node = mdd
    while not node.is_leaf:
        value = world[(node.si.switch, node.si.instance)]
        node = dict(node.edges)[value]
    return node.value == 1


def instance_chain(switch_name, domain, count):
    """Canonical instance variables for (switch, 1..count)."""
    ref = SwitchRef(switch_name)
    out = []
    for k in range(1, count + 1):
        inst = GroundTerm(k)
        out.append(
            (SwitchInstance(ref, inst), canonical_instance_var(ref, inst, domain))
        )
    return out


def msw_node(si, out, gamma=TRUE):
    """A single switch node the way the evaluator builds them."""
    from osdd.constraints import negate

    if gamma.is_empty():
        return make_node(si, out, [(TRUE, ONE)])
    edges = [(gamma, ONE)] + [(m, ZERO) for m in negate(gamma)]
    return make_node(si, out, edges)


def random_proper_diagram(rng, chain, n_constraints=2):
    """A proper diagram over a shared instance chain.

    Mimics evaluation: unconstrained nodes conjoined in order, each
    optionally carrying an equality/disequality on an earlier variable
    or a constant, so the result is proper by construction after
    normalization.
    """
    from osdd.constraints import AtomicConstraint, EQ, NEQ
    from osdd.diagram import to_proper

    picked = sorted(rng.sample(range(len(chain)), rng.randint(1, len(chain))))
    acc = ONE
    bound = []
    for idx in picked:
        si, var = chain[idx]
        gamma = TRUE
        if bound and rng.random() < 0.7:
            other = rng.choice(bound)
            pol = EQ if rng.random() < 0.5 else NEQ
            gamma = formula(AtomicConstraint(var, other, pol))
        elif rng.random() < 0.4:
            value = rng.choice(var.domain.values)
            pol = EQ if rng.random() < 0.5 else NEQ
            gamma = formula(AtomicConstraint(var, value, pol))
        acc = normalize(osdd_and(acc, msw_node(si, var, gamma)))
        bound.append(var)
    return to_proper(acc)


def non_measurable_diagram(dom4):
    """A proper diagram over ``dom4`` whose last label is not saturated."""
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
