"""Textual and DOT serialization of diagrams.

The text format mirrors the node pattern used throughout the package:

    (switch, instance, Var)[ formula : child ; formula : child ]

with leaves written ``0`` / ``1``, formulas as comma-separated atoms
``X3 != X1, X3 = X2`` and the empty formula written ``true``.  Reading a
file back needs the outcome space of each switch, supplied by a resolver
callback (typically Program.switch_spec).
"""

from __future__ import annotations

import re

from .constraints import AtomicConstraint, ConstraintFormula, TRUE, EQ, NEQ
from .diagram import (
    Osdd,
    SwitchInstance,
    SwitchRef,
    ZERO,
    ONE,
    canonical_instance_var,
    make_node,
)
from .errors import ParseError
from .terms import GroundTerm, Var


def format_osdd(d: Osdd) -> str:
    """Render a diagram in the round-trippable text format."""

    def walk(n, depth):
        pad = "  " * depth
        if n.is_leaf:
            return f"{pad}{n.value}"
        head = f"{pad}({n.si.switch}, {n.si.instance}, {n.out})["
        parts = []
        for g, child in n.edges:
            parts.append(f"{pad}  {g} :\n{walk(child, depth + 2)}")
        return head + "\n" + " ;\n".join(parts) + f"\n{pad}]"

    return walk(d, 0) + "\n"


_TOKEN = re.compile(
    r"""\s*(?:
        (?P<punct>[()\[\],;:])
      | (?P<neq>!=)
      | (?P<eq>=)
      | (?P<int>-?\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"bad character {text[pos]!r} in diagram text")
            break
        pos = m.end()
        kind = m.lastgroup
        out.append((kind, m.group(kind)))
    out.append(("eof", ""))
    return out


class _Reader:
    def __init__(self, tokens, switch_space):
        self.tokens = tokens
        self.i = 0
        self.switch_space = switch_space
        self.vars: dict[str, Var] = {}

    def peek(self):
        return self.tokens[self.i]

    def next(self, expect=None):
        kind, val = self.tokens[self.i]
        if expect is not None and val != expect:
            raise ParseError(f"expected {expect!r}, found {val or kind!r}")
        self.i += 1
        return kind, val

    def parse_osdd(self):
        kind, val = self.peek()
        if kind == "int" and val in ("0", "1"):
            self.next()
            return ONE if val == "1" else ZERO
        self.next(expect="(")
        switch = self.parse_switch()
        self.next(expect=",")
        instance = self.parse_ground()
        self.next(expect=",")
        kind, name = self.next()
        if kind != "name" or not name[0].isupper():
            raise ParseError(f"expected a variable name, found {name!r}")
        self.next(expect=")")
        si = SwitchInstance(switch, instance)
        domain = self.switch_space(switch)
        out = canonical_instance_var(switch, instance, domain)
        if name in self.vars or out in self.vars.values():
            raise ParseError(f"{si} binds {name}, but it is already bound above")
        self.vars[name] = out
        self.next(expect="[")
        edges = [self.parse_edge()]
        while self.peek()[1] == ";":
            self.next()
            edges.append(self.parse_edge())
        self.next(expect="]")
        del self.vars[name]
        return make_node(si, out, edges)

    def parse_edge(self):
        label = self.parse_formula()
        self.next(expect=":")
        child = self.parse_osdd()
        return (label, child)

    def parse_formula(self):
        kind, val = self.peek()
        if kind == "name" and val == "true":
            self.next()
            return TRUE
        atoms = [self.parse_atom()]
        while self.peek()[1] == ",":
            self.next()
            atoms.append(self.parse_atom())
        return ConstraintFormula(atoms)

    def parse_atom(self):
        a = self.parse_operand()
        kind, op = self.next()
        if op not in ("=", "!="):
            raise ParseError(f"expected '=' or '!=', found {op!r}")
        b = self.parse_operand()
        pol = EQ if op == "=" else NEQ
        if isinstance(a, Var):
            return AtomicConstraint(a, b, pol)
        if isinstance(b, Var):
            return AtomicConstraint(b, a, pol)
        raise ParseError(f"constraint {a} {op} {b} has no variable")

    def parse_operand(self):
        kind, val = self.next()
        if kind == "int":
            return GroundTerm(int(val))
        if kind != "name":
            raise ParseError(f"unexpected token {val!r} in formula")
        if val[0].isupper() or val[0] == "_":
            if val not in self.vars:
                raise ParseError(f"variable {val} used before being bound")
            return self.vars[val]
        return GroundTerm(val)

    def parse_switch(self):
        kind, name = self.next()
        if kind == "int":
            raise ParseError("switch names cannot be integers")
        args = []
        if self.peek()[1] == "(":
            self.next()
            args.append(self.parse_ground())
            while self.peek()[1] == ",":
                self.next()
                args.append(self.parse_ground())
            self.next(expect=")")
        return SwitchRef(name, tuple(args))

    def parse_ground(self):
        kind, val = self.next()
        if kind == "int":
            return GroundTerm(int(val))
        if kind == "name" and not val[0].isupper():
            return GroundTerm(val)
        raise ParseError(f"expected a ground term, found {val!r}")


def parse_osdd(text: str, switch_space) -> Osdd:
    """Parse the text format.

    ``switch_space`` maps a SwitchRef to the TypeDomain of its outcomes.
    A variable name in the text only links a node to the labels below
    it: each node's output is bound to the instance's
    :func:`canonical_instance_var`, so texts that differ only in variable
    names parse to the same interned diagram, and so does the text of a
    diagram the engine built.
    """
    reader = _Reader(_tokenize(text), switch_space)
    d = reader.parse_osdd()
    kind, _ = reader.peek()
    if kind != "eof":
        raise ParseError("trailing input after diagram")
    return d


def to_dot(d: Osdd) -> str:
    """GraphViz rendering: internal nodes as boxes labeled msw(s,k,X),
    edges labeled with their constraint formulas."""
    lines = ["digraph osdd {", '  node [shape=box, style=rounded];']
    ids = {}
    counter = [0]

    def node_id(n):
        if n not in ids:
            ids[n] = f"n{counter[0]}"
            counter[0] += 1
        return ids[n]

    emitted = set()

    def walk(n):
        me = node_id(n)
        if me in emitted:
            return
        emitted.add(me)
        if n.is_leaf:
            lines.append(f'  {me} [label="{n.value}", style=solid];')
            return
        lines.append(f'  {me} [label="msw({n.si.switch},{n.si.instance},{n.out})"];')
        for g, child in n.edges:
            walk(child)
            label = "" if g.is_empty() else str(g)
            lines.append(f'  {me} -> {node_id(child)} [label="{label}"];')

    walk(d)
    lines.append("}")
    return "\n".join(lines) + "\n"
