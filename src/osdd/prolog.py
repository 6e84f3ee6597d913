"""Prolog-subset reader and runtime term machinery.

Covers what the supported program class needs: facts, rules, DCG rules,
directives, lists, integers and exact decimals, comparison/arithmetic
operators, if-then-else, and ``%`` comments.  Decimal literals are kept
as exact fractions so distribution parameters survive rational-mode
inference unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError


# ---------------------------------------------------------------------------
# Abstract terms (parse-time)


@dataclass(frozen=True)
class Atom:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Num:
    value: object  # int or Fraction

    def __str__(self):
        if isinstance(self.value, Fraction) and self.value.denominator != 1:
            return str(float(self.value))
        return str(self.value)


@dataclass(frozen=True)
class PVar:
    """A named clause variable; occurrences unify by name within a clause."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Struct:
    name: str
    args: tuple

    def __str__(self):
        if self.name == "." and len(self.args) == 2:
            return _format_list(self)
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


NIL = Atom("[]")


def _format_list(t):
    items = []
    while isinstance(t, Struct) and t.name == "." and len(t.args) == 2:
        items.append(str(t.args[0]))
        t = t.args[1]
    if t == NIL:
        return f"[{', '.join(items)}]"
    return f"[{', '.join(items)}|{t}]"


def make_list(items, tail=NIL):
    out = tail
    for item in reversed(items):
        out = Struct(".", (item, out))
    return out


def functor_of(t):
    if isinstance(t, Atom):
        return (t.name, 0)
    if isinstance(t, Struct):
        return (t.name, len(t.args))
    return None


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+|%[^\n]*)
    | (?P<number>\d+\.\d+|\d+)
    | (?P<name>[a-z][A-Za-z0-9_]*)
    | (?P<var>[A-Z_][A-Za-z0-9_]*)
    | (?P<punct>\(|\)|\[|\]|\||,|!)
    | (?P<op>:-|-->|\\\+|\\=|=<|>=|=:=|=\\=|==|->|;|=|<|>|\+|-|\*|//|/|:|\.)
    """,
    re.VERBOSE,
)


def tokenize(text):
    tokens = []
    pos = 0
    line = 1
    col = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        newlines = chunk.count("\n")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, chunk, line, col))
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Operator-precedence parser

_INFIX = {
    ":-": (1200, "xfx"),
    "-->": (1200, "xfx"),
    ";": (1100, "xfy"),
    "->": (1050, "xfy"),
    ",": (1000, "xfy"),
    "=": (700, "xfx"),
    "\\=": (700, "xfx"),
    "==": (700, "xfx"),
    "is": (700, "xfx"),
    "<": (700, "xfx"),
    ">": (700, "xfx"),
    "=<": (700, "xfx"),
    ">=": (700, "xfx"),
    "=:=": (700, "xfx"),
    "=\\=": (700, "xfx"),
    "+": (500, "yfx"),
    "-": (500, "yfx"),
    "*": (400, "yfx"),
    "/": (400, "yfx"),
    "//": (400, "yfx"),
    "mod": (400, "yfx"),
    ":": (200, "xfy"),
}

_PREFIX = {
    ":-": 1200,
    "\\+": 900,
    "-": 200,
}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message):
        kind, val, line, col = self.peek()
        raise ParseError(f"{message} (found {val or kind!r})", line, col)

    def expect(self, value):
        kind, val, line, col = self.peek()
        if val != value:
            self.error(f"expected {value!r}")
        return self.advance()

    def parse_term(self, max_prec=1200):
        left = self.parse_primary(max_prec)
        while True:
            kind, val, _, _ = self.peek()
            name = val if kind in ("op", "punct", "name") else None
            if name == "," and max_prec < 1000:
                break
            if name not in _INFIX:
                break
            prec, assoc = _INFIX[name]
            if prec > max_prec:
                break
            if name == "." :
                break
            self.advance()
            right_max = prec - 1 if assoc in ("xfx", "yfx") else prec
            right = self.parse_term(right_max)
            left = Struct(name, (left, right))
        return left

    def parse_primary(self, max_prec):
        kind, val, line, col = self.peek()
        if kind == "number":
            self.advance()
            if "." in val:
                return Num(Fraction(val))
            return Num(int(val))
        if kind == "var":
            self.advance()
            return PVar(val)
        if kind == "name":
            self.advance()
            if self.peek()[1] == "(":
                self.advance()
                args = [self.parse_term(999)]
                while self.peek()[1] == ",":
                    self.advance()
                    args.append(self.parse_term(999))
                self.expect(")")
                return Struct(val, tuple(args))
            return Atom(val)
        if val == "(":
            self.advance()
            inner = self.parse_term(1200)
            self.expect(")")
            return inner
        if val == "[":
            return self.parse_list()
        if val == "!":
            self.advance()
            return Atom("!")
        if kind == "op" and val in _PREFIX:
            self.advance()
            if val == "-":
                sub = self.parse_term(_PREFIX[val])
                if isinstance(sub, Num):
                    return Num(-sub.value)
                return Struct("-", (sub,))
            sub = self.parse_term(_PREFIX[val])
            return Struct(val, (sub,))
        self.error("expected a term")

    def parse_list(self):
        self.expect("[")
        if self.peek()[1] == "]":
            self.advance()
            return NIL
        items = [self.parse_term(999)]
        while self.peek()[1] == ",":
            self.advance()
            items.append(self.parse_term(999))
        tail = NIL
        if self.peek()[1] == "|":
            self.advance()
            tail = self.parse_term(999)
        self.expect("]")
        return make_list(items, tail)


def read_terms(text):
    """Read a sequence of '.'-terminated top-level terms."""
    parser = _Parser(tokenize(text))
    out = []
    while parser.peek()[0] != "eof":
        term = parser.parse_term(1200)
        parser.expect(".")
        out.append(term)
    return out


def read_term(text):
    terms = read_terms(text if text.rstrip().endswith(".") else text + " .")
    if len(terms) != 1:
        raise ParseError("expected exactly one term")
    return terms[0]


# ---------------------------------------------------------------------------
# Runtime terms: logic variables, unification, trail


class LVar:
    """A runtime logic variable.

    ``ref`` is the binding (None while unbound); ``svar`` marks the
    variable as a switch output, carrying the diagram-level Var.  Switch
    variables never take ordinary bindings: equations against them are
    surfaced through the unifier's ``emit`` callback.
    """

    __slots__ = ("name", "ref", "svar")
    _counter = 0

    def __init__(self, name=None):
        LVar._counter += 1
        self.name = name or f"_G{LVar._counter}"
        self.ref = None
        self.svar = None

    def __repr__(self):
        return f"LVar({self.name})"


class Trail:
    """Undo log for variable bindings and switch-variable markings."""

    def __init__(self):
        self.entries = []

    def mark(self):
        return len(self.entries)

    def push_bind(self, lvar):
        self.entries.append(("bind", lvar))

    def push_svar(self, lvar):
        self.entries.append(("svar", lvar))

    def undo_to(self, mark):
        while len(self.entries) > mark:
            kind, lvar = self.entries.pop()
            if kind == "bind":
                lvar.ref = None
            else:
                lvar.svar = None


def deref(t):
    while isinstance(t, LVar) and t.ref is not None:
        t = t.ref
    return t


def bind(lvar, value, trail):
    lvar.ref = value
    trail.push_bind(lvar)


def unify(a, b, trail, emit=None):
    """Unify two runtime terms.

    Switch variables are kept unbound; pairs involving them are routed to
    ``emit(svar, other)`` which must return truth (other is either a
    second diagram Var via ``.svar`` access or an atomic constant term).
    Without an emit callback such pairs fail.
    """
    a, b = deref(a), deref(b)
    if a is b:
        return True
    a_sv = isinstance(a, LVar) and a.svar is not None
    b_sv = isinstance(b, LVar) and b.svar is not None
    if isinstance(a, LVar) and not a_sv:
        bind(a, b, trail)
        return True
    if isinstance(b, LVar) and not b_sv:
        bind(b, a, trail)
        return True
    if a_sv or b_sv:
        if a_sv and b_sv:
            if a.svar == b.svar:
                return True
            return emit is not None and emit(a.svar, b.svar)
        sv, other = (a, b) if a_sv else (b, a)
        if isinstance(other, (Atom, Num)):
            return emit is not None and emit(sv.svar, other)
        return False  # a switch outcome is never a compound term
    if isinstance(a, Atom) and isinstance(b, Atom):
        return a.name == b.name
    if isinstance(a, Num) and isinstance(b, Num):
        return a.value == b.value
    if isinstance(a, Struct) and isinstance(b, Struct):
        if a.name != b.name or len(a.args) != len(b.args):
            return False
        for x, y in zip(a.args, b.args):
            if not unify(x, y, trail, emit):
                return False
        return True
    return False


def instantiate(term, env):
    """Turn a parse-time term into a runtime term, mapping PVars via env
    (anonymous ``_`` occurrences each get a fresh variable)."""
    if isinstance(term, PVar):
        if term.name == "_":
            return LVar("_")
        got = env.get(term.name)
        if got is None:
            got = env[term.name] = LVar(term.name)
        return got
    if isinstance(term, Struct):
        return Struct(term.name, tuple(instantiate(a, env) for a in term.args))
    return term


def resolve(term):
    """Structure with all bound variables replaced by their values."""
    term = deref(term)
    if isinstance(term, Struct):
        return Struct(term.name, tuple(resolve(a) for a in term.args))
    return term


def is_ground(term):
    term = deref(term)
    if isinstance(term, LVar):
        return False
    if isinstance(term, Struct):
        return all(is_ground(a) for a in term.args)
    return True
