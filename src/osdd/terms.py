"""Ground terms, typed variables, and the global total order.

Every comparison in the package (edge sorting, canonical serialization,
switch-instance ordering) bottoms out in one fixed order: integers first
(by value), then symbolic atoms (lexicographic), then variables (by
creation index).
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field


@dataclass(frozen=True)
class GroundTerm:
    """An atomic constant: an integer or a symbolic atom."""

    symbol: int | str

    def sort_key(self):
        if isinstance(self.symbol, int):
            return (0, 0, self.symbol, "")
        return (0, 1, 0, self.symbol)

    def encode(self) -> bytes:
        # Order-preserving byte encoding: tag, then payload.  Integers are
        # written offset-binary so byte order matches numeric order; atom
        # names are NUL-terminated (identifiers never contain NUL).
        if isinstance(self.symbol, int):
            return b"\x00" + struct.pack(">Q", self.symbol + 2**63)
        return b"\x01" + self.symbol.encode("utf-8") + b"\x00"

    def __str__(self):
        return str(self.symbol)

    def __repr__(self):
        return f"GroundTerm({self.symbol!r})"


# Value tuple -> small int, shared by every TypeDomain over that tuple.
_values_ids: dict = {}


@dataclass(frozen=True)
class TypeDomain:
    """A finite, ordered outcome space shared by a switch and its variables.

    ``values_id`` is a small int that is one-to-one with ``values`` across
    every domain built in the process, so equal outcome spaces can be
    compared without hashing their value tuples again.  ``positions`` maps
    each value to its index in ``values``; it is built once, here, and
    also serves membership tests.
    """

    name: str
    values: tuple[GroundTerm, ...]
    positions: dict = field(default=None, init=False, repr=False, compare=False)
    values_id: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"domain {self.name!r} has no values")
        positions = dict(zip(self.values, range(len(self.values))))
        if len(positions) != len(self.values):
            raise ValueError(f"domain {self.name!r} has duplicate values")
        object.__setattr__(self, "positions", positions)
        values_id = _values_ids.setdefault(self.values, len(_values_ids))
        object.__setattr__(self, "values_id", values_id)

    @property
    def size(self) -> int:
        return len(self.values)

    def __contains__(self, term) -> bool:
        return term in self.positions

    def __repr__(self):
        return f"TypeDomain({self.name!r}, {len(self.values)} values)"


def domain_of_symbols(name, symbols) -> TypeDomain:
    return TypeDomain(name, tuple(GroundTerm(s) for s in symbols))


_var_counter = itertools.count(1)


@dataclass(frozen=True, eq=False)
class Var:
    """A typed variable, equal only to itself and hashed by identity.

    ``uid`` is the creation index; it orders variables, never the name.
    """

    name: str
    domain: TypeDomain
    uid: int = field(default=0, init=False)

    def __post_init__(self):
        object.__setattr__(self, "uid", next(_var_counter))

    def sort_key(self):
        return (1, 0, self.uid, "")

    def encode(self) -> bytes:
        return b"\x02" + struct.pack(">Q", self.uid)

    def __str__(self):
        return self.name

    def __repr__(self):
        return f"Var({self.name}#{self.uid})"


def term_key(t):
    """Sort key implementing the global order over Vars and GroundTerms."""
    return t.sort_key()
