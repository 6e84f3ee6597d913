"""Textual diagram format and DOT export."""

import pytest

from osdd.diagram import ONE, ZERO, internal_nodes
from osdd.diagram_io import format_osdd, parse_osdd, to_dot
from osdd.engine import EvalSession
from osdd.errors import ParseError


def _space(program):
    return lambda ref: program.switch_spec(ref).domain


class TestRoundTrip:
    def test_leaves(self, palindrome_program):
        assert parse_osdd("0", _space(palindrome_program)) is ZERO
        assert parse_osdd(" 1 ", _space(palindrome_program)) is ONE
        assert format_osdd(ZERO) == "0\n"

    def test_palindrome_evidence(self, palindrome_program):
        d = EvalSession(palindrome_program).query("evidence(8)")
        assert parse_osdd(format_osdd(d), _space(palindrome_program)) is d

    def test_collision(self, toy_birthday_program):
        d = EvalSession(toy_birthday_program).query("same_birthday(3)")
        text = format_osdd(d)
        assert parse_osdd(text, _space(toy_birthday_program)) is d
        # idempotent: printing the reparsed diagram reproduces the text
        assert format_osdd(parse_osdd(text, _space(toy_birthday_program))) == text


    def test_read_back_labels_are_the_original_formulas(self, palindrome_program):
        d = EvalSession(palindrome_program).query("evidence(8)")
        # Rename every variable so the text differs from the printed one.
        text = format_osdd(d).replace("X", "Renamed")
        back = parse_osdd(text, _space(palindrome_program))

        def labels(x):
            return [g for n in internal_nodes(x) for g, _ in n.edges]

        assert len(labels(back)) == len(labels(d)) > 0
        assert all(a is b for a, b in zip(labels(back), labels(d)))


class TestParseErrors:
    def test_unbound_label_variable(self, toy_birthday_program):
        text = "(b, 1, X)[ X = Y : 1 ]"
        with pytest.raises(ParseError):
            parse_osdd(text, _space(toy_birthday_program))

    def test_rebound_variable(self, toy_birthday_program):
        text = "(b, 1, X)[ true : (b, 2, X)[ true : 1 ] ]"
        with pytest.raises(ParseError):
            parse_osdd(text, _space(toy_birthday_program))

    def test_instance_bound_twice_on_a_path(self, toy_birthday_program):
        text = "(b, 1, X)[ true : (b, 1, Y)[ X = Y : 1 ; X != Y : 0 ] ]"
        with pytest.raises(ParseError, match="already bound"):
            parse_osdd(text, _space(toy_birthday_program))

    def test_trailing_garbage(self, toy_birthday_program):
        with pytest.raises(ParseError):
            parse_osdd("1 1", _space(toy_birthday_program))


class TestDot:
    def test_nodes_and_edges_present(self, toy_birthday_program):
        d = EvalSession(toy_birthday_program).query("same_birthday(3)")
        dot = to_dot(d)
        assert dot.startswith("digraph")
        assert 'label="msw(b,1,' in dot
        root = d.edges[0][1]  # the first constrained node
        eq_label, neq_label = (str(g) for g, _ in root.edges)
        assert eq_label in dot and neq_label in dot
        # shared leaves appear once each
        assert dot.count('[label="1"') == 1
        assert dot.count('[label="0"') == 1
