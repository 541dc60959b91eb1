"""Unit tests for the SaC lexer."""

import pytest

from repro.errors import SacSyntaxError
from repro.sac.lexer import tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src)[:-1]]  # drop eof


class TestBasics:
    def test_empty_source(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"

    def test_integers_and_floats(self):
        assert kinds("42 3.14 1e3 2.5e-2") == [
            ("int", "42"),
            ("float", "3.14"),
            ("float", "1e3"),
            ("float", "2.5e-2"),
        ]

    def test_identifiers_and_keywords(self):
        assert kinds("with foo genarray _x int2") == [
            ("kw", "with"),
            ("id", "foo"),
            ("kw", "genarray"),
            ("id", "_x"),
            ("id", "int2"),
        ]

    def test_multichar_operators(self):
        assert [t for _, t in kinds("++ <= >= == != && ||")] == [
            "++", "<=", ">=", "==", "!=", "&&", "||",
        ]

    def test_plus_plus_not_two_plus(self):
        assert kinds("a++b") == [("id", "a"), ("op", "++"), ("id", "b")]

    def test_comments_skipped(self):
        src = "a // line comment\n/* block\ncomment */ b"
        assert kinds(src) == [("id", "a"), ("id", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(SacSyntaxError, match="unterminated"):
            tokenize("/* oops")

    def test_unknown_character(self):
        with pytest.raises(SacSyntaxError, match="unexpected character"):
            tokenize("a @ b")


class TestLocations:
    def test_line_and_column_tracking(self):
        toks = tokenize("a\n  bb\n c")
        assert (toks[0].loc.line, toks[0].loc.column) == (1, 1)
        assert (toks[1].loc.line, toks[1].loc.column) == (2, 3)
        assert (toks[2].loc.line, toks[2].loc.column) == (3, 2)

    def test_filename_recorded(self):
        toks = tokenize("x", filename="f.sac")
        assert toks[0].loc.filename == "f.sac"


class TestDotDisambiguation:
    def test_dot_bound_is_operator(self):
        # "(. <= x" : the dot must not merge with anything
        assert kinds("(. <= x") == [
            ("op", "("),
            ("op", "."),
            ("op", "<="),
            ("id", "x"),
        ]

    def test_member_style_dot_after_identifier(self):
        assert kinds("a.5")[:2] == [("id", "a"), ("op", ".")]

    def test_float_after_paren(self):
        assert kinds("(.5)") == [("op", "("), ("float", ".5"), ("op", ")")]


#: a 64-bit overflow: an addend past 2**63 - 1 in a WITH-loop body
_BIG_SOURCE = """int[8] main(int[8] a) {
  b = with { ([0] <= iv < [8]) : a[iv] + %s; } : genarray([8], 0);
  return b;
}"""


class TestIntegerLiteralRange:
    """An integer literal above 2**63 - 1 fits no C integer type: a
    located syntax error, not a bare ``OverflowError`` at launch."""

    def test_largest_literal_and_leading_zeros(self):
        assert kinds("9223372036854775807 007 000") == [
            ("int", "9223372036854775807"), ("int", "7"), ("int", "0"),
        ]
        assert kinds("0" * 5000 + "1") == [("int", "1")]

    @pytest.mark.parametrize(
        "literal", [str(2**63), "12345678901234567890123", "9" * 5000],
        ids=["2**63", "23-digit", "5000-digit"],
    )
    def test_literal_past_64_bits_is_a_located_error(self, literal):
        from repro.sac.backend import CompileOptions, compile_function
        from repro.sac.parser import parse

        with pytest.raises(SacSyntaxError, match="above 2\\*\\*63 - 1") as exc:
            compile_function(parse(_BIG_SOURCE % literal), "main", CompileOptions())
        assert (exc.value.location.line, exc.value.location.column) == (2, 42)
