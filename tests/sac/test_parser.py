"""Unit tests for the SaC parser."""

import numpy as np
import pytest

from repro.errors import SacSyntaxError
from repro.sac import ast
from repro.sac.parser import MAX_DEPTH, parse, parse_expression


class TestTypes:
    def test_scalar_function(self):
        prog = parse("int f() { return 1; }")
        f = prog.function("f")
        assert f.ret_type.base == "int"
        assert f.ret_type.is_scalar

    @pytest.mark.parametrize(
        "src,dims",
        [
            ("int[*]", ("*",)),
            ("int[+]", ("+",)),
            ("int[.]", (".",)),
            ("int[.,.]", (".", ".")),
            ("int[1080,1920]", (1080, 1920)),
            ("int[12]", (12,)),
        ],
    )
    def test_array_type_patterns(self, src, dims):
        prog = parse(f"{src} f({src} a) {{ return a; }}")
        f = prog.function("f")
        assert f.ret_type.dims == dims
        assert f.params[0].type.dims == dims

    def test_star_must_be_alone(self):
        with pytest.raises(SacSyntaxError):
            parse("int[*,2] f() { return 1; }")

    def test_static_type_flag(self):
        prog = parse("int[2,3] f(int[.] v) { return v; }")
        assert prog.function("f").ret_type.is_static
        assert not prog.function("f").params[0].type.is_static


class TestFunctions:
    def test_params_parsed(self):
        prog = parse("int f(int a, int[.] b, int[.,.] c) { return a; }")
        f = prog.function("f")
        assert [p.name for p in f.params] == ["a", "b", "c"]

    def test_duplicate_functions_rejected(self):
        with pytest.raises(SacSyntaxError, match="duplicate"):
            parse("int f() { return 1; } int f() { return 2; }")

    def test_return_with_parens_like_paper(self):
        prog = parse("int f() { return( 3 ); }")
        ret = prog.function("f").body[0]
        assert isinstance(ret, ast.Return)
        assert isinstance(ret.value, ast.IntLit)


class TestStatements:
    def test_assignment(self):
        prog = parse("int f() { x = 1 + 2; return x; }")
        stmt = prog.function("f").body[0]
        assert isinstance(stmt, ast.Assign)
        assert stmt.name == "x"

    def test_indexed_assignment(self):
        prog = parse("int f(int[.] t) { t[0] = 5; return t[0]; }")
        stmt = prog.function("f").body[0]
        assert isinstance(stmt, ast.IndexedAssign)
        assert stmt.name == "t"

    def test_for_loop_with_increment(self):
        prog = parse("int f() { s = 0; for (i = 0; i < 4; i++) { s = s + i; } return s; }")
        loop = prog.function("f").body[1]
        assert isinstance(loop, ast.ForLoop)
        assert loop.init.name == "i"
        assert isinstance(loop.update, ast.Assign)

    def test_for_loop_with_assignment_update(self):
        prog = parse("int f() { for (i = 0; i < 8; i = i + 2) { x = i; } return 0; }")
        loop = prog.function("f").body[0]
        assert isinstance(loop.update, ast.Assign)

    def test_if_else_chain(self):
        prog = parse(
            "int f(int x) { if (x < 0) { y = 0; } else if (x == 0) { y = 1; } "
            "else { y = 2; } return y; }"
        )
        node = prog.function("f").body[0]
        assert isinstance(node, ast.IfElse)
        assert isinstance(node.orelse[0], ast.IfElse)


class TestExpressions:
    def test_precedence(self):
        e = parse_expression("1 + 2 * 3")
        assert isinstance(e, ast.BinExpr) and e.op == "+"
        assert isinstance(e.rhs, ast.BinExpr) and e.rhs.op == "*"

    def test_concat_binds_looser_than_plus(self):
        e = parse_expression("a ++ b + c")
        assert e.op == "++"
        assert isinstance(e.rhs, ast.BinExpr) and e.rhs.op == "+"

    def test_comparison_and_logical(self):
        e = parse_expression("a < b && c == d")
        assert e.op == "&&"

    def test_array_literal(self):
        e = parse_expression("[1, 2, 3]")
        assert isinstance(e, ast.ArrayLit)
        assert len(e.elements) == 3

    def test_nested_array_literal(self):
        e = parse_expression("[[1,0],[0,8]]")
        assert isinstance(e, ast.ArrayLit)
        assert all(isinstance(x, ast.ArrayLit) for x in e.elements)

    def test_double_bracket_selection(self):
        # the paper's input[[i,j,k]]: indexing with a vector literal
        e = parse_expression("input[[i,j,k]]")
        assert isinstance(e, ast.IndexExpr)
        assert isinstance(e.index, ast.ArrayLit)

    def test_chained_selection(self):
        # the paper's input[rep][0]
        e = parse_expression("input[rep][0]")
        assert isinstance(e, ast.IndexExpr)
        assert isinstance(e.array, ast.IndexExpr)

    def test_call(self):
        e = parse_expression("MV(CAT(paving, fitting), rep++pat)")
        assert isinstance(e, ast.Call) and e.name == "MV"
        assert isinstance(e.args[0], ast.Call)
        assert isinstance(e.args[1], ast.BinExpr) and e.args[1].op == "++"

    def test_unary(self):
        e = parse_expression("-x")
        assert isinstance(e, ast.UnExpr) and e.op == "-"


class TestWithLoops:
    def test_figure4_style_nested_with(self):
        src = """
        int[*] input_tiler(int[*] in_frame, int[.] in_pattern, int[.] repetition,
                           int[.] origin, int[.,.] fitting, int[.,.] paving)
        {
          output = with {
            (. <= rep <= .) {
              tile = with {
                (. <= pat <= .) {
                  off = origin + MV( CAT( paving, fitting), rep++pat);
                  iv = off % shape(in_frame);
                  elem = in_frame[iv];
                } : elem;
              } : genarray( in_pattern, 0);
            } : tile;
          } : genarray( repetition);
          return( output);
        }
        """
        prog = parse(src)
        f = prog.function("input_tiler")
        assign = f.body[0]
        wl = assign.value
        assert isinstance(wl, ast.WithLoop)
        assert len(wl.generators) == 1
        gen = wl.generators[0]
        assert gen.vars == ("rep",)
        assert isinstance(gen.lower.expr, ast.Dot)
        assert gen.lower.op == "<="
        assert gen.upper.op == "<="
        assert isinstance(wl.operation, ast.GenArray)
        inner = gen.body[0].value
        assert isinstance(inner, ast.WithLoop)
        assert isinstance(inner.operation, ast.GenArray)
        assert inner.operation.default is not None

    def test_figure7_style_modarray_with_steps(self):
        src = """
        int[*] nongeneric_output_tiler(int[*] output, int[*] input)
        {
          output = with {
            ([0,0]<=[i,j]<=. step [1,3]) : input[[i,j/3,0]];
            ([0,1]<=[i,j]<=. step [1,3]) : input[[i,j/3,1]];
            ([0,2]<=[i,j]<=. step [1,3]) : input[[i,j/3,2]];
          } : modarray( output);
          return( output);
        }
        """
        prog = parse(src)
        wl = prog.function("nongeneric_output_tiler").body[0].value
        assert len(wl.generators) == 3
        g = wl.generators[0]
        assert g.destructured
        assert g.vars == ("i", "j")
        assert g.step is not None
        assert isinstance(wl.operation, ast.ModArray)

    def test_step_width_generator(self):
        src = """
        int[*] f(int[*] a)
        {
          b = with {
            ( [0,0] <= iv < [1080,1] step [1,3] width [1,1]) : a[iv];
          } : genarray( [1080, 720]);
          return b;
        }
        """
        wl = parse(src).function("f").body[0].value
        g = wl.generators[0]
        assert g.step is not None and g.width is not None
        assert g.lower.op == "<=" and g.upper.op == "<"

    def test_fold_operation(self):
        src = "int f(int[.] a) { s = with { (. <= iv <= .) : a[iv]; } : fold(add, 0); return s; }"
        wl = parse(src).function("f").body[0].value
        assert isinstance(wl.operation, ast.Fold)
        assert wl.operation.fun == "add"

    def test_empty_with_rejected(self):
        with pytest.raises(SacSyntaxError):
            parse("int f() { x = with { } : genarray([2]); return x; }")

    def test_duplicate_destructured_vars_rejected(self):
        with pytest.raises(SacSyntaxError, match="duplicate"):
            parse(
                "int f(int[*] a) { x = with { ([0,0]<=[i,i]<=.) : 0; } "
                ": modarray(a); return x; }"
            )

    def test_bad_relop_rejected(self):
        with pytest.raises(SacSyntaxError):
            parse("int f() { x = with { (0 == iv <= .) : 1; } : genarray([2]); return x; }")


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(SacSyntaxError):
            parse("int f() { x = 1 return x; }")

    def test_error_carries_location(self):
        with pytest.raises(SacSyntaxError) as exc:
            parse("int f() {\n  x = ;\n}")
        assert exc.value.location is not None
        assert exc.value.location.line == 2

    def test_trailing_garbage_in_expression(self):
        with pytest.raises(SacSyntaxError):
            parse_expression("1 + 2 )")


#: ``%s`` sits two levels deep: the function body and the WITH-loop
_DEEP_SOURCE = """int[8] main(int[8] a) {
  b = with { ([0] <= iv < [8]) : %s; } : genarray([8], 0);
  return b;
}"""


def _parens(count: int) -> str:
    """``a[iv]`` (two deep) inside ``count`` parentheses."""
    return "(" * count + "a[iv]" + ")" * count


def _sum(terms: int) -> str:
    """``terms`` operands of ``+``: ``terms + 1`` deep."""
    return " + ".join(["a[iv]"] * terms)


class TestNestingLimit:
    """Every level of nesting counts against one limit, so deep input is
    a located syntax error, not a bare ``RecursionError``, and every
    program at the limit compiles and runs."""

    @pytest.mark.parametrize(
        "expr, times",
        [(_parens(MAX_DEPTH - 4), 1), (_sum(MAX_DEPTH - 3), MAX_DEPTH - 3)],
        ids=["parens", "sum"],
    )
    def test_program_at_the_limit_compiles_and_runs(self, expr, times):
        from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
        from repro.sac.backend import CompileOptions, compile_function
        from repro.sac.interp import Interpreter

        program = parse(_DEEP_SOURCE % expr)
        a = np.arange(8, dtype=np.int32)
        cf = compile_function(program, "main", CompileOptions())
        result = GPUExecutor(CostModel(GTX480_CALIBRATED)).run(cf.program, {"a": a})
        np.testing.assert_array_equal(
            result.outputs[cf.program.host_outputs[0]], a * times
        )
        np.testing.assert_array_equal(Interpreter(program).call("main", [a]), a * times)

    @pytest.mark.parametrize(
        "expr, crossing",
        [(_parens(MAX_DEPTH - 3), "iv"), (_sum(MAX_DEPTH - 2), "+")],
        ids=["parens", "sum"],
    )
    def test_one_level_past_the_limit_is_a_located_error(self, expr, crossing):
        """Located at the innermost leaf of the parentheses, or at the
        operator that takes the sum past the limit."""
        from repro.sac.backend import CompileOptions, compile_function

        with pytest.raises(SacSyntaxError, match=f"deeper than {MAX_DEPTH}") as exc:
            compile_function(parse(_DEEP_SOURCE % expr), "main", CompileOptions())
        line = _DEEP_SOURCE.splitlines()[1]
        column = line.index("%s") + expr.rindex(crossing) + 1
        assert (exc.value.location.line, exc.value.location.column) == (2, column)

    @pytest.mark.parametrize(
        "source",
        [
            "int f() { return " + "(" * 5000 + "1" + ")" * 5000 + "; }",
            "int f() { return " + "-" * 5000 + "1; }",
            "int f(int[8] a) { return " + "a[" * 5000 + "0" + "]" * 5000 + "; }",
            "int f() { " + "{" * 5000 + "}" * 5000 + " return 1; }",
        ],
        ids=["parens", "unary", "subscripts", "blocks"],
    )
    def test_hostile_nesting_is_a_syntax_error(self, source):
        with pytest.raises(SacSyntaxError, match="deeper than"):
            parse(source)
