"""Unit tests for individual optimisation passes."""

import numpy as np
import pytest

from repro.sac import ast
from repro.sac.interp import Interpreter
from repro.sac.opt import (
    dce_function,
    fold_function,
    inline_function,
    is_inlinable,
    normalize_function,
    optimize_program,
)
from repro.sac.parser import parse


def interp_equal(src, fun="main", args=None, transform=None):
    """Assert the transformed program computes the same result."""
    prog = parse(src)
    expected = Interpreter(prog).call(fun, args or [])
    fun_def = transform(prog, fun)
    prog2 = prog.replace_function(fun_def)
    actual = Interpreter(prog2).call(fun, args or [])
    np.testing.assert_array_equal(np.asarray(actual), np.asarray(expected))
    return prog2.function(fun)


class TestInline:
    def test_simple_call_inlined(self):
        src = """
        int sq(int x) { return x * x; }
        int main() { y = sq(5); return y; }
        """
        f = interp_equal(src, transform=inline_function)
        assert not _has_call(f, "sq")

    def test_nested_expression_call_lifted_and_inlined(self):
        src = """
        int sq(int x) { return x * x; }
        int main() { return sq(2) + sq(3); }
        """
        f = interp_equal(src, transform=inline_function)
        assert not _has_call(f, "sq")

    def test_chained_calls(self):
        src = """
        int inc(int x) { return x + 1; }
        int twice(int x) { return inc(inc(x)); }
        int main() { return twice(5); }
        """
        f = interp_equal(src, transform=inline_function)
        assert not _has_call(f, "inc")
        assert not _has_call(f, "twice")

    def test_param_reassignment_supported(self):
        # the paper's tilers rebind their output parameter
        src = """
        int[.] stamp(int[.] output, int v) {
          output = with { ([0] <= iv < [1]) : v; } : modarray(output);
          return( output);
        }
        int main() { a = [0, 5]; b = stamp(a, 9); return b[0] + a[0]; }
        """
        f = interp_equal(src, transform=inline_function)
        assert not _has_call(f, "stamp")

    def test_locals_renamed_apart(self):
        src = """
        int f(int x) { t = x + 1; return t; }
        int main() { t = 100; y = f(1); return t + y; }
        """
        interp_equal(src, transform=inline_function)

    def test_call_inside_generator_body(self):
        src = """
        int dbl(int x) { return x * 2; }
        int[.] main() {
          a = with { ([0] <= iv < [4]) { v = dbl(iv[0]); } : v; } : genarray([4]);
          return a;
        }
        """
        f = interp_equal(src, transform=inline_function)
        assert not _has_call(f, "dbl")

    def test_call_in_generator_cell_expr(self):
        src = """
        int dbl(int x) { return x * 2; }
        int[.] main() {
          a = with { ([0] <= iv < [4]) : dbl(iv[0]); } : genarray([4]);
          return a;
        }
        """
        f = interp_equal(src, transform=inline_function)
        assert not _has_call(f, "dbl")

    def test_recursive_function_not_inlined(self):
        src = """
        int fact(int n) { if (n <= 1) { r = 1; } else { r = n * fact(n - 1); } return r; }
        int main() { return fact(5); }
        """
        prog = parse(src)
        f = inline_function(prog, "main")
        # fact is self-recursive: calls must remain, semantics must hold
        assert _has_call(f, "fact")
        prog2 = prog.replace_function(f)
        assert Interpreter(prog2).call("main") == 120


class TestNormalize:
    def test_chained_selection_collapsed(self):
        src = "int main() { a = [[1,2],[3,4]]; return a[1][0]; }"
        f = interp_equal(src, transform=lambda p, n: normalize_function(p.function(n)))
        sel = _find_nodes(f, ast.IndexExpr)
        # no IndexExpr has another IndexExpr as its array
        assert all(not isinstance(s.array, ast.IndexExpr) for s in sel)

    def test_triple_chain(self):
        src = "int main() { a = [[[1,2],[3,4]],[[5,6],[7,8]]]; return a[1][0][1]; }"
        interp_equal(src, transform=lambda p, n: normalize_function(p.function(n)))


class TestFold:
    def _folded(self, src, fun="main"):
        prog = parse(src)
        return fold_function(prog.function(fun))

    def test_arithmetic_folded(self):
        f = self._folded("int main() { return 2 + 3 * 4; }")
        assert isinstance(f.body[0].value, ast.IntLit)
        assert f.body[0].value.value == 14

    def test_c_division_folded(self):
        f = self._folded("int main() { return -7 / 2; }")
        assert f.body[0].value.value == -3

    def test_shape_of_static_param_folded(self):
        f = self._folded("int[.] main(int[6,8] m) { return shape(m); }")
        v = f.body[0].value
        assert isinstance(v, ast.ArrayLit)
        assert [x.value for x in v.elements] == [6, 8]

    def test_mv_cat_scalarised(self):
        # the Figure 4 index computation with constant tiler matrices
        src = """
        int[.] main(int[2] rep) {
          off = [0,0] + MV( CAT( [[1,0],[0,8]], [[0,1]]), rep ++ [3]);
          return off;
        }
        """
        prog = parse(src)
        out = Interpreter(prog).call("main", [np.array([2, 5], dtype=np.int32)])
        np.testing.assert_array_equal(out, [2, 43])
        f = fold_function(prog.function("main"))
        # the fold must produce an ArrayLit of scalar affine expressions
        v = f.body[0].value
        assert isinstance(v, ast.ArrayLit)
        assert len(v.elements) == 2
        prog2 = prog.replace_function(f)
        out2 = Interpreter(prog2).call("main", [np.array([2, 5], dtype=np.int32)])
        np.testing.assert_array_equal(out2, [2, 43])

    def test_genarray_call_folded_to_literal(self):
        f = self._folded("int[.] main() { t = genarray([3], 0); return t; }")
        v = f.body[0].value
        assert isinstance(v, ast.ArrayLit)
        assert [x.value for x in v.elements] == [0, 0, 0]

    def test_indexed_assign_on_small_vector_folded(self):
        src = """
        int[.] main() {
          tile = genarray([3], 0);
          tile[0] = 7;
          tile[2] = 9;
          return tile;
        }
        """
        prog = parse(src)
        f = fold_function(prog.function("main"))
        # all three statements become plain assignments of array literals
        assert all(isinstance(s, (ast.Assign, ast.Return)) for s in f.body)
        out = Interpreter(prog.replace_function(f)).call("main")
        np.testing.assert_array_equal(out, [7, 0, 9])

    def test_symbolic_indexed_assign_tracked(self):
        src = """
        int main(int x) {
          tile = genarray([2], 0);
          tile[0] = x * 3;
          tile[1] = x + 1;
          return tile[0] + tile[1];
        }
        """
        prog = parse(src)
        f = fold_function(prog.function("main"))
        assert Interpreter(prog.replace_function(f)).call("main", [5]) == 21

    def test_constant_branch_pruned(self):
        f = self._folded("int main() { if (1 < 2) { r = 10; } else { r = 20; } return r; }")
        assert not _find_nodes(f, ast.IfElse)
        assert Interpreter(parse("int x(){return 0;}")).call  # smoke

    def test_zero_divisor_left_for_runtime(self):
        # `&&` never evaluates its rhs here, so folding must not reject it
        interp_equal(
            "bool main() { return false && (1 / 0 == 0); }",
            transform=lambda p, n: fold_function(p.function(n)),
        )

    def test_zero_division_inlined_into_untaken_branch(self):
        # inlining makes `7 / 0` constant under a condition known only at
        # run time; the optimised program must still run where x <= 0
        src = """
        int ratio(int a, int d, int x) { if (x > 0) { r = a / d; } else { r = 0; } return r; }
        int main(int x) { return ratio(7, 0, x) + ratio(7, 2, 1); }
        """
        prog = optimize_program(parse(src), entry="main")
        assert Interpreter(prog).call("main", [-1]) == 3
        assert Interpreter(parse(src)).call("main", [-1]) == 3

    def test_identities(self):
        src = "int main(int x) { return (x + 0) * 1 + 0 * x; }"
        prog = parse(src)
        f = fold_function(prog.function("main"))
        assert Interpreter(prog.replace_function(f)).call("main", [7]) == 7
        # the folded expression is just `x`
        assert isinstance(f.body[0].value, ast.Var)

    def test_selection_from_literal(self):
        f = self._folded("int main() { return [5, 6, 7][[1]]; }")
        assert isinstance(f.body[0].value, ast.IntLit)
        assert f.body[0].value.value == 6

    def test_for_loop_invalidates(self):
        src = """
        int main() {
          x = 1;
          for (i = 0; i < 3; i++) { x = x * 2; }
          return x;
        }
        """
        prog = parse(src)
        f = fold_function(prog.function("main"))
        assert Interpreter(prog.replace_function(f)).call("main") == 8

    def test_with_loop_bounds_folded(self):
        src = """
        int[.] main() {
          n = 2 + 2;
          a = with { ([0] <= iv < [n]) : 1; } : genarray([n]);
          return a;
        }
        """
        prog = parse(src)
        f = fold_function(prog.function("main"))
        wl = _find_nodes(f, ast.WithLoop)[0]
        from repro.sac.opt import static_frame_shape, static_generator_range

        assert static_frame_shape(wl) == (4,)
        assert static_generator_range(wl.generators[0], (4,)).upper == (4,)


class TestDCE:
    def test_dead_assignment_removed(self):
        src = "int main() { dead = 42; return 1; }"
        prog = parse(src)
        f = dce_function(prog.function("main"))
        assert len(f.body) == 1

    def test_live_chain_kept(self):
        src = "int main() { a = 1; b = a + 1; return b; }"
        f = dce_function(parse(src).function("main"))
        assert len(f.body) == 3

    def test_dead_loop_removed(self):
        src = "int main() { s = 0; for (i = 0; i < 3; i++) { s = s + i; } return 7; }"
        f = dce_function(parse(src).function("main"))
        assert len(f.body) == 1

    def test_live_loop_kept(self):
        src = "int main() { s = 0; for (i = 0; i < 3; i++) { s = s + i; } return s; }"
        prog = parse(src)
        f = dce_function(prog.function("main"))
        assert Interpreter(prog.replace_function(f)).call("main") == 3

    def test_dead_local_in_generator_body_removed(self):
        src = """
        int[.] main() {
          a = with { ([0] <= iv < [4]) { u = iv[0]; junk = 99; } : u; } : genarray([4]);
          return a;
        }
        """
        prog = parse(src)
        f = dce_function(prog.function("main"))
        wl = _find_nodes(f, ast.WithLoop)[0]
        assert len(wl.generators[0].body) == 1
        np.testing.assert_array_equal(
            Interpreter(prog.replace_function(f)).call("main"), [0, 1, 2, 3]
        )

    def test_overwritten_assignment_removed(self):
        src = "int main() { x = heavy(); x = 2; return x; } int heavy() { return 1; }"
        f = dce_function(parse(src).function("main"))
        assert len(f.body) == 2


def _find_nodes(fun: ast.FunDef, kind) -> list:
    found = []

    def visit_expr(e):
        if isinstance(e, kind):
            found.append(e)
        if isinstance(e, ast.WithLoop):
            for g in e.generators:
                visit_stmts(g.body)
                visit_expr(g.expr)
                visit_expr(g.lower.expr)
                visit_expr(g.upper.expr)
            op = e.operation
            for sub in (
                getattr(op, "shape", None),
                getattr(op, "default", None),
                getattr(op, "array", None),
                getattr(op, "neutral", None),
            ):
                if sub is not None:
                    visit_expr(sub)
            return
        for name in ("elements", "args"):
            for c in getattr(e, name, ()) or ():
                visit_expr(c)
        for name in ("array", "index", "lhs", "rhs", "operand"):
            c = getattr(e, name, None)
            if isinstance(c, ast.Expr):
                visit_expr(c)

    def visit_stmts(stmts):
        for s in stmts:
            if isinstance(s, kind):
                found.append(s)
            if isinstance(s, ast.Assign):
                visit_expr(s.value)
            elif isinstance(s, ast.IndexedAssign):
                visit_expr(s.index)
                visit_expr(s.value)
            elif isinstance(s, ast.Block):
                visit_stmts(s.stmts)
            elif isinstance(s, ast.ForLoop):
                visit_stmts((s.init, s.update))
                visit_expr(s.cond)
                visit_stmts(s.body)
            elif isinstance(s, ast.IfElse):
                visit_expr(s.cond)
                visit_stmts(s.then)
                visit_stmts(s.orelse)
            elif isinstance(s, ast.Return) and s.value is not None:
                visit_expr(s.value)

    visit_stmts(fun.body)
    return found


def _has_call(fun: ast.FunDef, name: str) -> bool:
    return any(c.name == name for c in _find_nodes(fun, ast.Call))
