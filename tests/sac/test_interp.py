"""Unit tests for the SaC reference interpreter."""

import numpy as np
import pytest

from repro.errors import SacRuntimeError
from repro.sac.interp import Interpreter
from repro.sac.parser import parse


def run(src, fun="main", args=None, **kw):
    return Interpreter(parse(src), **kw).call(fun, args or [])


class TestScalars:
    def test_arithmetic(self):
        assert run("int main() { return 2 + 3 * 4; }") == 14

    def test_c_division(self):
        assert run("int main() { return 7 / 2; }") == 3
        assert run("int main() { return -7 / 2; }") == -3
        assert run("int main() { return -7 % 2; }") == -1

    def test_paper_filter_formula(self):
        # tmp/6 - tmp%6 with tmp = 100 -> 16 - 4 = 12
        assert run("int main() { tmp = 100; return tmp/6 - tmp%6; }") == 12

    def test_comparisons_and_logic(self):
        assert run("bool main() { return 1 < 2 && 2 <= 2; }") is True
        assert run("bool main() { return 1 == 2 || 3 != 3; }") is False

    def test_short_circuit(self):
        # rhs would divide by zero; && must not evaluate it
        assert run("bool main() { return false && (1 / 0 == 0); }") is False

    def test_division_by_zero_is_located_error(self):
        for op in ("/", "%"):
            with pytest.raises(SacRuntimeError, match="by zero"):
                run(f"int main() {{ d = 0; return 7 {op} d; }}")

    def test_unary(self):
        assert run("int main() { return -(3); }") == -3
        assert run("bool main() { return !false; }") is True

    def test_float_literals(self):
        assert run("double main() { return 1.5 + 2.5; }") == pytest.approx(4.0)


class TestControlFlow:
    def test_for_loop(self):
        assert run("int main() { s = 0; for (i = 0; i < 5; i++) { s = s + i; } return s; }") == 10

    def test_for_loop_custom_update(self):
        assert run("int main() { s = 0; for (i = 0; i < 10; i = i + 3) { s = s + 1; } return s; }") == 4

    def test_if_else(self):
        src = "int main(int x) { if (x < 0) { r = 0 - 1; } else { r = 1; } return r; }"
        assert run(src, args=[-5]) == -1
        assert run(src, args=[5]) == 1

    def test_nested_functions(self):
        src = """
        int sq(int x) { return x * x; }
        int main() { return sq(3) + sq(4); }
        """
        assert run(src) == 25

    def test_recursion_guard(self):
        with pytest.raises(SacRuntimeError, match="depth"):
            run("int main() { return main(); }")


class TestArrays:
    def test_array_literal_and_selection(self):
        assert run("int main() { a = [10, 20, 30]; return a[1]; }") == 20

    def test_vector_selection(self):
        assert run("int main() { a = [[1,2],[3,4]]; return a[[1,0]]; }") == 3

    def test_partial_selection_yields_subarray(self):
        out = run("int[.] main() { a = [[1,2],[3,4]]; return a[0]; }")
        np.testing.assert_array_equal(out, [1, 2])

    def test_chained_selection_like_paper(self):
        assert run("int main() { a = [[1,2],[3,4]]; return a[1][0]; }") == 3

    def test_concatenation(self):
        out = run("int[.] main() { return [1,2] ++ [3]; }")
        np.testing.assert_array_equal(out, [1, 2, 3])

    def test_shape_and_dim_builtins(self):
        np.testing.assert_array_equal(
            run("int[.] main() { a = [[1,2,3],[4,5,6]]; return shape(a); }"), [2, 3]
        )
        assert run("int main() { a = [[1,2],[3,4]]; return dim(a); }") == 2

    def test_mv_builtin(self):
        out = run("int[.] main() { return MV([[1,0],[0,8]], [2,3]); }")
        np.testing.assert_array_equal(out, [2, 24])

    def test_indexed_assignment_is_functional_update(self):
        src = """
        int main() {
          a = [1, 2, 3];
          b = a;
          a[0] = 99;
          return b[0];
        }
        """
        assert run(src) == 1  # b must not see the update

    def test_out_of_bounds_selection(self):
        with pytest.raises(SacRuntimeError, match="out of bounds"):
            run("int main() { a = [1,2]; return a[5]; }")

    def test_elementwise_array_arithmetic(self):
        out = run("int[.] main() { return [1,2,3] + [10,20,30]; }")
        np.testing.assert_array_equal(out, [11, 22, 33])

    def test_array_modulo_vector(self):
        out = run("int[.] main() { return [13, 5] % [12, 16]; }")
        np.testing.assert_array_equal(out, [1, 5])

    def test_param_type_checking(self):
        src = "int main(int[.,.] m) { return m[[0,0]]; }"
        with pytest.raises(SacRuntimeError, match="rank"):
            run(src, args=[np.zeros(3, dtype=np.int32)])

    def test_static_extent_checking(self):
        src = "int main(int[4] v) { return v[0]; }"
        with pytest.raises(SacRuntimeError, match="extent"):
            run(src, args=[np.zeros(5, dtype=np.int32)])


class TestWithLoops:
    def test_genarray_simple(self):
        src = """
        int[.] main() {
          a = with { ([0] <= iv < [5]) : iv[0] * 2; } : genarray([5]);
          return a;
        }
        """
        np.testing.assert_array_equal(run(src), [0, 2, 4, 6, 8])

    def test_genarray_default_fills_gaps(self):
        src = """
        int[.] main() {
          a = with { ([1] <= iv < [4]) : 7; } : genarray([6], 9);
          return a;
        }
        """
        np.testing.assert_array_equal(run(src), [9, 7, 7, 7, 9, 9])

    def test_dot_bounds_inclusive(self):
        src = """
        int[.] main() {
          a = with { (. <= iv <= .) : 1; } : genarray([4]);
          return a;
        }
        """
        np.testing.assert_array_equal(run(src), [1, 1, 1, 1])

    def test_step_generator(self):
        src = """
        int[.] main() {
          a = with { ([0] <= iv < [9] step [3]) : 5; } : genarray([9], 0);
          return a;
        }
        """
        np.testing.assert_array_equal(run(src), [5, 0, 0, 5, 0, 0, 5, 0, 0])

    def test_step_width_generator(self):
        src = """
        int[.] main() {
          a = with { ([0] <= iv < [8] step [4] width [2]) : 1; } : genarray([8], 0);
          return a;
        }
        """
        np.testing.assert_array_equal(run(src), [1, 1, 0, 0, 1, 1, 0, 0])

    def test_destructured_vars(self):
        src = """
        int[.,.] main() {
          a = with { ([0,0] <= [i,j] <= .) : i * 10 + j; } : genarray([2,3]);
          return a;
        }
        """
        np.testing.assert_array_equal(run(src), [[0, 1, 2], [10, 11, 12]])

    def test_multiple_generators_partition(self):
        src = """
        int[.] main() {
          a = with {
            ([0] <= iv < [6] step [2]) : 1;
            ([1] <= iv < [6] step [2]) : 2;
          } : genarray([6]);
          return a;
        }
        """
        np.testing.assert_array_equal(run(src), [1, 2, 1, 2, 1, 2])

    def test_overlapping_generators_rejected(self):
        src = """
        int[.] main() {
          a = with {
            ([0] <= iv < [4]) : 1;
            ([3] <= iv < [6]) : 2;
          } : genarray([6]);
          return a;
        }
        """
        with pytest.raises(SacRuntimeError, match="overlap"):
            run(src)

    def test_modarray(self):
        src = """
        int[.] main(int[.] a) {
          b = with { ([1] <= iv < [3]) : 0; } : modarray(a);
          return b;
        }
        """
        out = run(src, args=[np.array([5, 5, 5, 5], dtype=np.int32)])
        np.testing.assert_array_equal(out, [5, 0, 0, 5])

    def test_modarray_preserves_original(self):
        src = """
        int main(int[.] a) {
          b = with { ([0] <= iv < [1]) : 42; } : modarray(a);
          return a[0];
        }
        """
        assert run(src, args=[np.array([7], dtype=np.int32)]) == 7

    def test_fold_add(self):
        src = """
        int main(int[.] a) {
          s = with { ([0] <= iv < shape(a)) : a[iv]; } : fold(add, 0);
          return s;
        }
        """
        assert run(src, args=[np.array([1, 2, 3, 4], dtype=np.int32)]) == 10

    def test_fold_max(self):
        src = """
        int main(int[.] a) {
          m = with { ([0] <= iv < shape(a)) : a[iv]; } : fold(max, 0);
          return m;
        }
        """
        assert run(src, args=[np.array([3, 9, 4], dtype=np.int32)]) == 9

    def test_generator_body_statements(self):
        src = """
        int[.] main() {
          a = with {
            ([0] <= iv < [4]) {
              t = iv[0] + 1;
              u = t * t;
            } : u;
          } : genarray([4]);
          return a;
        }
        """
        np.testing.assert_array_equal(run(src), [1, 4, 9, 16])

    def test_non_scalar_cells(self):
        # genarray over [2] with 3-vector cells -> shape (2, 3)
        src = """
        int[.,.] main() {
          a = with { ([0] <= iv < [2]) : [iv[0], 1, 2]; } : genarray([2]);
          return a;
        }
        """
        np.testing.assert_array_equal(run(src), [[0, 1, 2], [1, 1, 2]])

    def test_nested_with_loops_like_input_tiler(self):
        src = """
        int[*] main(int[.] frame) {
          out = with {
            (. <= rep <= .) {
              tile = with {
                (. <= pat <= .) : frame[(rep * 2 + pat) % shape(frame)];
              } : genarray([3], 0);
            } : tile;
          } : genarray([2]);
          return out;
        }
        """
        frame = np.array([10, 20, 30, 40], dtype=np.int32)
        out = run(src, args=[frame])
        np.testing.assert_array_equal(out, [[10, 20, 30], [30, 40, 10]])

    def test_generator_out_of_frame_rejected(self):
        src = """
        int[.] main() {
          a = with { ([0] <= iv < [9]) : 0; } : genarray([4]);
          return a;
        }
        """
        with pytest.raises(SacRuntimeError, match="outside frame"):
            run(src)

    def test_bad_step_rejected(self):
        src = """
        int[.] main() {
          a = with { ([0] <= iv < [4] step [0]) : 0; } : genarray([4]);
          return a;
        }
        """
        with pytest.raises(SacRuntimeError, match="step"):
            run(src)

    def test_width_larger_than_step_rejected(self):
        src = """
        int[.] main() {
          a = with { ([0] <= iv < [4] step [2] width [3]) : 0; } : genarray([4]);
          return a;
        }
        """
        with pytest.raises(SacRuntimeError, match="width"):
            run(src)


class TestErrors:
    def test_undefined_variable(self):
        with pytest.raises(SacRuntimeError, match="undefined variable"):
            run("int main() { return ghost; }")

    def test_undefined_function(self):
        with pytest.raises(SacRuntimeError, match="undefined function"):
            run("int main() { return ghost(1); }")

    def test_missing_return(self):
        with pytest.raises(SacRuntimeError, match="without returning"):
            run("int main() { x = 1; }")

    def test_wrong_arity(self):
        src = "int f(int a) { return a; } int main() { return f(1, 2); }"
        with pytest.raises(SacRuntimeError, match="arguments"):
            run(src)

    def test_non_boolean_condition(self):
        with pytest.raises(SacRuntimeError, match="not boolean"):
            run("int main() { if (1) { x = 0; } return 0; }")
