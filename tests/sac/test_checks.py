"""Tests for the static semantic checker and the rank/type checker."""

import pytest

from repro.errors import SacSemanticError, SacTypeError
from repro.sac.parser import parse
from repro.sac.semantics import check_program
from repro.sac.typecheck import typecheck_program


def check(src):
    check_program(parse(src))


def typecheck(src):
    typecheck_program(parse(src))


class TestSemantics:
    def test_valid_program(self):
        check("int main(int x) { y = x + 1; return y; }")

    def test_downscaler_programs_pass(self):
        from repro.apps.downscaler import CIF, GENERIC, NONGENERIC, downscaler_program_source

        for variant in (GENERIC, NONGENERIC):
            src = downscaler_program_source(CIF, variant)
            check(src)
            typecheck(src)

    def test_undefined_variable(self):
        with pytest.raises(SacSemanticError, match="undefined variable"):
            check("int main() { return ghost; }")

    def test_undefined_function(self):
        with pytest.raises(SacSemanticError, match="undefined function"):
            check("int main() { return ghost(1); }")

    def test_wrong_arity(self):
        with pytest.raises(SacSemanticError, match="expects 1"):
            check("int f(int a) { return a; } int main() { return f(1, 2); }")

    def test_builtin_arity(self):
        with pytest.raises(SacSemanticError, match="builtin"):
            check("int main() { return dim(1, 2); }")

    def test_missing_return(self):
        with pytest.raises(SacSemanticError, match="without returning"):
            check("int main() { x = 1; }")

    def test_return_in_both_branches_ok(self):
        check(
            "int main(int x) { if (x < 0) { return 0; } else { return 1; } }"
        )

    def test_return_in_one_branch_insufficient(self):
        with pytest.raises(SacSemanticError, match="without returning"):
            check("int main(int x) { if (x < 0) { return 0; } }")

    def test_unreachable_code(self):
        with pytest.raises(SacSemanticError, match="unreachable"):
            check("int main() { return 1; x = 2; return x; }")

    def test_void_returning_value(self):
        with pytest.raises(SacSemanticError, match="void"):
            check("void main() { return 1; }")

    def test_branch_definition_not_guaranteed(self):
        with pytest.raises(SacSemanticError, match="undefined variable"):
            check(
                "int main(int x) { if (x < 0) { y = 1; } else { z = 2; } return y; }"
            )

    def test_both_branch_definition_ok(self):
        check(
            "int main(int x) { if (x < 0) { y = 1; } else { y = 2; } return y; }"
        )

    def test_loop_body_definition_not_guaranteed(self):
        with pytest.raises(SacSemanticError, match="undefined variable"):
            check("int main() { for (i = 0; i < 3; i++) { y = i; } return y; }")

    def test_unknown_fold_function(self):
        with pytest.raises(SacSemanticError, match="fold"):
            check(
                "int main(int[4] a) { s = with { ([0] <= iv < [4]) : a[iv]; } "
                ": fold(xor, 0); return s; }"
            )

    def test_generator_vars_visible_in_body(self):
        check(
            "int[.] main() { a = with { ([0] <= iv < [4]) { t = iv[0]; } : t; } "
            ": genarray([4]); return a; }"
        )

    def test_indexed_assign_needs_definition(self):
        with pytest.raises(SacSemanticError, match="indexed assignment"):
            check("int main() { t[0] = 1; return 0; }")

    def test_duplicate_params(self):
        with pytest.raises(SacSemanticError, match="duplicate"):
            check("int main(int a, int a) { return a; }")

    # regressions: both compiled to one op and failed only when run, with
    # the interpreter's SacRuntimeError; the checker now reports the same
    # text at the same place

    def test_zero_generator_step(self):
        src = (
            "int[8] main(int[8] a) {\n"
            "  b = with { ([0] <= iv < [8] step [0]) : a[iv]; } : genarray([8]);\n"
            "  return b; }"
        )
        with pytest.raises(SacSemanticError) as err:
            check(src)
        assert str(err.value) == "<string>:2:14: generator step must be positive: [0]"

    def test_scalar_step_expands_to_the_generator_rank(self):
        src = (
            "int[8,8] main() { b = with { ([0,0] <= iv < [8,8] step -2) : 1; } "
            ": genarray([8,8]); return b; }"
        )
        with pytest.raises(SacSemanticError, match=r"step must be positive: \[-2, -2\]"):
            check(src)

    def test_generator_bound_ranks_differ(self):
        src = (
            "int[8] main(int[8] a) {\n"
            "  b = with { ([0,0] <= iv < [8]) : a[iv]; } : genarray([8]);\n"
            "  return b; }"
        )
        with pytest.raises(SacSemanticError) as err:
            check(src)
        assert str(err.value) == "<string>:2:7: generator bound ranks differ: 2 vs 1"

    def test_dot_bound_takes_the_frame_rank(self):
        src = (
            "int[8] main(int[8] a) { b = with { ([0,0] <= iv <= .) : 1; } "
            ": genarray([8]); return b; }"
        )
        with pytest.raises(SacSemanticError, match="bound ranks differ: 2 vs 1"):
            check(src)

    def test_steps_and_bounds_known_only_at_run_time_pass(self):
        check(
            "int[8] main(int[8] a, int s, int[1] lo) { b = with { (lo <= iv < [8] "
            "step s) : a[iv]; } : genarray([8]); return b; }"
        )
        # the interpreter reports the step's rank first: left to run time
        check(
            "int[8,8] main() { b = with { ([0,0] <= iv < [8,8] step [0]) : 1; } "
            ": genarray([8,8]); return b; }"
        )


class TestTypecheck:
    def test_boolean_condition_enforced(self):
        with pytest.raises(SacTypeError, match="boolean"):
            typecheck("int main(int x) { if (x + 1) { y = 1; } else { y = 2; } return y; }")

    def test_arithmetic_on_bool_rejected(self):
        with pytest.raises(SacTypeError, match="arithmetic"):
            typecheck("int main(bool b) { return b + 1; }")

    def test_logical_on_int_rejected(self):
        with pytest.raises(SacTypeError, match="boolean operands"):
            typecheck("bool main(int x) { return x && true; }")

    def test_overdeep_selection_rejected(self):
        with pytest.raises(SacTypeError, match="depth"):
            typecheck("int main(int[4] a) { return a[[0, 1]]; }")

    def test_select_from_scalar_rejected(self):
        with pytest.raises(SacTypeError, match="scalar"):
            typecheck("int main(int x) { return x[0]; }")

    def test_rank_mismatch_argument(self):
        with pytest.raises(SacTypeError, match="rank"):
            typecheck(
                "int f(int[.,.] m) { return m[[0,0]]; } "
                "int main(int[4] v) { return f(v); }"
            )

    def test_return_rank_mismatch(self):
        with pytest.raises(SacTypeError, match="rank"):
            typecheck("int[.,.] main(int[4] v) { return v; }")

    def test_unknown_ranks_pass(self):
        typecheck("int[*] f(int[*] a) { return a; } int[*] main(int[*] a) { return f(a); }")

    def test_negating_bool_rejected(self):
        with pytest.raises(SacTypeError):
            typecheck("int main(bool b) { return -b; }")
