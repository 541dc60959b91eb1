"""Focused unit tests for WITH-loop folding."""

import numpy as np
import pytest

from repro.sac import ast
from repro.sac.interp import Interpreter
from repro.sac.opt import (
    OptimisationFlags,
    count_withloops,
    optimize_program,
)
from repro.sac.parser import parse


def optimized(src, entry="main", flags=OptimisationFlags()):
    prog = parse(src)
    return prog, optimize_program(prog, entry=entry, flags=flags)


def equal_semantics(prog, opt, fun="main", args=None):
    a = Interpreter(prog).call(fun, args or [])
    b = Interpreter(opt).call(fun, args or [])
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


class TestBasicFolding:
    def test_elementwise_chain_fuses(self):
        src = """
        int[.] main(int[8] a) {
          b = with { (. <= iv <= .) : a[iv] * 2; } : genarray([8]);
          c = with { (. <= iv <= .) : b[iv] + 1; } : genarray([8]);
          return c;
        }
        """
        prog, opt = optimized(src)
        assert count_withloops(opt.function("main")) == 1
        equal_semantics(prog, opt, args=[np.arange(8, dtype=np.int32)])

    def test_three_stage_chain(self):
        src = """
        int[.] main(int[8] a) {
          b = with { (. <= iv <= .) : a[iv] * 2; } : genarray([8]);
          c = with { (. <= iv <= .) : b[iv] + 1; } : genarray([8]);
          d = with { (. <= iv <= .) : c[iv] * c[iv]; } : genarray([8]);
          return d;
        }
        """
        prog, opt = optimized(src)
        assert count_withloops(opt.function("main")) == 1
        equal_semantics(prog, opt, args=[np.arange(8, dtype=np.int32)])

    def test_index_shift_fuses(self):
        src = """
        int[.] main(int[8] a) {
          b = with { (. <= iv <= .) : a[iv] + 10; } : genarray([8]);
          c = with { (. <= iv <= .) : b[(iv[0] + 1) % 8]; } : genarray([8]);
          return c;
        }
        """
        prog, opt = optimized(src)
        assert count_withloops(opt.function("main")) == 1
        equal_semantics(prog, opt, args=[np.arange(8, dtype=np.int32)])

    def test_rank_changing_fold(self):
        # producer of 2-D cells consumed elementwise
        src = """
        int[.,.] main(int[4] a) {
          b = with { (. <= iv <= .) : [a[iv], a[iv] * 2]; } : genarray([4]);
          c = with { (. <= [i,j] <= .) : b[[i, j]] + 100; } : genarray([4, 2]);
          return c;
        }
        """
        prog, opt = optimized(src)
        assert count_withloops(opt.function("main")) == 1
        equal_semantics(prog, opt, args=[np.arange(4, dtype=np.int32)])

    def test_producer_body_statements_spliced(self):
        src = """
        int[.] main(int[8] a) {
          b = with { (. <= iv <= .) { t = a[iv] * 3; u = t + 1; } : u; } : genarray([8]);
          c = with { (. <= iv <= .) : b[iv] - 1; } : genarray([8]);
          return c;
        }
        """
        prog, opt = optimized(src)
        assert count_withloops(opt.function("main")) == 1
        equal_semantics(prog, opt, args=[np.arange(8, dtype=np.int32)])


class TestFoldingBlockers:
    def test_multi_generator_producer_not_folded(self):
        """The paper's reason an upstream modarray output tiler blocks
        fusion across filters: producers need a single dense generator."""
        src = """
        int[.] main(int[8] a) {
          b = with {
            ([0] <= iv < [8] step [2]) : a[iv];
            ([1] <= iv < [8] step [2]) : a[iv] * 2;
          } : genarray([8]);
          c = with { (. <= iv <= .) : b[iv] + 1; } : genarray([8]);
          return c;
        }
        """
        prog, opt = optimized(src)
        assert count_withloops(opt.function("main")) == 2
        equal_semantics(prog, opt, args=[np.arange(8, dtype=np.int32)])

    def test_partial_coverage_producer_not_folded(self):
        src = """
        int[.] main(int[8] a) {
          b = with { ([2] <= iv < [6]) : a[iv]; } : genarray([8], 0);
          c = with { (. <= iv <= .) : b[iv] + 1; } : genarray([8]);
          return c;
        }
        """
        prog, opt = optimized(src)
        assert count_withloops(opt.function("main")) == 2
        equal_semantics(prog, opt, args=[np.arange(8, dtype=np.int32)])

    def test_use_inside_for_loop_not_folded(self):
        """WLF 'does not attempt to fuse program constructs other than
        WITH-loops' (the generic output tiler)."""
        src = """
        int main(int[8] a) {
          b = with { (. <= iv <= .) : a[iv] * 2; } : genarray([8]);
          s = 0;
          for (i = 0; i < 8; i++) { s = s + b[i]; }
          return s;
        }
        """
        prog, opt = optimized(src)
        assert count_withloops(opt.function("main")) == 1  # producer remains
        equal_semantics(prog, opt, args=[np.arange(8, dtype=np.int32)])

    def test_whole_array_use_not_folded(self):
        # 128 elements: beyond the partial evaluator's small-vector
        # unrolling threshold, so the concatenation keeps the producer alive
        src = """
        int[.] main(int[128] a) {
          b = with { (. <= iv <= .) : a[iv] * 2; } : genarray([128]);
          c = b ++ [0];
          return c;
        }
        """
        prog, opt = optimized(src)
        assert count_withloops(opt.function("main")) == 1
        equal_semantics(prog, opt, args=[np.arange(128, dtype=np.int32)])

    def test_whole_small_array_use_may_unroll(self):
        """Small arrays may legitimately unroll element-wise instead."""
        src = """
        int[.] main(int[8] a) {
          b = with { (. <= iv <= .) : a[iv] * 2; } : genarray([8]);
          c = b ++ [0];
          return c;
        }
        """
        prog, opt = optimized(src)
        equal_semantics(prog, opt, args=[np.arange(8, dtype=np.int32)])

    def test_modarray_consumer_folds_genarray_producer(self):
        src = """
        int[.] main(int[9] a) {
          b = with { (. <= iv <= .) : a[iv] + 5; } : genarray([9]);
          out = genarray([9], 0);
          out = with {
            ([0] <= iv < [9] step [3]) : b[iv];
            ([1] <= iv < [9] step [3]) : b[iv] * 2;
            ([2] <= iv < [9] step [3]) : b[iv] * 3;
          } : modarray(out);
          return out;
        }
        """
        prog, opt = optimized(src)
        assert count_withloops(opt.function("main")) == 1
        equal_semantics(prog, opt, args=[np.arange(9, dtype=np.int32)])


class TestDownscalerShape:
    def test_downscaler_fuses_to_figure8_shape(self):
        from repro.apps.downscaler import NONGENERIC, downscaler_program_source
        from repro.apps.downscaler.config import FrameSize

        size = FrameSize(rows=18, cols=16, name="tiny")
        prog = parse(downscaler_program_source(size, NONGENERIC))
        opt = optimize_program(prog, entry="downscale")
        fun = opt.function("downscale")
        assert count_withloops(fun) == 2
        wls = [
            s.value
            for s in fun.body
            if isinstance(s, ast.Assign) and isinstance(s.value, ast.WithLoop)
        ]
        assert len(wls[0].generators) == 3  # horizontal (Figure 8 bulk)
        assert len(wls[1].generators) == 4  # vertical
        # every generator reads the frame directly (intermediates folded away)
        from repro.sac.opt.rewrite import free_vars_expr

        for wl in wls:
            for g in wl.generators:
                reads = set()
                for s in g.body:
                    reads |= free_vars_expr(s.value)
                assert any(name == "frame" or name == "h" for name in reads) or (
                    free_vars_expr(g.expr)
                )


class TestDepthBound:
    """Folding composes bodies, so a chain of folds nests as deep as the
    bodies added up; past :data:`MAX_DEPTH` the producer stays in place."""

    @staticmethod
    def chain(loops: int, terms: int) -> str:
        lines = ["int[8] main(int[8] a) {", "  b0 = a;"]
        for j in range(1, loops + 1):
            cell = " + ".join([f"b{j - 1}[iv]"] * 2 + ["1"] * (terms - 2))
            lines.append(f"  b{j} = with {{ (. <= iv <= .) : {cell}; }} : genarray([8]);")
        return "\n".join(lines + [f"  return b{loops};", "}"])

    def test_chained_deep_bodies_compile_and_match_the_interpreter(self):
        """Regression: eight chained WITH-loops with 44-deep bodies ended in a
        bare RecursionError inside compile_function."""
        from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
        from repro.sac.backend import CompileOptions, compile_function

        prog = parse(self.chain(8, 44))
        opt = optimize_program(prog, entry="main")
        # no fold fits, so every WITH-loop stays a producer of its own
        assert count_withloops(opt.function("main")) == 8
        a = np.arange(8, dtype=np.int32)
        equal_semantics(prog, opt, args=[a])
        cf = compile_function(prog, "main", CompileOptions(target="cuda"))
        assert cf.kernel_count == 8
        out = GPUExecutor(CostModel(GTX480_CALIBRATED)).run(cf.program, {"a": a})
        want = Interpreter(prog).call("main", [a])
        np.testing.assert_array_equal(out.outputs[cf.program.host_outputs[0]], want)

    def test_folds_within_the_bound_still_happen(self):
        prog, opt = optimized(self.chain(3, 10))
        assert count_withloops(opt.function("main")) == 1
        equal_semantics(prog, opt, args=[np.arange(8, dtype=np.int32)])

    def test_shipped_programs_nest_far_below_the_bound(self):
        from repro.apps.convolution import convolution_program_source, gaussian3
        from repro.apps.downscaler import CIF, GENERIC, NONGENERIC, downscaler_program_source
        from repro.sac.opt.rewrite import nests_within

        for src, entry in (
            (downscaler_program_source(CIF, NONGENERIC), "downscale"),
            (downscaler_program_source(CIF, GENERIC), "downscale"),
            (convolution_program_source(gaussian3(96, 128)), "blur"),
        ):
            fun = optimize_program(parse(src), entry=entry).function(entry)
            assert all(nests_within(s, 9) for s in fun.body)
            assert not all(nests_within(s, 7) for s in fun.body)
