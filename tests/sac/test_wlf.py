"""Focused unit tests for WITH-loop folding."""

import dataclasses

import numpy as np
import pytest

from repro.sac import ast
from repro.sac.interp import Interpreter
from repro.sac.opt import (
    OptimisationFlags,
    count_withloops,
    optimize_program,
)
from repro.sac.opt.constant_fold import fold_function
from repro.sac.opt.normalize import normalize_function
from repro.sac.opt.wlf import wlf_function
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


class TestProducerScope:
    """A producer folds only where every name its cell reads still means
    what it meant at the producer: each program below was miscompiled (or,
    for the self-reading producer, never reached a fixpoint) while WLF
    tracked producers by their own name only."""

    A8 = np.arange(8, dtype=np.int32)

    @pytest.mark.parametrize(
        "src, args",
        [
            pytest.param(
                """
                int[8] main(int[8] a) {
                  b = with { (. <= iv <= .) : a[iv] * 2; } : genarray([8]);
                  a = with { (. <= iv <= .) : a[iv] + 1; } : genarray([8]);
                  c = with { (. <= iv <= .) : b[iv] + a[iv]; } : genarray([8]);
                  return c;
                }
                """,
                [A8],
                id="read-name-rebound",
            ),
            pytest.param(
                """
                int[8] main(int[8] a) {
                  c = with { (. <= iv <= .) {
                      t = with { (. <= jv <= .) : a[jv] * 2; } : genarray([8]);
                      for (k = 0; k < 1; k++) {
                        t = with { (. <= jv <= .) : a[jv] * 3; } : genarray([8]);
                      }
                      x = t[iv];
                    } : x; } : genarray([8]);
                  return c;
                }
                """,
                [A8],
                id="rebound-in-loop-in-generator-body",
            ),
            pytest.param(
                """
                int[8] main(int[8] a, int i) {
                  b = with { (. <= iv <= .) : a[iv] + i; } : genarray([8]);
                  c = with { (. <= [i] <= .) : b[[i]]; } : genarray([8]);
                  return c;
                }
                """,
                [A8, np.int32(100)],
                id="read-name-is-consumer-index",
            ),
            pytest.param(
                """
                int[8] main(int[8] a, int k) {
                  b = with { (. <= iv <= .) : a[iv] + k; } : genarray([8]);
                  c = with { (. <= iv <= .) { k = 1; x = b[iv]; } : x + k; } : genarray([8]);
                  return c;
                }
                """,
                [A8, np.int32(100)],
                id="read-name-assigned-in-consumer-body",
            ),
        ],
    )
    def test_rebound_read_name_blocks_the_fold(self, src, args):
        equal_semantics(*optimized(src), args=args)


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


def tree_size(x) -> int:
    """AST nodes of a tree, each counted with its source location."""
    return 2 * sum(1 for _ in nodes(x))


def wlf_round(src: str, entry: str = "main") -> ast.FunDef:
    """One WLF pass over ``entry`` as the pipeline's first round sees it."""
    fun = parse(src).function(entry)
    return wlf_function(fold_function(normalize_function(fun)))


def splices(fun: ast.FunDef, producer: str) -> int:
    """How many cells of ``producer`` WLF bound to a local of their own."""
    return sum(
        1 for n in nodes(fun)
        if isinstance(n, ast.Assign) and n.name.startswith(f"_wlf_{producer}_")
    )


def nodes(x):
    """Every AST node below ``x``, ``x`` included, depth first."""
    if isinstance(x, ast.Node):
        yield x
        for f in dataclasses.fields(x):
            yield from nodes(getattr(x, f.name))
    elif isinstance(x, tuple):
        for y in x:
            yield from nodes(y)


class TestSharedSplices:
    """A selection reuses the splice an earlier selection of the same
    producer made at a structurally equal frame index in its scope:
    array-valued cells across the enclosing generator body, scalar cells
    within one statement."""

    A8 = [np.arange(8, dtype=np.int32)]

    @staticmethod
    def doubling_chain(links: int) -> str:
        lines = ["int[8] main(int[8] a) {", "  b0 = a;"]
        for j in range(1, links + 1):
            lines.append(
                f"  b{j} = with {{ (. <= iv <= .) : b{j - 1}[iv] + b{j - 1}[iv]; }}"
                " : genarray([8]);"
            )
        return "\n".join(lines + [f"  return b{links};", "}"])

    def test_doubling_chain_folds_in_linear_size(self):
        """Regression: each link read its predecessor's cell twice and WLF
        spliced it twice, so the folded chain doubled per link (16,418
        nodes at 10 links, about 11 s to optimise at 12)."""
        from repro.gpu import GTX480_CALIBRATED, CostModel, GPUExecutor
        from repro.sac.backend import CompileOptions, compile_function

        prog, opt = optimized(self.doubling_chain(12))
        assert count_withloops(opt.function("main")) == 1
        assert tree_size(opt.function("main")) <= 400
        equal_semantics(prog, opt, args=self.A8)
        a = self.A8[0]
        cf = compile_function(prog, "main", CompileOptions(target="cuda"))
        out = GPUExecutor(CostModel(GTX480_CALIBRATED)).run(cf.program, {"a": a})
        want = Interpreter(prog).call("main", [a])
        np.testing.assert_array_equal(out.outputs[cf.program.host_outputs[0]], want)

    def test_no_pass_builds_a_large_intermediate(self, monkeypatch):
        """Every pass of ``optimize_function`` on the CIF downscaler stays
        small; splicing each tile once per filter body keeps round 0's WLF
        output at 7,530 nodes (66,276 when every selection copied it)."""
        from repro.apps.downscaler import CIF, NONGENERIC, downscaler_program_source
        from repro.sac.opt import pipeline

        sizes = {}
        for name in ("inline_function", "normalize_function", "fold_function",
                     "wlf_function", "dce_function"):
            def recorded(*args, _run=getattr(pipeline, name), _name=name):
                out = _run(*args)
                sizes.setdefault(_name, []).append(tree_size(out))
                return out

            monkeypatch.setattr(pipeline, name, recorded)
        prog = parse(downscaler_program_source(CIF, NONGENERIC))
        fun = pipeline.optimize_function(prog, "downscale")
        assert set(sizes) == {"inline_function", "normalize_function",
                              "fold_function", "wlf_function", "dce_function"}
        assert max(max(v) for v in sizes.values()) <= 16_000
        assert tree_size(fun) == 1822

    def test_reassigned_index_name_splices_again(self):
        src = """
        int[8] main(int[8] a) {
          b = with { (. <= iv <= .) : [a[iv], a[iv] * 2]; } : genarray([8]);
          c = with { (. <= jv <= .) {
              i = jv[0];
              x = b[[i, 0]];
              i = (i + 1) % 8;
              y = b[[i, 1]];
            } : x + y; } : genarray([8]);
          return c;
        }
        """
        assert splices(wlf_round(src), "b") == 2
        equal_semantics(*optimized(src), args=self.A8)

    def test_same_index_shares_one_splice_across_the_body(self):
        src = """
        int[8] main(int[8] a) {
          b = with { (. <= iv <= .) : [a[iv], a[iv] * 2]; } : genarray([8]);
          c = with { (. <= jv <= .) {
              x = b[[jv[0], 0]];
              y = b[[jv[0], 1]];
            } : x + y + b[[jv[0], 0]]; } : genarray([8]);
          return c;
        }
        """
        assert splices(wlf_round(src), "b") == 1
        equal_semantics(*optimized(src), args=self.A8)

    def test_refused_fold_leaves_nothing_to_reuse(self):
        """The first selection's fold nests past MAX_DEPTH and is refused;
        the second must not point at the splice that refusal discarded."""
        deep_cell = " + ".join(["a[iv]"] * 30)
        deep_take = " + ".join(["n"] * 30)
        src = f"""
        int main(int[8] a, int n) {{
          b = with {{ (. <= iv <= .) : [{deep_cell}, 0]; }} : genarray([8]);
          x = b[[({deep_take}) % 8, 0]];
          y = b[[({deep_take}) % 8, 1]];
          return x + y;
        }}
        """
        fun = wlf_round(src)
        assert splices(fun, "b") == 0
        assert count_withloops(fun) == 1
        equal_semantics(*optimized(src), args=[self.A8[0], np.int32(3)])

    @pytest.mark.parametrize(
        "outer, inner",
        [("b[iv]", "b[iv]"), ("b[[iv[0], 0]]", "b[[iv[0], 1]]")],
        ids=["scalar", "array"],
    )
    def test_inner_generator_shadowing_the_index_splices_its_own(self, outer, inner):
        cell = "a[iv] * 2" if outer == "b[iv]" else "[a[iv], a[iv] * 2]"
        src = f"""
        int[8] main(int[8] a) {{
          b = with {{ (. <= iv <= .) : {cell}; }} : genarray([8]);
          c = with {{ (. <= iv <= .) {{
              x = {outer} + with {{ ([0] <= iv < [8]) : {inner}; }} : fold(add, 0);
            }} : x; }} : genarray([8]);
          return c;
        }}
        """
        assert splices(wlf_round(src), "b") == 2
        equal_semantics(*optimized(src), args=self.A8)

    def test_scalar_cells_are_not_shared_across_statements(self):
        """Sharing them would merge reads the program makes separately
        (the generic downscaler's overlapping taps), moving modelled time."""
        src = """
        int[8] main(int[8] a) {
          b = with { (. <= iv <= .) : a[iv] * 2; } : genarray([8]);
          c = with { (. <= iv <= .) { x = b[iv] + 1; y = b[iv] + 2; } : x * y; } : genarray([8]);
          return c;
        }
        """
        assert splices(wlf_round(src), "b") == 2
        prog, opt = optimized(src)
        reads = [
            n for n in nodes(opt.function("main"))
            if isinstance(n, ast.IndexExpr) and n.array == ast.Var(name="a")
        ]
        assert len(reads) == 2
        equal_semantics(prog, opt, args=self.A8)

    def test_scalar_cell_read_twice_in_a_statement_is_spliced_once(self):
        src = """
        int[8] main(int[8] a) {
          b = with { (. <= iv <= .) : a[iv] * 2; } : genarray([8]);
          c = with { (. <= iv <= .) : b[iv] * b[iv] + b[iv]; } : genarray([8]);
          return c;
        }
        """
        assert splices(wlf_round(src), "b") == 1
        equal_semantics(*optimized(src), args=self.A8)
