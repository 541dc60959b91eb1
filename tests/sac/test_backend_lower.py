"""Unit tests for WITH-loop lowering, eligibility and wrap splitting."""

import numpy as np
import pytest

from repro.ir import IndexSpace, evaluate_kernel
from repro.ir import expr as ir
from repro.ir import stmt as irs
from repro.sac.backend import (
    LoweredGenerator,
    LoweringError,
    is_cuda_eligible,
    lower_withloop,
    rejection_reason,
    split_loop,
    split_wrap_regions,
)
from repro.sac import ast
from repro.sac.opt import fold_function, optimize_program
from repro.sac.parser import parse


def with_loop_of(src, fun="f", var=None):
    """Parse+optimise and return (withloop, shapes) for the assignment."""
    prog = optimize_program(parse(src), entry=fun)
    f = prog.function(fun)
    shapes = {}
    for p in f.params:
        shapes[p.name] = tuple(p.type.dims)
    target = None
    for s in f.body:
        if isinstance(s, ast.Assign) and isinstance(s.value, ast.WithLoop):
            if var is None or s.name.startswith(var) or s.name == var:
                target = s
    assert target is not None, "no WITH-loop found"
    return target.value, target.name, shapes


class TestLowering:
    def test_simple_genarray(self):
        wl, name, shapes = with_loop_of(
            "int[.] f(int[16] a) { b = with { (. <= iv <= .) : a[iv] * 2; } "
            ": genarray([16]); return b; }"
        )
        loop = lower_withloop(wl, name, shapes)
        assert loop.kind == "genarray"
        assert loop.result_shape == (16,)
        assert len(loop.generators) == 1
        assert loop.full_coverage
        g = loop.generators[0]
        assert g.space.extent == (16,)
        assert g.reads() == {"a"}
        assert g.writes() == {name}

    def test_vector_cells_become_multiple_stores(self):
        wl, name, shapes = with_loop_of(
            "int[.,.] f(int[8] a) { b = with { (. <= iv <= .) : "
            "[a[iv], a[iv] * 2]; } : genarray([8]); return b; }"
        )
        loop = lower_withloop(wl, name, shapes)
        assert loop.result_shape == (8, 2)
        g = loop.generators[0]
        stores = [s for s in g.body if isinstance(s, irs.Store)]
        assert len(stores) == 2

    def test_strided_modarray_generators(self):
        src = """
        int[.] f(int[9] a) {
          canvas = genarray([9], 0);
          out = with {
            ([0] <= iv < [9] step [3]) : a[iv];
            ([1] <= iv < [9] step [3]) : a[iv] * 2;
            ([2] <= iv < [9] step [3]) : a[iv] * 3;
          } : modarray(canvas);
          return out;
        }
        """
        wl, name, shapes = with_loop_of(src)
        loop = lower_withloop(wl, name, shapes)
        assert loop.kind == "modarray"
        assert loop.full_coverage
        assert len(loop.generators) == 3
        assert all(g.space.step == (3,) for g in loop.generators)

    def test_width_expansion(self):
        src = """
        int[.] f(int[8] a) {
          b = with { ([0] <= iv < [8] step [4] width [2]) : a[iv]; }
            : genarray([8], 0);
          return b;
        }
        """
        wl, name, shapes = with_loop_of(src)
        loop = lower_withloop(wl, name, shapes)
        # width 2 becomes two step-4 generator kernels at offsets 0 and 1
        assert len(loop.generators) == 2
        lowers = sorted(g.space.lower[0] for g in loop.generators)
        assert lowers == [0, 1]
        assert not loop.full_coverage

    def test_fold_rejected(self):
        src = """
        int f(int[8] a) {
          s = with { ([0] <= iv < [8]) : a[iv]; } : fold(add, 0);
          return s;
        }
        """
        wl, name, shapes = with_loop_of(src)
        with pytest.raises(LoweringError, match="fold"):
            lower_withloop(wl, name, shapes)
        assert not is_cuda_eligible(wl, name, shapes)
        assert "fold" in rejection_reason(wl, name, shapes)

    def test_dynamic_bounds_rejected(self):
        src = """
        int[.] f(int[8] a, int n) {
          b = with { ([0] <= iv < [n]) : a[iv]; } : genarray([8], 0);
          return b;
        }
        """
        prog = parse(src)
        f = prog.function("f")
        wl = f.body[0].value
        with pytest.raises(LoweringError, match="dynamic|static"):
            lower_withloop(wl, "b", {"a": (8,)})


def mods_of(gen):
    """The ``%`` operations in a store-only generator body."""
    return [
        e
        for s in gen.body
        for root in (*s.index, s.value)
        for e in ir.walk(root)
        if isinstance(e, ir.BinOp) and e.op == "%"
    ]


class TestWrapSplitting:
    def _gen(self, extent, body):
        return LoweredGenerator(
            space=IndexSpace((0,), (extent,)), body=tuple(body), provenance="t"
        )

    def test_no_mod_untouched(self):
        g = self._gen(8, [irs.Store("out", (ir.ThreadIdx(0),),
                                    ir.Read("a", (ir.ThreadIdx(0),)))])
        assert split_wrap_regions(g) == [g]

    def test_never_wrapping_mod_removed(self):
        # (iv + 0) % 16 over iv in [0,8) never wraps
        read = ir.Read("a", (ir.BinOp("%", ir.ThreadIdx(0), ir.Const(16)),))
        g = self._gen(8, [irs.Store("out", (ir.ThreadIdx(0),), read)])
        out = split_wrap_regions(g)
        assert len(out) == 1
        assert mods_of(out[0]) == []

    def test_suffix_wrap_split(self):
        # (iv + 4) % 8 over [0,8): wraps for iv >= 4
        read = ir.Read(
            "a", (ir.BinOp("%", ir.BinOp("+", ir.ThreadIdx(0), ir.Const(4)),
                           ir.Const(8)),)
        )
        g = self._gen(8, [irs.Store("out", (ir.ThreadIdx(0),), read)])
        out = split_wrap_regions(g)
        assert len(out) == 2
        bulk, edge = out
        assert bulk.space.upper == (4,)
        assert edge.space.lower == (4,)
        # bulk lost the modulo, the edge kept it
        assert mods_of(bulk) == []
        assert len(mods_of(edge)) == 1

    def test_non_separable_wrap_kept(self):
        # a diagonal wrap region ((i + j) % 8 over an 8x8 space) is not an
        # axis-aligned slab: the generator must stay whole, modulo intact
        read = ir.Read(
            "a",
            (
                ir.BinOp(
                    "%",
                    ir.BinOp("+", ir.ThreadIdx(0), ir.ThreadIdx(1)),
                    ir.Const(8),
                ),
            ),
        )
        g = LoweredGenerator(
            space=IndexSpace((0, 0), (8, 8)),
            body=(irs.Store("out", (ir.ThreadIdx(0), ir.ThreadIdx(1)), read),),
            provenance="t",
        )
        out = split_wrap_regions(g)
        assert len(out) == 1
        assert len(mods_of(out[0])) == 1  # kept

    def test_split_preserves_semantics(self):
        read = ir.Read(
            "a", (ir.BinOp("%", ir.BinOp("+", ir.ThreadIdx(0), ir.Const(5)),
                           ir.Const(16)),)
        )
        g = self._gen(16, [irs.Store("out", (ir.ThreadIdx(0),), read)])
        parts = split_wrap_regions(g)
        assert len(parts) == 2
        a = np.arange(16, dtype=np.int32)
        from repro.ir import ArrayParam, Kernel

        def run(gens):
            out = np.zeros(16, dtype=np.int32)
            for gen in gens:
                k = Kernel(
                    name="k",
                    space=gen.space,
                    arrays=(
                        ArrayParam("a", (16,), intent="in"),
                        ArrayParam("out", (16,), intent="out"),
                    ),
                    body=gen.body,
                )
                evaluate_kernel(k, {"a": a, "out": out})
            return out

        np.testing.assert_array_equal(run([g]), run(parts))

    def test_downscaler_kernel_counts(self):
        """The headline structural fact: 5 + 7 kernels after splitting."""
        from repro.apps.downscaler import HD, NONGENERIC, downscaler_program_source
        from repro.sac.backend import CompileOptions, compile_function

        prog = parse(downscaler_program_source(HD, NONGENERIC))
        cf = compile_function(prog, "downscale", CompileOptions(target="cuda"))
        assert cf.kernel_count == 12
        edges = [k for k in cf.program.kernels if "wrap edge" in k.provenance]
        assert len(edges) == 5  # 2 horizontal + 3 vertical
