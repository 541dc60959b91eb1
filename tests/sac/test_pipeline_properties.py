"""Property-based tests: the optimisation pipeline preserves semantics.

Random small SaC programs are generated structurally (producer/consumer
WITH-loop chains with random bounds, steps, arithmetic and selections) and
the fully optimised program must agree with the reference interpreter —
the core compiler-correctness invariant, exercised far beyond the
downscaler's shape.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sac.interp import Interpreter
from repro.sac.opt import OptimisationFlags, optimize_program
from repro.sac.parser import parse

SIZE = 12  # every generated array has this many elements

#: found by the property below: once WLF folds ``x2`` into the ``min``,
#: its product overflows int32 inside one expression, and the compiled
#: route agreed with the interpreter only when both wrap every
#: intermediate as C ``int`` arithmetic does
OVERFLOW_INTO_MIN = (
    "int[.] main(int[12] x0) {\n"
    "  x1 = with { (. <= iv <= .) : ((((x0[iv]) + (x0[iv]))) + (((x0[iv]) * (x0[iv])))); }"
    " : genarray([12]);\n"
    "  x2 = with { (. <= iv <= .) : ((((x1[iv]) + (x1[iv]))) * (((x1[iv]) * (x1[iv])))); }"
    " : genarray([12]);\n"
    "  x3 = with { (. <= iv <= .) : min(((x2[iv]) + (x2[iv])), x2[iv]); }"
    " : genarray([12]);\n"
    "  return x3;\n"
    "}"
)


@st.composite
def scalar_exprs(draw, depth=0):
    """A random scalar expression over `a[iv]`-style reads and iv[0]."""
    leafs = [
        lambda: f"src[iv]",
        lambda: f"src[(iv[0] + {draw(st.integers(0, SIZE - 1))}) % {SIZE}]",
        lambda: "iv[0]",
        lambda: str(draw(st.integers(0, 9))),
    ]
    if depth >= 2:
        return draw(st.sampled_from(leafs))()
    op = draw(st.sampled_from(["+", "-", "*", "leaf", "div", "mod", "min"]))
    if op == "leaf":
        return draw(st.sampled_from(leafs))()
    lhs = draw(scalar_exprs(depth=depth + 1))
    rhs = draw(scalar_exprs(depth=depth + 1))
    if op == "div":
        return f"(({lhs}) / {draw(st.integers(1, 6))})"
    if op == "mod":
        return f"(({lhs}) % {draw(st.integers(1, 6))})"
    if op == "min":
        return f"min({lhs}, {rhs})"
    return f"(({lhs}) {op} ({rhs}))"


@st.composite
def stage_programs(draw):
    """2-4 chained WITH-loop stages, each reading its predecessor."""
    n_stages = draw(st.integers(min_value=2, max_value=4))
    lines = [f"int[.] main(int[{SIZE}] x0) {{"]
    prev = "x0"
    for i in range(1, n_stages + 1):
        body = draw(scalar_exprs())
        body = body.replace("src", prev)
        # occasionally a strided multi-generator stage (not foldable-from)
        strided = draw(st.booleans()) and i < n_stages
        if strided and SIZE % 3 == 0:
            lines.append(
                f"  x{i} = with {{\n"
                f"    ([0] <= iv < [{SIZE}] step [3]) : {body};\n"
                f"    ([1] <= iv < [{SIZE}] step [3]) : {body} + 1;\n"
                f"    ([2] <= iv < [{SIZE}] step [3]) : 7;\n"
                f"  }} : genarray([{SIZE}]);"
            )
        else:
            lines.append(
                f"  x{i} = with {{ (. <= iv <= .) : {body}; }} "
                f": genarray([{SIZE}]);"
            )
        prev = f"x{i}"
    lines.append(f"  return {prev};")
    lines.append("}")
    return "\n".join(lines)


@given(stage_programs(), st.integers(0, 2**31 - 1))
@example(OVERFLOW_INTO_MIN, 0)
@settings(max_examples=40, deadline=None)
def test_optimised_program_matches_interpreter(source, seed):
    prog = parse(source)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 100, size=SIZE).astype(np.int32)
    expected = Interpreter(prog).call("main", [x])
    optimised = optimize_program(prog, entry="main")
    actual = Interpreter(optimised).call("main", [x])
    np.testing.assert_array_equal(actual, expected)


@given(stage_programs(), st.integers(0, 2**31 - 1))
@example(OVERFLOW_INTO_MIN, 0)
@settings(max_examples=25, deadline=None)
def test_compiled_program_matches_interpreter(source, seed):
    """The whole stack: optimiser + CUDA backend + simulated execution."""
    from repro.gpu import CostModel, GPUExecutor, UNCALIBRATED
    from repro.sac.backend import CompileOptions, compile_function

    prog = parse(source)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 100, size=SIZE).astype(np.int32)
    expected = Interpreter(prog).call("main", [x])
    cf = compile_function(prog, "main", CompileOptions(target="cuda"))
    ex = GPUExecutor(CostModel(UNCALIBRATED))
    res = ex.run(cf.program, {"x0": x})
    np.testing.assert_array_equal(
        res.outputs[cf.program.host_outputs[0]], np.asarray(expected)
    )


@given(stage_programs(), st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_seq_and_cuda_targets_agree(source, seed):
    from repro.cpu import CPUExecutor
    from repro.gpu import CostModel, GPUExecutor, UNCALIBRATED
    from repro.sac.backend import CompileOptions, compile_function

    prog = parse(source)
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 100, size=SIZE).astype(np.int32)
    cuda = compile_function(prog, "main", CompileOptions(target="cuda"))
    seq = compile_function(prog, "main", CompileOptions(target="seq"))
    a = GPUExecutor(CostModel(UNCALIBRATED)).run(cuda.program, {"x0": x})
    b = CPUExecutor(CostModel(UNCALIBRATED)).run(seq.program, {"x0": x})
    np.testing.assert_array_equal(
        a.outputs[cuda.program.host_outputs[0]],
        b.outputs[seq.program.host_outputs[0]],
    )


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_wlf_off_matches_wlf_on(seed):
    """The key ablation as a property: folding never changes results."""
    rng = np.random.default_rng(seed)
    shift = int(rng.integers(0, SIZE))
    source = f"""
    int[.] main(int[{SIZE}] x0) {{
      a = with {{ (. <= iv <= .) : x0[iv] * 2 + 1; }} : genarray([{SIZE}]);
      b = with {{ (. <= iv <= .) : a[(iv[0] + {shift}) % {SIZE}] - a[iv]; }}
        : genarray([{SIZE}]);
      return b;
    }}
    """
    prog = parse(source)
    x = rng.integers(0, 100, size=SIZE).astype(np.int32)
    on = Interpreter(optimize_program(prog, entry="main")).call("main", [x])
    off = Interpreter(
        optimize_program(prog, entry="main", flags=OptimisationFlags.no_wlf())
    ).call("main", [x])
    np.testing.assert_array_equal(on, off)
