"""The SaC CUDA/sequential backend driver.

Compiles one (optimised) SaC function into a
:class:`~repro.ir.program.DeviceProgram`, performing the paper's three
backend steps (Section VII):

1. **Eligibility** — each WITH-loop is lowered to kernels when possible;
   everything else (for-loop nests like the generic output tiler, dynamic
   WITH-loops, conditionals) becomes a host-compute step running under the
   reference interpreter.
2. **Transfer insertion** — ``host2device`` is emitted for every array a
   kernel reads that lives on the host, ``device2host`` whenever a host
   step (or the function result) needs an array that lives on the device.
   This reproduces the generic variant's penalty: the host output tiler
   forces the intermediate back across PCIe (Section VIII-A).
3. **Kernel outlining** — one kernel per generator (with optional
   wrap-region splitting, which yields the paper's 5/7 kernel counts).

``target="seq"`` compiles the same program for the host: no transfers,
buffers share the host namespace, and the executor charges sequential
cost — the SAC-Seq bars of Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.errors import BackendError
from repro.ir.kernel import ArrayParam, Kernel
from repro.ir.program import (
    AllocDevice,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    HostWork,
    LaunchKernel,
    Op,
)
from repro.ir.validate import validate_program
from repro.sac import ast
from repro.sac.backend.lower import LoweredLoop, lower_withloop
from repro.sac.backend.lowerexpr import LoweringError
from repro.sac.backend.split import split_loop
from repro.sac.interp import Interpreter
from repro.sac.opt import OptimisationFlags, optimize_program
from repro.sac.backend.estimates import estimate_ops, static_value_shape
from repro.sac.opt.rewrite import used_names_stmts
from repro.stages import Stage

__all__ = ["CompileOptions", "CompiledFunction", "compile_function", "compile_stages"]

#: SaC base types -> simulated buffer dtypes
_BUFFER_DTYPES = {"int": "int32", "float": "float32", "double": "float64"}


def _static_value_dtype(e: ast.Expr, dtypes: dict[str, str]) -> str | None:
    """Buffer dtype of host-computed values, when determinable."""
    if isinstance(e, ast.Call) and e.name == "genarray":
        if len(e.args) == 2 and isinstance(e.args[1], ast.FloatLit):
            return "float64"
        return "int32"
    if isinstance(e, ast.Var):
        return dtypes.get(e.name)
    if isinstance(e, ast.ArrayLit):
        def leaf(x):
            while isinstance(x, ast.ArrayLit) and x.elements:
                x = x.elements[0]
            return x
        return "float64" if isinstance(leaf(e), ast.FloatLit) else "int32"
    return None


@dataclass(frozen=True)
class CompileOptions:
    """Backend configuration."""

    target: str = "cuda"  # "cuda" | "seq"
    opt_flags: OptimisationFlags = OptimisationFlags()
    wrap_split: bool = True
    optimize: bool = True
    #: run the static semantic and rank checks before compiling
    check: bool = True
    #: run the repro.analysis suite over the source AST and the emitted
    #: program; findings land on CompiledFunction.diagnostics
    lint: bool = False
    #: transfer placement: "boundary" keeps arrays device-resident between
    #: WITH-loops; "per_kernel" brackets every WITH-loop with a download
    #: and re-uploads consumer inputs — the literal placement the paper
    #: measures as ~half of total runtime, and the input the
    #: repro.opt transfer-elimination pass is built to clean up
    transfers: str = "boundary"
    #: device-program optimisation (a repro.opt.OptOptions); applied to
    #: cuda programs after emission, results land on
    #: CompiledFunction.opt_report
    opt: object | None = None

    def __post_init__(self) -> None:
        if self.target not in ("cuda", "seq"):
            raise BackendError(f"unknown target {self.target!r}")
        if self.transfers not in ("boundary", "per_kernel"):
            raise BackendError(f"unknown transfer placement {self.transfers!r}")


@dataclass(frozen=True)
class CompiledFunction:
    """Compilation result: the program plus compiler metadata."""

    program: DeviceProgram
    entry: str
    optimized: ast.Program = field(compare=False)
    kernel_count: int = 0
    host_step_count: int = 0
    rejected: tuple[tuple[str, str], ...] = ()  # (with-loop result, reason)
    #: analyzer findings (populated when CompileOptions.lint is set)
    diagnostics: tuple = field(default=(), compare=False)
    #: repro.opt.OptReport (populated when CompileOptions.opt is set)
    opt_report: object = field(default=None, compare=False)


def compile_function(
    program: ast.Program,
    entry: str,
    options: CompileOptions = CompileOptions(),
) -> CompiledFunction:
    """Compile ``entry`` of ``program`` to a device (or host) program.

    Runs :func:`compile_stages` once, without a memo.
    """
    compiled = program
    for stage in compile_stages(program, entry, options):
        compiled = stage.run(compiled)
    return compiled


def compile_stages(
    program: ast.Program, entry: str, options: CompileOptions
) -> tuple[Stage, ...]:
    """The stages compiling the parsed ``program``, in order.

    ``sac.check`` passes ``program`` on once the semantic and rank checks
    accept it; ``sac.opt`` optimises it; ``sac.backend`` lowers the
    optimised tree to a :class:`CompiledFunction`; ``ir.validate`` checks
    an emitted CUDA program; ``repro.opt`` optimises and certifies it
    (``options.opt``); ``analysis.lint`` attaches the analysers' findings
    over ``program`` and the final device program.  Each stage declares
    the options it reads, so :class:`~repro.runtime.cache.CompileCache`
    shares ``sac.opt`` between targets, transfer placements and
    ``repro.opt`` configurations.  A stage an option turns off is not in
    the list.
    """
    stages = []
    if options.check:
        stages.append(Stage("sac.check", (), _checked))
    if options.optimize:
        flags = options.opt_flags
        optimised = partial(optimize_program, entry=entry, flags=flags)
        stages.append(Stage("sac.opt", (entry, flags), optimised))
    # the backend reads these three options and no other
    backend = CompileOptions(
        target=options.target, wrap_split=options.wrap_split, transfers=options.transfers
    )
    lowered = partial(_lowered, entry=entry, options=backend)
    stages.append(Stage("sac.backend", (entry, backend), lowered))
    if options.target == "cuda":
        stages.append(Stage("ir.validate", (), _validated))
        if options.opt is not None:
            stages.append(
                Stage("repro.opt", (options.opt,), partial(_device_optimised, opt=options.opt))
            )
    if options.lint:
        stages.append(Stage("analysis.lint", (), partial(_linted, source=program)))
    return tuple(stages)


def _checked(program: ast.Program) -> ast.Program:
    from repro.sac.semantics import check_program
    from repro.sac.typecheck import typecheck_program

    check_program(program)
    typecheck_program(program)
    return program


def _lowered(program: ast.Program, entry: str, options: CompileOptions) -> CompiledFunction:
    return _Builder(program, program.function(entry), options).build()


def _validated(compiled: CompiledFunction) -> CompiledFunction:
    validate_program(compiled.program)
    return compiled


def _device_optimised(compiled: CompiledFunction, opt) -> CompiledFunction:
    from repro.opt import optimize_program as optimize_device_program

    program, report = optimize_device_program(compiled.program, opt)
    if not opt.certify:  # certification validates the program it certifies
        validate_program(program)
    return replace(compiled, program=program, opt_report=report)


def _linted(compiled: CompiledFunction, source: ast.Program) -> CompiledFunction:
    from repro.analysis import analyze_program, analyze_sac_program

    diagnostics = analyze_sac_program(source) + analyze_program(compiled.program)
    return replace(compiled, diagnostics=tuple(diagnostics))


class _Builder:
    def __init__(self, program: ast.Program, fun: ast.FunDef, options: CompileOptions):
        self.program = program
        self.fun = fun
        self.options = options
        self.interp = Interpreter(program)
        self.ops: list[Op] = []
        self.shapes: dict[str, tuple[int, ...]] = {}
        self.dtypes: dict[str, str] = {}
        self.on_device: set[str] = set()
        self.host_defined: set[str] = set(p.name for p in fun.params)
        self.rejected: list[tuple[str, str]] = []
        self.kernel_count = 0
        self.host_step_count = 0
        self.kernel_names: set[str] = set()
        self._buffer_aliases: dict[str, str] = {}
        self.allocated: list[str] = []
        self.gpu = options.target == "cuda"

    # -- naming ------------------------------------------------------------

    def buffer(self, var: str) -> str:
        return f"d_{var}" if self.gpu else var

    # -- top level -----------------------------------------------------------

    def build(self) -> CompiledFunction:
        for p in self.fun.params:
            t = p.type
            if t.is_scalar:
                raise BackendError(
                    f"{self.fun.name}: scalar entry parameters are not supported"
                )
            if not t.is_static:
                raise BackendError(
                    f"{self.fun.name}: entry parameter {p.name!r} needs a static "
                    f"shape (got {t})"
                )
            self.shapes[p.name] = tuple(int(d) for d in t.dims)  # type: ignore[arg-type]
            self.dtypes[p.name] = _BUFFER_DTYPES.get(t.base)
            if self.dtypes[p.name] is None:
                raise BackendError(
                    f"{self.fun.name}: unsupported entry array type {t.base!r}"
                )

        result_var: str | None = None
        for s in self.fun.body:
            if isinstance(s, ast.Return):
                if not isinstance(s.value, ast.Var):
                    raise BackendError(
                        f"{self.fun.name}: return value must be a variable after "
                        f"optimisation"
                    )
                result_var = s.value.name
                break
            self.visit(s)
        if result_var is None:
            raise BackendError(f"{self.fun.name}: no return statement")

        if self.gpu and result_var in self.on_device and result_var not in self.host_defined:
            self.ops.append(DeviceToHost(self.resolve_buffer(result_var), result_var))
        elif not self.gpu:
            # unified namespace: materialise the result under its own name
            # when it is an alias of another buffer
            resolved = self.resolve_buffer(result_var)
            if resolved != result_var:
                from repro.ir.program import HostCompute as _HC

                def bind(env, _r=result_var, _s=resolved):
                    env[_r] = env[_s]

                self.ops.append(
                    _HC(name="host:bind_result", fn=bind, reads=(resolved,),
                        writes=(result_var,), work=HostWork(items=0))
                )
        elif result_var not in self.host_defined and result_var not in self.on_device:
            raise BackendError(f"{self.fun.name}: result {result_var!r} never produced")

        # release every device allocation (cudaFree at program end); in the
        # unified sequential namespace the result array itself must survive
        keep = set()
        if not self.gpu:
            keep.add(self.resolve_buffer(result_var))
            keep.add(result_var)
        for buf in self.allocated:
            if buf not in keep:
                self.ops.append(FreeDevice(buf))

        prog = DeviceProgram(
            name=f"{self.fun.name}_{self.options.target}",
            ops=tuple(self.ops),
            host_inputs=tuple(p.name for p in self.fun.params),
            host_outputs=(result_var,),
        )
        if self.gpu:
            from repro.sac.backend.cudagen import cuda_sources

            prog = DeviceProgram(
                name=prog.name,
                ops=prog.ops,
                host_inputs=prog.host_inputs,
                host_outputs=prog.host_outputs,
                source_files=tuple(cuda_sources(prog).items()),
            )
        return CompiledFunction(
            program=prog,
            entry=self.fun.name,
            optimized=self.program,
            kernel_count=self.kernel_count,
            host_step_count=self.host_step_count,
            rejected=tuple(self.rejected),
        )

    # -- statements ----------------------------------------------------------

    def visit(self, s: ast.Stmt) -> None:
        if isinstance(s, ast.Assign):
            value = s.value
            if isinstance(value, ast.WithLoop):
                self.visit_withloop(s.name, value, s)
                return
            if isinstance(value, ast.Var):
                self.visit_alias(s.name, value.name, s)
                return
            # any other host-computable expression (constants, genarray
            # calls, arithmetic on host values)
            self.host_step((s,), label=f"host:{s.name}")
            self.record_host_shape(s.name, value)
            return
        if isinstance(s, ast.ForLoop):
            self.visit_host_fornest(s)
            return
        # remaining control flow and indexed updates run on the host
        self.host_step((s,), label=f"host:{type(s).__name__.lower()}")

    def visit_host_fornest(self, s: ast.ForLoop) -> None:
        """A for-loop nest: vectorise when static, else interpret."""
        from repro.ir.evalvec import evaluate_kernel
        from repro.sac.backend.hostloops import lower_host_fornest

        nest = lower_host_fornest(s, self.shapes, self.dtypes)
        if nest is None:
            self.host_step((s,), label="host:forloop")
            return
        touched = tuple(sorted(set(nest.reads) | set(nest.writes)))
        for name in touched:
            self.ensure_on_host(name)
        kernel = nest.kernel

        def fn(env, _k=kernel):
            arrays = {a.name: np.asarray(env[a.name]) for a in _k.arrays}
            evaluate_kernel(_k, arrays)
            for a in _k.arrays:
                if a.intent != "in":
                    env[a.name] = arrays[a.name]

        self.ops.append(
            HostCompute(
                name=f"host:nest_{'_'.join(nest.writes)}",
                fn=fn,
                reads=touched,
                writes=nest.writes,
                work=HostWork(
                    items=kernel.space.size,
                    reads_per_item=kernel.facts.reads,
                    writes_per_item=kernel.facts.writes,
                    # the naive host compilation of the nest keeps the full
                    # generic tiler index arithmetic per element
                    flops_per_item=max(nest.ops_per_item, kernel.facts.flops),
                ),
            )
        )
        self.host_defined.update(nest.writes)
        self.host_step_count += 1
        for name in nest.writes:
            self.on_device.discard(name)

    def visit_alias(self, target: str, source: str, s: ast.Stmt) -> None:
        if source in self.shapes:
            self.shapes[target] = self.shapes[source]
        if source in self.dtypes:
            self.dtypes[target] = self.dtypes[source]
        if source in self.on_device:
            # device-side alias: reuse the buffer under the new name by
            # copying through the host would be wasteful; emit a host step
            # only when actually needed.  We simply track the alias.
            self.on_device.add(target)
            self.alias_buffer(target, source)
        elif source in self.host_defined:
            self.host_step((s,), label=f"host:{target}")

    def alias_buffer(self, target: str, source: str) -> None:
        self._buffer_aliases[target] = self.resolve_buffer(source)

    def resolve_buffer(self, var: str) -> str:
        if var in self._buffer_aliases:
            return self._buffer_aliases[var]
        return self.buffer(var)

    # -- WITH-loops -----------------------------------------------------------

    def visit_withloop(self, target: str, wl: ast.WithLoop, stmt: ast.Stmt) -> None:
        try:
            loop = lower_withloop(wl, target, self.shapes, self.dtypes)
            if loop.kind == "modarray" and not loop.full_coverage:
                raise LoweringError(
                    f"{target}: partial modarray needs its base initialised on "
                    f"the device"
                )
            if loop.default not in (None, 0):
                raise LoweringError(
                    f"{target}: non-zero genarray default needs an init kernel"
                )
        except LoweringError as err:
            self.rejected.append((target, str(err)))
            self.host_withloop(target, wl, stmt)
            return

        if self.options.wrap_split and self.gpu:
            loop = split_loop(loop)

        self.shapes[target] = loop.result_shape
        self.dtypes[target] = loop.result_dtype
        # inputs must be resident
        for name in sorted(loop.reads()):
            if name == target:
                continue
            self.ensure_on_device(name)
        self.ops.append(
            AllocDevice(self.buffer(target), loop.result_shape, loop.result_dtype)
        )
        self.allocated.append(self.buffer(target))
        self.on_device.add(target)

        for g in loop.generators:
            kernel = self.make_kernel(target, loop, g)
            args = tuple(
                (a.name, self.resolve_buffer(a.name)) for a in kernel.arrays
            )
            self.ops.append(LaunchKernel(kernel, args))
            self.kernel_count += 1

        if self.gpu and self.options.transfers == "per_kernel":
            # paper-literal placement: every WITH-loop result returns to
            # the host immediately and consumers re-upload their inputs
            self.ops.append(DeviceToHost(self.buffer(target), target))
            self.host_defined.add(target)
            self.on_device.clear()

    def make_kernel(self, target, loop: LoweredLoop, g) -> Kernel:
        reads = sorted(g.reads() - {target})
        arrays = [
            ArrayParam(name, self.shapes[name], self.dtypes.get(name, "int32"),
                       intent="in")
            for name in reads
        ]
        arrays.append(
            ArrayParam(target, loop.result_shape, loop.result_dtype, intent="out")
        )
        base = f"{self.fun.name}_{target}_k{self.kernel_count}"
        name = base
        n = 0
        while name in self.kernel_names:
            n += 1
            name = f"{base}_{n}"
        self.kernel_names.add(name)
        return Kernel(
            name=name,
            space=g.space,
            arrays=tuple(arrays),
            body=g.body,
            provenance=g.provenance,
        )

    def host_withloop(self, target: str, wl: ast.WithLoop, stmt: ast.Stmt) -> None:
        self.host_step((stmt,), label=f"host:{target}")
        self.record_host_shape(target, wl)

    # -- host steps & transfers ----------------------------------------------

    def ensure_on_device(self, name: str) -> None:
        if not self.gpu:
            # unified namespace: nothing to move, but the value must exist
            return
        if name in self.on_device:
            return
        if name not in self.shapes:
            raise BackendError(f"array {name!r} has unknown shape at transfer time")
        if name not in self.host_defined:
            raise BackendError(f"array {name!r} is not available on the host")
        buf = self.buffer(name)
        if buf not in self.allocated:  # per_kernel mode re-uploads into live buffers
            self.ops.append(
                AllocDevice(buf, self.shapes[name], self.dtypes.get(name, "int32"))
            )
            self.allocated.append(buf)
        self.ops.append(HostToDevice(name, buf))
        self.on_device.add(name)

    def ensure_on_host(self, name: str) -> None:
        if name in self.host_defined:
            return
        if self.gpu and name in self.on_device:
            self.ops.append(DeviceToHost(self.resolve_buffer(name), name))
            self.host_defined.add(name)
            return
        if not self.gpu:
            self.host_defined.add(name)  # unified namespace
            return
        raise BackendError(f"array {name!r} is not available anywhere")

    def host_step(self, stmts: tuple[ast.Stmt, ...], label: str) -> None:
        reads = used_names_stmts(stmts) & (self.host_defined | self.on_device | set(self.shapes))
        for name in sorted(reads):
            self.ensure_on_host(name)
        from repro.sac.opt.rewrite import assigned_names_stmts

        writes = assigned_names_stmts(stmts)
        interp = self.interp

        def fn(env, _stmts=stmts, _interp=interp):
            _interp.execute_statements(list(_stmts), env)

        self.ops.append(
            HostCompute(
                name=label,
                fn=fn,
                reads=tuple(sorted(reads)),
                writes=tuple(sorted(writes)),
                work=HostWork(items=estimate_ops(stmts), reads_per_item=0,
                              writes_per_item=0, flops_per_item=1),
            )
        )
        self.host_defined.update(writes)
        self.host_step_count += 1
        # device copies of rewritten arrays are stale
        for name in writes:
            self.on_device.discard(name)

    def record_host_shape(self, name: str, value: ast.Expr) -> None:
        shape = static_value_shape(value, self.shapes)
        if shape is not None:
            self.shapes[name] = shape
        dtype = _static_value_dtype(value, self.dtypes)
        if dtype is not None:
            self.dtypes[name] = dtype
