"""The concrete passes of the Gaspard2 OpenCL chain.

Ordered as in the Gaspard2 tooling: validate, flatten the task hierarchy,
schedule, bind dataflow buffers, map repetition spaces to ND-ranges,
generate kernels, then emit the executable program and the OpenCL sources.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.errors import TransformError
from repro.arrayol.backend.lower import kernel_for_repetitive
from repro.arrayol.backend.openclgen import opencl_source
from repro.arrayol.model import (
    ApplicationModel,
    CompoundTask,
    IOTask,
    Link,
    RepetitiveTask,
    TaskInstance,
)
from repro.arrayol.schedule import buffer_bindings, schedule_instances
from repro.arrayol.transform.chain import (
    GaspardContext,
    ModelPass,
    TransformationChain,
    apply_pass,
    emitted,
)
from repro.arrayol.validate import validate_model
from repro.ir.program import (
    AllocDevice,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    HostWork,
    LaunchKernel,
)
from repro.ir.validate import validate_program
from repro.stages import Stage

__all__ = ["standard_chain", "opencl_chain_passes", "chain_pass_names", "chain_stages"]


# -- pass 1: validation --------------------------------------------------------


def _validate(ctx: GaspardContext) -> None:
    validate_model(ctx.model)


# -- pass 2: hierarchy flattening ------------------------------------------------


def _flatten(ctx: GaspardContext) -> None:
    top = ctx.model.top
    for _ in range(16):
        compounds = [i for i in top.instances if isinstance(i.task, CompoundTask)]
        if not compounds:
            break
        top = _flatten_once(top, compounds[0])
    else:
        raise TransformError("hierarchy deeper than 16 levels")
    ctx.model = ApplicationModel(name=ctx.model.name, top=top)
    # the allocation must now cover the flattened instances
    ctx.allocation.validate_against(top)


def _flatten_once(top: CompoundTask, target: TaskInstance) -> CompoundTask:
    inner: CompoundTask = target.task  # type: ignore[assignment]
    prefix = target.name

    new_instances = [i for i in top.instances if i.name != target.name]
    new_instances += [
        TaskInstance(name=f"{prefix}_{i.name}", task=i.task) for i in inner.instances
    ]

    # producers/consumers of the compound's own ports, inside it
    inner_consumers: dict[str, list[tuple[str, str]]] = {}
    inner_producers: dict[str, tuple[str, str]] = {}
    new_links: list[Link] = []
    for link in inner.links:
        s_inst, s_port = link.src
        d_inst, d_port = link.dst
        if s_inst == "" and d_inst == "":
            raise TransformError(
                f"{inner.name}: direct port-to-port links are not supported"
            )
        if s_inst == "":
            inner_consumers.setdefault(s_port, []).append(
                (f"{prefix}_{d_inst}", d_port)
            )
        elif d_inst == "":
            inner_producers[d_port] = (f"{prefix}_{s_inst}", s_port)
        else:
            new_links.append(
                Link(src=(f"{prefix}_{s_inst}", s_port), dst=(f"{prefix}_{d_inst}", d_port))
            )

    for link in top.links:
        if link.dst[0] == target.name:
            for consumer in inner_consumers.get(link.dst[1], []):
                new_links.append(Link(src=link.src, dst=consumer))
        elif link.src[0] == target.name:
            producer = inner_producers.get(link.src[1])
            if producer is None:
                raise TransformError(
                    f"{inner.name}: output {link.src[1]!r} has no inner producer"
                )
            new_links.append(Link(src=producer, dst=link.dst))
        else:
            new_links.append(link)

    return CompoundTask(
        name=top.name,
        inputs=top.inputs,
        outputs=top.outputs,
        instances=tuple(new_instances),
        links=tuple(new_links),
    )


# -- pass 3: scheduling --------------------------------------------------------


def _schedule(ctx: GaspardContext) -> None:
    ctx.schedule = schedule_instances(ctx.model.top)


# -- pass 4: buffer binding ------------------------------------------------------


def _bind_buffers(ctx: GaspardContext) -> None:
    top = ctx.model.top
    ctx.buffers = buffer_bindings(top)
    shapes: dict[str, tuple[int, ...]] = {}
    dtypes: dict[str, str] = {}
    for (inst_name, port_name), buf in ctx.buffers.items():
        if inst_name == "":
            port = top.port(port_name)
        else:
            port = top.instance(inst_name).task.port(port_name)
        prev = shapes.get(buf)
        if prev is not None and prev != port.shape:
            raise TransformError(
                f"buffer {buf!r} bound to ports of different shapes "
                f"{prev} vs {port.shape}"
            )
        prev_dtype = dtypes.get(buf)
        if prev_dtype is not None and prev_dtype != port.dtype:
            raise TransformError(
                f"buffer {buf!r} bound to ports of different dtypes "
                f"{prev_dtype} vs {port.dtype}"
            )
        shapes[buf] = port.shape
        dtypes[buf] = port.dtype
    ctx.buffer_shapes = shapes
    ctx.buffer_dtypes = dtypes


# -- pass 5: ND-range mapping ------------------------------------------------------


def _map_ndranges(ctx: GaspardContext) -> None:
    for inst in ctx.model.top.instances:
        if isinstance(inst.task, RepetitiveTask):
            ctx.ndranges[inst.name] = inst.task.repetition


# -- pass 6: kernel generation -----------------------------------------------------


def _generate_kernels(ctx: GaspardContext) -> None:
    for inst in ctx.model.top.instances:
        if not isinstance(inst.task, RepetitiveTask):
            continue
        if not ctx.allocation.on_device(inst.name):
            continue
        port_to_buffer = {
            port_name: buf
            for (i, port_name), buf in ctx.buffers.items()
            if i == inst.name
        }
        ctx.kernels[inst.name] = kernel_for_repetitive(
            inst.task, kernel_name=inst.name, buffer_of_port=port_to_buffer
        )


# -- pass 7: program emission --------------------------------------------------------


def _emit_program(ctx: GaspardContext, transfers: str = "boundary") -> None:
    top = ctx.model.top
    on_device: set[str] = set()
    host_defined: set[str] = set(p.name for p in top.inputs)
    allocated: list[str] = []
    ops = ctx.ops

    def dev(buf: str) -> str:
        return f"d_{buf}"

    def alloc(buf: str) -> None:
        if dev(buf) not in allocated:  # per_kernel mode revisits live buffers
            ops.append(
                AllocDevice(dev(buf), ctx.buffer_shapes[buf],
                            ctx.buffer_dtypes.get(buf, "int32"))
            )
            allocated.append(dev(buf))

    def ensure_device(buf: str) -> None:
        if buf in on_device:
            return
        alloc(buf)
        ops.append(HostToDevice(buf, dev(buf)))
        on_device.add(buf)

    def ensure_host(buf: str) -> None:
        if buf in host_defined:
            return
        if buf in on_device:
            ops.append(DeviceToHost(dev(buf), buf))
            host_defined.add(buf)
            return
        raise TransformError(f"buffer {buf!r} is not available anywhere")

    def alloc_device_out(buf: str) -> None:
        if buf not in on_device:
            alloc(buf)
            on_device.add(buf)

    for inst_name in ctx.schedule:
        inst = top.instance(inst_name)
        task = inst.task
        in_bufs = [
            ctx.buffers[(inst_name, p.name)]
            for p in task.inputs
            if (inst_name, p.name) in ctx.buffers
        ]
        out_bufs = [
            ctx.buffers[(inst_name, p.name)]
            for p in task.outputs
            if (inst_name, p.name) in ctx.buffers
        ]
        if isinstance(task, RepetitiveTask) and ctx.allocation.on_device(inst_name):
            kernel = ctx.kernels[inst_name]
            for buf in in_bufs:
                ensure_device(buf)
            for buf in out_bufs:
                alloc_device_out(buf)
            args = tuple((a.name, dev(a.name)) for a in kernel.arrays)
            ops.append(LaunchKernel(kernel, args))
            if transfers == "per_kernel":
                # paper-literal placement: every device task's outputs come
                # home immediately; the next task re-uploads its inputs
                for buf in out_bufs:
                    ops.append(DeviceToHost(dev(buf), buf))
                    host_defined.add(buf)
                on_device.clear()
        elif isinstance(task, IOTask):
            for buf in in_bufs:
                ensure_host(buf)
            ins = {
                p.name: ctx.buffers[(inst_name, p.name)]
                for p in task.inputs
                if (inst_name, p.name) in ctx.buffers
            }
            outs = {
                p.name: ctx.buffers[(inst_name, p.name)]
                for p in task.outputs
                if (inst_name, p.name) in ctx.buffers
            }
            ip = task.ip

            def fn(env, _ip=ip, _ins=ins, _outs=outs):
                _ip(env, _ins, _outs)

            ops.append(
                HostCompute(
                    name=f"ip:{inst_name}",
                    fn=fn,
                    reads=tuple(ins.values()),
                    writes=tuple(outs.values()),
                    work=HostWork(items=task.work_ops, reads_per_item=0,
                                  writes_per_item=0, flops_per_item=1),
                )
            )
            host_defined.update(outs.values())
            for buf in outs.values():
                on_device.discard(buf)
        elif isinstance(task, RepetitiveTask):
            # CPU-allocated repetitive task: run functionally on the host,
            # charged as sequential work
            from repro.ir.evalvec import evaluate_kernel

            port_to_buffer = {
                port_name: buf
                for (i, port_name), buf in ctx.buffers.items()
                if i == inst_name
            }
            kernel = kernel_for_repetitive(task, inst_name, port_to_buffer)
            for buf in in_bufs:
                ensure_host(buf)

            def fn(env, _k=kernel, _shapes=ctx.buffer_shapes):
                arrays = {}
                for a in _k.arrays:
                    if a.name not in env:
                        env[a.name] = np.zeros(_shapes[a.name], dtype=a.dtype)
                    arrays[a.name] = np.asarray(env[a.name])
                evaluate_kernel(_k, arrays)
                for a in _k.arrays:
                    env[a.name] = arrays[a.name]

            ops.append(
                HostCompute(
                    name=f"cpu:{inst_name}",
                    fn=fn,
                    reads=tuple(in_bufs),
                    writes=tuple(out_bufs),
                    work=HostWork(
                        items=kernel.space.size,
                        reads_per_item=kernel.facts.reads,
                        writes_per_item=kernel.facts.writes,
                        flops_per_item=kernel.facts.flops,
                    ),
                )
            )
            host_defined.update(out_bufs)
        else:
            raise TransformError(f"cannot emit instance {inst_name!r}")

    for p in top.outputs:
        buf = ctx.buffers.get(("", p.name), p.name)
        ensure_host(buf)
    for buf in allocated:
        ops.append(FreeDevice(buf))

    ctx.program = DeviceProgram(
        name=f"{ctx.model.name}_opencl",
        ops=tuple(ops),
        host_inputs=tuple(p.name for p in top.inputs),
        host_outputs=tuple(
            ctx.buffers.get(("", p.name), p.name) for p in top.outputs
        ),
        source_files=tuple(ctx.sources.items()),
    )


# -- pass 8: source emission -----------------------------------------------------


def _emit_sources(ctx: GaspardContext) -> None:
    ctx.sources["kernels.cl"] = opencl_source(
        list(ctx.kernels.values()), ctx.model.name
    )
    if ctx.program is not None:
        ctx.program = DeviceProgram(
            name=ctx.program.name,
            ops=ctx.program.ops,
            host_inputs=ctx.program.host_inputs,
            host_outputs=ctx.program.host_outputs,
            source_files=tuple(ctx.sources.items()),
        )


def _analyze(ctx: GaspardContext) -> None:
    """Run the repro.analysis suite over the model and emitted program."""
    from repro.analysis import analyze_model, analyze_program

    ctx.diagnostics.extend(analyze_model(ctx.model))
    if ctx.program is not None:
        ctx.diagnostics.extend(analyze_program(ctx.program))


def _optimize(ctx: GaspardContext, options) -> None:
    """Run the shared device-program optimiser over the emitted program."""
    from repro.opt import optimize_program

    ctx.program, ctx.opt_report = optimize_program(ctx.program, options)
    if not options.certify:  # certification validates the program it certifies
        validate_program(ctx.program)


#: the passes of every chain, up to the emitted program and its sources
_EMISSION_PASSES = (
    "validate", "flatten_hierarchy", "schedule", "bind_buffers",
    "map_ndranges", "generate_kernels", "emit_program", "emit_sources",
)


def chain_pass_names(lint: bool = False, optimised: bool = False) -> tuple[str, ...]:
    """The pass names of ``standard_chain(lint, opt, ...)``, where
    ``optimised`` says whether ``opt`` is set; builds no chain."""
    return _EMISSION_PASSES + ("optimize",) * optimised + ("analyze",) * lint


def opencl_chain_passes(
    lint: bool = False, opt=None, transfers: str = "boundary"
) -> tuple[ModelPass, ...]:
    if transfers not in ("boundary", "per_kernel"):
        raise TransformError(f"unknown transfer placement {transfers!r}")
    passes = (
        ModelPass("validate", _validate, "GILR well-formedness"),
        ModelPass("flatten_hierarchy", _flatten, "inline compound tasks"),
        ModelPass("schedule", _schedule, "topological instance order"),
        ModelPass("bind_buffers", _bind_buffers, "dataflow buffer allocation"),
        ModelPass("map_ndranges", _map_ndranges, "repetition space -> ND-range"),
        ModelPass("generate_kernels", _generate_kernels, "one kernel per task"),
        ModelPass(
            "emit_program",
            partial(_emit_program, transfers=transfers),
            "transfers + launches + IPs",
            inputs=(transfers,),
        ),
        ModelPass("emit_sources", _emit_sources, "OpenCL model-to-text"),
    )
    if opt is not None:
        passes += (
            ModelPass(
                "optimize",
                partial(_optimize, options=opt),
                "shared device-program optimisation (repro.opt)",
                inputs=(opt,),
            ),
        )
    if lint:
        passes += (
            ModelPass("analyze", _analyze, "static-analysis diagnostics"),
        )
    return passes


def chain_stages(chain: TransformationChain) -> tuple[Stage, ...]:
    """``chain``'s passes as compile stages, for a compile cache.

    A stage maps a ``(context, trace lines)`` pair to the next: it applies
    its pass (span ``arrayol.transform.<pass>``) to a copy of the
    context, so a memoised upstream context never changes.  The emitted
    program is validated once, as ``ir.validate`` after ``emit_sources``,
    before any pass that rewrites it.
    """
    stages = []
    for p in chain.passes:
        stages.append(Stage(f"arrayol.transform.{p.name}", p.inputs, partial(_on_copy, p)))
        if p.name == _EMISSION_PASSES[-1]:
            stages.append(Stage("ir.validate", (), _validated))
    return tuple(stages)


def _on_copy(p: ModelPass, state: tuple) -> tuple:
    ctx, trace = state
    ctx = ctx.copy()
    return ctx, trace + (apply_pass(p, ctx),)


def _validated(state: tuple) -> tuple:
    validate_program(emitted(state[0]).program)
    return state


def standard_chain(
    lint: bool = False, opt=None, transfers: str = "boundary"
) -> TransformationChain:
    """The Gaspard2 OpenCL chain (optionally ending in an analysis pass).

    ``transfers="per_kernel"`` reproduces the paper's literal per-task
    transfer placement; ``opt`` (a :class:`repro.opt.OptOptions`) appends
    the shared device-program optimiser after emission, so the analysis
    pass — and every consumer — sees the optimised program.
    """
    return TransformationChain(
        opencl_chain_passes(lint=lint, opt=opt, transfers=transfers)
    )
