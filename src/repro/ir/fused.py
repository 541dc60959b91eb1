"""Fused kernels: several launches composed into one (WLF at the IR level).

``sac/opt/wlf.py`` folds producer WITH-loops into their consumers at the
AST level, but only within one SaC function.  :class:`FusedKernel` is the
IR-level generalisation both routes share: the optimiser
(:mod:`repro.opt.fusion`) collapses a group of :class:`~repro.ir.program.
LaunchKernel` ops whose only coupling is a single-use, untransferred
intermediate buffer into **one** launch.  The intermediate becomes an
*internal* scratch array of the fused kernel — it no longer needs a device
allocation, transfers or inter-launch synchronisation, which is exactly
what the paper's Figure 9 WLF bars buy on the SaC route.

A fused kernel is kernel-*like*: it exposes ``name``, ``arrays``,
``scalars`` and ``array()`` with the same meaning as
:class:`~repro.ir.kernel.Kernel`, so it flows through
:class:`~repro.ir.program.LaunchKernel`, the dependence scheduler and the
hazard analysis unchanged.  External array parameters are named after the
device buffers they bind (the fused launch binds each parameter to the
buffer of the same name), so every stage's original ``array_args`` still
resolve — against the external parameters or the internal scratch.

Execution charges **one** launch overhead for the whole group while the
issue and memory phases of the stages still run back to back
(:meth:`repro.gpu.executor.GPUExecutor.kernel_breakdown`), so a fused
launch is never modelled as slower than its stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import IRError
from repro.ir.evalvec import evaluate_kernel
from repro.ir.kernel import ArrayParam, IndexSpace, memo_hash
from repro.ir.program import AllocDevice, LaunchKernel
from repro.ir.validate import validate_kernel

__all__ = ["FusedKernel", "make_fused_launch", "evaluate_fused", "validate_fused_kernel"]


@dataclass(frozen=True)
class FusedKernel:
    """A group of kernel launches executing as a single launch.

    Attributes
    ----------
    name:
        Launch label (shows up in profiles and schedules).
    stages:
        The original launches, in program order.  Their ``array_args``
        bind stage parameters to *fused-level* array names — external
        parameters or internal scratch.
    arrays:
        External array parameters.  Each is named after the device buffer
        the fused launch binds it to; intents are aggregated over the
        stages (read-before-write → ``in``/``inout``, else ``out``).
    internal:
        Scratch arrays private to the fused launch — the eliminated
        intermediate buffers.  Zero-initialised per launch, exactly like
        the device allocations they replace.
    """

    name: str
    stages: tuple[LaunchKernel, ...]
    arrays: tuple[ArrayParam, ...]
    internal: tuple[ArrayParam, ...] = ()
    scalars: tuple = ()
    provenance: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        object.__setattr__(self, "arrays", tuple(self.arrays))
        object.__setattr__(self, "internal", tuple(self.internal))
        if not self.stages:
            raise IRError(f"fused kernel {self.name!r} has no stages")

    def __hash__(self) -> int:
        return memo_hash(self)

    @property
    def space(self) -> IndexSpace:
        """The driving index space (of the last stage, the group's output)."""
        return self.stages[-1].kernel.space

    def array(self, name: str) -> ArrayParam:
        for a in self.arrays:
            if a.name == name:
                return a
        for a in self.internal:
            if a.name == name:
                return a
        raise IRError(f"fused kernel {self.name!r} has no array {name!r}")

    @property
    def input_arrays(self) -> tuple[ArrayParam, ...]:
        return tuple(a for a in self.arrays if a.intent in ("in", "inout"))

    @property
    def output_arrays(self) -> tuple[ArrayParam, ...]:
        return tuple(a for a in self.arrays if a.intent in ("out", "inout"))

    @property
    def scratch_nbytes(self) -> int:
        """Transient bytes the fused launch keeps live for its scratch."""
        return sum(p.nbytes for p in self.internal)


def make_fused_launch(
    name: str,
    stages: tuple[LaunchKernel, ...],
    internal_buffers: set[str],
    geometry: dict[str, AllocDevice],
) -> LaunchKernel:
    """Compose ``stages`` into one fused launch.

    ``internal_buffers`` are the eliminated intermediates (they become
    scratch); ``geometry`` maps every referenced buffer to its
    ``AllocDevice``.  Stages that are themselves fused launches are
    flattened, merging their scratch.
    """
    flat: list[LaunchKernel] = []
    internal_params: dict[str, ArrayParam] = {}
    for st in stages:
        if isinstance(st.kernel, FusedKernel):
            flat.extend(st.kernel.stages)
            for p in st.kernel.internal:
                internal_params[p.name] = p
        else:
            flat.append(st)
    for buf in sorted(internal_buffers):
        alloc = geometry[buf]
        internal_params[buf] = ArrayParam(
            buf, alloc.shape, alloc.dtype, intent="out"
        )

    # aggregate external intents over the stage sequence: a buffer read
    # before any stage wrote it consumes pre-launch contents
    order: list[str] = []
    reads_before_write: set[str] = set()
    written: set[str] = set()
    for st in flat:
        for param, buf in st.array_args:
            if buf in internal_params:
                continue
            if buf not in order:
                order.append(buf)
            intent = st.kernel.array(param).intent
            if intent in ("in", "inout") and buf not in written:
                reads_before_write.add(buf)
            if intent in ("out", "inout"):
                written.add(buf)

    external: list[ArrayParam] = []
    for buf in order:
        alloc = geometry[buf]
        if buf in written:
            intent = "inout" if buf in reads_before_write else "out"
        else:
            intent = "in"
        external.append(ArrayParam(buf, alloc.shape, alloc.dtype, intent=intent))

    fused = FusedKernel(
        name=name,
        stages=tuple(flat),
        arrays=tuple(external),
        internal=tuple(internal_params.values()),
        provenance=f"fusion of {', '.join(st.kernel.name for st in flat)}",
    )
    validate_fused_kernel(fused)
    return LaunchKernel(fused, tuple((a.name, a.name) for a in fused.arrays))


def evaluate_fused(
    fused: FusedKernel,
    arrays: dict[str, np.ndarray],
    scalars: dict | None = None,
) -> None:
    """Run every stage in order against ``arrays`` (external bindings).

    Scratch arrays are zero-initialised per call — bit-identical to the
    zero-filled device allocations the fusion removed.
    """
    env: dict[str, np.ndarray] = {}
    for p in fused.arrays:
        if p.name not in arrays:
            raise IRError(f"fused kernel {fused.name!r}: missing array {p.name!r}")
        env[p.name] = arrays[p.name]
    for p in fused.internal:
        env[p.name] = np.zeros(p.shape, dtype=p.dtype)
    for st in fused.stages:
        stage_arrays = {param: env[buf] for param, buf in st.array_args}
        evaluate_kernel(st.kernel, stage_arrays, dict(st.scalar_args))


def validate_fused_kernel(fused: FusedKernel) -> None:
    """Raise :class:`IRError` when ``fused`` is structurally invalid."""
    declared = {a.name: a for a in fused.arrays}
    for p in fused.internal:
        if p.name in declared:
            raise IRError(
                f"fused kernel {fused.name!r}: scratch {p.name!r} shadows an "
                f"external parameter"
            )
        declared[p.name] = p
    for st in fused.stages:
        if isinstance(st.kernel, FusedKernel):
            raise IRError(
                f"fused kernel {fused.name!r}: nested fused stage "
                f"{st.kernel.name!r} (stages must be flattened)"
            )
        validate_kernel(st.kernel)
        bound_to: dict[str, str] = {}
        for param, buf in st.array_args:
            target = declared.get(buf)
            if target is None:
                raise IRError(
                    f"fused kernel {fused.name!r}: stage {st.kernel.name!r} "
                    f"binds unknown array {buf!r}"
                )
            sp = st.kernel.array(param)
            if tuple(target.shape) != tuple(sp.shape):
                raise IRError(
                    f"fused kernel {fused.name!r}: stage {st.kernel.name!r} "
                    f"binds {buf!r} of shape {tuple(target.shape)} to parameter "
                    f"{param!r} of shape {tuple(sp.shape)}"
                )
            if np.dtype(target.dtype) != np.dtype(sp.dtype):
                raise IRError(
                    f"fused kernel {fused.name!r}: stage {st.kernel.name!r} "
                    f"binds {buf!r} of dtype {target.dtype} to parameter "
                    f"{param!r} of dtype {sp.dtype}"
                )
            other = bound_to.get(buf)
            if other is not None:
                intents = {st.kernel.array(other).intent, sp.intent}
                if intents != {"in"}:
                    raise IRError(
                        f"fused kernel {fused.name!r}: stage {st.kernel.name!r} "
                        f"aliases {buf!r} to parameters {other!r} and {param!r} "
                        f"with write intent"
                    )
            bound_to[buf] = param
