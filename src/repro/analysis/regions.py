"""Region-precise access analysis: the optimiser's independence oracle.

The paper's core argument is that SaC and ArrayOL survive the move to GPUs
*because* their abstractions keep data accesses statically analysable.  The
PR1 analyses reason at whole-buffer granularity, so the race detector
over-approximates and the optimiser must be conservative.  This module
recovers per-element precision for the :class:`~repro.ir.program.DeviceProgram`
IR: for every op it derives, per buffer, the set of elements read and
written as **strided interval boxes** —

* from :class:`~repro.ir.kernel.Kernel` index expressions on the SaC route
  (the generated bodies are affine in the generator indices, including the
  exact divisions and modular wrap arithmetic WITH-loop folding emits),
* from the tiler ``o/F/P`` matrices on the ArrayOL route (the lowered
  kernel bodies embed ``(o + P@r + F@i) mod shape``, so the same symbolic
  analysis covers both routes; :mod:`repro.tilers.regions` derives the same
  boxes straight from the matrices as a cross-check),
* from the ``region`` field of partial transfers,

with a sound whole-buffer fallback tagged *imprecise* (``fallback=True``)
when an index escapes the analysable fragment.

One walk, :func:`repro.ir.evalvec.kernel_accesses`, visits a kernel's
accesses in program order; here it evaluates each index component to an
affine form over the launch and loop axes, or to an :class:`~repro.analysis.
intervals.Interval` where the component is not affine (``TOP`` when nothing
bounds it).  :func:`kernel_walk` memoises that walk per kernel and scalar
arguments, and both the boxes here and the bounds checker
(:mod:`repro.analysis.bounds`) read it.

Consumers see the result through :class:`RegionOracle`:

* ``may_alias(i, j)`` — may ops ``i`` and ``j`` conflict, i.e. is there an
  overlapping access pair with at least one write?  ``False`` is a proof
  of independence: the legality condition for fusing, reordering, or
  overlapping the two ops.
* ``must_cover(boxes, shape)`` — do the *exact* boxes provably cover every
  element of the buffer?  Used by the lifetime verifier (is a download
  fully initialised?) and by transfer elimination (does a partial upload
  establish residency?).

Soundness contract: every derived box is a **superset** of the true access
set, so box disjointness proves access disjointness.  ``exact=True``
additionally promises the box *equals* the true access set (so each axis
drives at most one of its dimensions: an axis moving two walks a
diagonal through their product); only exact boxes participate in the
under-approximating ``must_cover``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.intervals import TOP, Interval
from repro.ir.evalvec import kernel_accesses
from repro.ir.expr import BinOp, Const, LocalRef, ParamRef, Select, ThreadIdx, UnOp
from repro.ir.fused import FusedKernel
from repro.ir.kernel import Kernel
from repro.ir.program import (
    AllocDevice,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    LaunchKernel,
)
from repro.ir.stmt import Assign, For, walk_stmts

__all__ = [
    "Seg",
    "Box",
    "box_from_dict",
    "full_box",
    "progression_box",
    "boxes_overlap",
    "box_contains",
    "must_cover",
    "kernel_walk",
    "kernel_access_boxes",
    "launch_access_boxes",
    "transfer_box",
    "RegionOracle",
    "find_region_reports",
]

#: element cap for the dense coverage mask (same limit as the bounds pass)
_COVER_LIMIT = 1 << 26


# ---------------------------------------------------------------------------
# strided segments and boxes


@dataclass(frozen=True)
class Seg:
    """One dimension of a box: ``{lo, lo+step, ..., hi}`` (inclusive)."""

    lo: int
    hi: int
    step: int = 1

    def __post_init__(self) -> None:
        lo, hi, step = int(self.lo), int(self.hi), int(self.step)
        if hi < lo:
            raise ValueError(f"Seg has negative extent: [{lo}, {hi}]")
        if step < 1:
            raise ValueError(f"Seg step must be >= 1, got {step}")
        hi = lo + (hi - lo) // step * step  # snap hi onto the progression
        if lo == hi:
            step = 1
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "step", step)

    @property
    def count(self) -> int:
        return (self.hi - self.lo) // self.step + 1

    def overlaps(self, other: "Seg") -> bool:
        """Whether the two progressions share an element (CRT congruence)."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return False
        g = math.gcd(self.step, other.step)
        if (other.lo - self.lo) % g:
            return False
        # smallest common element of both progressions, then shift into range
        m1, m2 = self.step // g, other.step // g
        t = 0 if m2 == 1 else (other.lo - self.lo) // g * pow(m1, -1, m2) % m2
        x0 = self.lo + self.step * t
        lcm = self.step // g * other.step
        x = lo + (x0 - lo) % lcm
        return x <= hi


@dataclass(frozen=True)
class Box:
    """A per-buffer access region: one :class:`Seg` per array dimension.

    ``segs == ()`` is the *unknown* box (a resource of unknown extent,
    e.g. a host array touched by an opaque ``HostCompute``): it overlaps
    everything and covers nothing.  ``exact`` marks the box as equal to
    the true access set; ``fallback`` marks the whole-buffer imprecise
    fallback taken when an index expression defeated the analysis.
    """

    segs: tuple[Seg, ...]
    exact: bool = True
    fallback: bool = False

    @property
    def rank(self) -> int:
        return len(self.segs)

    @property
    def unknown(self) -> bool:
        return not self.segs

    @property
    def count(self) -> int:
        return prod(s.count for s in self.segs)

    def as_dict(self) -> dict:
        """JSON-stable rendering; inverse of :func:`box_from_dict`."""
        return {
            "segs": [[s.lo, s.hi, s.step] for s in self.segs],
            "exact": self.exact,
            "fallback": self.fallback,
        }


def box_from_dict(data: dict) -> Box:
    """Rebuild a :class:`Box` from its :meth:`Box.as_dict` rendering."""
    return Box(
        segs=tuple(Seg(lo, hi, step) for lo, hi, step in data["segs"]),
        exact=bool(data["exact"]),
        fallback=bool(data.get("fallback", False)),
    )


def full_box(shape: tuple[int, ...], exact: bool = True, fallback: bool = False) -> Box:
    """The box covering every element of an array of ``shape``."""
    return Box(
        segs=tuple(Seg(0, n - 1, 1) for n in shape), exact=exact, fallback=fallback
    )


def boxes_overlap(a: Box, b: Box) -> bool:
    """May the two regions share an element?  (Conservative: True unless
    provably disjoint.)"""
    if a.unknown or b.unknown or a.rank != b.rank:
        return True
    return all(sa.overlaps(sb) for sa, sb in zip(a.segs, b.segs))


def box_contains(outer: Box, inner: Box) -> bool:
    """Does ``outer`` provably contain every element of ``inner``?

    The proof needs ``outer`` to be exact (an inexact box only promises a
    superset of its true access set, which proves nothing about what it
    holds) and, per dimension, ``inner``'s progression to be a
    sub-progression of ``outer``'s: aligned on the same residue with a
    step that is a multiple of the outer step, inside the outer bounds.
    ``False`` means "not provable", not "disjoint" — the conservative
    answer for a legality gate.
    """
    if outer.unknown or inner.unknown or outer.rank != inner.rank:
        return False
    if not outer.exact:
        return False
    for so, si in zip(outer.segs, inner.segs):
        if si.lo < so.lo or si.hi > so.hi:
            return False
        if (si.lo - so.lo) % so.step:
            return False
        # a single point only needs alignment; a progression also needs
        # its step to land on the outer residue class every time
        if si.count > 1 and si.step % so.step:
            return False
    return True


def progression_box(const: int, contributions) -> tuple[Seg, bool]:
    """Collapse ``const + sum(coef_k * x_k)`` with ``x_k in [0, count_k)``
    into a :class:`Seg` plus an exactness flag.

    The segment always *contains* the value set.  It *equals* it when the
    sorted absolute coefficients form a complete sequence: with ``g`` the
    gcd of all coefficients, each ``|coef|`` must not exceed the reach of
    the smaller terms plus ``g`` — the condition under which the partial
    sums tile a full arithmetic progression (it covers the single-axis,
    contiguous-halo, and mixed-radix flattening cases the two routes emit).
    """
    terms = [(int(c), int(n)) for c, n in contributions if int(n) > 1 and int(c) != 0]
    const = int(const)
    if not terms:
        return Seg(const, const, 1), True
    lo = const + sum(min(0, c * (n - 1)) for c, n in terms)
    hi = const + sum(max(0, c * (n - 1)) for c, n in terms)
    g = 0
    for c, _ in terms:
        g = math.gcd(g, abs(c))
    exact = True
    reach = 0
    for s, n in sorted((abs(c), n) for c, n in terms):
        if s > reach + g:
            exact = False
            break
        reach += s * (n - 1)
    return Seg(lo, hi, g), exact


def must_cover(boxes, shape: tuple[int, ...]) -> bool:
    """Do the **exact** boxes provably cover every element of ``shape``?

    This is the under-approximating side of the oracle: inexact boxes are
    ignored (they only promise a superset), and above :data:`_COVER_LIMIT`
    elements only a single whole-array box proves coverage.
    """
    exact = [b for b in boxes if b.exact and not b.unknown and b.rank == len(shape)]
    if not exact:
        return False
    for b in exact:
        if all(
            s.lo <= 0 and s.hi >= n - 1 and s.step == 1
            for s, n in zip(b.segs, shape)
        ):
            return True
    if prod(shape) > _COVER_LIMIT:
        return False
    mask = np.zeros(shape, dtype=bool)
    for b in exact:
        index = []
        for s, n in zip(b.segs, shape):
            start = s.lo if s.lo >= 0 else s.lo % s.step
            stop = min(s.hi, n - 1) + 1
            if start >= stop:
                index = None
                break
            index.append(slice(start, stop, s.step))
        if index is not None:
            mask[tuple(index)] = True
    return bool(mask.all())


# ---------------------------------------------------------------------------
# affine evaluation of kernel index expressions


@dataclass(frozen=True)
class _Aff:
    """``const + sum(terms[k] * x_k)`` with ``x_k in [0, axes[k])``."""

    const: int
    terms: tuple[tuple[object, int], ...]  # (axis key, unit coefficient)


class _Ctx:
    """Symbolic evaluation context: generator axes, loop axes, and local
    bindings — the symbolic domain of :func:`kernel_accesses`."""

    def __init__(self, kernel: Kernel, scalars: dict):
        self.axes: dict[object, int] = {}  # axis key -> trip count
        self.scalars = scalars
        self.iv: list[_Aff] = []
        sp = kernel.space
        for d, (lo, st, n) in enumerate(zip(sp.lower, sp.step, sp.extent)):
            key = ("iv", d)
            self.axes[key] = n
            self.iv.append(_Aff(lo, ((key, st),) if n > 1 else ()))
        # name -> (result, loop keys open at bind time); results bound under
        # a loop are demoted to their bounds once the loop has closed
        self.locals: dict[str, tuple[object, frozenset]] = {}
        self.open: set = set()

    def interval(self, res) -> Interval:
        """The integer range of an evaluation result."""
        if isinstance(res, Interval):
            return res
        lo = hi = res.const
        for key, coef in res.terms:
            span = coef * (self.axes[key] - 1)
            lo += min(0, span)
            hi += max(0, span)
        return Interval(lo, hi)

    def bind(self, name: str, expr) -> None:
        self.locals[name] = (_eval(expr, self), frozenset(self.open))

    def loop(self, s: For):
        """Walk the body of ``s`` once, with its variable as an open axis."""
        trip = s.stop - s.start
        if trip <= 0:
            return
        if trip > 1:
            # a name the body rebinds carries one iteration's value into
            # the next iteration's uses before the rebinding: unknown there
            body = list(walk_stmts(s.body))
            rebound = {t.name for t in body if isinstance(t, Assign)}
            rebound |= {t.var for t in body if isinstance(t, For)}
            for name in rebound & self.locals.keys():
                self.locals[name] = (TOP, frozenset())
        key = ("for", s.var, len(self.axes))
        self.axes[key] = trip
        self.locals[s.var] = (
            _Aff(s.start, ((key, 1),) if trip > 1 else ()),
            frozenset(self.open | {key}),
        )
        self.open.add(key)
        yield
        self.open.discard(key)
        # after the loop the var holds one final value, not the range
        self.locals[s.var] = (TOP, frozenset())


def _constant(v):
    if isinstance(v, bool) or not isinstance(v, int):
        return TOP
    return _Aff(v, ())


def _eval(e, ctx: _Ctx):
    """Evaluate an index expression to an ``_Aff``, or to a sound
    :class:`Interval` where it is not affine (``TOP`` when nothing bounds
    it: a ``Read``, an unbound name, a non-integer constant)."""
    if isinstance(e, Const):
        return _constant(e.value)
    if isinstance(e, ParamRef):
        return _constant(ctx.scalars.get(e.name))
    if isinstance(e, ThreadIdx):
        return ctx.iv[e.dim] if e.dim < len(ctx.iv) else TOP
    if isinstance(e, LocalRef):
        bound = ctx.locals.get(e.name)
        if bound is None:
            return TOP
        res, open_at_bind = bound
        if open_at_bind - ctx.open:
            # bound under a loop that has since closed: the symbolic range
            # is a superset of the final value — keep bounds, drop exactness
            return ctx.interval(res)
        return res
    if isinstance(e, Select):
        t, f = _eval(e.if_true, ctx), _eval(e.if_false, ctx)
        return ctx.interval(t).union(ctx.interval(f))
    if isinstance(e, UnOp):
        v = _eval(e.operand, ctx)
        if e.op == "-":
            if isinstance(v, _Aff):
                return _Aff(-v.const, tuple((k, -c) for k, c in v.terms))
            return -v
        if e.op == "abs":
            iv = ctx.interval(v)
            return v if iv.lo >= 0 else iv.abs()
        return Interval(0, 1) if e.op == "!" else TOP
    if isinstance(e, BinOp):
        return _eval_binop(e, ctx)
    return TOP  # a Read: data-dependent index


_RANGE_OPS = {
    "+": Interval.__add__,
    "-": Interval.__sub__,
    "*": Interval.__mul__,
    "/": Interval.c_div,
    "%": Interval.c_mod,
    "min": Interval.min,
    "max": Interval.max,
}


def _eval_binop(e: BinOp, ctx: _Ctx):
    op = e.op
    if op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
        return Interval(0, 1)
    a = _eval(e.lhs, ctx)
    b = _eval(e.rhs, ctx)
    if isinstance(a, _Aff) and isinstance(b, _Aff):
        if op in ("+", "-"):
            sign = 1 if op == "+" else -1
            terms = dict(a.terms)
            for key, coef in b.terms:
                terms[key] = terms.get(key, 0) + sign * coef
            return _Aff(
                a.const + sign * b.const,
                tuple((k, c) for k, c in terms.items() if c),
            )
        if op == "*":
            for aff, other in ((a, b), (b, a)):
                if not aff.terms:
                    c = aff.const
                    terms = tuple((k, c * v) for k, v in other.terms) if c else ()
                    return _Aff(c * other.const, terms)
        c = b.const
        if (
            op == "/"
            and not b.terms
            and c
            and a.const % c == 0
            and all(v % c == 0 for _, v in a.terms)
        ):
            # exact division: truncating and exact quotients coincide
            return _Aff(a.const // c, tuple((k, v // c) for k, v in a.terms))
        if op == "%" and not b.terms and c > 0:
            iv = ctx.interval(a)
            if 0 <= iv.lo and iv.hi < c:
                return a  # the modulo is an identity on this range
    fn = _RANGE_OPS.get(op)
    return TOP if fn is None else fn(ctx.interval(a), ctx.interval(b))


def _index_box(values, shape: tuple[int, ...], ctx: _Ctx) -> Box:
    """Box for one subscript; whole-buffer fallback if any dim is unbounded.

    An axis that moves two dimensions walks a diagonal through their
    product, so a box is exact only when each axis drives at most one
    dimension (and each dimension is exact on its own).
    """
    segs: list[Seg] = []
    exact = True
    driven: set = set()
    for res, n in zip(values, shape):
        if isinstance(res, _Aff):
            keys = {k for k, _ in res.terms}
            exact = exact and not keys & driven
            driven |= keys
            seg, dim_exact = progression_box(
                res.const, ((c, ctx.axes[k]) for k, c in res.terms)
            )
        elif res.is_bounded:
            seg, dim_exact = Seg(res.lo, res.hi, 1), res.lo == res.hi
        else:
            return full_box(shape, exact=False, fallback=True)
        segs.append(seg)
        exact = exact and dim_exact
    return Box(tuple(segs), exact=exact)


# ---------------------------------------------------------------------------
# the symbolic walk, per-kernel and per-op access boxes


@dataclass(frozen=True)
class ParamAccess:
    """Access boxes of one kernel array parameter."""

    reads: tuple[Box, ...] = ()
    writes: tuple[Box, ...] = ()


def _box_key(b: Box):
    return (b.fallback, not b.exact, tuple((s.lo, s.hi, s.step) for s in b.segs))


class KernelWalk:
    """The symbolic walk of one kernel under one set of scalar arguments.

    ``sites[n]`` is access site ``n`` of :func:`kernel_accesses` as
    ``(kind, array, values)``, one ``_Aff`` or :class:`Interval` per index
    component; ``interval`` gives a value's range.  The per-parameter
    boxes are built from the sites on first use.
    """

    def __init__(self, kernel: Kernel, scalar_args: tuple):
        self.kernel = kernel
        self.ctx = ctx = _Ctx(kernel, dict(scalar_args))
        self.interval = ctx.interval
        self.sites = []
        if not kernel.space.is_empty():
            self.sites = [
                (kind, array, tuple(_eval(e, ctx) for e in index))
                for _site, kind, array, index in kernel_accesses(kernel.body, ctx)
            ]

    @cached_property
    def boxes(self) -> dict[str, ParamAccess]:
        acc: dict[str, tuple[set, set]] = {}
        for kind, array, values in self.sites:
            box = _index_box(values, self.kernel.array(array).shape, self.ctx)
            reads, writes = acc.setdefault(array, (set(), set()))
            (writes if kind == "store" else reads).add(box)
        return {
            name: ParamAccess(
                reads=tuple(sorted(reads, key=_box_key)),
                writes=tuple(sorted(writes, key=_box_key)),
            )
            for name, (reads, writes) in acc.items()
        }


_KERNEL_WALKS: dict[tuple, KernelWalk] = {}


def kernel_walk(kernel: Kernel, scalar_args=()) -> KernelWalk:
    """The :class:`KernelWalk` of ``kernel``, memoised globally per
    ``(kernel, sorted scalar_args)`` — kernels are shared across pipeline
    runs, and the bounds checker re-reads the walk the hazard pass made."""
    key = (kernel, tuple(sorted(tuple(scalar_args))))
    hit = _KERNEL_WALKS.get(key)
    if hit is None:
        hit = _KERNEL_WALKS[key] = KernelWalk(kernel, key[1])
    return hit


def kernel_access_boxes(kernel: Kernel, scalar_args=()) -> dict[str, ParamAccess]:
    """Per-parameter read/write boxes of one kernel body (memoised with
    its :func:`kernel_walk`)."""
    return kernel_walk(kernel, scalar_args).boxes


def launch_access_boxes(
    op: LaunchKernel,
) -> tuple[dict[str, tuple[Box, ...]], dict[str, tuple[Box, ...]]]:
    """Per device-buffer (reads, writes) boxes of one launch.

    Fused kernels are expanded stage by stage; scratch arrays internal to
    the fusion never touch device buffers and are skipped.
    """
    reads: dict[str, set] = {}
    writes: dict[str, set] = {}

    def merge(param_acc: dict[str, ParamAccess], binding) -> None:
        for param, buf in binding:
            pa = param_acc.get(param)
            if pa is None:
                continue
            if pa.reads:
                reads.setdefault(buf, set()).update(pa.reads)
            if pa.writes:
                writes.setdefault(buf, set()).update(pa.writes)

    if isinstance(op.kernel, FusedKernel):
        top = dict(op.array_args)
        internal = {p.name for p in op.kernel.internal}
        for stage in op.kernel.stages:
            stage_boxes = kernel_access_boxes(stage.kernel, stage.scalar_args)
            merge(
                stage_boxes,
                (
                    (param, top.get(name, name))
                    for param, name in stage.array_args
                    if name not in internal
                ),
            )
    else:
        merge(kernel_access_boxes(op.kernel, op.scalar_args), op.array_args)

    return (
        {buf: tuple(sorted(v, key=_box_key)) for buf, v in reads.items()},
        {buf: tuple(sorted(v, key=_box_key)) for buf, v in writes.items()},
    )


def transfer_box(region, shape) -> Box | None:
    """Box touched by a transfer: its ``region`` if partial, else the whole
    buffer.  Unknown geometry yields the unknown box; a degenerate region
    (some dimension selects zero elements) yields ``None`` — the transfer
    provably touches nothing, so it cannot conflict with anything."""
    if region is not None:
        if any(stop <= start for start, stop, _step in region):
            return None
        return Box(tuple(Seg(lo, stop - 1, step) for lo, stop, step in region))
    if shape is None:
        return Box(())
    return full_box(shape)


# ---------------------------------------------------------------------------
# the oracle


_DEV = "device buffer"
_HOST = "host array"


class RegionOracle:
    """Per-op access regions of one program, with independence queries.

    Resources are keyed like the hazard pass keys them: ``("device
    buffer", name)`` and ``("host array", name)``.
    """

    def __init__(self, program: DeviceProgram):
        self.program = program
        self.shapes: dict[str, tuple[int, ...]] = {
            op.buffer: op.shape
            for op in program.ops
            if isinstance(op, AllocDevice)
        }
        self._acc: dict[int, tuple[dict, dict]] = {}

    def accesses(self, i: int) -> tuple[dict, dict]:
        """(reads, writes): resource key -> tuple of boxes for ``ops[i]``."""
        hit = self._acc.get(i)
        if hit is not None:
            return hit
        op = self.program.ops[i]
        reads: dict = {}
        writes: dict = {}
        if isinstance(op, HostToDevice):
            box = transfer_box(op.region, self.shapes.get(op.device))
            if box is not None:
                reads[(_HOST, op.host)] = (box,)
                writes[(_DEV, op.device)] = (box,)
        elif isinstance(op, DeviceToHost):
            box = transfer_box(op.region, self.shapes.get(op.device))
            if box is not None:
                reads[(_DEV, op.device)] = (box,)
                writes[(_HOST, op.host)] = (box,)
        elif isinstance(op, LaunchKernel):
            r, w = launch_access_boxes(op)
            reads = {(_DEV, buf): boxes for buf, boxes in r.items()}
            writes = {(_DEV, buf): boxes for buf, boxes in w.items()}
        elif isinstance(op, HostCompute):
            reads = {(_HOST, n): (Box(()),) for n in op.reads}
            writes = {(_HOST, n): (Box(()),) for n in op.writes}
        elif isinstance(op, FreeDevice):
            # a free invalidates the whole buffer
            writes[(_DEV, op.buffer)] = (
                transfer_box(None, self.shapes.get(op.buffer)),
            )
        result = (reads, writes)
        self._acc[i] = result
        return result

    def boxes(self, i: int, resource, write: bool) -> tuple[Box, ...]:
        reads, writes = self.accesses(i)
        return (writes if write else reads).get(resource, ())

    def pair_conflicts(
        self, i: int, write_i: bool, j: int, write_j: bool, resource
    ) -> bool:
        """May the given access pair overlap?  Empty access sets (an empty
        index space, or a declared-but-untouched intent) cannot conflict."""
        bi = self.boxes(i, resource, write_i)
        bj = self.boxes(j, resource, write_j)
        if not bi or not bj:
            return False
        return any(boxes_overlap(a, b) for a in bi for b in bj)

    def may_alias(self, i: int, j: int) -> bool:
        """May ops ``i`` and ``j`` conflict (overlap with a write involved)
        on any resource?  ``False`` proves the two ops independent."""
        ri, wi = self.accesses(i)
        rj, wj = self.accesses(j)
        for res in set(wi) | set(wj) | (set(ri) & set(rj)):
            for a_write, a_tab in ((False, ri), (True, wi)):
                for b_write, b_tab in ((False, rj), (True, wj)):
                    if not (a_write or b_write):
                        continue
                    for a in a_tab.get(res, ()):
                        for b in b_tab.get(res, ()):
                            if boxes_overlap(a, b):
                                return True
        return False

    def independent(self, i: int, j: int) -> bool:
        return not self.may_alias(i, j)

    def write_coverage(self, writes, buffer: str) -> bool:
        """``must_cover`` over a buffer by name: do the exact write boxes
        initialise every element?"""
        shape = self.shapes.get(buffer)
        if shape is None:
            return False
        return must_cover(writes, shape)


# ---------------------------------------------------------------------------
# the registry pass: surface where precision was lost


def find_region_reports(program: DeviceProgram) -> list[Diagnostic]:
    """REGION001 info findings: launches whose access regions fell back to
    the whole buffer.  These mark exactly where the optimiser and the
    scheduler lose the independence the paper's abstractions promise."""
    out: list[Diagnostic] = []
    where = f"program {program.name!r}"
    for i, op in enumerate(program.ops):
        if not isinstance(op, LaunchKernel):
            continue
        reads, writes = launch_access_boxes(op)
        for mode, table in (("read", reads), ("write", writes)):
            for buf in sorted(table):
                if any(b.fallback for b in table[buf]):
                    out.append(
                        Diagnostic(
                            code="REGION001",
                            severity="info",
                            message=(
                                f"ops[{i}] launch {op.kernel.name!r}: {mode} "
                                f"region of device buffer {buf!r} is not "
                                f"statically analysable; assuming the whole "
                                f"buffer (imprecise)"
                            ),
                            location=where,
                            hint=(
                                "keep index expressions affine in the "
                                "generator indices to retain region precision"
                            ),
                        )
                    )
    return out
