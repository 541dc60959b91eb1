"""Region-precise hazard detection.

Two documented false positives of whole-buffer race detection —
disjoint tile accesses that are unordered but touch different rows —
are not races, and (property) ``find_hazards`` reports exactly the
unordered op pairs whose element masks, found by executing each access,
intersect on a shared buffer or host array.  The property derives which
pairs are ordered itself, not from the detector's happens-before model,
so an edge wrongly added there fails it.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import build_happens_before, find_hazards
from repro.analysis.hazards import _describe
from repro.ir import (
    AllocDevice,
    ArrayParam,
    Const,
    DeviceProgram,
    DeviceToHost,
    HostToDevice,
    IndexSpace,
    Kernel,
    LaunchKernel,
    Store,
    ThreadIdx,
)
from repro.ir.evalvec import evaluate_kernel

SHAPE = (8, 8)


def _row_writer(name: str, lo: int, hi: int) -> Kernel:
    """Writes rows ``[lo, hi)`` of ``dst``; reads nothing."""
    return Kernel(
        name=name,
        space=IndexSpace((lo, 0), (hi, SHAPE[1])),
        arrays=(ArrayParam("dst", SHAPE, intent="out"),),
        body=(Store("dst", (ThreadIdx(0), ThreadIdx(1)), Const(1)),),
    )


def _rows(lo: int, hi: int):
    return ((lo, hi, 1), (0, SHAPE[1], 1))


class TestDocumentedFalsePositives:
    def test_partial_upload_vs_disjoint_tile_writer(self):
        """FP #1: a tile upload racing a kernel that writes *other* rows.

        The kernel (compute engine) and the second upload (h2d engine)
        are genuinely unordered, and both write ``d`` — whole-buffer race
        detection flagged RACE001.  Their boxes are rows [4, 8) vs rows
        [0, 4): provably disjoint, no race.
        """
        prog = DeviceProgram(
            "tile_upload",
            ops=(
                AllocDevice("d", SHAPE),
                HostToDevice("h_full", "d"),
                LaunchKernel(_row_writer("bottom", 4, 8), (("dst", "d"),)),
                HostToDevice("h_tile", "d", region=_rows(0, 4)),
            ),
            host_inputs=("h_full", "h_tile"),
            host_outputs=(),
        )
        assert not build_happens_before(prog).ordered(2, 3)
        assert find_hazards(prog) == []

    def test_partial_download_vs_disjoint_tile_writer(self):
        """FP #2: downloading finished rows while a kernel writes others.

        The download of rows [4, 8) only waits on the *last writer* of
        ``d`` (the initial upload); the kernel writing rows [0, 4) runs
        concurrently — whole-buffer detection flagged the pair as
        RACE002.  The regions are disjoint, so streaming the finished tile
        out is legal.
        """
        prog = DeviceProgram(
            "tile_download",
            ops=(
                AllocDevice("d", SHAPE),
                HostToDevice("h_in", "d"),
                DeviceToHost("d", "h_done", region=_rows(4, 8)),
                LaunchKernel(_row_writer("top", 0, 4), (("dst", "d"),)),
            ),
            host_inputs=("h_in",),
            host_outputs=("h_done",),
        )
        assert not build_happens_before(prog).ordered(2, 3)
        assert find_hazards(prog) == []

    def test_overlapping_tiles_still_race(self):
        """Negative control: overlapping rows keep the finding."""
        prog = DeviceProgram(
            "overlap",
            ops=(
                AllocDevice("d", SHAPE),
                HostToDevice("h_full", "d"),
                LaunchKernel(_row_writer("bottom", 3, 8), (("dst", "d"),)),
                HostToDevice("h_tile", "d", region=_rows(0, 4)),
            ),
            host_inputs=("h_full", "h_tile"),
            host_outputs=(),
        )
        assert [d.code for d in find_hazards(prog)] == ["RACE001"]


# ---------------------------------------------------------------------------
# property: the findings are exactly the unordered overlapping pairs


@st.composite
def racy_programs(draw) -> DeviceProgram:
    """Programs mixing tile kernels and (partial) transfers, unordered on
    purpose: the h2d engine does not wait for compute and vice versa.  An
    upload may read back what an earlier download wrote (a round trip)."""
    n_bufs = draw(st.integers(1, 2))
    ops: list = [AllocDevice(f"d_{b}", SHAPE) for b in range(n_bufs)]
    ops += [HostToDevice("h_in", f"d_{b}") for b in range(n_bufs)]
    downloaded: list[str] = []
    n_steps = draw(st.integers(1, 5))
    for s in range(n_steps):
        buf = f"d_{draw(st.integers(0, n_bufs - 1))}"
        kind = draw(st.sampled_from(("launch", "h2d", "d2h")))
        lo = draw(st.integers(0, 7))
        hi = draw(st.integers(lo + 1, 8))
        if kind == "launch":
            ops.append(
                LaunchKernel(_row_writer(f"k{s}_{lo}_{hi}", lo, hi), (("dst", buf),))
            )
        elif kind == "h2d":
            region = _rows(lo, hi) if draw(st.booleans()) else None
            host = draw(st.sampled_from(["h_in", *downloaded]))
            ops.append(HostToDevice(host, buf, region=region))
        else:
            region = _rows(lo, hi) if draw(st.booleans()) else None
            ops.append(DeviceToHost(buf, f"h_out_{s}", region=region))
            downloaded.append(f"h_out_{s}")
    return DeviceProgram(
        "racy",
        ops=tuple(ops),
        host_inputs=("h_in",),
        host_outputs=(),
    )


def element_mask(op) -> np.ndarray:
    """The 8x8 elements ``op`` touches, found without the region oracle:
    a kernel is executed on a zero buffer, a transfer's region sliced."""
    if isinstance(op, LaunchKernel):
        dst = np.zeros(SHAPE)
        evaluate_kernel(op.kernel, {"dst": dst})
        return dst != 0
    mask = np.zeros(SHAPE, dtype=bool)
    region = op.region or tuple((0, n, 1) for n in SHAPE)
    mask[tuple(slice(*r) for r in region)] = True
    return mask


def accesses(program: DeviceProgram) -> list[tuple[int, tuple[str, str], bool]]:
    """``(op index, resource, writes)`` of every racy-program op; a
    resource is ``(kind, name)``, as the race detector names it."""
    out = []
    for i, op in enumerate(program.ops):
        if isinstance(op, HostToDevice):
            out.append((i, ("host array", op.host), False))
            out.append((i, ("device buffer", op.device), True))
        elif isinstance(op, DeviceToHost):
            out.append((i, ("device buffer", op.device), False))
            out.append((i, ("host array", op.host), True))
        elif isinstance(op, LaunchKernel):
            out.extend((i, ("device buffer", buf), True) for _param, buf in op.array_args)
    return out


def ordered_pairs(program: DeviceProgram) -> set[tuple[int, int]]:
    """The ``(i, j)`` op pairs, ``i < j``, of a racy program that run in
    order, derived without the race detector: each engine (h2d, compute,
    d2h) runs its ops first in, first out; a launch or a download waits
    for the last writer of its buffer; closed transitively."""
    engine = {HostToDevice: "h2d", LaunchKernel: "compute", DeviceToHost: "d2h"}
    before: dict[int, set[int]] = {}  # op -> every op ordered before it
    last_on: dict[str, int] = {}
    last_writer: dict[str, int] = {}
    for j, op in enumerate(program.ops):
        if isinstance(op, AllocDevice):
            continue
        waits = {last_on.get(engine[type(op)])}
        if isinstance(op, LaunchKernel):
            waits |= {last_writer.get(buf) for _param, buf in op.array_args}
            last_writer.update((buf, j) for _param, buf in op.array_args)
        elif isinstance(op, DeviceToHost):
            waits.add(last_writer.get(op.device))
        else:  # an upload writes its buffer
            last_writer[op.device] = j
        before[j] = set()
        for i in waits - {None}:
            before[j] |= {i} | before[i]
        last_on[engine[type(op)]] = j
    return {(i, j) for j, earlier in before.items() for i in earlier}


@settings(max_examples=200, deadline=None)
@given(program=racy_programs())
def test_findings_are_the_unordered_overlapping_pairs(program):
    ordered = ordered_pairs(program)
    ops = program.ops
    want = set()
    for (i, res_i, w_i), (j, res_j, w_j) in combinations(accesses(program), 2):
        if res_i != res_j or not (w_i or w_j) or (i, j) in ordered:
            continue
        if (element_mask(ops[i]) & element_mask(ops[j])).any():
            both = w_i and w_j
            kind, name = res_i
            want.add((
                "RACE001" if both else "RACE002",
                f"unordered {'write/write' if both else 'read/write'} on {kind} "
                f"{name!r}: {_describe(i, ops[i])} vs {_describe(j, ops[j])}",
            ))
    assert {(d.code, d.message) for d in find_hazards(program)} == want
