"""The region oracle: strided boxes, overlap/coverage queries, edge cases."""

import numpy as np
import pytest

from repro.analysis import (
    Box,
    RegionOracle,
    Seg,
    box_from_dict,
    boxes_overlap,
    find_region_reports,
    full_box,
    kernel_access_boxes,
    launch_access_boxes,
    must_cover,
    progression_box,
    transfer_box,
)
from repro.ir import (
    AllocDevice,
    ArrayParam,
    BinOp,
    Const,
    DeviceProgram,
    DeviceToHost,
    HostToDevice,
    IndexSpace,
    Kernel,
    LaunchKernel,
    Read,
    Store,
    ThreadIdx,
)

DEV = "device buffer"
HOST = "host array"


# ---------------------------------------------------------------------------
# Seg


class TestSeg:
    def test_count_and_hi_snapping(self):
        s = Seg(0, 10, 3)  # {0, 3, 6, 9} — 10 is not on the progression
        assert s.hi == 9
        assert s.count == 4

    def test_singleton_normalises_step(self):
        assert Seg(5, 5, 7) == Seg(5, 5, 1)

    def test_negative_extent_rejected(self):
        with pytest.raises(ValueError):
            Seg(3, 2)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            Seg(0, 4, 0)

    def test_overlap_disjoint_ranges(self):
        assert not Seg(0, 3).overlaps(Seg(4, 9))

    def test_overlap_parity(self):
        # evens vs odds share a range but never an element
        assert not Seg(0, 10, 2).overlaps(Seg(1, 11, 2))
        assert Seg(0, 10, 2).overlaps(Seg(2, 10, 2))

    def test_overlap_crt(self):
        # {0,3,6,9,12} vs {1,5,9,13}: 9 is the first common element
        assert Seg(0, 12, 3).overlaps(Seg(1, 13, 4))
        # {0,6,12} vs {2,8,14}: congruence 0 vs 2 (mod gcd 2)... gcd(6,6)=6,
        # 2-0 not divisible by 6 -> provably disjoint
        assert not Seg(0, 12, 6).overlaps(Seg(2, 14, 6))

    def test_overlap_congruent_but_outside_clip(self):
        # {1,5} vs {3,9,15}: congruence-compatible (gcd 2, diff even), but
        # the first common element of the progressions (9) lies outside
        # the range intersection [3, 5]
        assert not Seg(1, 5, 4).overlaps(Seg(3, 15, 6))


# ---------------------------------------------------------------------------
# Box


class TestBox:
    def test_unknown_overlaps_everything_covers_nothing(self):
        unknown = Box(())
        assert unknown.unknown
        assert boxes_overlap(unknown, full_box((4, 4)))
        assert boxes_overlap(unknown, unknown)
        assert not must_cover((unknown,), (4, 4))

    def test_rank_mismatch_is_conservative(self):
        assert boxes_overlap(full_box((4,)), full_box((4, 4)))

    def test_disjoint_boxes(self):
        a = Box((Seg(0, 3), Seg(0, 7)))
        b = Box((Seg(4, 7), Seg(0, 7)))
        assert not boxes_overlap(a, b)
        # one shared dimension suffices only if every dimension overlaps
        c = Box((Seg(0, 3), Seg(0, 7)))
        assert boxes_overlap(a, c)

    def test_count(self):
        assert Box((Seg(0, 6, 2), Seg(0, 9, 3))).count == 4 * 4

    def test_json_round_trip(self):
        for box in (
            Box((Seg(1, 9, 2), Seg(0, 5)), exact=False),
            full_box((3, 4), exact=False, fallback=True),
            Box(()),
        ):
            assert box_from_dict(box.as_dict()) == box

    def test_fallback_survives_round_trip_default(self):
        d = full_box((2,)).as_dict()
        d.pop("fallback")
        assert box_from_dict(d) == full_box((2,))


# ---------------------------------------------------------------------------
# progression_box / must_cover


class TestProgression:
    def test_empty_and_constant(self):
        seg, exact = progression_box(3, ())
        assert (seg, exact) == (Seg(3, 3), True)

    def test_single_axis(self):
        seg, exact = progression_box(0, [(1, 8)])
        assert (seg, exact) == (Seg(0, 7, 1), True)

    def test_mixed_radix_flattening_is_exact(self):
        # 8*r + i with r in [0,4), i in [0,8): exactly [0, 32)
        seg, exact = progression_box(0, [(8, 4), (1, 8)])
        assert (seg, exact) == (Seg(0, 31, 1), True)

    def test_strided_single_term_is_exact(self):
        seg, exact = progression_box(2, [(4, 3)])
        assert (seg, exact) == (Seg(2, 10, 4), True)

    def test_gap_loses_exactness(self):
        # 5*a + b with a,b in [0,2): {0,1,5,6} — the hull [0,6] overshoots
        seg, exact = progression_box(0, [(5, 2), (1, 2)])
        assert seg == Seg(0, 6, 1)
        assert not exact

    def test_negative_coefficient(self):
        # 7 - i for i in [0,8): exactly [0, 8)
        seg, exact = progression_box(7, [(-1, 8)])
        assert (seg, exact) == (Seg(0, 7, 1), True)

    def test_must_cover_needs_exactness(self):
        assert must_cover((full_box((4, 8)),), (4, 8))
        assert not must_cover((full_box((4, 8), exact=False),), (4, 8))

    def test_must_cover_union_of_tiles(self):
        top = Box((Seg(0, 1), Seg(0, 7)))
        bottom = Box((Seg(2, 3), Seg(0, 7)))
        assert must_cover((top, bottom), (4, 8))
        assert not must_cover((top,), (4, 8))

    def test_must_cover_strided_union(self):
        evens = Box((Seg(0, 6, 2),))
        odds = Box((Seg(1, 7, 2),))
        assert must_cover((evens, odds), (8,))
        assert not must_cover((evens,), (8,))


# ---------------------------------------------------------------------------
# kernel and transfer boxes


def _kernel(name, body, arrays, space=None):
    return Kernel(
        name=name,
        space=space or IndexSpace((0, 0), (4, 8)),
        arrays=arrays,
        body=body,
    )


class TestKernelBoxes:
    def test_pointwise(self):
        k = _kernel(
            "pw",
            (
                Store(
                    "dst",
                    (ThreadIdx(0), ThreadIdx(1)),
                    Read("src", (ThreadIdx(0), ThreadIdx(1))),
                ),
            ),
            (
                ArrayParam("src", (4, 8), intent="in"),
                ArrayParam("dst", (4, 8), intent="out"),
            ),
        )
        acc = kernel_access_boxes(k)
        assert acc["src"].reads == (full_box((4, 8)),)
        assert acc["dst"].writes == (full_box((4, 8)),)

    def test_reversed_index_negative_stride(self):
        # dst[7 - i] = src[i]: the mirrored write still covers [0, 8) exactly
        k = _kernel(
            "rev",
            (
                Store(
                    "dst",
                    (BinOp("-", Const(7), ThreadIdx(0)),),
                    Read("src", (ThreadIdx(0),)),
                ),
            ),
            (
                ArrayParam("src", (8,), intent="in"),
                ArrayParam("dst", (8,), intent="out"),
            ),
            space=IndexSpace((0,), (8,)),
        )
        acc = kernel_access_boxes(k)
        (box,) = acc["dst"].writes
        assert box == Box((Seg(0, 7, 1),))
        assert box.exact

    def test_data_dependent_index_falls_back(self):
        k = _kernel(
            "gather",
            (
                Store(
                    "dst",
                    (ThreadIdx(0),),
                    Read("src", (Read("idx", (ThreadIdx(0),)),)),
                ),
            ),
            (
                ArrayParam("idx", (8,), intent="in"),
                ArrayParam("src", (8,), intent="in"),
                ArrayParam("dst", (8,), intent="out"),
            ),
            space=IndexSpace((0,), (8,)),
        )
        acc = kernel_access_boxes(k)
        (box,) = acc["src"].reads
        assert box.fallback and not box.exact
        assert box == full_box((8,), exact=False, fallback=True)

    def test_transfer_box_partial(self):
        box = transfer_box(((1, 3, 1), (0, 8, 2)), (4, 8))
        assert box == Box((Seg(1, 2), Seg(0, 7, 2)))
        assert transfer_box(None, (4, 8)) == full_box((4, 8))
        assert transfer_box(None, None) == Box(())

    def test_transfer_box_zero_size_region(self):
        assert transfer_box(((2, 2, 1), (0, 8, 1)), (4, 8)) is None


# ---------------------------------------------------------------------------
# the oracle


def _tile_writer(name, lo, hi, shape=(8, 8)):
    """Kernel writing rows [lo, hi) of ``dst`` from the same rows of ``src``."""
    return Kernel(
        name=name,
        space=IndexSpace((lo, 0), (hi, shape[1])),
        arrays=(
            ArrayParam("src", shape, intent="in"),
            ArrayParam("dst", shape, intent="inout"),
        ),
        body=(
            Store(
                "dst",
                (ThreadIdx(0), ThreadIdx(1)),
                Read("src", (ThreadIdx(0), ThreadIdx(1))),
            ),
        ),
    )


def _tile_program(ops):
    return DeviceProgram(
        "tiles",
        ops=tuple(ops),
        host_inputs=("h_in",),
        host_outputs=("h_out",),
    )


class TestRegionOracle:
    def test_disjoint_tile_writers_are_independent(self):
        prog = _tile_program(
            [
                AllocDevice("d_src", (8, 8)),
                AllocDevice("d_dst", (8, 8)),
                HostToDevice("h_in", "d_src"),
                LaunchKernel(
                    _tile_writer("top", 0, 4),
                    (("src", "d_src"), ("dst", "d_dst")),
                ),
                LaunchKernel(
                    _tile_writer("bottom", 4, 8),
                    (("src", "d_src"), ("dst", "d_dst")),
                ),
                DeviceToHost("d_dst", "h_out"),
            ]
        )
        oracle = RegionOracle(prog)
        assert oracle.independent(3, 4)
        # each tile conflicts with the whole-buffer download
        assert oracle.may_alias(3, 5)
        assert oracle.may_alias(4, 5)

    def test_halo_reads_do_not_break_independence(self):
        # convolution-style: both tiles read overlapping halo rows of the
        # shared input, but read/read never conflicts; writes stay disjoint
        def halo_reader(name, lo, hi):
            return Kernel(
                name=name,
                space=IndexSpace((max(lo, 1), 0), (min(hi, 7), 8)),
                arrays=(
                    ArrayParam("src", (8, 8), intent="in"),
                    ArrayParam("dst", (8, 8), intent="inout"),
                ),
                body=(
                    Store(
                        "dst",
                        (ThreadIdx(0), ThreadIdx(1)),
                        BinOp(
                            "+",
                            Read(
                                "src",
                                (
                                    BinOp("-", ThreadIdx(0), Const(1)),
                                    ThreadIdx(1),
                                ),
                            ),
                            Read(
                                "src",
                                (
                                    BinOp("+", ThreadIdx(0), Const(1)),
                                    ThreadIdx(1),
                                ),
                            ),
                        ),
                    ),
                ),
            )

        prog = _tile_program(
            [
                AllocDevice("d_src", (8, 8)),
                AllocDevice("d_dst", (8, 8)),
                HostToDevice("h_in", "d_src"),
                LaunchKernel(
                    halo_reader("top", 0, 4), (("src", "d_src"), ("dst", "d_dst"))
                ),
                LaunchKernel(
                    halo_reader("bottom", 4, 8),
                    (("src", "d_src"), ("dst", "d_dst")),
                ),
                DeviceToHost("d_dst", "h_out"),
            ]
        )
        oracle = RegionOracle(prog)
        reads_top = oracle.boxes(3, (DEV, "d_src"), write=False)
        reads_bot = oracle.boxes(4, (DEV, "d_src"), write=False)
        # the halos genuinely overlap on the shared input...
        assert any(
            boxes_overlap(a, b) for a in reads_top for b in reads_bot
        )
        # ...yet the tiles are independent: no write-involved overlap
        assert oracle.independent(3, 4)

    def test_halo_overlap_with_producer_conflicts(self):
        # a producer writing rows [3, 5) of the input overlaps the top
        # tile's halo read (row 4 is read by the row-3 stencil point)
        producer = _tile_writer("producer", 3, 5)
        prog = _tile_program(
            [
                AllocDevice("d_src", (8, 8)),
                AllocDevice("d_dst", (8, 8)),
                HostToDevice("h_in", "d_src"),
                LaunchKernel(
                    producer, (("src", "d_dst"), ("dst", "d_src"))
                ),
                LaunchKernel(
                    _tile_writer("top", 0, 4),
                    (("src", "d_src"), ("dst", "d_dst")),
                ),
            ]
        )
        oracle = RegionOracle(prog)
        assert oracle.may_alias(3, 4)

    def test_partial_transfers_disjoint_from_kernel(self):
        prog = _tile_program(
            [
                AllocDevice("d_src", (8, 8)),
                AllocDevice("d_dst", (8, 8)),
                HostToDevice("h_in", "d_src"),
                LaunchKernel(
                    _tile_writer("top", 0, 4),
                    (("src", "d_src"), ("dst", "d_dst")),
                ),
                # uploads rows [4, 8) of the *destination*: disjoint from
                # the tile writing rows [0, 4)
                HostToDevice("h_in", "d_dst", region=((4, 8, 1), (0, 8, 1))),
                DeviceToHost("d_dst", "h_out"),
            ]
        )
        oracle = RegionOracle(prog)
        assert oracle.independent(3, 4)

    def test_zero_size_region_rejected_at_construction(self):
        # the IR refuses degenerate regions outright, so the oracle can
        # never meet one through a DeviceProgram...
        from repro.errors import IRError

        with pytest.raises(IRError):
            HostToDevice("h_in", "d_dst", region=((3, 3, 1), (0, 8, 1)))
        with pytest.raises(IRError):
            DeviceToHost("d_dst", "h_out", region=((0, 8, 1), (5, 2, 1)))
        # ...and a direct query on one degrades to "touches nothing"
        assert transfer_box(((3, 3, 1), (0, 8, 1)), (8, 8)) is None

    def test_write_coverage(self):
        prog = _tile_program(
            [
                AllocDevice("d_dst", (8, 8)),
                HostToDevice("h_in", "d_dst", region=((0, 4, 1), (0, 8, 1))),
                HostToDevice("h_in", "d_dst", region=((4, 8, 1), (0, 8, 1))),
            ]
        )
        oracle = RegionOracle(prog)
        (top,) = oracle.boxes(1, (DEV, "d_dst"), write=True)
        (bottom,) = oracle.boxes(2, (DEV, "d_dst"), write=True)
        assert oracle.write_coverage((top, bottom), "d_dst")
        assert not oracle.write_coverage((top,), "d_dst")
        assert not oracle.write_coverage((top, bottom), "unknown_buffer")


class TestRegionReports:
    def test_fallback_launch_is_reported(self):
        k = _kernel(
            "gather",
            (
                Store(
                    "dst",
                    (ThreadIdx(0),),
                    Read("src", (Read("idx", (ThreadIdx(0),)),)),
                ),
            ),
            (
                ArrayParam("idx", (8,), intent="in"),
                ArrayParam("src", (8,), intent="in"),
                ArrayParam("dst", (8,), intent="out"),
            ),
            space=IndexSpace((0,), (8,)),
        )
        prog = DeviceProgram(
            "g",
            ops=(
                AllocDevice("d_idx", (8,)),
                AllocDevice("d_src", (8,)),
                AllocDevice("d_dst", (8,)),
                HostToDevice("h_idx", "d_idx"),
                HostToDevice("h_src", "d_src"),
                LaunchKernel(
                    k, (("idx", "d_idx"), ("src", "d_src"), ("dst", "d_dst"))
                ),
                DeviceToHost("d_dst", "h_out"),
            ),
            host_inputs=("h_idx", "h_src"),
            host_outputs=("h_out",),
        )
        reports = find_region_reports(prog)
        assert [d.code for d in reports] == ["REGION001"]
        assert reports[0].severity == "info"
        assert "d_src" in reports[0].message

    def test_analysable_program_is_clean(self):
        prog = _tile_program(
            [
                AllocDevice("d_src", (8, 8)),
                AllocDevice("d_dst", (8, 8)),
                HostToDevice("h_in", "d_src"),
                LaunchKernel(
                    _tile_writer("top", 0, 4),
                    (("src", "d_src"), ("dst", "d_dst")),
                ),
                DeviceToHost("d_dst", "h_out"),
            ]
        )
        assert find_region_reports(prog) == []


class TestTilerCrossCheck:
    """repro.tilers.regions derives boxes from o/F/P; they must agree with
    the element sets the tiler actually enumerates."""

    def _check(self, tiler):
        from repro.tilers import tiler_access_box

        box = tiler_access_box(tiler)
        coords = tiler.all_elements().reshape(-1, tiler.array_rank)
        touched = {tuple(int(x) for x in c) for c in coords}
        for c in touched:  # soundness: the box contains every element
            for x, seg in zip(c, box.segs):
                assert seg.lo <= x <= seg.hi and (x - seg.lo) % seg.step == 0
        if box.exact:  # exactness: and nothing else
            assert box.count == len(touched)
        return box

    def test_dense_identity(self):
        from repro.tilers import Tiler

        t = Tiler(
            origin=(0, 0),
            fitting=((1, 0), (0, 1)),
            paving=((2, 0), (0, 2)),
            array_shape=(8, 8),
            pattern_shape=(2, 2),
            repetition_shape=(4, 4),
        )
        box = self._check(t)
        assert box == Box((Seg(0, 7), Seg(0, 7)))
        assert box.exact

    def test_strided_columns(self):
        from repro.tilers import Tiler

        t = Tiler(
            origin=(0, 1),
            fitting=((1,), (0,)),
            paving=((0,), (2,)),
            array_shape=(4, 8),
            pattern_shape=(4,),
            repetition_shape=(4,),
        )
        # odd columns only
        box = self._check(t)
        assert box == Box((Seg(0, 3), Seg(1, 7, 2)))

    def test_wrapping_widens_and_drops_exactness(self):
        from repro.tilers import Tiler

        t = Tiler(
            origin=(6,),
            fitting=((1,),),
            paving=((4,),),
            array_shape=(8,),
            pattern_shape=(4,),
            repetition_shape=(2,),
        )
        box = self._check(t)
        assert not box.exact
        assert box.segs == (Seg(0, 7),)


class TestLaunchBoxes:
    def test_inout_binding_merges_reads_and_writes(self):
        prog_kernel = _tile_writer("t", 0, 4)
        op = LaunchKernel(prog_kernel, (("src", "d_a"), ("dst", "d_a")))
        reads, writes = launch_access_boxes(op)
        assert set(reads) == {"d_a"}
        assert set(writes) == {"d_a"}


def test_warm_kernel_access_boxes_does_not_hash_the_kernel_again(monkeypatch):
    """The walk memo is keyed by the kernel, whose hash it keeps: a
    second lookup hashes nothing inside the kernel tree."""
    kernel = _tile_writer("warm", 2, 6)
    cold = kernel_access_boxes(kernel)
    hashed = []
    real = IndexSpace.__hash__

    def spy(self):
        hashed.append(self)
        return real(self)

    monkeypatch.setattr(IndexSpace, "__hash__", spy)
    assert kernel_access_boxes(kernel) is cold
    assert kernel_access_boxes(kernel, ()) is cold
    assert hashed == []
    # an equal kernel no lookup has hashed yet hashes its tree once
    assert kernel_access_boxes(_tile_writer("warm", 2, 6)) is cold
    assert len(hashed) == 1
