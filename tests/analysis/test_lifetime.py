"""MEM001–MEM005: one firing and one clean case per code."""

from repro.analysis import check_lifetimes
from repro.ir import (
    AllocDevice,
    ArrayParam,
    Const,
    DeviceProgram,
    DeviceToHost,
    FreeDevice,
    HostCompute,
    HostToDevice,
    IndexSpace,
    Kernel,
    LaunchKernel,
    Read,
    Store,
    ThreadIdx,
)

SHAPE = (4, 8)


def _copy_kernel(name: str = "copy") -> Kernel:
    return Kernel(
        name=name,
        space=IndexSpace((0, 0), SHAPE),
        arrays=(
            ArrayParam("src", SHAPE, intent="in"),
            ArrayParam("dst", SHAPE, intent="out"),
        ),
        body=(
            Store(
                "dst",
                (ThreadIdx(0), ThreadIdx(1)),
                Read("src", (ThreadIdx(0), ThreadIdx(1))),
            ),
        ),
    )


def _program(ops, inputs=("h_in",), outputs=("h_out",)) -> DeviceProgram:
    return DeviceProgram(
        "lifetimes", ops=tuple(ops), host_inputs=inputs, host_outputs=outputs
    )


def _codes(program) -> list[str]:
    return [d.code for d in check_lifetimes(program)]


TOP_HALF = ((0, 2, 1), (0, 8, 1))
BOTTOM_HALF = ((2, 4, 1), (0, 8, 1))


class TestMem001UseBeforeInit:
    def test_kernel_read_of_uninitialised_buffer_fires(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                AllocDevice("d_out", SHAPE),
                LaunchKernel(_copy_kernel(), (("src", "d_in"), ("dst", "d_out"))),
                DeviceToHost("d_out", "h_out"),
            ]
        )
        diags = check_lifetimes(prog)
        hits = [d for d in diags if d.code == "MEM001" and d.severity == "error"]
        assert len(hits) == 1
        assert "d_in" in hits[0].message

    def test_download_not_provably_covered_warns(self):
        prog = _program(
            [
                AllocDevice("d_out", SHAPE),
                HostToDevice("h_in", "d_out", region=TOP_HALF),
                DeviceToHost("d_out", "h_out"),
            ]
        )
        diags = check_lifetimes(prog)
        hits = [d for d in diags if d.code == "MEM001"]
        assert [d.severity for d in hits] == ["warning"]

    def test_diagonal_store_does_not_cover_the_download(self):
        # dst[i, i] writes 4 of 16 elements: both index components move
        # along one axis, so the write box is not exact and the whole-buffer
        # download reads 12 uninitialised elements
        diag = Kernel(
            name="diag",
            space=IndexSpace((0,), (4,)),
            arrays=(ArrayParam("dst", (4, 4), intent="out"),),
            body=(Store("dst", (ThreadIdx(0), ThreadIdx(0)), Const(1)),),
        )
        prog = _program(
            [
                AllocDevice("d_out", (4, 4)),
                LaunchKernel(diag, (("dst", "d_out"),)),
                DeviceToHost("d_out", "h_out"),
            ],
            inputs=(),
        )
        hits = [d for d in check_lifetimes(prog) if d.code == "MEM001"]
        assert [d.severity for d in hits] == ["warning"]
        assert "d_out" in hits[0].message

    def test_covering_tile_uploads_are_clean(self):
        prog = _program(
            [
                AllocDevice("d_out", SHAPE),
                HostToDevice("h_in", "d_out", region=TOP_HALF),
                HostToDevice("h_in", "d_out", region=BOTTOM_HALF),
                DeviceToHost("d_out", "h_out"),
                FreeDevice("d_out"),
            ]
        )
        assert "MEM001" not in _codes(prog)

    def test_initialised_read_is_clean(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                AllocDevice("d_out", SHAPE),
                HostToDevice("h_in", "d_in"),
                LaunchKernel(_copy_kernel(), (("src", "d_in"), ("dst", "d_out"))),
                DeviceToHost("d_out", "h_out"),
                FreeDevice("d_in"),
                FreeDevice("d_out"),
            ]
        )
        assert _codes(prog) == []


class TestMem002StaleCopy:
    def test_device_read_after_host_source_rewritten_fires(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                AllocDevice("d_out", SHAPE),
                HostToDevice("h_in", "d_in"),
                HostCompute("mutate", lambda env: None, writes=("h_in",)),
                LaunchKernel(_copy_kernel(), (("src", "d_in"), ("dst", "d_out"))),
                DeviceToHost("d_out", "h_out"),
            ]
        )
        diags = check_lifetimes(prog)
        hits = [d for d in diags if d.code == "MEM002"]
        assert len(hits) == 1
        assert "d_in" in hits[0].message and "h_in" in hits[0].message

    def test_host_read_after_device_source_rewritten_fires(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                AllocDevice("d_out", SHAPE),
                HostToDevice("h_in", "d_in"),
                DeviceToHost("d_out", "h_mid"),  # download, then overwrite dev
                LaunchKernel(_copy_kernel(), (("src", "d_in"), ("dst", "d_out"))),
                HostCompute(
                    "consume", lambda env: None, reads=("h_mid",), writes=("h_out",)
                ),
            ]
        )
        # the uninit download also fires MEM001; only MEM002 is under test
        hits = [d for d in check_lifetimes(prog) if d.code == "MEM002"]
        assert len(hits) == 1
        assert "h_mid" in hits[0].message

    def test_reupload_after_host_write_is_clean(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                AllocDevice("d_out", SHAPE),
                HostToDevice("h_in", "d_in"),
                HostCompute("mutate", lambda env: None, writes=("h_in",)),
                HostToDevice("h_in", "d_in"),
                LaunchKernel(_copy_kernel(), (("src", "d_in"), ("dst", "d_out"))),
                DeviceToHost("d_out", "h_out"),
            ]
        )
        assert "MEM002" not in _codes(prog)


class TestMem003UseAfterFree:
    def test_download_after_free_fires(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                HostToDevice("h_in", "d_in"),
                FreeDevice("d_in"),
                DeviceToHost("d_in", "h_out"),
            ]
        )
        diags = check_lifetimes(prog)
        hits = [d for d in diags if d.code == "MEM003"]
        assert len(hits) == 1
        assert hits[0].severity == "error"

    def test_launch_after_free_fires(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                AllocDevice("d_out", SHAPE),
                HostToDevice("h_in", "d_in"),
                FreeDevice("d_in"),
                LaunchKernel(_copy_kernel(), (("src", "d_in"), ("dst", "d_out"))),
                DeviceToHost("d_out", "h_out"),
            ]
        )
        assert "MEM003" in _codes(prog)

    def test_free_after_last_use_is_clean(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                HostToDevice("h_in", "d_in"),
                DeviceToHost("d_in", "h_out"),
                FreeDevice("d_in"),
            ]
        )
        assert "MEM003" not in _codes(prog)


class TestMem004DoubleFree:
    def test_double_free_fires(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                HostToDevice("h_in", "d_in"),
                DeviceToHost("d_in", "h_out"),
                FreeDevice("d_in"),
                FreeDevice("d_in"),
            ]
        )
        diags = check_lifetimes(prog)
        hits = [d for d in diags if d.code == "MEM004"]
        assert len(hits) == 1
        assert "already freed" in hits[0].message

    def test_free_of_never_allocated_fires(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                HostToDevice("h_in", "d_in"),
                DeviceToHost("d_in", "h_out"),
                FreeDevice("d_in"),
                FreeDevice("d_ghost"),
            ]
        )
        hits = [d for d in check_lifetimes(prog) if d.code == "MEM004"]
        assert len(hits) == 1
        assert "never allocated" in hits[0].message

    def test_single_free_is_clean(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                HostToDevice("h_in", "d_in"),
                DeviceToHost("d_in", "h_out"),
                FreeDevice("d_in"),
            ]
        )
        assert "MEM004" not in _codes(prog)

    def test_realloc_after_free_is_clean(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                HostToDevice("h_in", "d_in"),
                FreeDevice("d_in"),
                AllocDevice("d_in", SHAPE),
                HostToDevice("h_in", "d_in"),
                DeviceToHost("d_in", "h_out"),
                FreeDevice("d_in"),
            ]
        )
        codes = _codes(prog)
        assert "MEM004" not in codes and "MEM003" not in codes


class TestMem005Leak:
    def test_unfreed_buffer_warns(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                HostToDevice("h_in", "d_in"),
                DeviceToHost("d_in", "h_out"),
            ]
        )
        diags = check_lifetimes(prog)
        hits = [d for d in diags if d.code == "MEM005"]
        assert len(hits) == 1
        assert hits[0].severity == "warning"

    def test_freed_buffer_is_clean(self):
        prog = _program(
            [
                AllocDevice("d_in", SHAPE),
                HostToDevice("h_in", "d_in"),
                DeviceToHost("d_in", "h_out"),
                FreeDevice("d_in"),
            ]
        )
        assert "MEM005" not in _codes(prog)
