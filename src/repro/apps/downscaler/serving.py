"""Pipeline jobs serving the downscaler through ``repro.runtime``.

Adapts both compilation routes to :class:`~repro.runtime.pipeline.
FramePipeline`: the SaC route runs one program per RGB channel (a batch
of three runs per video frame, the paper's 900-transfer accounting), the
Gaspard2 route runs one three-channel program per frame.  Golden outputs
come from the NumPy reference, so the pipeline's validation stage checks
bit-exactness end to end.  Each job builds its compile inputs once and
holds them, so the pipeline's per-frame compile stage is a cache hit
that rebuilds nothing.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.apps.downscaler import reference
from repro.apps.downscaler.arrayol_model import downscaler_allocation, downscaler_model
from repro.apps.downscaler.config import HD, FrameSize
from repro.apps.downscaler.sac_sources import NONGENERIC, downscaler_program_source
from repro.apps.downscaler.video import channels_of, synthetic_frame
from repro.errors import ReproError
from repro.ir.program import DeviceProgram
from repro.runtime.cache import CompileCache
from repro.runtime.pipeline import PipelineJob

__all__ = ["SacDownscalerJob", "GaspardDownscalerJob", "downscaler_job"]

_CHANNELS = "rgb"


def _make_frame(size: FrameSize, t: int) -> np.ndarray:
    frame = synthetic_frame(size, t)
    frame.setflags(write=False)
    return frame


def _make_channels(frame_of, t: int) -> dict[str, np.ndarray]:
    chans = channels_of(frame_of(t))
    for arr in chans.values():
        arr.setflags(write=False)
    return chans


def _make_golden_channel(
    size: FrameSize, channels_at, t: int, channel: str
) -> np.ndarray:
    out = reference.downscale_frame(channels_at(t)[channel], size)
    out.setflags(write=False)
    return out


class _DownscalerJobBase(PipelineJob):
    """Shared frame synthesis, memoised per frame.

    ``env()`` and ``golden()`` are called independently per (frame,
    instance) — without memoisation every frame was synthesised and
    channel-split at least twice per run (and once more per golden
    check).  A small per-instance LRU bounds memory while the pipeline /
    broker walk frames in order; cached arrays are frozen so a consumer
    mutating one would fault instead of corrupting later reads.

    The LRUs wrap module-level functions bound to the frame size and to
    the memo they read, never to ``self``: a job holds no reference
    cycle, so dropping the last reference frees it, its frames and its
    held compile inputs at once, without waiting for the cyclic
    collector (the tuner makes one job per candidate).
    """

    def __init__(self, size: FrameSize = HD, frame_cache: int = 8):
        self.size = size
        memo = functools.lru_cache(maxsize=frame_cache)
        self._frame = memo(functools.partial(_make_frame, size))
        self._channels = memo(functools.partial(_make_channels, self._frame))
        self._golden_channel = memo(
            functools.partial(_make_golden_channel, size, self._channels)
        )


class SacDownscalerJob(_DownscalerJobBase):
    """SaC/CUDA route: one program run per RGB channel (batch of 3).

    The first :meth:`compile` builds the program source and its
    :class:`~repro.sac.backend.CompileOptions`; the job holds both, so
    every later frame hands the cache the same objects and a warm compile
    costs one key lookup.
    """

    instances_per_frame = 3

    def __init__(
        self,
        size: FrameSize = HD,
        variant: str = NONGENERIC,
        opt=None,
        transfers: str = "boundary",
        paving: int = 1,
        frame_cache: int = 8,
    ):
        super().__init__(size, frame_cache=frame_cache)
        self.variant = variant
        self.opt = opt
        self.transfers = transfers
        self.paving = paving
        self.name = f"sac-{'nongeneric' if variant == NONGENERIC else 'generic'}"
        if opt is not None:
            self.name += "+opt"
        if paving != 1:
            self.name += f"@x{paving}"

    @functools.cached_property
    def _compile_inputs(self):
        """The source text and compile options, built on first use."""
        from repro.sac.backend import CompileOptions

        source = downscaler_program_source(self.size, self.variant, paving=self.paving)
        return source, CompileOptions(
            target="cuda", opt=self.opt, transfers=self.transfers
        )

    def compile(self, cache: CompileCache) -> DeviceProgram:
        source, options = self._compile_inputs
        return cache.compile_sac(source, "downscale", options).program

    def env(self, frame: int, instance: int) -> dict[str, np.ndarray]:
        channel = _CHANNELS[instance]
        return {"frame": self._channels(frame)[channel]}

    def golden(self, frame: int, instance: int, program: DeviceProgram):
        out = program.host_outputs[0]
        return {out: self._golden_channel(frame, _CHANNELS[instance])}


class GaspardDownscalerJob(_DownscalerJobBase):
    """Gaspard2/OpenCL route: one three-channel program run per frame.

    The first :meth:`compile` builds the application model and its MARTE
    allocation; the job holds both, so every later frame hands the cache
    the same model, whose key text :func:`~repro.runtime.cache.canonical`
    memoised on first use, and a warm compile costs one key lookup.
    """

    instances_per_frame = 1

    def __init__(
        self, size: FrameSize = HD, opt=None, transfers: str = "boundary",
        paving: int = 1, frame_cache: int = 8,
    ):
        super().__init__(size, frame_cache=frame_cache)
        self.opt = opt
        self.transfers = transfers
        self.paving = paving
        self.name = "gaspard" if opt is None else "gaspard+opt"
        if paving != 1:
            self.name += f"@x{paving}"

    @functools.cached_property
    def _compile_inputs(self):
        """The application model and its allocation, built on first use."""
        return downscaler_model(self.size, paving=self.paving), downscaler_allocation()

    def compile(self, cache: CompileCache) -> DeviceProgram:
        model, allocation = self._compile_inputs
        ctx, _chain = cache.compile_gaspard(
            model, allocation, opt=self.opt, transfers=self.transfers
        )
        return ctx.program

    def env(self, frame: int, instance: int) -> dict[str, np.ndarray]:
        return {f"in_{c}": v for c, v in self._channels(frame).items()}

    def golden(self, frame: int, instance: int, program: DeviceProgram):
        return {
            f"out_{c}": self._golden_channel(frame, c) for c in _CHANNELS
        }


def downscaler_job(
    route: str,
    size: FrameSize = HD,
    variant: str = NONGENERIC,
    opt=None,
    transfers: str = "boundary",
    paving: int = 1,
) -> PipelineJob:
    """The pipeline job of one compilation route (``"sac"``/``"gaspard"``).

    ``opt`` (a :class:`repro.opt.OptOptions`), ``transfers`` and the tiler
    ``paving`` granularity flow into the route's compile options, so
    optimised, re-paved and paper-literal placements serve through the
    same pipeline.
    """
    if route == "sac":
        return SacDownscalerJob(size, variant, opt=opt, transfers=transfers, paving=paving)
    if route == "gaspard":
        return GaspardDownscalerJob(size, opt=opt, transfers=transfers, paving=paving)
    raise ReproError(f"unknown pipeline route {route!r}")
