"""Pins of the pipeline report both downscaler routes serve at CIF.

Each digest covers :meth:`PipelineReport.as_dict` as ``repro pipeline
--json`` prints it, key order included, for four frames through the
default pipeline, a serialised one, one with unbounded buffering and a
two-device fleet.  A change to any reported value, to which engines a
report lists or to the order it lists them in changes a digest here.
"""

import hashlib
import json

import pytest

from repro.apps.downscaler.config import CIF
from repro.apps.downscaler.serving import downscaler_job
from repro.runtime import FramePipeline

PIPELINES = {
    "default": {},
    "serialize": {"serialize": True},
    "unbounded": {"depth": None},
    "fleet": {"devices": 2},
}

#: the first 16 hex digits of each report's digest
PINS = {
    "gaspard-default": "0f60bc1846f49145",
    "gaspard-serialize": "7824800366bf2e74",
    "gaspard-unbounded": "9634d52f21b3cb0b",
    "gaspard-fleet": "f01bcbfa2eddaf12",
    "sac-default": "361ab2971cdb215d",
    "sac-serialize": "769bd300640197f1",
    "sac-unbounded": "a394515606d455c3",
    "sac-fleet": "b9fe3b101c3f9da2",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_pipeline_reports_are_pinned(name):
    route, pipeline = name.split("-")
    report = FramePipeline(**PIPELINES[pipeline]).run(
        downscaler_job(route, size=CIF), frames=4
    )
    text = json.dumps(report.as_dict())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PINS[name]
