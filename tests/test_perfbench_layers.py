"""perfbench's layer boundaries resolve and see the frame path's work.

perfbench derives each per-layer metric from spans of the functions
``perfbench.layers.TARGETS`` wraps.  A refactor that renames such a
function, or stops calling it where the frame path runs, reads as that
layer costing nothing.  So every target must resolve, and the four frame
layers must record spans both in the calling process of a two-process
frame and during a cold ``Session.context`` build.
"""

import pytest

from perfbench.layers import TARGETS
from perfbench.tracer import Tracer
from repro.api import Session
from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer
from tests.conftest import make_camera, make_model

FRAME_LAYERS = {"core.traversal", "core.voxel_order", "core.filter", "engine.blend"}


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def recorded(tracer):
    return {span.name for span in tracer.spans}


def test_every_target_resolves(tracer):
    assert tracer.missing == {}


def test_a_two_process_frame_records_every_frame_layer(tracer):
    renderer = StreamingRenderer(
        make_model(num_gaussians=250, extent=4.0, seed=12),
        StreamingConfig(voxel_size=1.0, use_vq=False),
    )
    frame = renderer.render(make_camera(width=64, height=48), tile_workers=2)
    assert frame.telemetry["tile_mode"] == "process"
    assert FRAME_LAYERS <= recorded(tracer)


def test_a_cold_context_build_records_every_frame_layer(tracer):
    with Session() as session:
        session.context("lego", resolution_scale=0.25)
    assert FRAME_LAYERS <= recorded(tracer)
