"""A cold scene-context build: each render once, and where its time went."""

import dataclasses
import time

import numpy as np

from repro.analysis.context import build_scene_context
from repro.engine.service import RenderService
from repro.gaussians.rasterizer import TileRasterizer
from repro.scenes import fitting

#: A small key: lego under 3DGS at a quarter of the evaluation resolution.
KEY = dict(scene="lego", algorithm="3dgs", resolution_scale=0.25)


def test_cold_build_renders_each_tile_centric_image_once(monkeypatch):
    rendered, candidates = [], []
    render, perturb = TileRasterizer.render, fitting.perturb_model

    def counting_render(self, model, camera):
        rendered.append(model)
        return render(self, model, camera)

    def counting_perturb(*args, **kwargs):
        candidates.append(perturb(*args, **kwargs))
        return candidates[-1]

    monkeypatch.setattr(TileRasterizer, "render", counting_render)
    monkeypatch.setattr(fitting, "perturb_model", counting_perturb)
    service = RenderService()
    context = build_scene_context(service=service, **KEY)
    # The ground truth, then one render per calibration candidate.
    expected = [context.reference] + candidates
    assert len(rendered) == len(expected)
    assert all(model is want for model, want in zip(rendered, expected))
    assert any(candidate is context.trained for candidate in candidates)

    monkeypatch.undo()
    fresh = service.tile_rasterizer(context.streaming_config).render(
        context.trained, context.camera
    )
    kept = context.tile_output
    assert kept.image.tobytes() == fresh.image.tobytes()
    assert kept.alpha.tobytes() == fresh.alpha.tobytes()
    assert kept.stats == fresh.stats
    for field in dataclasses.fields(fresh.projected):
        expected = getattr(fresh.projected, field.name)
        actual = getattr(kept.projected, field.name)
        assert actual.dtype == expected.dtype
        assert actual.tobytes() == expected.tobytes()


def test_stages_cover_the_build():
    started = time.perf_counter()
    context = build_scene_context(service=RenderService(), **KEY)
    wall = time.perf_counter() - started
    stages = context.stages_s
    assert list(stages) == ["scene", "fit", "renderer", "streaming", "workload"]
    assert all(seconds > 0.0 for seconds in stages.values())
    assert 0.95 * wall <= sum(stages.values()) <= wall
    assert np.isfinite(context.baseline_psnr)
