"""Top-level package surface tests."""

import repro


def test_version():
    assert repro.__version__ == "1.10.0"


def test_public_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_public_renderers_are_usable(tiny_model, tiny_camera):
    reference = repro.TileRasterizer().render(tiny_model, tiny_camera)
    renderer = repro.StreamingRenderer(tiny_model, repro.StreamingConfig(voxel_size=1.5))
    streaming = renderer.render(tiny_camera)
    assert reference.image.shape == streaming.image.shape


def test_scene_registry_exported():
    assert "truck" in repro.SCENE_REGISTRY
    model = repro.build_scene("lego", num_gaussians=64)
    assert len(model) == 64


def test_hardware_models_exported():
    assert repro.StreamingGSAccelerator().area_mm2() > 0
    assert repro.OrinNXModel().params.peak_flops > 0
    assert repro.GSCoreModel().config.num_render_units == 64


def test_api_surface_exported():
    assert repro.Session is not None
    assert repro.ExperimentSpec().scene == "train"
    specs = repro.sweep(repro.ExperimentSpec(scene="lego"), voxel_size=(0.4, 0.8))
    assert len(specs) == 2
    assert repro.ExperimentResult is repro.api.ExperimentResult
    assert repro.get_default_session() is repro.get_default_session()


def test_legacy_import_paths_still_work():
    # A thin alias kept for pre-API consumers; named experiments resolve
    # through the registry and run through a session.
    from repro.analysis import run_fig12
    from repro.api.experiments import REGISTRY

    assert callable(run_fig12)
    assert "fig12" in REGISTRY
    assert repro.get_default_session().run("tab1").name == "tab1"
