"""Registry coverage: every paper artifact returns a uniform result.

Each registered experiment is run in a narrowed, cheap configuration and
must return an :class:`ExperimentResult` whose ``to_json()`` round-trips.
The fig12/fig13 sweep re-implementations are additionally pinned to the
exact tables the pre-sweep implementation produced.
"""

import pytest

from repro.api import ExperimentSpec, Session
from repro.api.experiments import REGISTRY, experiment_names, get_experiment
from repro.api.result import ExperimentResult

#: Narrow, fast kwargs per experiment (full runs live in benchmarks/).
CHEAP_KWARGS = {
    "fig2": {"scenes": ("lego",)},
    "fig3": {"scenes": ("lego",)},
    "fig4": {"scenes": ("lego",)},
    "fig7": {"scene": "lego", "iterations": 40, "probe_every": 20},
    "tab1": {},
    "tab2": {"scenes": ("lego",), "algorithms": ("3dgs",)},
    "fig11": {"scenes": ("lego",), "algorithms": ("3dgs",)},
    "fig12": {"scene": "lego", "voxel_sizes": (0.4, 0.8)},
    "fig13": {"scene": "lego", "cfus": (1, 4), "ffus": (1,)},
    "claims": {"scene": "lego"},
    "trajectory": {"scene": "lego", "frames": 3, "resolution_scale": 0.25},
    "engine": {"num_gaussians": 400, "repeats": 1},
}

#: Exact small-configuration tables produced by the pre-sweep fig12/fig13
#: implementations (PR 1); the sweep-based re-implementations must match.
GOLDEN_FIG12 = (
    "Fig. 12 — voxel-size sensitivity (lego scene)\n"
    "voxel size  energy savings (x)  PSNR (dB)\n"
    "-----------------------------------------\n"
    "0.40        146.95              34.23    \n"
    "0.80        140.00              35.20    "
)
GOLDEN_FIG13 = (
    "Fig. 13 — speedup vs CFU/FFU count (lego scene)\n"
    "config  1 FFU   2 FFU \n"
    "----------------------\n"
    "1 CFU   41.41   41.41 \n"
    "4 CFU   112.99  139.64\n"
    "paper corners: 20.6x (1/1) ... 46.8x (4/4)"
)


@pytest.fixture(scope="module")
def session():
    return Session()


def test_registry_covers_every_paper_artifact():
    assert experiment_names() == [
        "fig2",
        "fig3",
        "fig4",
        "fig7",
        "tab1",
        "tab2",
        "fig11",
        "fig12",
        "fig13",
        "claims",
        "trajectory",
        "engine",
    ]
    for definition in REGISTRY.values():
        assert definition.description
    assert set(CHEAP_KWARGS) == set(REGISTRY)


def test_get_experiment_unknown():
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("fig99")


@pytest.mark.parametrize("name", list(CHEAP_KWARGS))
def test_experiment_returns_uniform_result(name, session):
    result = session.run(name, **CHEAP_KWARGS[name])
    assert isinstance(result, ExperimentResult)
    assert result.name == name
    assert result.title
    assert result.format()
    assert result.metrics, f"{name} reports no metrics"
    restored = ExperimentResult.from_json(result.to_json())
    assert restored.to_dict() == result.to_dict()
    assert restored.format() == result.format()


def test_fig12_sweep_table_matches_pre_sweep_output(session):
    from repro.analysis.sensitivity import run_fig12

    result = run_fig12(scene="lego", voxel_sizes=(0.4, 0.8), session=session)
    assert result.format() == GOLDEN_FIG12


def test_fig13_sweep_table_matches_pre_sweep_output(session):
    from repro.analysis.sensitivity import run_fig13

    result = run_fig13(scene="lego", cfus=(1, 4), ffus=(1, 2), session=session)
    assert result.format() == GOLDEN_FIG13


def test_fig7_refines_towards_the_context_tile_render(session, monkeypatch):
    """Fig. 7's photometric target is the context's tile-centric render, reused."""
    from repro.analysis import quality

    context = session.context("lego")
    targets = []
    refine = quality.dc_color_refinement_step

    def recording_refine(model, cameras, images, **kwargs):
        targets.extend(images)
        return refine(model, cameras, images, **kwargs)

    def no_tile_render(*args, **kwargs):
        raise AssertionError("fig7 built a tile-centric rasterizer of its own")

    monkeypatch.setattr(quality, "dc_color_refinement_step", recording_refine)
    monkeypatch.setattr(session.service, "tile_rasterizer", no_tile_render)
    quality.run_fig7("lego", iterations=40, probe_every=20, session=session)
    assert targets
    assert all(target is context.tile_output.image for target in targets)
