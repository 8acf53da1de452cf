"""End-to-end smoke tests of the experiment harness.

These tests run the same code paths as the benchmark suite, but on a single
down-scaled scene so they complete in a few seconds.  The full experiments
(all scenes, paper-scale statistics) are exercised by ``benchmarks/``.
"""

import numpy as np
import pytest

from repro.analysis.characterization import run_fig2, run_fig3, run_fig4
from repro.analysis.claims import run_supporting_claims
from repro.analysis.performance import run_fig11
from repro.analysis.quality import PAPER_TABLE2, run_table2
from repro.analysis.sensitivity import run_fig13
from repro.api import get_default_session, reset_default_session
from repro.engine.service import reset_default_service

#: A reduced evaluation resolution keeps each context under ~2 seconds.
SCALE = 0.5


def _reset_default_state():
    reset_default_session()
    reset_default_service()


@pytest.fixture(scope="module", autouse=True)
def warm_context():
    _reset_default_state()
    yield
    _reset_default_state()


@pytest.fixture(scope="module")
def lego_context():
    return get_default_session().context("lego", resolution_scale=SCALE)


def test_context_fields(lego_context):
    context = lego_context
    assert context.scene == "lego"
    assert context.baseline_psnr > 20.0
    assert context.streaming_psnr > 20.0
    assert context.workload.num_gaussians == 340_000
    assert context.ground_truth.shape == context.tile_output.image.shape


def test_context_cache_returns_same_object(lego_context):
    again = get_default_session().context("lego", resolution_scale=SCALE)
    assert again is lego_context


def test_context_unknown_scene():
    with pytest.raises(KeyError):
        get_default_session().context("not-a-scene")


def test_fig2_single_scene():
    result = run_fig2(scenes=("lego",))
    assert result.scenes == ["lego"]
    shares = [result.stage_fractions[s][0] for s in ("projection", "sorting", "rendering")]
    assert sum(shares) == pytest.approx(1.0)
    assert result.intermediate_fraction > 0.5
    assert "Fig. 2" in result.format()


def test_fig3_single_scene():
    result = run_fig3(scenes=("lego",))
    assert result.measured_fps[0] < 90.0
    assert result.paper_fps[0] == pytest.approx(8.5)
    assert "Fig. 3" in result.format()


def test_fig4_single_scene():
    result = run_fig4(scenes=("lego",))
    assert result.total_gbs[0] > 0
    assert result.total_gbs[0] == pytest.approx(
        sum(result.stage_gbs[s][0] for s in result.stage_gbs), rel=1e-6
    )
    assert "Fig. 4" in result.format()


def test_table2_single_cell():
    result = run_table2(scenes=("lego",), algorithms=("3dgs",))
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.paper_baseline == PAPER_TABLE2["3dgs"]["lego"][0]
    assert abs(row.measured_baseline - row.paper_baseline) < 2.0
    assert row.measured_ours > 20.0
    assert "Table II" in result.format()


def test_fig11_single_scene():
    result = run_fig11(scenes=("lego",), algorithms=("3dgs",))
    assert result.speedup["3dgs"]["streaminggs"] > result.speedup["3dgs"]["gscore"] > 1.0
    assert result.energy_savings["3dgs"]["streaminggs"] > 1.0
    assert result.streaming_vs_gscore_speedup() > 1.0
    assert "Fig. 11" in result.format()


def test_fig13_small_grid():
    result = run_fig13(scene="lego", cfus=(1, 4), ffus=(1,))
    assert result.value(4, 1) >= result.value(1, 1)
    assert result.area_mm2[4][1] > result.area_mm2[1][1]
    assert "Fig. 13" in result.format()


def test_supporting_claims_lego():
    result = run_supporting_claims(scene="lego")
    assert 0.0 < result.filtering_reduction < 1.0
    assert 0.8 < result.vq_traffic_reduction < 1.0
    assert result.coarse_macs == 55
    assert result.fine_macs == 427
    assert "Supporting claims" in result.format()
