"""Tests for the accelerator, GSCore and GPU performance/energy models."""

import pytest

from repro.arch.accelerator import AcceleratorConfig, PerformanceReport, StreamingGSAccelerator
from repro.arch.gpu import OrinNXModel, gpu_flops
from repro.arch.gscore import GSCoreModel
from repro.arch.units import (
    BitonicSortingUnit,
    HierarchicalFilteringUnit,
    RenderingUnitArray,
    VoxelSortingUnit,
)
from tests.arch.test_workload_traffic import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload()


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------
def test_vsu_cycles_scale_with_groups():
    vsu = VoxelSortingUnit()
    assert vsu.cycles(100, 10, 20) < vsu.cycles(200, 10, 20)
    assert vsu.energy_j(100, 10, 20) > 0


def test_hfu_cycles_and_energy():
    hfu = HierarchicalFilteringUnit(num_cfu=4, num_ffu=1)
    assert hfu.coarse_cycles(1000) == pytest.approx(250)
    assert hfu.fine_cycles(1000) == pytest.approx(2000)
    assert hfu.cycles(1000, 100) == pytest.approx(max(250, 200))
    assert hfu.energy_j(1000, 100) > 0


def test_hfu_more_cfus_reduce_coarse_time():
    few = HierarchicalFilteringUnit(num_cfu=1)
    many = HierarchicalFilteringUnit(num_cfu=4)
    assert many.coarse_cycles(10_000) < few.coarse_cycles(10_000)


def test_bitonic_unit_cycles():
    sorter = BitonicSortingUnit()
    assert sorter.cycles_for_list(1) == 0.0
    assert sorter.cycles_for_list(64) > sorter.cycles_for_list(16)
    assert sorter.cycles(10, 64) == pytest.approx(10 * sorter.cycles_for_list(64))
    assert sorter.energy_j(10, 1) == 0.0
    assert sorter.energy_j(10, 64) > 0


def test_render_array_throughput():
    renderer = RenderingUnitArray(num_units=64)
    assert renderer.cycles(64_000) == pytest.approx(64_000 / (64 * renderer.fragments_per_unit_per_cycle))
    assert renderer.energy_j(1000) > 0


# ---------------------------------------------------------------------------
# Accelerator configuration
# ---------------------------------------------------------------------------
def test_config_validation_and_variants():
    with pytest.raises(ValueError):
        AcceleratorConfig(num_hfu=0)
    assert AcceleratorConfig.variant("streaminggs").use_coarse_filter
    assert not AcceleratorConfig.variant("wo_cgf").use_coarse_filter
    assert AcceleratorConfig.variant("wo_cgf").use_vq
    wo_both = AcceleratorConfig.variant("wo_vq_cgf")
    assert not wo_both.use_vq and not wo_both.use_coarse_filter
    with pytest.raises(KeyError):
        AcceleratorConfig.variant("unknown")


def test_paper_default_area(workload):
    accelerator = StreamingGSAccelerator(AcceleratorConfig())
    assert accelerator.area_mm2() == pytest.approx(5.37, abs=0.05)


# ---------------------------------------------------------------------------
# Performance reports
# ---------------------------------------------------------------------------
def test_report_fps_and_ratios(workload):
    gpu = OrinNXModel().evaluate(workload)
    accel = StreamingGSAccelerator().evaluate(workload)
    assert isinstance(gpu, PerformanceReport) and isinstance(accel, PerformanceReport)
    assert gpu.fps == pytest.approx(1.0 / gpu.frame_time_s)
    assert accel.speedup_over(gpu) > 1.0
    assert accel.energy_saving_over(gpu) > 1.0


def test_accelerator_report_structure(workload):
    report = StreamingGSAccelerator().evaluate(workload)
    assert set(report.stage_cycles) == {"vsu", "hfu", "sorting", "rendering"}
    assert set(report.energy_breakdown) == {
        "vsu",
        "hfu",
        "sorting",
        "rendering",
        "sram",
        "dram",
        "static",
    }
    assert report.energy_per_frame_j == pytest.approx(sum(report.energy_breakdown.values()))
    assert report.dram_bytes > 0


def test_accelerator_faster_and_more_efficient_than_gscore(workload):
    """The paper's headline ordering: STREAMINGGS > GSCore > GPU."""
    gpu = OrinNXModel().evaluate(workload)
    gscore = GSCoreModel().evaluate(workload)
    accel = StreamingGSAccelerator().evaluate(workload)
    assert accel.frame_time_s < gscore.frame_time_s < gpu.frame_time_s
    assert accel.energy_per_frame_j < gscore.energy_per_frame_j < gpu.energy_per_frame_j


def test_ablations_are_slower_than_full_design(workload):
    full = StreamingGSAccelerator(AcceleratorConfig.variant("streaminggs")).evaluate(workload)
    wo_cgf = StreamingGSAccelerator(AcceleratorConfig.variant("wo_cgf")).evaluate(workload)
    wo_vq_cgf = StreamingGSAccelerator(AcceleratorConfig.variant("wo_vq_cgf")).evaluate(workload)
    assert full.frame_time_s <= wo_cgf.frame_time_s
    assert wo_cgf.frame_time_s <= wo_vq_cgf.frame_time_s + 1e-12
    # VQ is primarily an energy optimisation (Sec. V-C).
    assert wo_vq_cgf.energy_per_frame_j > wo_cgf.energy_per_frame_j


def test_accelerator_traffic_drops_with_vq(workload):
    full = StreamingGSAccelerator(AcceleratorConfig.variant("streaminggs"))
    no_vq = StreamingGSAccelerator(AcceleratorConfig.variant("wo_vq_cgf"))
    assert full.traffic(workload).total_bytes < no_vq.traffic(workload).total_bytes


def test_more_cfus_never_slow_down(workload):
    reports = [
        StreamingGSAccelerator(AcceleratorConfig(cfus_per_hfu=n)).evaluate(workload).frame_time_s
        for n in (1, 2, 4)
    ]
    assert reports[0] >= reports[1] >= reports[2]


def test_gscore_traffic_between_streaming_and_gpu(workload):
    from repro.arch.traffic import streaming_traffic, tile_centric_traffic

    gscore_bytes = GSCoreModel().traffic_bytes(workload)
    assert streaming_traffic(workload).total_bytes < gscore_bytes
    assert gscore_bytes < tile_centric_traffic(workload).total_bytes * 1.01


# ---------------------------------------------------------------------------
# GPU model
# ---------------------------------------------------------------------------
def test_gpu_flops_positive(workload):
    flops = gpu_flops(workload)
    assert flops.projection_flops > 0
    assert flops.sorting_flops > 0
    assert flops.rendering_flops > 0
    assert flops.total_flops == pytest.approx(
        flops.projection_flops + flops.sorting_flops + flops.rendering_flops
    )


def test_gpu_not_real_time(workload):
    """Fig. 3's conclusion: a mobile GPU is far below the 90 FPS target."""
    assert OrinNXModel().fps(workload) < 45.0


def test_gpu_required_bandwidth_matches_traffic(workload):
    from repro.arch.traffic import tile_centric_traffic

    gpu = OrinNXModel()
    assert gpu.required_bandwidth(workload, fps=90.0) == pytest.approx(
        tile_centric_traffic(workload).total_bytes * 90.0
    )


def test_accelerator_hits_real_time(workload):
    """The full design should comfortably exceed the 90 FPS requirement."""
    report = StreamingGSAccelerator().evaluate(workload)
    assert report.fps > 90.0
