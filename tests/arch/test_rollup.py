"""Per-class fleet cost rollup and the new accelerator sizing knobs."""

import pytest

from repro.arch.accelerator import AcceleratorConfig, StreamingGSAccelerator
from repro.arch.rollup import (
    BYTES_PER_DRAM_CHANNEL,
    ClassCost,
    class_cost_from_metrics,
    fleet_rollup,
)
from repro.arch.workload import FullScaleWorkload


def make_workload(**overrides) -> FullScaleWorkload:
    values = dict(
        scene="synthetic-test",
        num_gaussians=1_000_000,
        width=960,
        height=540,
        num_voxels=800,
        voxel_size=2.0,
        visible_fraction=0.8,
        mean_depth=15.0,
        focal_px=800.0,
        blend_efficiency=0.1,
        voxels_per_ray=10.0,
        mean_radius_px=4.0,
        group_size=32,
    )
    values.update(overrides)
    return FullScaleWorkload(**values)


class TestConfigKnobs:
    def test_default_knobs_reproduce_baseline_exactly(self):
        workload = make_workload()
        baseline = StreamingGSAccelerator().evaluate(workload)
        explicit = StreamingGSAccelerator(
            AcceleratorConfig(sram_scale=1.0, dram_channels=4)
        ).evaluate(workload)
        assert explicit.frame_time_s == baseline.frame_time_s
        assert explicit.energy_per_frame_j == baseline.energy_per_frame_j
        assert explicit.dram_bytes == baseline.dram_bytes

    def test_fewer_channels_scale_bandwidth_linearly(self):
        one = StreamingGSAccelerator(AcceleratorConfig(dram_channels=1))
        four = StreamingGSAccelerator(AcceleratorConfig(dram_channels=4))
        assert one.dram.peak_bandwidth_bytes == pytest.approx(
            four.dram.peak_bandwidth_bytes / 4
        )
        workload = make_workload()
        assert one.evaluate(workload).frame_time_s >= four.evaluate(workload).frame_time_s

    def test_small_codebook_buffer_adds_raw_second_half_traffic(self):
        workload = make_workload()
        full = StreamingGSAccelerator(AcceleratorConfig())
        small = StreamingGSAccelerator(AcceleratorConfig(sram_scale=0.5))
        assert small.traffic(workload).total_bytes > full.traffic(workload).total_bytes
        assert small.evaluate(workload).dram_bytes > full.evaluate(workload).dram_bytes

    def test_sram_scale_shrinks_area(self):
        small = StreamingGSAccelerator(AcceleratorConfig(sram_scale=0.5))
        full = StreamingGSAccelerator(AcceleratorConfig())
        assert small.area_mm2() < full.area_mm2()

    def test_sram_scale_without_vq_changes_no_traffic(self):
        workload = make_workload()
        small = StreamingGSAccelerator(AcceleratorConfig(sram_scale=0.5, use_vq=False))
        full = StreamingGSAccelerator(AcceleratorConfig(use_vq=False))
        assert small.traffic(workload).total_bytes == full.traffic(workload).total_bytes

    def test_explicit_buffers_are_not_rescaled(self):
        buffers = StreamingGSAccelerator().buffers
        accel = StreamingGSAccelerator(
            AcceleratorConfig(sram_scale=0.25), buffers=buffers
        )
        assert accel.buffers is buffers

    @pytest.mark.parametrize(
        "bad",
        [
            dict(sram_scale=0.0),
            dict(sram_scale=-0.5),
            dict(dram_channels=0),
            dict(dram_channels=-1),
            dict(dram_channels=2.5),
        ],
    )
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            AcceleratorConfig(**bad)

    def test_integral_float_channels_accepted(self):
        # Spec canonicalization normalizes numerics to float on the wire.
        assert AcceleratorConfig(dram_channels=2.0).dram_channels == 2.0


class TestClassCost:
    def cost(self, **overrides):
        values = dict(
            name="preview",
            frames=900.0,
            window_s=10.0,
            frame_time_s=0.002,
            energy_per_frame_j=0.01,
            dram_bytes_per_frame=30e6,
        )
        values.update(overrides)
        return ClassCost(**values)

    def test_rates_derive_from_the_window(self):
        cost = self.cost()
        assert cost.offered_fps == pytest.approx(90.0)
        assert cost.required_bandwidth_bytes == pytest.approx(30e6 * 90.0)
        assert cost.mean_power_w == pytest.approx(900.0 * 0.01 / 10.0)
        assert cost.devices_required == pytest.approx(900.0 * 0.002 / 10.0)

    def test_from_metrics_round_trips_units(self):
        cost = self.cost()
        rebuilt = class_cost_from_metrics(
            "preview",
            {
                "frame_time_ms": cost.frame_time_s * 1e3,
                "energy_per_frame_mj": cost.energy_per_frame_j * 1e3,
                "dram_mb_per_frame": cost.dram_bytes_per_frame / 1e6,
            },
            frames=cost.frames,
            window_s=cost.window_s,
        )
        assert rebuilt.frame_time_s == pytest.approx(cost.frame_time_s)
        assert rebuilt.energy_per_frame_j == pytest.approx(cost.energy_per_frame_j)
        assert rebuilt.dram_bytes_per_frame == pytest.approx(cost.dram_bytes_per_frame)

    @pytest.mark.parametrize("bad", [dict(frames=-1.0), dict(window_s=0.0)])
    def test_invalid_cost_rejected(self, bad):
        with pytest.raises(ValueError):
            self.cost(**bad)


class TestFleetRollup:
    def test_totals_are_sums_over_classes(self):
        a = ClassCost("a", frames=100.0, window_s=10.0, frame_time_s=0.001,
                      energy_per_frame_j=0.005, dram_bytes_per_frame=10e6)
        b = ClassCost("b", frames=50.0, window_s=10.0, frame_time_s=0.004,
                      energy_per_frame_j=0.02, dram_bytes_per_frame=40e6)
        fleet = fleet_rollup([b, a])
        assert [c.name for c in fleet.classes] == ["a", "b"]
        assert fleet.frames == pytest.approx(150.0)
        assert fleet.offered_fps == pytest.approx(15.0)
        assert fleet.required_bandwidth_bytes == pytest.approx(
            a.required_bandwidth_bytes + b.required_bandwidth_bytes
        )
        assert fleet.devices_required == pytest.approx(
            a.devices_required + b.devices_required
        )
        assert fleet.dram_channels_required == pytest.approx(
            fleet.required_bandwidth_bytes / BYTES_PER_DRAM_CHANNEL
        )

    def test_as_dict_is_json_native(self):
        import json

        fleet = fleet_rollup(
            [ClassCost("a", frames=1.0, window_s=1.0, frame_time_s=0.001,
                       energy_per_frame_j=0.001, dram_bytes_per_frame=1e6)]
        )
        payload = fleet.as_dict()
        json.dumps(payload)
        assert payload["classes"][0]["name"] == "a"

    def test_empty_rollup_is_zero(self):
        fleet = fleet_rollup([])
        assert fleet.frames == 0.0
        assert fleet.required_bandwidth_bytes == 0.0
