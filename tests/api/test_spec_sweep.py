"""Tests for ExperimentSpec validation and sweep() grid expansion."""

import pytest

from repro.api.spec import ExperimentSpec, sweep
from repro.arch.accelerator import AcceleratorConfig
from repro.core.config import StreamingConfig


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec()
        assert spec.scene == "train"
        assert spec.algorithm == "3dgs"
        assert spec.compression == "vq"
        assert spec.arch == "streaminggs"
        assert spec.config_overrides == {}
        assert spec.arch_overrides == {}

    def test_unknown_scene(self):
        with pytest.raises(ValueError, match="unknown scene"):
            ExperimentSpec(scene="atlantis")

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExperimentSpec(algorithm="nerf")

    def test_unknown_compression(self):
        with pytest.raises(ValueError, match="unknown compression"):
            ExperimentSpec(compression="zip")

    def test_unknown_arch(self):
        with pytest.raises(ValueError, match="unknown arch"):
            ExperimentSpec(arch="tpu")

    def test_unknown_config_override(self):
        with pytest.raises(ValueError, match="StreamingConfig override"):
            ExperimentSpec(config={"warp_size": 32})

    def test_use_vq_override_rejected(self):
        with pytest.raises(ValueError, match="compression"):
            ExperimentSpec(config={"use_vq": False})

    @pytest.mark.parametrize("scale", [0.0, -0.5, float("nan"), float("inf")])
    def test_resolution_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="resolution_scale must be"):
            ExperimentSpec(resolution_scale=scale)

    def test_arch_options_require_accelerator_arch(self):
        with pytest.raises(ValueError, match="arch_options"):
            ExperimentSpec(arch="gpu", arch_options={"cfus_per_hfu": 2})

    def test_spec_is_hashable_and_comparable(self):
        a = ExperimentSpec(scene="lego", config={"voxel_size": 0.5})
        b = ExperimentSpec(scene="lego", config={"voxel_size": 0.5})
        assert a == b
        assert hash(a) == hash(b)
        assert a != a.with_options(scene="truck")

    def test_streaming_config_scene_default_voxel(self):
        assert ExperimentSpec(scene="lego").streaming_config().voxel_size == 0.4
        assert ExperimentSpec(scene="train").streaming_config().voxel_size == 2.0

    def test_streaming_config_overrides_and_compression(self):
        spec = ExperimentSpec(
            scene="train",
            compression="none",
            config={"voxel_size": 1.5, "streaming_kernel": "reference"},
        )
        config = spec.streaming_config()
        assert isinstance(config, StreamingConfig)
        assert config.voxel_size == 1.5
        assert config.streaming_kernel == "reference"
        assert config.use_vq is False

    def test_accelerator_config_variant_and_options(self):
        spec = ExperimentSpec(arch="wo_cgf", arch_options={"cfus_per_hfu": 2})
        accel = spec.accelerator_config()
        assert isinstance(accel, AcceleratorConfig)
        assert accel.use_coarse_filter is False
        assert accel.cfus_per_hfu == 2
        with pytest.raises(ValueError, match="not an accelerator"):
            ExperimentSpec(arch="gscore").accelerator_config()

    def test_label_and_to_dict_roundtrip(self):
        spec = ExperimentSpec(scene="lego", tag="mypoint", config={"voxel_size": 0.5})
        assert spec.label == "mypoint"
        assert ExperimentSpec(scene="lego").label == "lego/3dgs/streaminggs"
        data = spec.to_dict()
        assert data["config"] == {"voxel_size": 0.5}
        assert ExperimentSpec(**data) == spec


class TestSweep:
    def test_cartesian_product_order(self):
        specs = sweep(
            ExperimentSpec(scene="train"),
            cfus_per_hfu=(1, 2),
            ffus_per_hfu=(1, 2, 4),
        )
        assert len(specs) == 6
        grid = [
            (s.arch_overrides["cfus_per_hfu"], s.arch_overrides["ffus_per_hfu"])
            for s in specs
        ]
        # Last axis fastest, matching nested for-loops.
        assert grid == [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4)]

    def test_key_routing(self):
        specs = sweep(
            None,
            scene=("lego",),
            voxel_size=(0.5,),
            cfus_per_hfu=(2,),
        )
        (spec,) = specs
        assert spec.scene == "lego"
        assert spec.config_overrides == {"voxel_size": 0.5}
        assert spec.arch_overrides == {"cfus_per_hfu": 2}

    def test_scalar_axis_wrapped(self):
        specs = sweep(voxel_size=1.5)
        assert len(specs) == 1
        assert specs[0].config_overrides["voxel_size"] == 1.5

    def test_auto_tags(self):
        specs = sweep(ExperimentSpec(scene="lego"), voxel_size=(0.4, 0.8))
        assert [s.tag for s in specs] == ["voxel_size=0.4", "voxel_size=0.8"]
        tagged = sweep(ExperimentSpec(scene="lego", tag="base"), voxel_size=(0.4,))
        assert tagged[0].tag == "base: voxel_size=0.4"

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            sweep(clock_ghz=(1.0, 2.0))

    def test_empty_axis(self):
        with pytest.raises(ValueError, match="no values"):
            sweep(voxel_size=())

    def test_base_overrides_are_preserved(self):
        base = ExperimentSpec(scene="train", config={"tile_size": 8})
        specs = sweep(base, voxel_size=(1.0,))
        assert specs[0].config_overrides == {"tile_size": 8, "voxel_size": 1.0}

    def test_empty_grid_returns_base(self):
        base = ExperimentSpec(scene="lego", tag="solo")
        specs = sweep(base)
        assert specs == [base]
