"""Seeded property tests for spec canonicalization and serialization.

Randomized (but deterministic — one fixed seed, so failures reproduce)
specs drawn from the full valid space check the invariants the result
store depends on:

* the store hash ignores override-dict key order;
* a spec that restates a default explicitly (scene-default voxel size,
  default tile size, variant-default unit counts, int vs float spelling)
  hashes identically to the spec that omits it;
* ``to_dict`` / ``from_dict`` / ``to_json`` / ``from_json`` round trip
  losslessly — including the store hash.
"""

import random

import pytest

from repro.api import ExperimentSpec, spec_key
from repro.api.spec import ACCELERATOR_ARCHS, ARCH_MODELS, COMPRESSION_MODES
from repro.arch.accelerator import AcceleratorConfig
from repro.scenes.registry import SCENE_REGISTRY

#: One seed, many cases: deterministic across runs and platforms.
SEED = 20250730
NUM_CASES = 60

#: Config overrides the generator may draw (value pools are all valid).
CONFIG_POOL = {
    "voxel_size": (0.2, 0.4, 1.0, 2.0, 3.0),
    "tile_size": (8, 16, 32),
    "ray_stride": (2, 4),
    "sh_degree": (1, 2, 3),
    "streaming_kernel": ("reference", "vectorized"),
    "max_voxels_per_ray": (256, 512),
    "frame_cache_size": (4, 8),
}

#: Arch options the generator may draw (accelerator archs only).
ARCH_POOL = {
    "num_vsu": (1, 2),
    "num_hfu": (2, 4),
    "cfus_per_hfu": (1, 2, 4),
    "ffus_per_hfu": (1, 2),
    "num_sort_units": (1, 2),
    "num_render_units": (32, 64),
}


def random_spec(rng: random.Random) -> ExperimentSpec:
    """One uniformly random valid spec."""
    from repro.variants.base import list_algorithms

    arch = rng.choice(ARCH_MODELS)
    config = {
        key: rng.choice(values)
        for key, values in CONFIG_POOL.items()
        if rng.random() < 0.4
    }
    arch_options = (
        {
            key: rng.choice(values)
            for key, values in ARCH_POOL.items()
            if rng.random() < 0.4
        }
        if arch in ACCELERATOR_ARCHS
        else {}
    )
    return ExperimentSpec(
        scene=rng.choice(sorted(SCENE_REGISTRY)),
        algorithm=rng.choice(list_algorithms()),
        compression=rng.choice(COMPRESSION_MODES),
        arch=arch,
        config=config,
        arch_options=arch_options,
        resolution_scale=rng.choice((0.25, 0.5, 1.0)),
        tag=rng.choice(("", "a", "sweep: point")),
    )


@pytest.fixture(scope="module")
def cases():
    rng = random.Random(SEED)
    return [random_spec(rng) for _ in range(NUM_CASES)]


class TestHashInvariants:
    def test_key_ignores_override_dict_order(self, cases):
        rng = random.Random(SEED + 1)
        for spec in cases:
            config = list(spec.config_overrides.items())
            arch_options = list(spec.arch_overrides.items())
            rng.shuffle(config)
            rng.shuffle(arch_options)
            shuffled = ExperimentSpec(
                scene=spec.scene,
                algorithm=spec.algorithm,
                compression=spec.compression,
                arch=spec.arch,
                config=dict(config),
                arch_options=dict(arch_options),
                resolution_scale=spec.resolution_scale,
                tag=spec.tag,
            )
            assert spec_key(shuffled) == spec_key(spec)

    def test_key_ignores_overrides_that_restate_defaults(self, cases):
        for spec in cases:
            resolved = spec.streaming_config()
            config = dict(spec.config_overrides)
            # Restate the resolved voxel size (the scene/compression default
            # when not overridden) and one untouched field's default.
            config.setdefault("voxel_size", resolved.voxel_size)
            config.setdefault("tile_size", resolved.tile_size)
            explicit = spec.with_options(config=config)
            assert explicit.streaming_config() == resolved
            assert spec_key(explicit) == spec_key(spec)

    def test_key_ignores_variant_default_arch_options(self, cases):
        for spec in cases:
            if spec.arch not in ACCELERATOR_ARCHS:
                continue
            defaults = AcceleratorConfig.variant(spec.arch)
            arch_options = dict(spec.arch_overrides)
            arch_options.setdefault("num_sort_units", defaults.num_sort_units)
            explicit = spec.with_options(arch_options=arch_options)
            assert spec_key(explicit) == spec_key(spec)

    def test_key_ignores_int_float_spelling(self, cases):
        for spec in cases:
            config = {
                key: float(value) if isinstance(value, (int, float)) else value
                for key, value in spec.config_overrides.items()
            }
            respelled = spec.with_options(config=config)
            assert spec_key(respelled) == spec_key(spec)

    def test_key_distinguishes_real_changes(self, cases):
        keys = {spec_key(spec) for spec in cases}
        for spec in cases:
            changed = spec.with_options(
                resolution_scale=spec.resolution_scale * 0.5
            )
            assert spec_key(changed) not in keys or spec_key(changed) != spec_key(
                spec
            )
            assert spec_key(spec.with_options(tag=spec.tag + "!")) != spec_key(spec)


class TestRoundTrip:
    def test_dict_round_trip(self, cases):
        for spec in cases:
            restored = ExperimentSpec.from_dict(spec.to_dict())
            assert restored == spec
            assert spec_key(restored) == spec_key(spec)

    def test_json_round_trip(self, cases):
        for spec in cases:
            restored = ExperimentSpec.from_json(spec.to_json())
            assert restored == spec
            assert restored.to_json() == spec.to_json()

    def test_canonical_dict_is_stable_under_round_trip(self, cases):
        for spec in cases:
            restored = ExperimentSpec.from_json(spec.to_json())
            assert restored.canonical_dict() == spec.canonical_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown spec field"):
            ExperimentSpec.from_dict({"scene": "lego", "voxel": 1.0})
