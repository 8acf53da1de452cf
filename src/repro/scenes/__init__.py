"""Procedural scenes standing in for the paper's evaluation datasets.

The paper evaluates six scenes from four datasets (Synthetic-NSVF,
Synthetic-NeRF, Tanks&Temples, Deep Blending).  The trained Gaussian
checkpoints of those scenes are not redistributable and training them
requires the CUDA 3DGS stack, so this package synthesises Gaussian clouds
procedurally with per-scene statistics (Gaussian count at full scale, scene
extent, synthetic vs. real-world layout) matched to the published
workloads.
"""

from repro.scenes.synthetic import (
    SceneSpec,
    generate_object_scene,
    generate_room_scene,
    generate_scene,
)
from repro.scenes.registry import (
    SCENE_REGISTRY,
    SceneDescriptor,
    build_scene,
    default_eval_camera,
)
from repro.scenes.fitting import FittedScene, fit_trained_model

__all__ = [
    "SceneSpec",
    "generate_object_scene",
    "generate_room_scene",
    "generate_scene",
    "SCENE_REGISTRY",
    "SceneDescriptor",
    "build_scene",
    "default_eval_camera",
    "FittedScene",
    "fit_trained_model",
]
