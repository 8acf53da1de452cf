"""Registry of the six scenes evaluated in the paper.

Each :class:`SceneDescriptor` carries two sets of numbers:

* **full-scale statistics** — Gaussian count and image resolution of the
  actual dataset scene (these drive the architecture / traffic models so
  bandwidth and FPS numbers are computed at paper scale);
* **simulation parameters** — a down-scaled Gaussian count and resolution
  used when the algorithms are actually executed in NumPy (rendering a
  3-million-Gaussian scene at 1080p in pure Python is not tractable).  All
  per-Gaussian ratios measured on the simulated scene (filter pass rates,
  tile duplication factors, cross-boundary fractions) transfer to the
  full-scale counts.

The per-algorithm target PSNRs come straight from Table II and are used to
calibrate the perturbation level of the "trained" model (see
``repro.scenes.fitting``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.gaussians.camera import (
    Camera,
    dolly_trajectory,
    orbit_trajectory,
    walkthrough_trajectory,
)
from repro.gaussians.model import GaussianModel
from repro.scenes.synthetic import SceneSpec, generate_scene

#: Algorithms evaluated in Table II.
BASE_ALGORITHMS = ("3dgs", "mini_splatting", "light_gaussian")


@dataclass(frozen=True)
class SceneDescriptor:
    """Static description of one evaluation scene."""

    name: str
    dataset: str
    category: str                       # "synthetic" or "real"
    full_num_gaussians: int             # paper-scale Gaussian count
    full_resolution: Tuple[int, int]    # (width, height) of the dataset images
    sim_num_gaussians: int              # Gaussians actually instantiated
    sim_resolution: Tuple[int, int]     # (width, height) used for NumPy rendering
    extent: float                       # scene bounding-box edge length
    default_voxel_size: float           # paper: 2.0 real-world, 0.4 synthetic
    layout: str                         # generator layout
    target_psnr: Dict[str, float] = field(default_factory=dict)
    orin_fps: float = 0.0               # measured FPS reported in Fig. 3
    seed: int = 0

    def spec(self, num_gaussians: int = 0, seed: int = -1) -> SceneSpec:
        """Scene-generation spec (optionally overriding size / seed)."""
        return SceneSpec(
            num_gaussians=num_gaussians or self.sim_num_gaussians,
            extent=self.extent,
            layout=self.layout,
            seed=self.seed if seed < 0 else seed,
        )


#: Scene registry.  Full-scale Gaussian counts follow publicly reported
#: checkpoint sizes for the original 3DGS models of these scenes; Fig. 3 FPS
#: values are read off the paper's bar chart.
SCENE_REGISTRY: Dict[str, SceneDescriptor] = {
    "lego": SceneDescriptor(
        name="lego",
        dataset="Synthetic-NeRF",
        category="synthetic",
        full_num_gaussians=340_000,
        full_resolution=(800, 800),
        sim_num_gaussians=2_600,
        sim_resolution=(128, 128),
        extent=2.6,
        default_voxel_size=0.4,
        layout="object",
        target_psnr={"3dgs": 36.11, "mini_splatting": 36.20, "light_gaussian": 35.18},
        orin_fps=8.5,
        seed=11,
    ),
    "palace": SceneDescriptor(
        name="palace",
        dataset="Synthetic-NSVF",
        category="synthetic",
        full_num_gaussians=540_000,
        full_resolution=(800, 800),
        sim_num_gaussians=3_200,
        sim_resolution=(128, 128),
        extent=3.0,
        default_voxel_size=0.4,
        layout="object",
        target_psnr={"3dgs": 38.56, "mini_splatting": 39.00, "light_gaussian": 37.76},
        orin_fps=7.8,
        seed=23,
    ),
    "train": SceneDescriptor(
        name="train",
        dataset="Tanks&Temples",
        category="real",
        full_num_gaussians=1_030_000,
        full_resolution=(980, 545),
        sim_num_gaussians=3_600,
        sim_resolution=(160, 96),
        extent=24.0,
        default_voxel_size=2.0,
        layout="room",
        target_psnr={"3dgs": 22.54, "mini_splatting": 21.49, "light_gaussian": 22.29},
        orin_fps=6.1,
        seed=37,
    ),
    "truck": SceneDescriptor(
        name="truck",
        dataset="Tanks&Temples",
        category="real",
        full_num_gaussians=2_540_000,
        full_resolution=(980, 545),
        sim_num_gaussians=4_200,
        sim_resolution=(160, 96),
        extent=30.0,
        default_voxel_size=2.0,
        layout="room",
        target_psnr={"3dgs": 26.65, "mini_splatting": 25.19, "light_gaussian": 26.02},
        orin_fps=4.5,
        seed=41,
    ),
    "playroom": SceneDescriptor(
        name="playroom",
        dataset="Deep Blending",
        category="real",
        full_num_gaussians=2_330_000,
        full_resolution=(1264, 832),
        sim_num_gaussians=4_000,
        sim_resolution=(160, 104),
        extent=22.0,
        default_voxel_size=2.0,
        layout="room",
        target_psnr={"3dgs": 30.18, "mini_splatting": 30.32, "light_gaussian": 28.58},
        orin_fps=4.9,
        seed=53,
    ),
    "drjohnson": SceneDescriptor(
        name="drjohnson",
        dataset="Deep Blending",
        category="real",
        full_num_gaussians=3_280_000,
        full_resolution=(1264, 832),
        sim_num_gaussians=4_600,
        sim_resolution=(160, 104),
        extent=26.0,
        default_voxel_size=2.0,
        layout="room",
        target_psnr={"3dgs": 29.21, "mini_splatting": 29.23, "light_gaussian": 25.87},
        orin_fps=2.3,
        seed=67,
    ),
}


def build_scene(
    name: str, num_gaussians: int = 0, seed: int = -1
) -> GaussianModel:
    """Instantiate the procedural Gaussian cloud of a registered scene.

    Parameters
    ----------
    name:
        Scene name (``lego``, ``palace``, ``train``, ``truck``, ``playroom``,
        ``drjohnson``).
    num_gaussians:
        Optional override of the simulated Gaussian count (0 keeps the
        registry default).
    seed:
        Optional override of the generation seed (negative keeps the default).
    """
    if name not in SCENE_REGISTRY:
        raise KeyError(
            f"unknown scene {name!r}; available: {sorted(SCENE_REGISTRY)}"
        )
    desc = SCENE_REGISTRY[name]
    return generate_scene(desc.spec(num_gaussians=num_gaussians, seed=seed))


def default_eval_camera(
    name: str, resolution_scale: float = 1.0, view_index: int = 0, num_views: int = 8
) -> Camera:
    """A held-out evaluation camera for a registered scene.

    The camera orbits the scene centre at a radius proportional to the scene
    extent (closer for object scenes, farther for room scenes) at the
    simulated resolution.
    """
    desc = SCENE_REGISTRY[name]
    width, height = desc.sim_resolution
    if resolution_scale != 1.0:
        width = max(16, int(round(width * resolution_scale)))
        height = max(16, int(round(height * resolution_scale)))
    radius = desc.extent * (1.15 if desc.layout == "object" else 0.62)
    center = np.zeros(3)
    if desc.layout == "room":
        center = np.array([0.0, 0.0, 0.08 * desc.extent])
    cameras = orbit_trajectory(
        center=center,
        radius=radius,
        num_views=num_views,
        width=width,
        height=height,
        fov_deg=60.0,
        elevation_deg=22.0,
    )
    return cameras[view_index % num_views]


# ----------------------------------------------------------------------
# Trajectory workloads (camera paths for streaming-video traffic).
# ----------------------------------------------------------------------
def _scene_view_geometry(desc: SceneDescriptor, resolution_scale: float):
    """Shared view geometry of a scene's workloads: resolution, centre, radius."""
    width, height = desc.sim_resolution
    if resolution_scale != 1.0:
        width = max(16, int(round(width * resolution_scale)))
        height = max(16, int(round(height * resolution_scale)))
    radius = desc.extent * (1.15 if desc.layout == "object" else 0.62)
    center = np.zeros(3)
    if desc.layout == "room":
        center = np.array([0.0, 0.0, 0.08 * desc.extent])
    return width, height, center, radius


def _orbit_workload(
    desc: SceneDescriptor, frames: int, resolution_scale: float
) -> List[Camera]:
    """A smooth 90-degree pan around the scene centre."""
    width, height, center, radius = _scene_view_geometry(desc, resolution_scale)
    return orbit_trajectory(
        center=center,
        radius=radius,
        num_views=frames,
        width=width,
        height=height,
        fov_deg=60.0,
        elevation_deg=22.0,
        arc_deg=90.0,
    )


def _walkthrough_workload(
    desc: SceneDescriptor, frames: int, resolution_scale: float
) -> List[Camera]:
    """A straight walk across the scene, looking along the travel direction."""
    width, height, center, radius = _scene_view_geometry(desc, resolution_scale)
    offset = np.array([0.35 * radius, -0.9 * radius, 0.0])
    travel = np.array([0.0, 1.2 * radius, 0.0])
    return walkthrough_trajectory(
        start=center + offset,
        end=center + offset + travel,
        num_views=frames,
        width=width,
        height=height,
        fov_deg=60.0,
        look_ahead=1.0,
    )


def _dolly_workload(
    desc: SceneDescriptor, frames: int, resolution_scale: float
) -> List[Camera]:
    """A push-in dolly shot towards the scene centre."""
    width, height, center, radius = _scene_view_geometry(desc, resolution_scale)
    return dolly_trajectory(
        center=center,
        start_radius=1.25 * radius,
        end_radius=0.8 * radius,
        num_views=frames,
        width=width,
        height=height,
        fov_deg=60.0,
        elevation_deg=22.0,
        azimuth_deg=30.0,
    )


#: Named camera-path workloads available for every registered scene.  Each
#: generator maps ``(descriptor, frames, resolution_scale)`` to a camera
#: list; the trajectory API (:class:`repro.api.spec.TrajectorySpec`, the
#: service ``trajectory`` request kind) resolves path names against this
#: registry.
TRAJECTORY_REGISTRY: Dict[str, object] = {
    "orbit": _orbit_workload,
    "walkthrough": _walkthrough_workload,
    "dolly": _dolly_workload,
}


def trajectory_cameras(
    scene: str, path: str, frames: int, resolution_scale: float = 1.0
) -> List[Camera]:
    """The camera list of a named trajectory workload on a registered scene."""
    if scene not in SCENE_REGISTRY:
        raise KeyError(f"unknown scene {scene!r}; available: {sorted(SCENE_REGISTRY)}")
    if path not in TRAJECTORY_REGISTRY:
        raise KeyError(
            f"unknown trajectory {path!r}; available: {sorted(TRAJECTORY_REGISTRY)}"
        )
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    generator = TRAJECTORY_REGISTRY[path]
    return generator(SCENE_REGISTRY[scene], frames, resolution_scale)
