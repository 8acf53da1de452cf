"""Seeded inputs of the two workloads.

Everything here is a pure function of the seed: camera poses and key
orders come from this module's own generator (``random.Random`` seeded
with a string, which is stable across platforms), never from the program
under test.  Scene geometry and the paper-default voxel sizes are written
out here for the same reason.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

Vec3 = Tuple[float, float, float]


@dataclass(frozen=True)
class SceneView:
    """Where a scene sits and how it is viewed at its simulated resolution."""

    center: Vec3
    radius: float
    width: int
    height: int
    voxel_size: float


#: Viewing geometry of the scenes the workloads fly cameras through:
#: orbit centre and radius, simulated resolution, and the paper's default
#: voxel size (2.0 for real-world scenes, 0.4 for synthetic ones).
SCENES: Dict[str, SceneView] = {
    "lego": SceneView((0.0, 0.0, 0.0), 2.99, 128, 128, 0.4),
    "train": SceneView((0.0, 0.0, 1.92), 14.88, 160, 96, 2.0),
}

#: The six evaluation scenes and three base algorithms of the paper.
ALL_SCENES = ("lego", "palace", "train", "truck", "playroom", "drjohnson")
ALGORITHMS = ("3dgs", "mini_splatting", "light_gaussian")


@dataclass(frozen=True)
class Pose:
    """One camera pose: eye, look-at target and image size."""

    scene: str
    eye: Vec3
    target: Vec3
    width: int
    height: int


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _orbit_pose(scene: str, azimuth: float, elevation: float, radius_scale: float) -> Pose:
    view = SCENES[scene]
    radius = view.radius * radius_scale
    cx, cy, cz = view.center
    eye = (
        cx + radius * math.cos(azimuth) * math.cos(elevation),
        cy + radius * math.sin(azimuth) * math.cos(elevation),
        cz + radius * math.sin(elevation),
    )
    return Pose(scene, eye, view.center, view.width, view.height)


def _arc(rng: random.Random, scene: str, length: int) -> List[Pose]:
    """A smooth camera pan: ``length`` poses along a jittered orbit arc."""
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    step = math.radians(rng.uniform(2.0, 5.0)) * rng.choice((-1.0, 1.0))
    elevation = math.radians(rng.uniform(12.0, 32.0))
    climb = math.radians(rng.uniform(-0.5, 0.5))
    radius_scale = rng.uniform(0.9, 1.1)
    return [
        _orbit_pose(scene, azimuth + i * step, elevation + i * climb, radius_scale)
        for i in range(length)
    ]


# ----------------------------------------------------------------------
# viewer
# ----------------------------------------------------------------------
#: Scenes the viewer walks (one real-world, one synthetic).
VIEWER_SCENES = ("train", "lego")


#: Poses per pan; longer than the renderer's 8-entry frame cache.
VIEWER_PAN = 13
#: Poses per loop and how often a loop is walked.
VIEWER_LOOP, VIEWER_PASSES = 4, 3
#: Frames per round: a pan and a loop on each scene.
VIEWER_ROUND = len(VIEWER_SCENES) * (VIEWER_PAN + VIEWER_LOOP * VIEWER_PASSES)


def viewer_frames(seed: int, rounds: int) -> List[Tuple[Pose, bool]]:
    """The viewer's frame sequence as ``(pose, repeats_a_cached_pose)``.

    Each round renders, in seeded order, one pan and one loop on each
    scene, so every seed gets the same mix of scenes, cache misses and
    hits.  A pan's poses are all new to the frame-preparation cache; a
    loop's later passes revisit its poses.
    """
    rng = _rng(seed, "viewer")
    out: List[Tuple[Pose, bool]] = []
    for _ in range(rounds):
        segments = [(scene, loop) for scene in VIEWER_SCENES for loop in (False, True)]
        rng.shuffle(segments)
        for scene, loop in segments:
            if loop:
                poses = _arc(rng, scene, VIEWER_LOOP)
                out.extend((pose, p > 0) for p in range(VIEWER_PASSES) for pose in poses)
            else:
                out.extend((pose, False) for pose in _arc(rng, scene, VIEWER_PAN))
    return out


def warmup_poses(seed: int) -> List[Pose]:
    """One pose per viewer scene, rendered during set-up."""
    rng = _rng(seed, "viewer-warmup")
    return [_arc(rng, scene, 1)[0] for scene in VIEWER_SCENES]


# ----------------------------------------------------------------------
# cold-start
# ----------------------------------------------------------------------
def cold_start_keys(seed: int) -> List[Tuple[str, str]]:
    """All 18 (scene, algorithm) keys in seeded order."""
    keys = [(scene, algorithm) for scene in ALL_SCENES for algorithm in ALGORITHMS]
    _rng(seed, "cold-start").shuffle(keys)
    return keys


def check_index(seed: int, workload: str, count: int) -> int:
    """Seeded index of the op whose result is re-derived in process."""
    return _rng(seed, f"{workload}-check").randrange(count)
