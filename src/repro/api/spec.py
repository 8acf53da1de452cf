"""Declarative experiment specifications and grid sweeps.

An :class:`ExperimentSpec` names one point of the evaluation space:

    scene x algorithm variant x compression x streaming-config overrides
          x architecture model (with unit-count overrides)

:func:`sweep` expands parameter grids into spec lists; each grid key is
routed automatically to the right layer (a spec axis, a
:class:`~repro.core.config.StreamingConfig` field, or an
:class:`~repro.arch.accelerator.AcceleratorConfig` unit count), which is how
Fig. 12 / Fig. 13-style sensitivity studies are expressed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.arch.accelerator import AcceleratorConfig
from repro.core.config import StreamingConfig
from repro.engine.service import RenderOptions
from repro.gaussians.camera import Camera
from repro.scenes.registry import SCENE_REGISTRY, TRAJECTORY_REGISTRY, SceneDescriptor

#: Spec-level axes a sweep can vary directly.
SPEC_AXES = ("scene", "algorithm", "compression", "arch", "resolution_scale", "tag")

#: Compression of the DRAM second half: vector quantization on or off.
COMPRESSION_MODES = ("vq", "none")

#: Hardware models an experiment point can be evaluated on.
ARCH_MODELS = ("gpu", "gscore", "streaminggs", "wo_cgf", "wo_vq_cgf")

#: Architectures built from :class:`AcceleratorConfig` (accept unit-count
#: overrides and report silicon area).
ACCELERATOR_ARCHS = ("streaminggs", "wo_cgf", "wo_vq_cgf")

_CONFIG_FIELDS = frozenset(f.name for f in dataclass_fields(StreamingConfig))

#: AcceleratorConfig fields sweepable through ``arch_options``; the ablation
#: flags are excluded — select them via ``arch=`` / ``compression=`` instead.
_ARCH_OPTION_FIELDS = frozenset(
    f.name for f in dataclass_fields(AcceleratorConfig)
) - {"use_vq", "use_coarse_filter"}

Overrides = Union[Mapping[str, Any], Tuple[Tuple[str, Any], ...]]


def _freeze(overrides: Overrides, allowed: frozenset, what: str) -> Tuple[Tuple[str, Any], ...]:
    """Normalize an override mapping to a sorted, hashable tuple of pairs."""
    items = dict(overrides)
    unknown = sorted(set(items) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} override(s) {unknown}; allowed: {sorted(allowed)}")
    return tuple(sorted(items.items()))


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative point of the evaluation space.

    Attributes
    ----------
    scene:
        Registered scene name (see :data:`repro.scenes.registry.SCENE_REGISTRY`).
    algorithm:
        Base algorithm variant (``3dgs``, ``mini_splatting``,
        ``light_gaussian``).
    compression:
        ``"vq"`` streams the DRAM second half as codebook indices (the
        paper's default), ``"none"`` disables vector quantization.
    arch:
        Hardware model evaluated on the resulting workload: ``gpu`` (Orin
        NX), ``gscore``, or the streaming accelerator (``streaminggs``,
        ``wo_cgf``, ``wo_vq_cgf`` ablations).
    config:
        :class:`StreamingConfig` field overrides (``voxel_size``,
        ``streaming_kernel``, ``tile_size``, ...).  ``use_vq`` is reserved —
        select it through ``compression`` instead.
    arch_options:
        :class:`AcceleratorConfig` unit-count overrides (``cfus_per_hfu``,
        ``ffus_per_hfu``, ...); only valid for accelerator architectures.
    resolution_scale:
        Scale factor on the simulated evaluation resolution.
    tag:
        Free-form label carried into the result's metadata.
    """

    scene: str = "train"
    algorithm: str = "3dgs"
    compression: str = "vq"
    arch: str = "streaminggs"
    config: Overrides = field(default_factory=tuple)
    arch_options: Overrides = field(default_factory=tuple)
    resolution_scale: float = 1.0
    tag: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", _freeze(self.config, _CONFIG_FIELDS, "StreamingConfig"))
        object.__setattr__(
            self, "arch_options", _freeze(self.arch_options, _ARCH_OPTION_FIELDS, "AcceleratorConfig")
        )
        if self.scene not in SCENE_REGISTRY:
            raise ValueError(f"unknown scene {self.scene!r}; available: {sorted(SCENE_REGISTRY)}")
        from repro.variants.base import list_algorithms

        if self.algorithm not in list_algorithms():
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; available: {list_algorithms()}"
            )
        if self.compression not in COMPRESSION_MODES:
            raise ValueError(
                f"unknown compression {self.compression!r}; available: {list(COMPRESSION_MODES)}"
            )
        if self.arch not in ARCH_MODELS:
            raise ValueError(f"unknown arch {self.arch!r}; available: {list(ARCH_MODELS)}")
        if dict(self.config).get("use_vq") is not None:
            raise ValueError("select VQ through compression=..., not a use_vq config override")
        if self.arch_options and self.arch not in ACCELERATOR_ARCHS:
            raise ValueError(
                f"arch_options only apply to {list(ACCELERATOR_ARCHS)}, not arch={self.arch!r}"
            )
        if self.resolution_scale <= 0:
            raise ValueError(f"resolution_scale must be positive, got {self.resolution_scale}")

    # ------------------------------------------------------------------
    @property
    def config_overrides(self) -> Dict[str, Any]:
        """StreamingConfig overrides as a plain dictionary."""
        return dict(self.config)

    @property
    def arch_overrides(self) -> Dict[str, Any]:
        """AcceleratorConfig overrides as a plain dictionary."""
        return dict(self.arch_options)

    @property
    def descriptor(self) -> SceneDescriptor:
        return SCENE_REGISTRY[self.scene]

    @property
    def label(self) -> str:
        """Short human-readable point label (tag wins when set)."""
        return self.tag or f"{self.scene}/{self.algorithm}/{self.arch}"

    # ------------------------------------------------------------------
    def streaming_config(self) -> StreamingConfig:
        """The resolved :class:`StreamingConfig` of this point.

        Starts from the scene's paper-default voxel size, applies the
        compression axis, then the explicit config overrides.
        """
        base = StreamingConfig(
            voxel_size=self.descriptor.default_voxel_size,
            use_vq=self.compression == "vq",
        )
        overrides = self.config_overrides
        return base.with_options(**overrides) if overrides else base

    def accelerator_config(self) -> AcceleratorConfig:
        """The resolved :class:`AcceleratorConfig` (accelerator archs only)."""
        if self.arch not in ACCELERATOR_ARCHS:
            raise ValueError(f"arch {self.arch!r} is not an accelerator configuration")
        base = AcceleratorConfig.variant(self.arch)
        overrides = self.arch_overrides
        return replace(base, **overrides) if overrides else base

    def with_options(self, **kwargs: Any) -> "ExperimentSpec":
        """A copy with the given spec fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native representation (used in result metadata)."""
        return {
            "scene": self.scene,
            "algorithm": self.algorithm,
            "compression": self.compression,
            "arch": self.arch,
            "config": self.config_overrides,
            "arch_options": self.arch_overrides,
            "resolution_scale": self.resolution_scale,
            "tag": self.tag,
        }

    def canonical_dict(self) -> Dict[str, Any]:
        """The spec reduced to what actually selects its evaluation point.

        Two specs describing the same point must canonicalize identically,
        so this drops overrides that restate a default — a config override
        equal to the resolved base config (scene default voxel size +
        compression axis) or an arch option equal to the arch variant's
        default — and normalizes numeric override values to floats, so
        ``tile_size=8`` and ``tile_size=8.0`` are one point.  ``tag`` is
        kept: it is carried into the result's labels, so differently tagged
        runs are distinct cacheable artifacts.  The result-store hash
        (:func:`repro.api.store.spec_key`) is built on this form.
        """

        def normalize(value: Any) -> Any:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return value
            return float(value)

        base = StreamingConfig(
            voxel_size=self.descriptor.default_voxel_size,
            use_vq=self.compression == "vq",
        )
        config = {
            key: normalize(value)
            for key, value in self.config_overrides.items()
            if getattr(base, key) != value
        }
        arch_options = self.arch_overrides
        if self.arch in ACCELERATOR_ARCHS:
            arch_base = AcceleratorConfig.variant(self.arch)
            arch_options = {
                key: normalize(value)
                for key, value in arch_options.items()
                if getattr(arch_base, key) != value
            }
        return {
            "scene": self.scene,
            "algorithm": self.algorithm,
            "compression": self.compression,
            "arch": self.arch,
            "config": config,
            "arch_options": arch_options,
            "resolution_scale": float(self.resolution_scale),
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from its :meth:`to_dict` form (lossless)."""
        known = {field.name for field in dataclass_fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown spec field(s) {unknown}; allowed: {sorted(known)}")
        return cls(**{key: data[key] for key in data})

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON form; :meth:`from_json` reproduces the spec."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))


def _values_list(key: str, values: Any) -> List[Any]:
    """Normalize one grid axis to a non-empty list of values."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        values = [values]
    values = list(values)
    if not values:
        raise ValueError(f"sweep axis {key!r} has no values")
    return values


def sweep(base: Optional[ExperimentSpec] = None, **grid: Any) -> List[ExperimentSpec]:
    """Expand a parameter grid into a list of :class:`ExperimentSpec`.

    Every keyword is one swept axis; its values may be a sequence or a
    scalar.  Keys are routed automatically:

    * spec axes (``scene``, ``algorithm``, ``compression``, ``arch``,
      ``resolution_scale``, ``tag``) replace the base spec's field;
    * :class:`StreamingConfig` fields (``voxel_size``, ``streaming_kernel``,
      ``tile_size``, ...) become config overrides;
    * :class:`AcceleratorConfig` unit counts (``cfus_per_hfu``,
      ``ffus_per_hfu``, ...) become arch options.

    The expansion is the cartesian product in keyword order (last axis
    fastest), matching nested for-loops.  Each produced spec gets an
    auto-generated ``tag`` naming its swept values (unless ``tag`` itself is
    swept).

    >>> specs = sweep(ExperimentSpec(scene="train"), voxel_size=(1.0, 2.0))
    >>> [s.config_overrides["voxel_size"] for s in specs]
    [1.0, 2.0]
    """
    base = base if base is not None else ExperimentSpec()
    axes: List[Tuple[str, List[Any]]] = []
    for key, values in grid.items():
        if key not in SPEC_AXES and key not in _CONFIG_FIELDS and key not in _ARCH_OPTION_FIELDS:
            raise ValueError(
                f"unknown sweep axis {key!r}; spec axes: {list(SPEC_AXES)}, "
                f"StreamingConfig fields: {sorted(_CONFIG_FIELDS)}, "
                f"AcceleratorConfig fields: {sorted(_ARCH_OPTION_FIELDS)}"
            )
        axes.append((key, _values_list(key, values)))

    specs: List[ExperimentSpec] = []
    for combo in itertools.product(*(values for _, values in axes)):
        updates: Dict[str, Any] = {}
        config = dict(base.config)
        arch_options = dict(base.arch_options)
        for (key, _), value in zip(axes, combo):
            if key in SPEC_AXES:
                updates[key] = value
            elif key in _CONFIG_FIELDS:
                config[key] = value
            else:
                arch_options[key] = value
        if "tag" not in updates:
            point = ", ".join(f"{key}={value}" for (key, _), value in zip(axes, combo))
            if point:
                updates["tag"] = f"{base.tag}: {point}" if base.tag else point
        specs.append(replace(base, config=config, arch_options=arch_options, **updates))
    return specs


# ----------------------------------------------------------------------
# Trajectory specifications.
# ----------------------------------------------------------------------

#: RenderOptions fields adjustable through ``TrajectorySpec.options``;
#: ``resolution_scale`` is reserved — it is a spec axis (it shapes the
#: generated cameras, not just the render call).
_TRAJECTORY_OPTION_FIELDS = frozenset(
    f.name for f in dataclass_fields(RenderOptions)
) - {"resolution_scale"}

#: Keys of one explicit camera pose in a :class:`TrajectorySpec` path.
_POSE_REQUIRED = ("rotation", "translation", "width", "height", "fx", "fy")
_POSE_OPTIONAL = ("near", "far")


def _freeze_pose(pose: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalize one explicit pose (Camera or mapping) to a hashable tuple.

    The frozen form is JSON-native scalars only — rotation as nine floats,
    translation as three — so explicit trajectories stay hashable,
    canonicalizable and wire-expressible exactly like named ones.
    """
    if isinstance(pose, Camera):
        pose = {
            "rotation": pose.rotation.reshape(-1).tolist(),
            "translation": pose.translation.tolist(),
            "width": pose.width,
            "height": pose.height,
            "fx": pose.fx,
            "fy": pose.fy,
            "near": pose.near,
            "far": pose.far,
        }
    items = dict(pose)
    missing = sorted(set(_POSE_REQUIRED) - set(items))
    if missing:
        raise ValueError(f"explicit pose missing field(s) {missing}")
    unknown = sorted(set(items) - set(_POSE_REQUIRED) - set(_POSE_OPTIONAL))
    if unknown:
        raise ValueError(
            f"unknown pose field(s) {unknown}; "
            f"allowed: {sorted(_POSE_REQUIRED + _POSE_OPTIONAL)}"
        )
    rotation = tuple(float(v) for v in items["rotation"])
    if len(rotation) != 9:
        raise ValueError(f"pose rotation must have 9 entries, got {len(rotation)}")
    translation = tuple(float(v) for v in items["translation"])
    if len(translation) != 3:
        raise ValueError(
            f"pose translation must have 3 entries, got {len(translation)}"
        )
    frozen = {
        "rotation": rotation,
        "translation": translation,
        "width": int(items["width"]),
        "height": int(items["height"]),
        "fx": float(items["fx"]),
        "fy": float(items["fy"]),
        "near": float(items.get("near", 0.05)),
        "far": float(items.get("far", 1000.0)),
    }
    return tuple(sorted(frozen.items()))


def _pose_camera(pose: Tuple[Tuple[str, Any], ...]) -> Camera:
    """Rebuild a :class:`Camera` from a frozen pose tuple."""
    import numpy as np

    items = dict(pose)
    return Camera(
        rotation=np.array(items["rotation"], dtype=np.float64).reshape(3, 3),
        translation=np.array(items["translation"], dtype=np.float64),
        width=items["width"],
        height=items["height"],
        fx=items["fx"],
        fy=items["fy"],
        near=items["near"],
        far=items["far"],
    )


def _pose_dict(pose: Tuple[Tuple[str, Any], ...]) -> Dict[str, Any]:
    """JSON-native form of a frozen pose tuple."""
    items = dict(pose)
    return {
        "rotation": list(items["rotation"]),
        "translation": list(items["translation"]),
        "width": items["width"],
        "height": items["height"],
        "fx": items["fx"],
        "fy": items["fy"],
        "near": items["near"],
        "far": items["far"],
    }


@dataclass(frozen=True)
class TrajectorySpec:
    """One declarative trajectory workload: a scene, a camera path, options.

    The trajectory-side sibling of :class:`ExperimentSpec` — same frozen /
    hashable / canonicalizable contract, so trajectory runs are cacheable
    in a :class:`~repro.api.store.ResultStore` and expressible over the
    service wire protocol.

    Attributes
    ----------
    scene:
        Registered scene name.
    path:
        Either a registered trajectory name (``orbit``, ``walkthrough``,
        ``dolly`` — see
        :data:`repro.scenes.registry.TRAJECTORY_REGISTRY`) or an explicit
        pose list (:class:`~repro.gaussians.camera.Camera` objects or pose
        mappings with ``rotation``/``translation``/``width``/``height``/
        ``fx``/``fy`` and optional ``near``/``far``).
    frames:
        Frame count of a named path.  For an explicit pose list the count
        is derived from the list (the field is overwritten to match).
    config:
        :class:`StreamingConfig` field overrides applied on top of the
        trajectory base config, the scene's paper-default voxel size.
    options:
        :class:`~repro.engine.service.RenderOptions` field overrides
        (``tile_workers``).  ``resolution_scale`` is
        reserved — set it on the spec, where it shapes the generated
        cameras.
    resolution_scale:
        Scale factor on the trajectory's camera resolution.
    tag:
        Free-form label carried into result metadata (kept in the
        canonical form: differently tagged runs are distinct artifacts).
    """

    scene: str = "train"
    path: Union[str, Tuple[Tuple[Tuple[str, Any], ...], ...], List[Any]] = "orbit"
    frames: int = 16
    config: Overrides = field(default_factory=tuple)
    options: Overrides = field(default_factory=tuple)
    resolution_scale: float = 1.0
    tag: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "config", _freeze(self.config, _CONFIG_FIELDS, "StreamingConfig")
        )
        object.__setattr__(
            self,
            "options",
            _freeze(self.options, _TRAJECTORY_OPTION_FIELDS, "RenderOptions"),
        )
        if self.scene not in SCENE_REGISTRY:
            raise ValueError(
                f"unknown scene {self.scene!r}; available: {sorted(SCENE_REGISTRY)}"
            )
        if isinstance(self.path, str):
            if self.path not in TRAJECTORY_REGISTRY:
                raise ValueError(
                    f"unknown trajectory {self.path!r}; "
                    f"available: {sorted(TRAJECTORY_REGISTRY)}"
                )
            if self.frames < 1:
                raise ValueError(f"frames must be >= 1, got {self.frames}")
        else:
            poses = tuple(_freeze_pose(pose) for pose in self.path)
            if not poses:
                raise ValueError("explicit trajectory path has no poses")
            object.__setattr__(self, "path", poses)
            object.__setattr__(self, "frames", len(poses))
        if self.resolution_scale <= 0:
            raise ValueError(
                f"resolution_scale must be positive, got {self.resolution_scale}"
            )
        # Instantiate eagerly so invalid option values fail at spec
        # construction, not at render time.
        self.render_options()

    # ------------------------------------------------------------------
    @property
    def config_overrides(self) -> Dict[str, Any]:
        """StreamingConfig overrides as a plain dictionary."""
        return dict(self.config)

    @property
    def option_overrides(self) -> Dict[str, Any]:
        """RenderOptions overrides as a plain dictionary."""
        return dict(self.options)

    @property
    def descriptor(self) -> SceneDescriptor:
        return SCENE_REGISTRY[self.scene]

    @property
    def path_name(self) -> str:
        """The path's display name (``custom`` for explicit pose lists)."""
        return self.path if isinstance(self.path, str) else "custom"

    @property
    def label(self) -> str:
        """Short human-readable label (tag wins when set)."""
        return self.tag or f"{self.scene}/{self.path_name}x{self.frames}"

    # ------------------------------------------------------------------
    def _base_config(self) -> StreamingConfig:
        return StreamingConfig(voxel_size=self.descriptor.default_voxel_size)

    def streaming_config(self) -> StreamingConfig:
        """The resolved :class:`StreamingConfig` of this trajectory.

        Starts from the scene's paper-default voxel size, then applies the
        explicit config overrides.
        """
        overrides = self.config_overrides
        base = self._base_config()
        return base.with_options(**overrides) if overrides else base

    def render_options(self) -> RenderOptions:
        """The resolved :class:`~repro.engine.service.RenderOptions`.

        ``resolution_scale`` stays ``1.0`` here: the spec applies it while
        generating the cameras (:meth:`cameras`), so the render path never
        scales twice.
        """
        return RenderOptions(**self.option_overrides)

    def cameras(self) -> List[Camera]:
        """The trajectory's camera list at the spec's resolution scale."""
        if isinstance(self.path, str):
            from repro.scenes.registry import trajectory_cameras

            return trajectory_cameras(
                self.scene,
                self.path,
                self.frames,
                resolution_scale=self.resolution_scale,
            )
        cameras = [_pose_camera(pose) for pose in self.path]
        if self.resolution_scale != 1.0:
            cameras = [camera.scaled(self.resolution_scale) for camera in cameras]
        return cameras

    def with_options(self, **kwargs: Any) -> "TrajectorySpec":
        """A copy with the given spec fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-native representation (used in result metadata / the wire)."""
        path: Any = (
            self.path
            if isinstance(self.path, str)
            else [_pose_dict(pose) for pose in self.path]
        )
        return {
            "scene": self.scene,
            "path": path,
            "frames": self.frames,
            "config": self.config_overrides,
            "options": self.option_overrides,
            "resolution_scale": self.resolution_scale,
            "tag": self.tag,
        }

    def canonical_dict(self) -> Dict[str, Any]:
        """The spec reduced to what actually selects its workload.

        Mirrors :meth:`ExperimentSpec.canonical_dict`: config overrides
        that restate the trajectory base config (scene default voxel size)
        and option overrides that restate the
        :class:`RenderOptions` defaults are dropped, numeric values are
        normalized to floats, and ``tag`` is kept.  The result-store hash
        (:func:`repro.api.store.spec_key`) is built on this form.
        """

        def normalize(value: Any) -> Any:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return value
            return float(value)

        base = self._base_config()
        config = {
            key: normalize(value)
            for key, value in self.config_overrides.items()
            if getattr(base, key) != value
        }
        defaults = RenderOptions()
        options = {
            key: normalize(value)
            for key, value in self.option_overrides.items()
            if getattr(defaults, key) != value
        }
        path: Any = (
            self.path
            if isinstance(self.path, str)
            else [_pose_dict(pose) for pose in self.path]
        )
        return {
            "scene": self.scene,
            "path": path,
            "frames": int(self.frames),
            "config": config,
            "options": options,
            "resolution_scale": float(self.resolution_scale),
            "tag": self.tag,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrajectorySpec":
        """Rebuild a spec from its :meth:`to_dict` form (lossless)."""
        known = {field.name for field in dataclass_fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown trajectory field(s) {unknown}; allowed: {sorted(known)}"
            )
        return cls(**{key: data[key] for key in data})

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON form; :meth:`from_json` reproduces the spec."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrajectorySpec":
        return cls.from_dict(json.loads(text))
