"""Fleet-scale cost rollup over per-frame architecture figures.

The paper characterises one device (Fig. 2's traffic breakdown, Fig. 4's
bandwidth-vs-fps requirement).  A render fleet serves many request classes
at once — different scenes, resolutions and compression settings — so the
datacenter-scale question is the *sum over classes* of per-frame cost
times offered frame rate.  This module performs that rollup: each
:class:`ClassCost` scales one class's per-frame figures (frame time,
energy, DRAM bytes) by the frames it was served over an observation
window, and :func:`fleet_rollup` aggregates classes into fleet totals —
aggregate bandwidth demand, mean power, and the number of devices /
DRAM channels needed to sustain the offered load.

All rates are derived from an explicit observation window rather than an
assumed steady state, so the rollup composes directly with the trace
replay in :mod:`repro.fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

from repro.arch.dram import LPDDR3_4CH

#: Sustained bytes/s of one LPDDR3 channel — the granularity Fig. 4's
#: bandwidth requirements are provisioned in.
BYTES_PER_DRAM_CHANNEL = LPDDR3_4CH.sustained_bandwidth_bytes / LPDDR3_4CH.channels


@dataclass(frozen=True)
class ClassCost:
    """One request class's cost over an observation window."""

    name: str
    frames: float
    window_s: float
    frame_time_s: float
    energy_per_frame_j: float
    dram_bytes_per_frame: float

    def __post_init__(self) -> None:
        if self.frames < 0:
            raise ValueError("frames must be non-negative")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")

    @property
    def offered_fps(self) -> float:
        """Frame rate this class demanded over the window."""
        return self.frames / self.window_s

    @property
    def dram_bytes_total(self) -> float:
        return self.frames * self.dram_bytes_per_frame

    @property
    def required_bandwidth_bytes(self) -> float:
        """Sustained bytes/s needed to serve this class (Fig. 4 axis)."""
        return self.dram_bytes_per_frame * self.offered_fps

    @property
    def energy_j(self) -> float:
        return self.frames * self.energy_per_frame_j

    @property
    def mean_power_w(self) -> float:
        return self.energy_j / self.window_s

    @property
    def device_seconds(self) -> float:
        """Accelerator busy time consumed rendering this class's frames."""
        return self.frames * self.frame_time_s

    @property
    def devices_required(self) -> float:
        """Accelerators needed to sustain the offered rate (utilisation 1)."""
        return self.device_seconds / self.window_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "frames": float(self.frames),
            "window_s": float(self.window_s),
            "offered_fps": self.offered_fps,
            "frame_time_ms": self.frame_time_s * 1e3,
            "energy_per_frame_mj": self.energy_per_frame_j * 1e3,
            "dram_mb_per_frame": self.dram_bytes_per_frame / 1e6,
            "dram_gb_total": self.dram_bytes_total / 1e9,
            "required_bandwidth_gbs": self.required_bandwidth_bytes / 1e9,
            "energy_j": self.energy_j,
            "mean_power_w": self.mean_power_w,
            "devices_required": self.devices_required,
        }


def class_cost_from_metrics(
    name: str, metrics: Mapping[str, float], frames: float, window_s: float
) -> ClassCost:
    """Roll up from a session result's metrics dict (run_point units)."""
    return ClassCost(
        name=name,
        frames=frames,
        window_s=window_s,
        frame_time_s=float(metrics["frame_time_ms"]) * 1e-3,
        energy_per_frame_j=float(metrics["energy_per_frame_mj"]) * 1e-3,
        dram_bytes_per_frame=float(metrics["dram_mb_per_frame"]) * 1e6,
    )


@dataclass(frozen=True)
class FleetCost:
    """Fleet totals over all request classes."""

    classes: Tuple[ClassCost, ...]

    @property
    def window_s(self) -> float:
        return max((c.window_s for c in self.classes), default=0.0)

    @property
    def frames(self) -> float:
        return sum(c.frames for c in self.classes)

    @property
    def offered_fps(self) -> float:
        return sum(c.offered_fps for c in self.classes)

    @property
    def dram_bytes_total(self) -> float:
        return sum(c.dram_bytes_total for c in self.classes)

    @property
    def required_bandwidth_bytes(self) -> float:
        return sum(c.required_bandwidth_bytes for c in self.classes)

    @property
    def energy_j(self) -> float:
        return sum(c.energy_j for c in self.classes)

    @property
    def mean_power_w(self) -> float:
        return sum(c.mean_power_w for c in self.classes)

    @property
    def devices_required(self) -> float:
        return sum(c.devices_required for c in self.classes)

    @property
    def dram_channels_required(self) -> float:
        """LPDDR3 channels needed fleet-wide for the aggregate bandwidth."""
        return self.required_bandwidth_bytes / BYTES_PER_DRAM_CHANNEL

    def as_dict(self) -> Dict[str, object]:
        return {
            "classes": [c.as_dict() for c in self.classes],
            "frames": float(self.frames),
            "window_s": float(self.window_s),
            "offered_fps": self.offered_fps,
            "dram_gb_total": self.dram_bytes_total / 1e9,
            "required_bandwidth_gbs": self.required_bandwidth_bytes / 1e9,
            "energy_j": self.energy_j,
            "mean_power_w": self.mean_power_w,
            "devices_required": self.devices_required,
            "dram_channels_required": self.dram_channels_required,
        }


def fleet_rollup(costs: Iterable[ClassCost]) -> FleetCost:
    """Aggregate per-class costs into fleet totals (sorted by name)."""
    ordered = tuple(sorted(costs, key=lambda c: c.name))
    return FleetCost(classes=ordered)
