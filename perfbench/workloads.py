"""The two workloads: set-up, timed windows and output checks.

* ``viewer`` — in-process closed loop of single-frame
  ``Session.render(scene, camera)`` calls over seeded camera paths of
  ``train`` and ``lego`` at full simulated resolution;
* ``cold-start`` — closed loop over one connection to an embedded daemon,
  one ``render`` request per (scene, algorithm) key, every key new.

Every run does a fixed amount of work sized from ``--seconds`` by a
nominal cost (``viewer``: frames; ``cold-start``: at least two passes
over all 18 keys, each on a freshly booted daemon), so two runs of one
seed do the same thing however fast the host is at the moment.  ``repro`` is
imported inside the functions here (NumPy too): ``run.py`` times that
import as set-up.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import inputs
from perfbench.layers import OP_TARGET
from perfbench.tracer import Tracer

clock = time.perf_counter

#: Set-ups per run (the import happens once); ``setup_s`` is the import
#: plus the median of the rest.
SETUP_REPEATS = 3
#: Tolerance of the reference-kernel image check.
IMAGE_ATOL = 1e-9


@dataclass
class Op:
    """One timed op, from its call to its response."""

    kind: str
    start: float
    end: float
    ok: bool

    @property
    def latency(self) -> float:
        return self.end - self.start if self.ok else math.inf


@dataclass
class Outcome:
    """Everything a workload reports back to ``run.py``."""

    ops: List[Op] = field(default_factory=list)
    #: ``(start, end)`` of each timed window (one per pass).
    windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Set-up samples: dicts of ``import_s``, ``boot_s``, ``warm_s``.
    setups: List[Dict[str, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Output-check failures (empty when every output matched).
    failures: List[str] = field(default_factory=list)
    #: Counts that must repeat exactly for a seed, for the drift ledger.
    counts: Dict[str, Any] = field(default_factory=dict)
    #: The program's own counters summed over the windows (and gauges at
    #: the end of the last one).
    probe: Dict[str, float] = field(default_factory=dict)
    #: Hook counters gathered inside the windows (traced run only).
    trace_counts: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def image_sha(image: Any) -> str:
    """Content hash of a rendered image, as the service reports it."""
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(image).tobytes()).hexdigest()[:16]


def _camera(pose: inputs.Pose):
    from repro import Camera

    return Camera.from_lookat(pose.eye, pose.target, pose.width, pose.height, fov_deg=60.0)


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    start = clock()
    value = fn()
    return value, clock() - start


def _op_call(tracer: Optional[Tracer], fn: Callable[[], Any]) -> Any:
    return tracer.wrap(fn, OP_TARGET)() if tracer is not None else fn()


def stats_mismatch(a: Any, b: Any) -> Optional[str]:
    """First field where two ``StreamingStats`` differ, or ``None``.

    Every field must be exactly equal, except float arrays, which must
    agree within ``IMAGE_ATOL``.
    """
    import numpy as np

    for f in fields(a):
        left, right = getattr(a, f.name), getattr(b, f.name)
        if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
            if left is None or right is None or not np.allclose(left, right, rtol=0.0, atol=IMAGE_ATOL):
                return f.name
        elif left != right:
            return f.name
    return None


# ----------------------------------------------------------------------
# viewer
# ----------------------------------------------------------------------
#: Nominal seconds per viewer frame (sizes the run from ``--seconds``).
VIEWER_FRAME_S = 0.3


class Viewer:
    name = "viewer"
    imports = ("repro",)
    passes = 1

    def __init__(self, seed: int, seconds: float) -> None:
        from repro import StreamingConfig

        self.seed = seed
        frames = max(100, seconds / VIEWER_FRAME_S)
        self.frames = inputs.viewer_frames(seed, math.ceil(frames / inputs.VIEWER_ROUND))
        self.configs = {
            scene: StreamingConfig(voxel_size=inputs.SCENES[scene].voxel_size)
            for scene in inputs.VIEWER_SCENES
        }

    def setup(self):
        """Session, renderer and VQ builds, one warm-up frame per scene."""
        from repro import Session

        session, boot_s = _timed(Session)

        def warm():
            for pose in inputs.warmup_poses(self.seed):
                session.render(pose.scene, _camera(pose), config=self.configs[pose.scene])

        _, warm_s = _timed(warm)
        return session, {"boot_s": boot_s, "warm_s": warm_s}

    def teardown(self, session) -> None:
        session.close()

    def probe(self, session) -> Dict[str, float]:
        service = session.service.stats()
        return {
            "renderer_hits": service["renderer_hits"],
            "renderer_misses": service["renderer_misses"],
            "renderers_alive": service["renderers_alive"],
            "contexts_alive": session.stats()["contexts_alive"],
            "contexts_built": session.context_misses,
        }

    def window(self, session, tracer: Optional[Tracer], outcome: Outcome) -> None:
        cameras = [_camera(pose) for pose, _ in self.frames]
        sampled = set()
        for scene in inputs.VIEWER_SCENES:
            indices = [i for i, (pose, _) in enumerate(self.frames) if pose.scene == scene]
            sampled.add(indices[inputs.check_index(self.seed, f"viewer-{scene}", len(indices))])
        self.sampled = {}
        totals = {"gaussians_streamed": 0, "fragments_blended": 0, "dram_bytes_modelled": 0}
        for i, ((pose, _), camera) in enumerate(zip(self.frames, cameras)):
            config = self.configs[pose.scene]
            start = clock()
            response = _op_call(tracer, lambda: session.render(pose.scene, camera, config=config))
            end = clock()
            outcome.ops.append(Op("frame", start, end, True))
            stats = response.output.stats
            totals["gaussians_streamed"] += stats.gaussians_streamed
            totals["fragments_blended"] += stats.blended_fragments
            totals["dram_bytes_modelled"] += stats.traffic.total_bytes
            if i in sampled:
                self.sampled[i] = (pose, camera, response.output)
        outcome.counts.update(totals)

    def check(self, session, outcome: Outcome) -> None:
        """Re-render one sampled frame per scene through the reference kernel."""
        import numpy as np
        from repro import StreamingRenderer

        for i, (pose, camera, output) in sorted(self.sampled.items()):
            config = self.configs[pose.scene]
            model = session.scene_model(pose.scene)
            live = session.streaming_renderer(model, config)
            reference = StreamingRenderer(
                model, config.with_options(streaming_kernel="reference"), quantizer=live.quantizer
            ).render(camera)
            delta = float(np.max(np.abs(reference.image - output.image)))
            if not delta <= IMAGE_ATOL:
                outcome.failures.append(f"viewer frame {i} ({pose.scene}): image differs by {delta:.3g}")
            field_name = stats_mismatch(reference.stats, output.stats)
            if field_name is not None:
                outcome.failures.append(
                    f"viewer frame {i} ({pose.scene}): StreamingStats.{field_name} differs"
                )
        outcome.notes.append(f"reference kernel re-rendered frames {sorted(self.sampled)}")


# ----------------------------------------------------------------------
# cold-start
# ----------------------------------------------------------------------
#: Resolution scale of the cold-start renders.
COLD_SCALE = 0.5
#: Nominal seconds of one pass over the 18 keys (sizes the run from
#: ``--seconds``).
COLD_PASS_S = 28.0
#: Passes a run makes at least: a pass cannot be cut short, and every
#: key's result is compared across passes.
COLD_MIN_PASSES = 2


class ColdStart:
    """Passes over every key, each on a daemon booted for it.

    A daemon owns its render service and its actors' sessions, and the
    program keeps no process-wide cache, so every pass builds every scene
    context, renderer and codebook again.
    """

    name = "cold-start"
    imports = ("repro", "repro.service")

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.keys = inputs.cold_start_keys(seed)
        self.passes = max(COLD_MIN_PASSES, round(seconds / COLD_PASS_S))
        self.results: Dict[Tuple[str, str], Dict[str, Any]] = {}

    def setup(self):
        """Daemon boot with default ``ServiceConfig``, one connection."""
        from repro.service import ServiceClient, ServiceConfig, ServiceDaemon

        def boot():
            handle = ServiceDaemon(ServiceConfig(port=0)).start_in_thread()
            conn = ServiceClient.connect(handle.address, client="client-0", timeout=300.0)
            conn.ping()
            return handle, conn

        state, boot_s = _timed(boot)
        return state, {"boot_s": boot_s, "warm_s": 0.0}

    def teardown(self, state) -> None:
        handle, conn = state
        conn.close()
        handle.stop(drain=True)
        handle.join(timeout=60.0)

    def probe(self, state) -> Dict[str, float]:
        daemon = state[0].daemon
        engine = daemon.service.stats()
        sessions = [actor.session for actor in daemon.actors if actor.session is not None]
        return {
            "renderer_hits": engine["renderer_hits"],
            "renderer_misses": engine["renderer_misses"],
            "renderers_alive": engine["renderers_alive"],
            "contexts_alive": sum(s.stats()["contexts_alive"] for s in sessions),
            "contexts_built": sum(s.context_misses for s in sessions),
            "rejected": daemon.metrics["rejected"] + daemon.metrics["breaker_rejected"],
            "degraded": daemon.metrics["degraded"],
            "retried": daemon.supervisor.retried,
        }

    def window(self, state, tracer: Optional[Tracer], outcome: Outcome) -> None:
        _, conn = state
        for key in self.keys:
            scene, algorithm = key
            start = clock()
            response = _op_call(
                tracer, lambda: conn.render(scene, algorithm=algorithm, resolution_scale=COLD_SCALE)
            )
            end = clock()
            outcome.ops.append(Op("render", start, end, response.ok))
            if not response.ok:
                outcome.failures.append(f"render {scene}/{algorithm}: [{response.code}] {response.error}")
                continue
            # Everything but the telemetry (which holds timings) must
            # repeat exactly on every pass.
            result = {k: v for k, v in response.result.items() if k != "telemetry"}
            if self.results.setdefault(key, result) != result:
                outcome.failures.append(f"render {scene}/{algorithm}: result differs between passes")
        outcome.counts["images"] = {
            f"{scene}/{algorithm}": result.get("image_sha256")
            for (scene, algorithm), result in sorted(self.results.items())
        }

    def check(self, state, outcome: Outcome) -> None:
        """One seeded key's result against an in-process evaluation."""
        from repro import Session

        key = self.keys[inputs.check_index(self.seed, self.name, len(self.keys))]
        scene, algorithm = key
        result = self.results[key]
        with Session() as session:
            context = session.context(scene, algorithm=algorithm, resolution_scale=COLD_SCALE)
        expected = {
            "baseline_psnr": float(context.baseline_psnr),
            "streaming_psnr": float(context.streaming_psnr),
            "image_sha256": image_sha(context.streaming_output.image),
            "width": int(context.streaming_output.image.shape[1]),
            "height": int(context.streaming_output.image.shape[0]),
        }
        for name, value in expected.items():
            if result.get(name) != value:
                outcome.failures.append(
                    f"render {scene}/{algorithm}: {name} {result.get(name)!r} != in-process {value!r}"
                )
        outcome.notes.append(f"in-process check of render {scene}/{algorithm}")


WORKLOADS = {cls.name: cls for cls in (Viewer, ColdStart)}

#: Probe keys that are gauges (read at the end of the last window); the
#: rest are counters, summed over the windows.
GAUGES = ("renderers_alive", "contexts_alive")


def run_workload(
    name: str, seed: int, seconds: float, tracer: Optional[Tracer], import_s: float
) -> Outcome:
    """Set up, run each pass's timed window, check outputs.

    Every pass gets its own set-up; extra set-ups, each torn down at once,
    bring the set-up samples to at least ``SETUP_REPEATS``.  The outputs
    are checked after the last window, before its state is torn down.
    """
    workload = WORKLOADS[name](seed, seconds)
    outcome = Outcome()

    def setup():
        state, timings = workload.setup()
        outcome.setups.append(dict(timings, import_s=import_s))
        return state

    def teardown(state) -> None:
        workload.teardown(state)
        gc.collect()

    for _ in range(SETUP_REPEATS - workload.passes):
        teardown(setup())
    for index in range(workload.passes):
        state = setup()
        try:
            before = workload.probe(state)
            counts_before = dict(tracer.counts) if tracer is not None else {}
            first = len(outcome.ops)
            workload.window(state, tracer, outcome)
            outcome.windows.append((outcome.ops[first].start, outcome.ops[-1].end))
            after = workload.probe(state)
            for key, value in after.items():
                if key in GAUGES:
                    outcome.probe[key] = value
                else:
                    outcome.probe[key] = outcome.probe.get(key, 0) + value - before[key]
            if tracer is not None:
                for key, value in tracer.counts.items():
                    delta = value - counts_before.get(key, 0)
                    outcome.trace_counts[key] = outcome.trace_counts.get(key, 0) + delta
            if index == workload.passes - 1:
                outcome.peak_rss_mb = peak_rss_mb()
                if not outcome.failures:
                    workload.check(state, outcome)
        finally:
            teardown(state)
    outcome.counts["renderer_builds"] = outcome.probe["renderer_misses"]
    outcome.counts["contexts_built_in_window"] = outcome.probe["contexts_built"]
    outcome.counts["ops"] = len(outcome.ops)
    return outcome


def setup_summary(setups: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Median set-up time and its parts over the repeated set-ups."""
    totals = [s["import_s"] + s["boot_s"] + s["warm_s"] for s in setups]
    return {
        "setup_s": statistics.median(totals),
        "import_s": statistics.median([s["import_s"] for s in setups]),
        "boot_s": statistics.median([s["boot_s"] for s in setups]),
        "warm_s": statistics.median([s["warm_s"] for s in setups]),
    }
