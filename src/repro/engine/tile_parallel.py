"""Process-parallel frames on warm tile workers.

A frame renders on ``N`` processes: the renderer cuts its column blocks
(:func:`~repro.engine.kernels.column_blocks`) into ``N`` contiguous runs
of whole blocks, the calling process renders the first run and ``N - 1``
tile workers render the others.  Each process prepares its own run — ray
traversal, voxel order and header accounting of the run's tiles only
(:meth:`StreamingRenderer.prepare_frame` with ``tiles``) — and then
filters, blends and accounts it.  A tile's preparation depends only on
its own rays and every block blends identically whatever else its
process renders; a worker records its run's per-Gaussian weight
additions (:class:`~repro.engine.state.WeightLog`) and the caller makes
them after its own run, in the order one process would have.  So images,
alpha and every statistic, weights included, equal a one-process frame
bit for bit, whatever ``N`` is and wherever the runs are cut.

The runs are cut by cost, not by count (:func:`cost_cut`).  Every frame,
one-process frames included, measures each block's cost: its blend time
plus its run's other time spread over the run's blocks
(:meth:`StreamingRenderer._render_run`); workers return theirs in their
telemetry.  The blend walks neighbouring blocks in shared steps, so a
block's blend time is its share of each step's wall time, in proportion
to the (Gaussian, lane) elements it evaluated there
(``StreamingBlend.block_seconds``); which blocks share a step moves the
shares, never what a block blends.  The renderer's next parallel frame
cuts where those costs split evenly, with the calling process also
charged its last dispatch time.  A renderer with no costs for the frame's
blocks gets equally many blocks per run, and a pose rendered lately keeps
the cut of its first visit, because the runs key the run preparations in
the callers' and the workers' frame caches (:class:`_CutMemory`).
``telemetry["tile_cut"]`` gives the blocks per run and
``telemetry["tile_cut_source"]`` where the cut came from.

``tile_workers=N`` asks for ``N`` (capped by the frame's blocks);
``tile_workers=None``, the default of :class:`StreamingRenderer.render`
(and so of every session and service frame), lets
:func:`auto_tile_workers` choose from what it can see: one process per CPU
(:func:`available_cpus`) and per :data:`AUTO_PIXELS_PER_PROCESS` pixels,
but one process for a renderer's first frame (a renderer that renders
once — a context build, a fine-tuning probe — never pays to travel), off
the main thread (daemon actors and other threads already render
concurrently) and in a daemonic process (a pool worker cannot fork).

Tile workers are forked processes with one pipe each, started by the
first parallel frame and kept for the life of the process.  No shared
memory is involved; what travels is:

* **once per renderer and worker**: the renderer, pickled without the
  entries of its frame cache, with the first frame that needs it there
  (``telemetry["shipped_bytes"]``).  The worker keeps it, with a frame
  cache of its own, until :func:`release_renderers` drops it — the owning
  :class:`~repro.engine.service.RenderService` calls it when it evicts the
  renderer or closes — or the renderer is garbage-collected;
* **per frame, to each worker**: the camera, the tile rectangles and the
  worker's run (``request_bytes`` in the worker's telemetry);
* **per frame, back**: the run's pixels, its ``StreamingStats`` (summed
  counters and sort lengths), its weight logs and blend pair counts, by
  value.  The frame absorbs the runs in run order, which is tile order.

Each worker also reports its ``stages_s``, its run's ``block_costs_s``,
CPU seconds, peak RSS and whether the renderer travelled with the frame
(``telemetry["workers"]``).
A worker that cannot be started or fails mid-frame (killed, broken pipe)
is discarded and its run renders in the calling process, with
``telemetry["tile_mode_degraded"]`` saying why; the next parallel frame
starts a fresh worker.  So is a worker whose exchange the caller cut
short (an interrupt mid-request), whose pipe may hold half a request or
an unread reply.
"""

from __future__ import annotations

import atexit
import collections
import copy
import io
import itertools
import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time
import weakref
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.cache import FrameCache
from repro.engine.state import WeightLog

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle)
    from repro.core.pipeline import Bounds, StreamingRenderer, StreamingStats

#: Seconds an idle worker waits on its pipe before checking that the
#: process that started it is still alive.
PARENT_CHECK_S = 1.0

#: Fewest pixels each process gets when ``tile_workers=None`` chooses the
#: process count.  It is not where a second process stops paying (on a
#: 2-CPU host two processes won 1.30-1.33x even at 32x24, 384 pixels a
#: process, the smallest frame that splits); it keeps a worker, about
#: 36 MB of private memory on the viewer scenes, from being spent on
#: frames that save a few milliseconds, and bounds the process count on
#: many-CPU hosts.
AUTO_PIXELS_PER_PROCESS = 1024

#: The ``time.monotonic()`` stamp a worker appends to each reply: when its
#: pickle was done.  Every process on a host reads the same clock.
_STAMP = struct.Struct("<d")


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def _run_mask(
    shape: Tuple[int, int], tile_bounds: Sequence["Bounds"], blocks: np.ndarray
) -> np.ndarray:
    """The pixels of a run's tiles, as a boolean ``(height, width)`` mask."""
    mask = np.zeros(shape, dtype=bool)
    for x0, y0, x1, y1 in tile_bounds[int(blocks[0]) : int(blocks[-1])]:
        mask[y0:y1, x0:x1] = True
    return mask


def _peak_rss_mb() -> float:
    try:
        import resource
    except ImportError:  # pragma: no cover - platforms without getrusage
        return 0.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------
def _render_run(
    renderer: "StreamingRenderer",
    camera,
    tile_bounds: Sequence["Bounds"],
    blocks: np.ndarray,
) -> Dict[str, object]:
    """Prepare, render and account one run; return it by value.

    The run's per-Gaussian weight additions come back as logs, for the
    caller to replay onto its weights after its own run.
    """
    from repro.core.pipeline import StreamingStats

    cpu_started = time.process_time()
    shape = (camera.height, camera.width)
    image = np.zeros(shape + (3,), dtype=np.float64)
    alpha_img = np.zeros(shape, dtype=np.float64)
    stats = StreamingStats()
    logs = (WeightLog(len(renderer.source_model)), WeightLog(len(renderer.source_model)))
    stats.gaussian_blend_weight, stats.gaussian_violation_weight = logs
    stages: Dict[str, float] = {}
    pairs = {"offered": 0, "kept": 0}
    costs = renderer._render_run(
        camera, tile_bounds, blocks, image, alpha_img, stats, stages, pairs
    )
    stats.gaussian_blend_weight = stats.gaussian_violation_weight = None
    mask = _run_mask(shape, tile_bounds, blocks)
    return {
        "pixels": image[mask],
        "alpha": alpha_img[mask],
        "stats": stats,
        "weights": logs,
        "pairs": pairs,
        "telemetry": {
            "stages_s": stages,
            "block_costs_s": costs.tolist(),
            "cpu_s": time.process_time() - cpu_started,
            "peak_rss_mb": _peak_rss_mb(),
        },
    }


def _serve(conn, parent_pid: int) -> None:
    """A tile worker's loop: serve requests until its pipe closes or it is orphaned.

    Requests are pickled tuples: ``("frame", token, payload, camera,
    tile_bounds, blocks)`` renders a run (``payload``, when not ``None``,
    is the pickled renderer of ``token``), ``("drop", tokens)`` forgets
    renderers and ``("held",)`` lists the renderers held.
    """
    # Interrupts are the caller's to handle; the worker ends with it.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    renderers: Dict[int, "StreamingRenderer"] = {}
    while True:
        try:
            while not conn.poll(PARENT_CHECK_S):
                if os.getppid() != parent_pid:
                    return
            request = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        kind = request[0]
        if kind == "drop":
            for token in request[1]:
                renderers.pop(token, None)
            continue
        read_at = time.monotonic()
        if kind == "held":
            reply: object = sorted(renderers)
        else:
            _, token, payload, camera, tile_bounds, blocks = request
            try:
                if payload is not None:
                    renderers[token] = pickle.loads(payload)
                reply = _render_run(renderers[token], camera, tile_bounds, blocks)
                reply["telemetry"].update(
                    shipped=payload is not None,
                    read_at=read_at,
                    rendered_at=time.monotonic(),
                )
            except Exception as error:  # reported; the caller renders the run
                reply = {"error": f"{type(error).__name__}: {error}"}
        # The reply, then when its pickle was done (see ``_TileWorker.receive``).
        buffer = io.BytesIO()
        pickle.dump(reply, buffer, protocol=pickle.HIGHEST_PROTOCOL)
        buffer.write(_STAMP.pack(time.monotonic()))
        conn.send_bytes(buffer.getbuffer())


# ----------------------------------------------------------------------
# Caller side: the workers and the renderers they hold.
# ----------------------------------------------------------------------
def _mp_context():
    """Fork when available (cheap, copy-on-write), platform default otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class _TileWorker:
    """One tile worker process and the caller's end of its pipe."""

    def __init__(self) -> None:
        context = _mp_context()
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(child, os.getpid()), name="repro-tile-worker", daemon=True
        )
        try:
            self.process.start()
        finally:
            child.close()
        #: Tokens of the renderers this worker holds.
        self.held: Set[int] = set()

    def send(self, request: tuple) -> int:
        """Send one request; returns its pickled size in bytes."""
        data = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
        self.conn.send_bytes(data)
        return len(data)

    def receive(self) -> Tuple[object, int, float]:
        """The next reply, its size in bytes and when the worker had pickled it.

        The worker appends a ``time.monotonic()`` stamp to every reply.
        """
        data = memoryview(self.conn.recv_bytes())
        (pickled_at,) = _STAMP.unpack(data[-_STAMP.size :])
        return pickle.loads(data[: -_STAMP.size]), len(data), pickled_at

    def close(self) -> None:
        """End the worker for good."""
        self.conn.close()
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)


_LOCK = threading.Lock()
_WORKERS: List[_TileWorker] = []
#: Renderer -> token naming it in the workers.
_TOKENS: "weakref.WeakKeyDictionary[StreamingRenderer, int]" = weakref.WeakKeyDictionary()
_NEXT_TOKEN = itertools.count(1)
#: Tokens of released or collected renderers the workers still hold.
_RELEASED: "collections.deque[int]" = collections.deque()

#: Failures of a worker's pipe or process: its run renders here instead.
_WORKER_FAILURES = (OSError, EOFError, pickle.PickleError)


def _token(renderer: "StreamingRenderer") -> int:
    token = _TOKENS.get(renderer)
    if token is None:
        token = _TOKENS[renderer] = next(_NEXT_TOKEN)
        finalizer = weakref.finalize(renderer, _RELEASED.append, token)
        finalizer.atexit = False
    return token


def _discard(worker: _TileWorker) -> None:
    if worker in _WORKERS:
        _WORKERS.remove(worker)
    try:
        worker.close()
    except OSError:
        pass


def _exchange(worker: _TileWorker, request: tuple, reply: bool) -> object:
    """Send ``request`` (and read its reply when ``reply``), lock held.

    A worker whose exchange fails or is cut short may hold half a request
    or an unread reply, so it is discarded before the error propagates.
    """
    try:
        worker.send(request)
        return worker.receive()[0] if reply else None
    except BaseException:
        _discard(worker)
        raise


def _flush_released() -> None:
    """Tell the workers to drop every released renderer (lock held)."""
    tokens: Set[int] = set()
    while _RELEASED:
        tokens.add(_RELEASED.popleft())
    for worker in list(_WORKERS):
        dropped = worker.held & tokens
        if not dropped:
            continue
        worker.held -= dropped
        try:
            _exchange(worker, ("drop", sorted(dropped)), reply=False)
        except _WORKER_FAILURES:
            pass


def release_renderers(renderers: Iterable["StreamingRenderer"]) -> None:
    """Drop renderers from every tile worker (their owner let go of them).

    The workers are told at once unless a frame is using them; then the
    next frame tells them.  A renderer used again afterwards travels to
    the workers again.
    """
    for renderer in renderers:
        token = _TOKENS.pop(renderer, None)
        if token is not None:
            _RELEASED.append(token)
    if _RELEASED and _LOCK.acquire(blocking=False):
        try:
            _flush_released()
        finally:
            _LOCK.release()


def worker_renderers() -> List[List[int]]:
    """The renderer tokens each live tile worker holds, asked of the workers."""
    with _LOCK:
        _flush_released()
        held = []
        for worker in list(_WORKERS):
            try:
                held.append(_exchange(worker, ("held",), reply=True))
            except _WORKER_FAILURES:
                pass
        return held


def shutdown_tile_workers() -> None:
    """Stop every tile worker (runs at exit; the next parallel frame restarts them)."""
    with _LOCK:
        for worker in list(_WORKERS):
            _discard(worker)
        _RELEASED.clear()


def _reset_after_fork() -> None:
    # A forked child owns none of its parent's workers (and a lock another
    # thread held at fork time would never be released in the child).
    global _LOCK
    _LOCK = threading.Lock()
    _WORKERS.clear()
    _RELEASED.clear()


atexit.register(shutdown_tile_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def _shipped(renderer: "StreamingRenderer") -> bytes:
    """The renderer pickled for a worker, without its frame cache's entries."""
    copied = copy.copy(renderer)
    copied.frame_cache = FrameCache(capacity=renderer.frame_cache.capacity)
    return pickle.dumps(copied, protocol=pickle.HIGHEST_PROTOCOL)


# ----------------------------------------------------------------------
# Where a frame's runs are cut.
# ----------------------------------------------------------------------
class _CutMemory:
    """What a renderer's frames tell the cut of its next parallel frame.

    ``block_costs`` holds the last frame's measured seconds per block (a
    one-process frame records them too) and ``dispatch_s`` the last
    parallel frame's dispatch time in the calling process, not counting
    its waits for replies or starting workers and shipping them the
    renderer.  ``cuts`` remembers the cut of each recent
    pose and process count, as many as the renderer's frame cache holds
    frames: the runs key the run preparations in the frame caches, so a
    repeated pose must be cut as on its first visit to hit them.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.block_costs: Optional[np.ndarray] = None
        self.dispatch_s = 0.0
        self.cuts: "collections.OrderedDict[tuple, Tuple[np.ndarray, str]]" = (
            collections.OrderedDict()
        )

    def cut(self, key: tuple, num_blocks: int, runs: int) -> Tuple[np.ndarray, str]:
        """The cut for ``key`` and where it came from (lock held)."""
        remembered = self.cuts.get(key)
        if remembered is not None:
            self.cuts.move_to_end(key)
            return remembered[0], f"{remembered[1]}, kept for this pose"
        costs = self.block_costs
        if costs is None or len(costs) != num_blocks:
            cut, source = equal_cut(num_blocks, runs), "equal counts: no block costs"
        else:
            cut, source = cost_cut(costs, runs, self.dispatch_s), "last frame's block costs"
        if self.capacity:
            self.cuts[key] = (cut, source)
            while len(self.cuts) > self.capacity:
                self.cuts.popitem(last=False)
        return cut, source


#: Renderer -> what its frames tell the next cut.
_CUTS: "weakref.WeakKeyDictionary[StreamingRenderer, _CutMemory]" = weakref.WeakKeyDictionary()


def _cut_memory(renderer: "StreamingRenderer") -> _CutMemory:
    memory = _CUTS.get(renderer)
    if memory is None:
        memory = _CUTS[renderer] = _CutMemory(renderer.frame_cache.capacity)
    return memory


def equal_cut(num_blocks: int, runs: int) -> np.ndarray:
    """Block offsets of ``runs`` runs of (give or take one) equally many blocks."""
    return np.array([num_blocks * run // runs for run in range(runs + 1)], dtype=np.int64)


def cost_cut(costs: np.ndarray, runs: int, first_charge_s: float = 0.0) -> np.ndarray:
    """Block offsets of ``runs`` contiguous runs of near-equal estimated cost.

    ``costs`` holds each block's estimated seconds, and the first run (the
    calling process's) is charged ``first_charge_s`` more.  Run ``j`` ends
    where the cumulative cost comes closest to ``j / runs`` of the total,
    and every run keeps at least one block; a cost total that is not
    positive and finite gives equal counts.  Graham's longest-processing-
    time rule in its static, contiguous form.
    """
    num_blocks = len(costs)
    cumulative = np.concatenate(([0.0], np.cumsum(costs))) + first_charge_s
    total = float(cumulative[-1])
    if not (np.isfinite(total) and total > 0.0):
        return equal_cut(num_blocks, runs)
    cut = [0]
    for run in range(1, runs):
        lo, hi = cut[-1] + 1, num_blocks - (runs - run)
        ends = cumulative[lo : hi + 1]
        cut.append(lo + int(np.argmin(np.abs(ends - total * run / runs))))
    cut.append(num_blocks)
    return np.asarray(cut, dtype=np.int64)


# ----------------------------------------------------------------------
# One frame.
# ----------------------------------------------------------------------
def auto_tile_workers(
    renderer: "StreamingRenderer", num_pixels: int, max_runs: int
) -> Tuple[int, str]:
    """The process count ``tile_workers=None`` gives a frame, and why.

    ``min(CPUs, max_runs, num_pixels // AUTO_PIXELS_PER_PROCESS)`` on the
    main thread of a process that can fork, for a renderer that rendered a
    frame here before (or that the workers hold); one process otherwise.
    A renderer's first frame marks it, so its second travels.
    """
    if multiprocessing.current_process().daemon:
        return 1, "daemonic process"
    if threading.current_thread() is not threading.main_thread():
        return 1, "not the main thread"
    cpus = available_cpus()
    workers = min(cpus, max_runs, num_pixels // AUTO_PIXELS_PER_PROCESS)
    reason = (
        f"min({cpus} CPUs, {max_runs} blocks, "
        f"{num_pixels} pixels // {AUTO_PIXELS_PER_PROCESS})"
    )
    if workers < 2:
        return 1, reason
    if renderer not in _TOKENS:
        _token(renderer)
        return 1, "first frame of this renderer"
    return workers, reason


def render_tiles(
    renderer: "StreamingRenderer",
    camera,
    tile_bounds: Sequence["Bounds"],
    blocks: np.ndarray,
    tile_workers: Optional[int],
    image: np.ndarray,
    alpha_img: np.ndarray,
    stats: "StreamingStats",
    stages: Dict[str, float],
    pairs: Dict[str, int],
) -> Dict[str, object]:
    """Render a frame's tiles on ``tile_workers`` processes (``None``: choose).

    Mutates ``image`` / ``alpha_img`` / ``stats`` / ``stages`` / ``pairs``
    exactly like the renderer's one-process run and returns the telemetry
    of the execution: ``tile_workers`` (the process count chosen),
    ``tile_mode``, ``tile_auto`` (why, when ``tile_workers`` is ``None``)
    and, for a frame on tile workers, what :func:`render_tiles_process`
    reports.
    """
    max_runs = len(blocks) - 1
    if tile_workers is None:
        workers, reason = auto_tile_workers(renderer, camera.num_pixels, max_runs)
        chosen: Dict[str, object] = {"tile_workers": workers, "tile_auto": reason}
    else:
        workers = min(tile_workers, max_runs)
        chosen = {"tile_workers": workers}
    if workers > 1:
        return {
            **chosen,
            **render_tiles_process(
                renderer, camera, tile_bounds, blocks, workers,
                image, alpha_img, stats, stages, pairs,
            ),
        }
    _cut_memory(renderer).block_costs = renderer._render_run(
        camera, tile_bounds, blocks, image, alpha_img, stats, stages, pairs
    )
    return {**chosen, "tile_mode": "serial"}


def render_tiles_process(
    renderer: "StreamingRenderer",
    camera,
    tile_bounds: Sequence["Bounds"],
    blocks: np.ndarray,
    workers: int,
    image: np.ndarray,
    alpha_img: np.ndarray,
    stats: "StreamingStats",
    stages: Dict[str, float],
    pairs: Dict[str, int],
) -> Dict[str, object]:
    """Render a frame's tiles in ``workers`` runs, all but the first on tile workers.

    Mutates ``image`` / ``alpha_img`` / ``stats`` / ``stages`` / ``pairs``
    exactly like the renderer's in-process run (``stages`` gains
    ``dispatch``: the wall time not spent rendering in this process) and
    returns the telemetry of the execution: ``tile_cut`` (blocks per run)
    and ``tile_cut_source`` (where the cut came from), ``waited_s`` (the
    part of ``dispatch`` spent waiting for replies), ``wait_split_s`` and
    what travelled.  Whatever the workers cannot render, this process
    renders, and the telemetry records why.

    ``wait_split_s`` splits each wait for a reply, from when this process
    was ready for it to when the reply was loaded, by ``time.monotonic()``
    stamps that every process on a host shares: ``start_lag`` (the request
    sent to the worker reading it), ``extra_run`` (the worker's run, from
    reading its request to finishing it, less the time this process spent
    since sending it) and ``reply`` (the worker finishing its run to the
    reply loaded here: pickling, the pipe and unpickling).  The three sum
    to the wait; a worker that finished first has a negative
    ``extra_run``.  Each worker's telemetry keeps its stamps (``read_at``,
    ``rendered_at``, ``pickled_at``).

    The runs are contiguous runs of whole blocks (there are at least as
    many blocks as runs), cut where the renderer's last frame's measured
    block costs split evenly, with this process also charged its last
    dispatch time (:func:`cost_cut`); a renderer with no costs yet gets
    equally many blocks per run, and a pose rendered lately keeps its cut.
    """
    memory = _cut_memory(renderer)
    if multiprocessing.current_process().daemon:
        memory.block_costs = renderer._render_run(
            camera, tile_bounds, blocks, image, alpha_img, stats, stages, pairs
        )
        return {
            "tile_mode": "serial",
            "tile_mode_degraded": "daemonic process cannot fork tile workers",
        }

    clock = time.perf_counter
    started = clock()
    rendering_before = sum(stages.values())
    failures: List[str] = []
    replies: List[Optional[dict]] = [None] * (workers - 1)
    shipped_bytes, ship_s, waited_s = 0, 0.0, 0.0
    wait_split = {"start_lag": 0.0, "extra_run": 0.0, "reply": 0.0}
    with _LOCK:
        cut, cut_source = memory.cut((camera.pose_key(), workers), len(blocks) - 1, workers)
        runs = [blocks[lo : hi + 1] for lo, hi in zip(cut[:-1], cut[1:])]
        _flush_released()
        starting = clock()
        while len(_WORKERS) < len(runs) - 1:
            try:
                _WORKERS.append(_TileWorker())
            except _WORKER_FAILURES as error:
                failures.append(f"cannot start a tile worker: {error}")
                break
        start_s = clock() - starting
        pool = _WORKERS[: len(runs) - 1]
        token = _token(renderer)
        payload: Optional[bytes] = None
        if any(token not in worker.held for worker in pool):
            ship_started = time.perf_counter()
            try:
                payload = _shipped(renderer)
                shipped_bytes = len(payload)
            except (pickle.PickleError, TypeError, AttributeError) as error:
                failures.append(f"renderer cannot travel to tile workers: {error}")
            ship_s = time.perf_counter() - ship_started
        # A worker is in flight from before its request's first byte until
        # its reply is read: one left in flight when this frame ends early
        # (interrupted mid-send or mid-render) may hold half a request or
        # an unread reply, so the ``finally`` discards it.
        outstanding: Dict[int, Tuple[_TileWorker, int]] = {}
        try:
            for index, worker in enumerate(pool):
                ships = token not in worker.held
                if ships and payload is None:
                    continue
                request = (
                    "frame", token, payload if ships else None,
                    camera, tile_bounds, runs[index + 1],
                )
                outstanding[index] = (worker, 0, 0.0)
                try:
                    request_bytes = worker.send(request)
                    outstanding[index] = (worker, request_bytes, time.monotonic())
                except _WORKER_FAILURES as error:
                    del outstanding[index]
                    failures.append(f"tile worker failed: {type(error).__name__}: {error}")
                    _discard(worker)
                    continue
                worker.held.add(token)
            run_costs = [
                renderer._render_run(
                    camera, tile_bounds, runs[0], image, alpha_img, stats, stages, pairs
                )
            ]
            ready = time.monotonic()
            for index in list(outstanding):
                worker, request_bytes, sent_at = outstanding[index]
                receiving = clock()
                try:
                    reply, reply_bytes, pickled_at = worker.receive()
                except _WORKER_FAILURES as error:
                    reply, reply_bytes = {"error": f"{type(error).__name__}: {error}"}, 0
                    _discard(worker)
                waited_s += clock() - receiving
                received = time.monotonic()
                del outstanding[index]
                if "error" in reply:
                    failures.append(f"tile worker failed: {reply['error']}")
                    worker.held.discard(token)
                    ready = received
                    continue
                told = reply["telemetry"]
                told.update(
                    request_bytes=request_bytes,
                    reply_bytes=reply_bytes,
                    pickled_at=pickled_at,
                )
                # This wait, ``received - ready``, in three parts: the worker
                # read its request late, ran longer than this process has
                # since, and its reply took time to pickle, travel and load.
                wait_split["start_lag"] += told["read_at"] - sent_at
                wait_split["extra_run"] += (told["rendered_at"] - told["read_at"]) - (
                    ready - sent_at
                )
                wait_split["reply"] += received - told["rendered_at"]
                ready = received
                replies[index] = reply
        finally:
            for worker, _, _ in outstanding.values():
                _discard(worker)

    # Absorb the runs in run order, which keeps the sort lists in tile
    # order; a run no worker rendered renders here, in its place.
    worker_telemetry = []
    shape = (camera.height, camera.width)
    for run, reply in zip(runs[1:], replies):
        if reply is None:
            run_costs.append(
                renderer._render_run(
                    camera, tile_bounds, run, image, alpha_img, stats, stages, pairs
                )
            )
            continue
        run_costs.append(np.asarray(reply["telemetry"]["block_costs_s"]))
        mask = _run_mask(shape, tile_bounds, run)
        image[mask] = reply["pixels"]
        alpha_img[mask] = reply["alpha"]
        stats.absorb(reply["stats"])
        # The run's weight additions, made here in the order one process
        # would have made them: the same bits.
        blend_log, violation_log = reply["weights"]
        blend_log.replay(stats.gaussian_blend_weight)
        violation_log.replay(stats.gaussian_violation_weight)
        for name, count in reply["pairs"].items():
            pairs[name] += count
        worker_telemetry.append(reply["telemetry"])
    rendering = sum(stages.values()) - rendering_before
    stages["dispatch"] = clock() - started - rendering
    memory.block_costs = np.concatenate(run_costs)
    # Starting workers and shipping the renderer are one-off costs.
    memory.dispatch_s = max(0.0, stages["dispatch"] - waited_s - start_s - ship_s)
    telemetry: Dict[str, object] = {
        "tile_mode": "process" if worker_telemetry else "serial",
        "tile_cut": np.diff(cut).tolist(),
        "tile_cut_source": cut_source,
        "waited_s": waited_s,
        "wait_split_s": wait_split,
        "shipped_bytes": shipped_bytes,
        "ship_s": ship_s,
        "workers": worker_telemetry,
    }
    if failures:
        telemetry["tile_mode_degraded"] = "; ".join(failures)
    return telemetry
