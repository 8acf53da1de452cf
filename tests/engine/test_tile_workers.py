"""Warm tile workers: per-run preparation, frame parity, cuts, transport, faults.

A parallel frame prepares each process's run of tiles on its own, so the
run's preparation must be the whole frame's restricted to the run; the
frame must equal the one-process frame bit for bit (images, alpha and
every statistic, per-Gaussian weights included) whatever renderers
interleave on the workers and wherever the runs are cut; the cut follows
the last frame's measured block costs, and a repeated pose keeps its cut
so its run preparations stay cached; a renderer travels to a worker
once; a worker lost between frames, or cut off mid-request, costs one
in-process run, not the frame's correctness; and ``tile_workers=None``
chooses the process count from the CPUs, the frame's size and whether
the renderer is new.
"""

import multiprocessing.shared_memory
import pickle
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core.config import StreamingConfig
from repro.core.pipeline import StreamingRenderer, StreamingStats
from repro.engine import tile_parallel
from repro.engine.bench import streaming_stats_equal
from repro.engine.kernels import blend_streaming, column_blocks, tile_columns
from repro.gaussians.camera import Camera
from repro.gaussians.tiles import TileGrid
from tests.conftest import make_camera, make_model

STAGES = ["prepare", "filter", "blend", "account"]


def assert_frames_equal(expected, actual):
    np.testing.assert_array_equal(actual.image, expected.image)
    np.testing.assert_array_equal(actual.alpha, expected.alpha)
    equal, detail = streaming_stats_equal(expected.stats, actual.stats)
    assert equal, detail
    # Weights too: the workers' additions replay in one-process order.
    for name in ("gaussian_blend_weight", "gaussian_violation_weight"):
        np.testing.assert_array_equal(getattr(actual.stats, name), getattr(expected.stats, name))


def make_renderer(seed=12, voxel_size=1.0):
    model = make_model(num_gaussians=250, extent=4.0, seed=seed)
    return StreamingRenderer(model, StreamingConfig(voxel_size=voxel_size, use_vq=False))


def worker_pids():
    return [worker.process.pid for worker in tile_parallel._WORKERS]


# ----------------------------------------------------------------------
# Per-run preparation.
# ----------------------------------------------------------------------
class TestRunPreparation:
    @pytest.mark.parametrize("tile_size", [1, 5, 8, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_preparation_is_the_frame_restricted_to_the_run(self, tile_size, seed):
        rng = np.random.default_rng(700 + seed)
        model = make_model(num_gaussians=300, extent=4.0, scale=0.12, seed=seed)
        config = StreamingConfig(voxel_size=0.9, tile_size=tile_size, ray_stride=2, use_vq=False)
        direction = rng.normal(size=3)
        eye = 6.0 * direction / np.linalg.norm(direction)
        camera = Camera.from_lookat(
            eye=eye, target=rng.uniform(-0.5, 0.5, size=3), width=37, height=23, fov_deg=60.0
        )
        whole = StreamingRenderer(model, config)
        frame = whole.prepare_frame(camera)
        frame_headers = StreamingStats()
        whole._tile_headers(frame, frame_headers)

        grid = TileGrid(camera.width, camera.height, tile_size)
        bounds = [grid.tile_pixel_bounds(t) for t in range(grid.num_tiles)]
        blocks = column_blocks([(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in bounds])
        for runs in (2, 3, 4):
            cuts = np.linspace(0, len(blocks) - 1, runs + 1).astype(int)
            run_headers = StreamingStats()
            # A renderer of its own, as a worker has, so nothing is shared
            # through the frame cache.
            worker = StreamingRenderer(model, config)
            for lo, hi in zip(blocks[cuts[:-1]], blocks[cuts[1:]]):
                run = worker.prepare_frame(camera, (int(lo), int(hi)))
                assert list(run.tile_tables) == list(range(lo, hi))
                for tile in range(lo, hi):
                    table, expected = run.tile_tables[tile], frame.tile_tables[tile]
                    assert table.rays_sampled == expected.rays_sampled
                    assert len(table.per_ray_orders) == len(expected.per_ray_orders)
                    for got, want in zip(table.per_ray_orders, expected.per_ray_orders):
                        np.testing.assert_array_equal(got, want)
                    order, want = run.tile_orders[tile], frame.tile_orders[tile]
                    assert list(order.order) == list(want.order)
                    assert (order.num_nodes, order.num_edges, order.cycles_broken) == (
                        want.num_nodes, want.num_edges, want.cycles_broken
                    )
                worker._tile_headers(run, run_headers)
            equal, detail = streaming_stats_equal(frame_headers, run_headers)
            assert equal, f"{runs} runs: {detail}"

    def test_run_keys_do_not_alias_the_whole_frame(self):
        renderer = make_renderer()
        camera = make_camera(width=48, height=32)
        whole = renderer.prepare_frame(camera)
        run = renderer.prepare_frame(camera, (0, 2))
        assert run is not whole and list(run.tile_tables) == [0, 1]
        assert renderer.prepare_frame(camera, (0, whole.num_tiles)) is whole


# ----------------------------------------------------------------------
# Warm-worker frames against one-process frames.
# ----------------------------------------------------------------------
class TestWarmWorkerFrames:
    def test_interleaved_renderers_match_one_process(self):
        renderers = [make_renderer(seed=12, voxel_size=1.0), make_renderer(seed=31, voxel_size=0.7)]
        poses = [make_camera(width=64, height=48, distance=d) for d in (6.0, 6.5, 7.0)]
        serial = {
            (r, p): renderers[r].render(poses[p], tile_workers=1)
            for r in range(2)
            for p in range(3)
        }
        # New poses, then repeated ones, alternating renderers, on 2, 3 and
        # 4 processes: every frame equals its one-process frame.
        for workers in (2, 3, 4):
            for p in (0, 1, 2, 0, 1):
                for r in (0, 1):
                    frame = renderers[r].render(poses[p], tile_workers=workers)
                    assert frame.telemetry["tile_mode"] == "process"
                    assert "tile_mode_degraded" not in frame.telemetry
                    assert_frames_equal(serial[r, p], frame)

    def test_reference_path_runs_on_workers_too(self):
        model = make_model(num_gaussians=120, extent=4.0, seed=2)
        renderer = StreamingRenderer(
            model, StreamingConfig(voxel_size=1.0, use_vq=False, streaming_kernel="reference")
        )
        camera = make_camera(width=48, height=32)
        serial = renderer.render(camera, tile_workers=1)
        frame = renderer.render(camera, tile_workers=2)
        assert frame.telemetry["tile_mode"] == "process"
        assert list(frame.telemetry["workers"][0]["stages_s"]) == ["prepare", "reference"]
        assert_frames_equal(serial, frame)


# ----------------------------------------------------------------------
# Where the runs are cut.
# ----------------------------------------------------------------------
#: Two scenes: a mid-density cloud and a dense, near-opaque one whose
#: saturated tiles stop streaming early.
CUT_SCENES = {
    "sparse": dict(num_gaussians=250, extent=4.0, seed=12),
    "opaque": dict(num_gaussians=900, extent=3.0, scale=0.25, opacity=0.98, seed=11),
}


class TestCostCuts:
    @pytest.mark.parametrize("scene", sorted(CUT_SCENES))
    def test_every_cut_gives_the_one_process_frame(self, monkeypatch, scene):
        model = make_model(**CUT_SCENES[scene])
        renderer = StreamingRenderer(model, StreamingConfig(voxel_size=0.8, use_vq=False))
        camera = make_camera(width=64, height=48)  # 12 tiles, 6 blocks
        serial = renderer.render(camera, tile_workers=1)
        assert serial.stats.depth_order_errors > 0
        for split in range(1, 6):
            cut = np.array([0, split, 6])
            monkeypatch.setattr(
                tile_parallel._CutMemory, "cut", lambda self, *args, cut=cut: (cut, "fixed")
            )
            frame = renderer.render(camera, tile_workers=2)
            assert frame.telemetry["tile_mode"] == "process"
            assert frame.telemetry["tile_cut"] == [split, 6 - split]
            assert_frames_equal(serial, frame)

    def test_cost_cut_examples(self):
        ones = np.ones(6)
        assert tile_parallel.cost_cut(ones, 2).tolist() == [0, 3, 6]
        assert tile_parallel.cost_cut(ones, 3).tolist() == [0, 2, 4, 6]
        # The caller's dispatch charge moves blocks to the workers.
        assert tile_parallel.cost_cut(ones, 2, first_charge_s=2.0).tolist() == [0, 2, 6]
        assert tile_parallel.cost_cut(np.array([4.0, 1, 1, 1, 1]), 2).tolist() == [0, 1, 5]
        # Every run keeps a block; a total that is not positive and finite
        # gives equal counts.
        assert tile_parallel.cost_cut(np.array([10.0, 0, 0, 0]), 3).tolist() == [0, 1, 2, 4]
        assert tile_parallel.cost_cut(np.zeros(4), 2).tolist() == [0, 2, 4]
        assert tile_parallel.cost_cut(np.array([1.0, np.inf, 1]), 2).tolist() == [0, 1, 3]

    @settings(max_examples=100, deadline=None)
    @given(
        costs=st.lists(st.integers(0, 50), min_size=2, max_size=12),
        charge=st.integers(0, 20),
    )
    def test_two_runs_minimise_the_larger_run(self, costs, charge):
        costs = np.array(costs, dtype=np.float64)
        if costs.sum() + charge == 0:
            return
        _, split, end = tile_parallel.cost_cut(costs, 2, first_charge_s=float(charge))
        assert end == len(costs) and 1 <= split < len(costs)

        def larger(k):
            return max(charge + costs[:k].sum(), costs[k:].sum())

        assert larger(split) == min(larger(k) for k in range(1, len(costs)))

    def test_blend_times_each_block(self):
        model = make_model(num_gaussians=200, seed=5)
        camera = make_camera(width=64, height=48)
        renderer = StreamingRenderer(model, StreamingConfig(voxel_size=1.0, use_vq=False))
        grid = TileGrid(camera.width, camera.height, renderer.config.tile_size)
        bounds = [grid.tile_pixel_bounds(t) for t in range(grid.num_tiles)]
        blocks = column_blocks([(x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in bounds])
        orders = renderer._tile_headers(renderer.prepare_frame(camera), StreamingStats())
        filtered = renderer.filter.filter_voxel_batch(
            renderer.render_model, renderer.grid, orders, bounds, camera
        )
        xs, ys, offsets = tile_columns(bounds)
        blend = blend_streaming(
            xs, ys, offsets, filtered.projected, filtered.stream_rows,
            filtered.stream_offsets, blocks,
        )
        assert len(blend.block_seconds) == len(blocks) - 1 == 6
        assert np.all(blend.block_seconds >= 0.0) and blend.block_seconds.sum() > 0.0

    def test_costs_cut_the_next_frame_and_a_repeated_pose_keeps_its_cut(self):
        renderer = make_renderer()
        poses = [make_camera(width=64, height=48, distance=d) for d in (6.0, 6.5, 7.0)]
        first = renderer.render(poses[0], tile_workers=2)
        assert first.telemetry["tile_cut"] == [3, 3]
        assert first.telemetry["tile_cut_source"] == "equal counts: no block costs"
        (worker,) = first.telemetry["workers"]
        assert len(worker["block_costs_s"]) == 3 and min(worker["block_costs_s"]) > 0.0
        # One frame's costs cut the next frame of the same shape.
        memory = tile_parallel._cut_memory(renderer)
        assert len(memory.block_costs) == 6 and memory.dispatch_s >= 0.0
        memory.block_costs = np.array([5.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        second = renderer.render(poses[1], tile_workers=2)
        assert second.telemetry["tile_cut"] == [1, 5]
        assert second.telemetry["tile_cut_source"] == "last frame's block costs"
        # A repeated pose keeps the cut of its first visit, whatever the
        # costs say now, so its run preparation is a frame-cache hit.
        memory.block_costs = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 5.0])
        hits = renderer.frame_cache.hits
        again = renderer.render(poses[1], tile_workers=2)
        assert again.telemetry["tile_cut"] == [1, 5]
        assert again.telemetry["tile_cut_source"] == "last frame's block costs, kept for this pose"
        assert renderer.frame_cache.hits == hits + 1
        assert_frames_equal(second, again)
        memory.block_costs = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 5.0])
        third = renderer.render(poses[2], tile_workers=2)
        assert third.telemetry["tile_cut"] == [5, 1]

    def test_one_process_frames_seed_the_first_cut(self):
        renderer = make_renderer()
        renderer.render(make_camera(width=64, height=48), tile_workers=1)
        frame = renderer.render(make_camera(width=64, height=48, distance=6.5), tile_workers=2)
        assert frame.telemetry["tile_cut_source"] == "last frame's block costs"
        # Costs of another frame shape say nothing about this one's blocks.
        wide = renderer.render(make_camera(width=128, height=32), tile_workers=2)
        assert wide.telemetry["tile_cut_source"] == "equal counts: no block costs"
        assert wide.telemetry["tile_cut"] == [4, 4]


# ----------------------------------------------------------------------
# What travels.
# ----------------------------------------------------------------------
class TestTransport:
    def test_warm_requests_carry_no_model_arrays(self):
        renderer = make_renderer()
        first = renderer.render(make_camera(width=48, height=32), tile_workers=2)
        (worker,) = first.telemetry["workers"]
        assert worker["shipped"] and first.telemetry["shipped_bytes"] > 0
        later = renderer.render(make_camera(width=48, height=32, distance=6.5), tile_workers=2)
        (worker,) = later.telemetry["workers"]
        assert not worker["shipped"] and later.telemetry["shipped_bytes"] == 0
        # Camera, tile rectangles and the run: no Gaussian arrays.
        assert worker["request_bytes"] < 4096 < first.telemetry["shipped_bytes"]
        # The caller's stages plus the wait, next to the worker's own.
        stages = later.telemetry["stages_s"]
        assert list(stages) == STAGES + ["dispatch"]
        assert sum(stages.values()) <= later.telemetry["seconds"]
        assert list(worker["stages_s"]) == STAGES
        assert worker["cpu_s"] > 0.0 and worker["peak_rss_mb"] > 0.0

    def test_the_wait_splits_into_start_lag_extra_run_and_reply(self):
        renderer = make_renderer()
        for distance in (6.0, 6.5):
            frame = renderer.render(
                make_camera(width=64, height=48, distance=distance), tile_workers=2
            )
        telemetry = frame.telemetry
        split = telemetry["wait_split_s"]
        assert list(split) == ["start_lag", "extra_run", "reply"]
        # The parts sum to the wait; the two clocks read between them.
        assert sum(split.values()) == pytest.approx(telemetry["waited_s"], abs=5e-4)
        (worker,) = telemetry["workers"]
        assert worker["read_at"] <= worker["rendered_at"] <= worker["pickled_at"]
        assert split["reply"] >= worker["pickled_at"] - worker["rendered_at"] > 0.0

    def test_shipped_renderer_leaves_its_frame_cache_behind(self):
        warm, cold = make_renderer(), make_renderer()
        for step in range(warm.frame_cache.capacity):
            warm.render(
                make_camera(width=48, height=32, distance=6.0 + 0.25 * step), tile_workers=1
            )
        assert len(warm.frame_cache) == warm.frame_cache.capacity
        camera = make_camera(width=48, height=32)
        shipped = [r.render(camera, tile_workers=2).telemetry["shipped_bytes"] for r in (warm, cold)]
        assert shipped[0] == shipped[1] > 0

    def test_parallel_frame_creates_no_shared_memory_segment(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a parallel frame created a shared-memory segment")

        monkeypatch.setattr(multiprocessing.shared_memory.SharedMemory, "__init__", refuse)
        renderer = make_renderer(seed=44)
        camera = make_camera(width=48, height=32)
        frame = renderer.render(camera, tile_workers=2)
        assert frame.telemetry["tile_mode"] == "process"
        assert frame.telemetry["workers"][0]["shipped"]
        assert_frames_equal(renderer.render(camera, tile_workers=1), frame)


# ----------------------------------------------------------------------
# Faults and lifecycle.
# ----------------------------------------------------------------------
class TestWorkerFaults:
    def test_killed_worker_degrades_one_frame_then_restarts(self):
        renderer = make_renderer()
        camera = make_camera(width=48, height=32)
        serial = renderer.render(camera, tile_workers=1)
        assert renderer.render(camera, tile_workers=2).telemetry["tile_mode"] == "process"
        worker = tile_parallel._WORKERS[0]
        pid = worker.process.pid
        worker.process.kill()
        worker.process.join()

        degraded = renderer.render(camera, tile_workers=2)
        assert degraded.telemetry["tile_mode"] == "serial"
        assert "tile worker failed" in degraded.telemetry["tile_mode_degraded"]
        assert_frames_equal(serial, degraded)

        recovered = renderer.render(camera, tile_workers=2)
        assert recovered.telemetry["tile_mode"] == "process"
        assert "tile_mode_degraded" not in recovered.telemetry
        assert recovered.telemetry["workers"][0]["shipped"]
        assert pid not in worker_pids()
        assert_frames_equal(serial, recovered)

    def test_interrupt_mid_frame_discards_busy_workers(self, monkeypatch):
        renderer = make_renderer()
        camera = make_camera(width=48, height=32)
        serial = renderer.render(camera, tile_workers=1)
        renderer.render(camera, tile_workers=2)
        busy = worker_pids()[0]

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        # The workers already hold the renderer; the caller is interrupted
        # in its own run, with the worker's request in flight.
        monkeypatch.setattr(renderer, "_render_run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            renderer.render(camera, tile_workers=2)
        monkeypatch.undo()
        assert busy not in worker_pids()
        frame = renderer.render(camera, tile_workers=2)
        assert frame.telemetry["tile_mode"] == "process"
        assert "tile_mode_degraded" not in frame.telemetry
        assert_frames_equal(serial, frame)


    @pytest.mark.parametrize("cut", ["mid_payload", "after_send"])
    def test_interrupted_send_discards_the_worker(self, monkeypatch, cut):
        """An interrupt while a request is being sent (its pipe then holds
        half a renderer) or just after (the reply is never read) must not
        leave that worker serving the next frame."""
        renderer = make_renderer(seed=58)
        camera = make_camera(width=48, height=32)
        # The next frame is of another pose, so a stale reply shows.
        following = make_camera(width=48, height=32, distance=6.5)
        serial = renderer.render(following, tile_workers=1)
        real_send = tile_parallel._TileWorker.send

        def interrupted(worker, request):
            if cut == "mid_payload":
                data = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
                worker.conn._send(struct.pack("!i", len(data)) + data[: len(data) // 2])
            else:
                real_send(worker, request)
            raise KeyboardInterrupt

        monkeypatch.setattr(tile_parallel._TileWorker, "send", interrupted)
        with pytest.raises(KeyboardInterrupt):
            renderer.render(camera, tile_workers=2)
        monkeypatch.undo()

        frames = []
        thread = threading.Thread(
            target=lambda: frames.append(renderer.render(following, tile_workers=2)),
            daemon=True,
        )
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "the next frame hangs on the interrupted worker"
        (frame,) = frames
        assert frame.telemetry["tile_mode"] == "process"
        assert "tile_mode_degraded" not in frame.telemetry
        assert frame.telemetry["workers"][0]["shipped"]
        assert_frames_equal(serial, frame)


class TestConcurrentCallers:
    def test_threads_sharing_the_workers_get_their_own_frames(self):
        """Threads rendering at once, while others release renderers, never
        receive a reply meant for another frame."""
        renderers = [make_renderer(seed=seed) for seed in (12, 31, 44, 58, 61)]
        cameras = [make_camera(width=48, height=32, distance=6.0 + 0.3 * i) for i in range(5)]
        expected = [r.render(c, tile_workers=1) for r, c in zip(renderers, cameras)]
        failures = []

        def render(index):
            try:
                for _ in range(3):
                    frame = renderers[index].render(cameras[index], tile_workers=2)
                    assert frame.telemetry["tile_mode"] == "process"
                    assert_frames_equal(expected[index], frame)
                    tile_parallel.release_renderers([renderers[(index + 1) % 5]])
            except Exception as error:  # reported below, on the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=render, args=(i,)) for i in range(5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures


class TestRendererLifecycle:
    def test_eviction_drops_the_renderer_from_every_worker(self):
        camera = make_camera(width=48, height=32)
        with Session(max_renderers=1) as session:
            tokens = []
            for seed in (3, 4):
                renderer = session.streaming_renderer(make_model(num_gaussians=200, seed=seed))
                renderer.render(camera, tile_workers=3)
                tokens.append(tile_parallel._TOKENS[renderer])
                held = tile_parallel.worker_renderers()
                assert len(held) >= 2 and all(tokens[-1] in h for h in held[:2])
            # The second renderer evicted the first, from the workers too.
            assert not any(tokens[0] in h for h in held)

    def test_session_close_drops_its_renderers_from_every_worker(self):
        camera = make_camera(width=48, height=32)
        model = make_model(num_gaussians=200, seed=5)
        session = Session()
        renderer = session.streaming_renderer(model)
        renderer.render(camera, tile_workers=2)
        token = tile_parallel._TOKENS[renderer]
        assert token in tile_parallel.worker_renderers()[0]
        session.close()
        assert not any(token in h for h in tile_parallel.worker_renderers())


class TestAutomaticWorkers:
    """``tile_workers=None`` (the default everywhere) chooses the count."""

    def test_a_renderers_first_frame_is_one_process_and_later_ones_spread(
        self, monkeypatch
    ):
        model = make_model(num_gaussians=200, seed=6)
        camera = make_camera(width=64, height=48)  # 3072 pixels, 6 blocks
        with Session() as session:
            first = session.render(model, camera).output
            assert first.telemetry["tile_workers"] == 1
            assert first.telemetry["tile_auto"] == "first frame of this renderer"
            second = session.render(model, camera).output
            assert second.telemetry["tile_workers"] == min(tile_parallel.available_cpus(), 3)
            assert_frames_equal(first, second)
            # The count is min(CPUs, blocks, pixels // AUTO_PIXELS_PER_PROCESS).
            monkeypatch.setattr(tile_parallel, "available_cpus", lambda: 2)
            frame = session.render(model, camera).output
            assert frame.telemetry["tile_workers"] == 2
            assert frame.telemetry["tile_mode"] == "process"
            monkeypatch.setattr(tile_parallel, "available_cpus", lambda: 64)
            frame = session.render(model, camera).output
            assert frame.telemetry["tile_workers"] == 3072 // tile_parallel.AUTO_PIXELS_PER_PROCESS
            assert_frames_equal(first, frame)
            wide = make_camera(width=128, height=32)  # 4096 pixels, 8 blocks
            assert session.render(model, wide).output.telemetry["tile_workers"] == 4
            renderer = session.streaming_renderer(model)
            one = renderer.render(camera, tile_workers=1)
            assert one.telemetry["tile_workers"] == 1 and "tile_auto" not in one.telemetry

    def test_small_frames_stay_in_one_process(self):
        renderer = make_renderer()
        camera = make_camera(width=48, height=32)  # 1536 pixels
        renderer.render(camera)
        frame = renderer.render(camera)
        assert frame.telemetry["tile_workers"] == 1
        assert "1536 pixels" in frame.telemetry["tile_auto"]

    def test_other_threads_render_in_one_process(self):
        renderer = make_renderer()
        camera = make_camera(width=64, height=48)
        renderer.render(camera)
        frames = []
        thread = threading.Thread(target=lambda: frames.append(renderer.render(camera)))
        thread.start()
        thread.join(timeout=60.0)
        (frame,) = frames
        assert frame.telemetry["tile_workers"] == 1
        assert frame.telemetry["tile_auto"] == "not the main thread"

    def test_contexts_and_daemon_renders_keep_one_process(self):
        from repro.service import ServiceClient, ServiceConfig, ServiceDaemon

        with Session() as session:
            context = session.context("lego", resolution_scale=0.25)
        assert context.streaming_output.telemetry["tile_mode"] == "serial"
        handle = ServiceDaemon(ServiceConfig(port=0, workers=1)).start_in_thread()
        try:
            with ServiceClient.connect(handle.address, client="tiles", timeout=120.0) as client:
                response = client.render("lego", resolution_scale=0.25)
        finally:
            handle.stop(drain=True)
            handle.join(timeout=60.0)
        assert response.ok, response.error
        assert response.result["telemetry"]["tile_mode"] == "serial"
        assert response.result["telemetry"]["tile_workers"] == 1
