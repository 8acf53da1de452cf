"""Golden parity: sensitivity figures swept in parallel match serial.

``run_fig12`` / ``run_fig13`` are pinned to the serial path: the same grid
evaluated through a parallel session (``jobs=2``) must produce tables that
are byte-identical, independent of worker scheduling.
"""

from repro.analysis.sensitivity import run_fig12, run_fig13
from repro.api import ExperimentSpec, ResultStore, Session
from repro.api.spec import sweep

#: Reduced grid + resolution keeps the parity runs cheap.
SCALE = 0.5


class TestFig12Parity:
    def test_parallel_table_is_byte_identical(self):
        kwargs = dict(scene="lego", voxel_sizes=(0.4, 0.8), resolution_scale=SCALE)
        serial = run_fig12(session=Session(), **kwargs)
        parallel = run_fig12(session=Session(jobs=2), **kwargs)
        assert parallel.format() == serial.format()
        assert parallel.energy_savings == serial.energy_savings
        assert parallel.psnr == serial.psnr

    def test_warm_store_reproduces_the_table(self, tmp_path):
        kwargs = dict(scene="lego", voxel_sizes=(0.4, 0.8), resolution_scale=SCALE)
        store = ResultStore(tmp_path / "cache")
        cold = run_fig12(session=Session(store=store), **kwargs)
        warm_session = Session(store=store)
        warm = run_fig12(session=warm_session, **kwargs)
        assert warm.format() == cold.format()
        assert warm_session.service.requests_served == 0


class TestFig13Parity:
    def test_parallel_table_is_byte_identical(self):
        kwargs = dict(scene="lego", cfus=(1, 2), ffus=(1, 2), resolution_scale=SCALE)
        serial = run_fig13(session=Session(), **kwargs)
        parallel = run_fig13(session=Session(jobs=2), **kwargs)
        assert parallel.format() == serial.format()
        assert parallel.speedup == serial.speedup
        assert parallel.area_mm2 == serial.area_mm2


class TestStreamingKernelParity:
    """The sensitivity tables are pinned across streaming render paths.

    Fig. 12 / Fig. 13 tables produced with the vectorized streaming fast
    path (the default) must be byte-identical to the voxel-at-a-time
    reference loop — the acceptance bar that lets the fast path be the
    default without moving any published number.
    """

    def test_fig12_table_is_byte_identical_across_kernels(self):
        tables = {}
        for kernel in ("reference", "vectorized"):
            base = ExperimentSpec(
                scene="lego",
                arch="streaminggs",
                resolution_scale=SCALE,
                config={"streaming_kernel": kernel},
            )
            result = Session().run_sweep(
                sweep(base, voxel_size=[0.4, 0.8]), swept=["voxel_size"]
            )
            tables[kernel] = result.format()
        assert tables["vectorized"] == tables["reference"]

    def test_fig13_table_is_byte_identical_across_kernels(self):
        tables = {}
        for kernel in ("reference", "vectorized"):
            base = ExperimentSpec(
                scene="lego",
                arch="streaminggs",
                resolution_scale=SCALE,
                config={"streaming_kernel": kernel},
            )
            result = Session().run_sweep(
                sweep(base, cfus_per_hfu=[1, 2], ffus_per_hfu=[1, 2]),
                swept=["cfus_per_hfu", "ffus_per_hfu"],
            )
            tables[kernel] = result.format()
        assert tables["vectorized"] == tables["reference"]


class TestSingleContextGrid:
    """The fig13 shape: one scene context, a large cheap grid.

    Once the context exists, a point is an analytic hardware-model
    evaluation, so the grid is one shard that runs in the calling session
    whatever ``jobs`` says: no pool, one context build, and the exact
    serial table.
    """

    def test_grid_runs_in_the_caller_and_stays_byte_identical(self):
        kwargs = dict(
            scene="lego", cfus=(1, 2, 3, 4, 5, 6, 7, 8), ffus=(1, 2, 3, 4),
            resolution_scale=SCALE,
        )
        serial_session = Session()
        serial = run_fig13(session=serial_session, **kwargs)
        assert serial_session.last_execution.specs == 32
        with Session(jobs=2) as parallel_session:
            parallel = run_fig13(session=parallel_session, **kwargs)
            report = parallel_session.last_execution
            assert parallel_session.stats()["pool"] is None
            assert parallel_session.context_misses == 1
        assert report.specs == 32
        assert report.shards == 1
        assert report.mode == "serial"
        assert parallel.format() == serial.format()
        assert parallel.speedup == serial.speedup
        assert parallel.area_mm2 == serial.area_mm2
