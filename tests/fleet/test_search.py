"""Pareto design-space search: the grid's frontier and its warm resume."""

import pytest

from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.fleet.search import (
    OBJECTIVES,
    DesignSpace,
    SearchPoint,
    dominates,
    pareto_frontier,
    pareto_search,
)

AXES = {
    "num_hfu": [1, 2, 4],
    "num_render_units": [32, 64, 128],
    "sram_scale": [0.5, 1.0],
}


def base_spec():
    return ExperimentSpec(scene="lego", resolution_scale=0.25)


def frontier_values(result):
    return [point.values for point in result.frontier]


class TestDominance:
    def test_dominates_requires_strict_improvement_somewhere(self):
        assert dominates((1.0, 1.0), (1.0, 2.0))
        assert not dominates((1.0, 2.0), (1.0, 2.0))
        assert not dominates((0.5, 3.0), (1.0, 2.0))

    def test_frontier_drops_dominated_points(self):
        points = [
            SearchPoint((0,), {"a": 0}, dict(zip(OBJECTIVES, (1.0, 1.0, 1.0)))),
            SearchPoint((1,), {"a": 1}, dict(zip(OBJECTIVES, (2.0, 2.0, 2.0)))),
            SearchPoint((2,), {"a": 2}, dict(zip(OBJECTIVES, (0.5, 3.0, 1.0)))),
        ]
        frontier = pareto_frontier(points)
        assert [point.index for point in frontier] == [(0,), (2,)]

    def test_frontier_keeps_tied_points_in_input_order(self):
        # Equal objectives dominate neither way: both stay, first first.
        tie = (1.0, 2.0, 3.0)
        points = [
            SearchPoint((0,), {"a": 0}, dict(zip(OBJECTIVES, (3.0, 3.0, 3.0)))),
            SearchPoint((1,), {"a": 1}, dict(zip(OBJECTIVES, tie))),
            SearchPoint((2,), {"a": 2}, dict(zip(OBJECTIVES, tie))),
        ]
        frontier = pareto_frontier(points)
        assert [point.index for point in frontier] == [(1,), (2,)]


class TestDesignSpace:
    def test_lattice_geometry(self):
        space = DesignSpace(tuple(AXES.items()))
        assert space.shape == (3, 3, 2)
        assert space.size == 18
        indices = space.all_indices()
        assert len(set(indices)) == 18
        assert indices[:3] == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown arch option"):
            DesignSpace((("warp_width", (1, 2)),))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one value"):
            DesignSpace((("num_hfu", ()),))


class TestSearch:
    @pytest.fixture(scope="class")
    def searched(self, tmp_path_factory):
        """One search into a store, and the points it ran."""
        store = str(tmp_path_factory.mktemp("search-store"))
        with Session(store=store) as session:
            result = pareto_search(session, base_spec(), axes=AXES)
            points_run = session.points_run
        return result, store, points_run

    def test_frontier_of_axes_by_value(self, searched):
        result, _, _ = searched
        assert frontier_values(result) == [
            {"num_hfu": hfu, "num_render_units": 32, "sram_scale": sram}
            for hfu in (1, 2, 4)
            for sram in (0.5, 1.0)
        ]

    def test_every_lattice_point_is_evaluated_once_in_lattice_order(self, searched):
        result, _, points_run = searched
        assert result.evaluations == result.space.size == points_run == 18
        space = DesignSpace(tuple(AXES.items()))
        assert [point.index for point in result.points] == space.all_indices()
        assert result.to_dict()["evaluations"] == result.to_dict()["grid_size"]

    def test_frontier_is_exactly_the_undominated_points(self, searched):
        # No frontier point is dominated by an evaluated point, and every
        # other point is dominated by a frontier point.
        result, _, _ = searched
        frontier = {point.index for point in result.frontier}
        for point in result.points:
            if point.index in frontier:
                assert not any(dominates(o.key, point.key) for o in result.points)
            else:
                assert any(dominates(f.key, point.key) for f in result.frontier)

    def test_search_points_share_sweep_cache_keys(self, searched):
        # The search's lattice is Session.sweep's grid: a sweep over the
        # same base and axes is served from the search's store.
        result, store, _ = searched
        with Session(store=store) as session:
            sweep = session.sweep(base_spec(), **AXES)
            assert session.points_run == 0
            assert session.last_execution.cache_hits == result.evaluations
        assert [
            {name: point.metrics[name] for name in OBJECTIVES}
            for point in sweep.results
        ] == [point.objectives for point in result.points]
        assert sweep.labels() == [point.label for point in result.points]

    def test_point_labels_name_their_values(self, searched):
        result, _, _ = searched
        labels = [point.label for point in result.points]
        assert len(set(labels)) == len(labels) == 18
        assert labels[0] == "num_hfu=1, num_render_units=32, sram_scale=0.5"

    def test_warm_rerun_resumes_from_store_with_zero_renders(self, searched):
        result, store, _ = searched
        with Session(store=store) as session:
            rerun = pareto_search(session, base_spec(), axes=AXES)
            assert session.points_run == 0
        assert frontier_values(rerun) == frontier_values(result)

    def test_objectives_populated_on_every_point(self, searched):
        result, _, _ = searched
        for point in result.points:
            assert set(point.objectives) == set(OBJECTIVES)
            assert all(value > 0 for value in point.objectives.values())

    def test_needs_axes(self, tmp_path):
        with Session(store=str(tmp_path)) as session:
            with pytest.raises(ValueError, match="at least one axis"):
                pareto_search(session, base_spec(), axes={})

    def test_non_accelerator_base_is_refused_before_rendering(self, tmp_path):
        gpu = base_spec().with_options(arch="gpu")
        with Session(store=str(tmp_path)) as session:
            with pytest.raises(ValueError, match="arch_options only apply"):
                pareto_search(session, gpu, axes={"num_hfu": [1, 2]})
            assert session.points_run == 0
