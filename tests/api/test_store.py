"""Tests for the disk-backed result store and the trajectory helpers."""

import json

import pytest

from repro.api import ExperimentResult, ExperimentSpec, ResultStore, spec_key
from repro.api.store import (
    STORE_SCHEMA_VERSION,
    append_trajectory,
    atomic_write_json,
    resolve_store,
)


def make_result(value: float = 1.5) -> ExperimentResult:
    return ExperimentResult(
        name="point",
        title="test point",
        text="formatted body",
        metrics={"speedup": value},
        payload={"nested": {"list": [1, 2]}},
        meta={"label": "test"},
    )


class TestSpecKey:
    def test_stable_across_override_dict_ordering(self):
        a = ExperimentSpec(
            scene="lego",
            config={"voxel_size": 1.0, "tile_size": 8},
            arch_options={"cfus_per_hfu": 2, "ffus_per_hfu": 3},
        )
        b = ExperimentSpec(
            scene="lego",
            config={"tile_size": 8, "voxel_size": 1.0},
            arch_options={"ffus_per_hfu": 3, "cfus_per_hfu": 2},
        )
        assert spec_key(a) == spec_key(b)

    def test_equal_specs_equal_keys(self):
        assert spec_key(ExperimentSpec(scene="train")) == spec_key(
            ExperimentSpec(scene="train")
        )

    def test_distinct_specs_distinct_keys(self):
        base = ExperimentSpec(scene="lego")
        assert spec_key(base) != spec_key(base.with_options(arch="gscore"))
        assert spec_key(base) != spec_key(base.with_options(config={"voxel_size": 9.0}))
        assert spec_key(base) != spec_key(base.with_options(resolution_scale=0.5))

    def test_version_is_part_of_the_key(self):
        spec = ExperimentSpec(scene="lego")
        assert spec_key(spec, version="0.0.0") != spec_key(spec)


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = ExperimentSpec(scene="lego")
        result = make_result()
        assert store.get(spec) is None
        assert spec not in store
        store.put(spec, result)
        assert spec in store
        restored = store.get(spec)
        assert restored.to_dict() == result.to_dict()
        assert store.stats() == {"hits": 1, "misses": 1, "healed": 0, "entries": 1}

    def test_version_bump_invalidates(self, tmp_path):
        spec = ExperimentSpec(scene="lego")
        old = ResultStore(tmp_path, version="1.0.0")
        old.put(spec, make_result())
        new = ResultStore(tmp_path, version="2.0.0")
        assert new.get(spec) is None
        assert new.misses == 1
        # The old entry is untouched — invalidation is by key, not deletion.
        assert old.get(spec) is not None

    def test_schema_version_in_key(self, tmp_path, monkeypatch):
        spec = ExperimentSpec(scene="lego")
        store = ResultStore(tmp_path)
        before = store.key(spec)
        monkeypatch.setattr("repro.api.store.STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1)
        assert store.key(spec) != before

    def test_corrupted_entry_recovers(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = ExperimentSpec(scene="lego")
        store.put(spec, make_result())
        path = store.path(spec)
        path.write_text("{ truncated")
        assert store.get(spec) is None
        assert (store.misses, store.healed) == (1, 1)
        assert not path.exists()  # damaged entry removed
        store.put(spec, make_result(2.0))
        assert store.get(spec).metrics["speedup"] == 2.0

    def test_entry_with_wrong_shape_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = ExperimentSpec(scene="lego")
        path = store.path(spec)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"key": "not-the-right-key", "result": {}}))
        assert store.get(spec) is None
        assert not path.exists()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda store, spec: json.dumps({"key": "not-the-right-key", "result": {}}),
            lambda store, spec: json.dumps({"key": store.key(spec), "result": {}}),
            lambda store, spec: json.dumps(["not", "an", "object"]),
        ],
        ids=["key-mismatch", "no-result", "not-an-object"],
    )
    def test_each_damaged_entry_heals_once(self, tmp_path, damage):
        """Like truncated JSON (``test_corrupted_entry_recovers``), healed once."""
        store = ResultStore(tmp_path)
        spec = ExperimentSpec(scene="lego")
        store.put(spec, make_result())
        store.path(spec).write_text(damage(store, spec))
        assert store.get(spec) is None
        assert store.get(spec) is None  # now absent: a plain miss
        assert store.stats() == {"hits": 0, "misses": 2, "healed": 1, "entries": 0}


class TestResolveStore:
    def test_none_disables(self):
        assert resolve_store(None) is None

    def test_path_and_instance(self, tmp_path):
        from_path = resolve_store(tmp_path / "cache")
        assert isinstance(from_path, ResultStore)
        assert resolve_store(str(tmp_path / "other")).root == tmp_path / "other"
        assert resolve_store(from_path) is from_path

    @pytest.mark.parametrize("junk", [True, False, 42])
    def test_anything_else_is_rejected(self, junk):
        with pytest.raises(TypeError, match="result store"):
            resolve_store(junk)


class TestTrajectory:
    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        append_trajectory(path, {"run": 1})
        trajectory = append_trajectory(path, {"run": 2})
        assert [e["run"] for e in trajectory] == [1, 2]
        assert json.loads(path.read_text()) == trajectory
        # No stray temp files left behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_corrupt_trajectory_is_set_aside(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        path.write_text("[{ truncated")
        trajectory = append_trajectory(path, {"run": 1})
        assert [e["run"] for e in trajectory] == [1]
        assert (tmp_path / "BENCH_test.json.corrupt").exists()

    def test_non_list_trajectory_is_set_aside(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        path.write_text(json.dumps({"not": "a list"}))
        assert [e["run"] for e in append_trajectory(path, {"run": 1})] == [1]

    def test_atomic_write_json(self, tmp_path):
        path = tmp_path / "sub" / "data.json"
        atomic_write_json(path, {"values": (1, 2)})
        assert json.loads(path.read_text()) == {"values": [1, 2]}
        assert path.read_text().endswith("\n")


class TestAdvisoryLock:
    def test_put_creates_and_reuses_the_lock_file(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        store.put(ExperimentSpec(scene="lego"), make_result())
        assert store.lock_path.exists()
        assert store.lock_path.name == ".lock"
        # The lock file never shadows an entry: reads and counts skip it.
        assert len(store) == 1
        assert store.get(ExperimentSpec(scene="lego")) is not None

    def test_concurrent_writers_serialize_on_the_lock(self, tmp_path):
        """Two processes putting into one store directory cannot corrupt it."""
        import concurrent.futures

        root = tmp_path / "cache"
        specs = [
            ExperimentSpec(scene="lego", config={"voxel_size": 0.2 + 0.2 * i})
            for i in range(6)
        ]
        with concurrent.futures.ProcessPoolExecutor(max_workers=3) as pool:
            list(pool.map(_put_one, [(str(root), i) for i in range(len(specs))]))
        store = ResultStore(root)
        assert len(store) == len(specs)
        for i, spec in enumerate(specs):
            cached = store.get(spec)
            assert cached is not None
            assert cached.metrics["speedup"] == float(i)

    def test_threads_putting_one_key_serialize_on_the_lock(self, tmp_path, monkeypatch):
        """Two daemon actors share a process id, so one key's temp file too."""
        import os
        import threading
        import time

        replace = os.replace

        def slow_replace(source, target):
            time.sleep(0.05)  # lets an unserialized writer reach the same temp file
            replace(source, target)

        monkeypatch.setattr(os, "replace", slow_replace)
        store = ResultStore(tmp_path / "cache")
        spec = ExperimentSpec(scene="lego")
        errors = []

        def put_some():
            try:
                for _ in range(3):
                    store.put(spec, make_result())
            except OSError as error:
                errors.append(error)

        threads = [threading.Thread(target=put_some) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.get(spec).to_dict() == make_result().to_dict()
        assert list((tmp_path / "cache").rglob("*.tmp*")) == []


def _put_one(args):
    root, index = args
    store = ResultStore(root)
    spec = ExperimentSpec(scene="lego", config={"voxel_size": 0.2 + 0.2 * index})
    store.put(spec, make_result(float(index)))
    return index
