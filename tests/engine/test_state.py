"""Tests of the per-pixel blend state and the per-Gaussian weight targets."""

import dataclasses
import pickle

import numpy as np

from repro.engine.state import BlendState, WeightLog, add_weights


def test_fresh_state_holds_only_empty_per_pixel_accumulators():
    state = BlendState.fresh(5)
    assert [field.name for field in dataclasses.fields(state)] == [
        "color", "transmittance", "max_depth", "blended_fragments", "depth_violations",
    ]
    np.testing.assert_array_equal(state.color, np.zeros((5, 3)))
    np.testing.assert_array_equal(state.transmittance, np.ones(5))
    assert np.all(state.max_depth == -np.inf)
    assert (state.blended_fragments, state.depth_violations) == (0, 0)


def test_log_replay_equals_the_additions_made_in_order():
    rng = np.random.default_rng(0)
    direct = np.zeros(10)
    log = WeightLog(10)
    for _ in range(6):
        ids = rng.integers(0, 10, size=7)  # repeats add up in order
        sums = rng.random(7)
        np.add.at(direct, ids, sums)
        log.add(ids, sums)
    direct[4] += 0.25
    log.add(4, 0.25)  # one id, as the reference kernel adds
    replayed = np.zeros(10)
    log.replay(replayed)
    np.testing.assert_array_equal(replayed, direct)


def test_log_drops_zero_additions():
    log = WeightLog(3)
    log.add([0, 1, 2], [0.0, 0.5, 0.0])
    log.add(2, 0.0)
    state = log.__getstate__()
    assert [ids.tolist() for ids in state["_ids"]] == [[1]]
    assert [sums.tolist() for sums in state["_sums"]] == [[0.5]]


def test_log_travels_as_one_pair_of_arrays():
    log = WeightLog(6)
    log.add([1, 2], [0.5, 0.25])
    log.add(np.array([2, 5]), np.array([1.0, 0.0]))
    state = log.__getstate__()
    assert state["size"] == 6
    assert [ids.tolist() for ids in state["_ids"]] == [[1, 2, 2]]
    assert [sums.tolist() for sums in state["_sums"]] == [[0.5, 0.25, 1.0]]
    restored = pickle.loads(pickle.dumps(log))
    assert len(restored) == 6
    here, there = np.zeros(6), np.zeros(6)
    log.replay(here)
    restored.replay(there)
    np.testing.assert_array_equal(there, here)
    np.testing.assert_array_equal(here, [0.0, 0.5, 1.25, 0.0, 0.0, 0.0])


def test_empty_log_replays_nothing():
    log = WeightLog(4)
    target = np.arange(4.0)
    log.replay(target)
    pickle.loads(pickle.dumps(log)).replay(target)
    np.testing.assert_array_equal(target, np.arange(4.0))


def test_add_weights_takes_one_id_or_many_and_ignores_no_target():
    target = np.zeros(4)
    add_weights(target, 2, 0.5)
    add_weights(target, np.int64(2), 0.25)
    add_weights(target, np.array([0, 0, 3]), np.array([1.0, 2.0, 4.0]))
    add_weights(None, np.array([0, 1]), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(target, [3.0, 0.0, 0.75, 4.0])
    log = WeightLog(4)
    add_weights(log, np.array([3, 1]), np.array([1.0, 2.0]))
    replayed = np.zeros(4)
    log.replay(replayed)
    np.testing.assert_array_equal(replayed, [0.0, 2.0, 0.0, 1.0])
