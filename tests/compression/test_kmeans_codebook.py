"""Tests for k-means and the feature codebooks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.codebook import Codebook, CodebookSpec
from repro.compression.kmeans import kmeans


def clustered_vectors(num_clusters=5, per_cluster=50, dim=3, seed=0, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1, 1, size=(num_clusters, dim))
    points = centers[np.repeat(np.arange(num_clusters), per_cluster)]
    return points + rng.normal(0, spread, size=points.shape), centers


def test_kmeans_input_validation():
    with pytest.raises(ValueError):
        kmeans(np.zeros((0, 3)), 4)
    with pytest.raises(ValueError):
        kmeans(np.zeros((10, 3)), 0)
    with pytest.raises(ValueError):
        kmeans(np.zeros(10), 2)


def test_kmeans_recovers_well_separated_clusters():
    vectors, centers = clustered_vectors(num_clusters=4, spread=0.02, seed=1)
    result = kmeans(vectors, 4, seed=1)
    # Every true centre should be close to some learned centroid.
    for center in centers:
        distances = np.linalg.norm(result.centroids - center, axis=1)
        assert distances.min() < 0.1


@pytest.mark.xfail(
    strict=True,
    reason="Lloyd stops after one update: previous_inertia starts at inf, so "
    "the first convergence test always passes",
)
def test_kmeans_runs_more_than_one_lloyd_iteration():
    vectors, _ = clustered_vectors(num_clusters=6, per_cluster=80, spread=0.05, seed=4)
    result = kmeans(vectors, 6, max_iterations=25, seed=4)
    assert result.iterations > 1


def test_kmeans_assignments_in_range():
    vectors, _ = clustered_vectors()
    result = kmeans(vectors, 8, seed=0)
    assert result.assignments.shape == (len(vectors),)
    assert result.assignments.min() >= 0
    assert result.assignments.max() < 8


def test_kmeans_k_not_less_than_n():
    vectors = np.random.default_rng(0).normal(size=(5, 2))
    result = kmeans(vectors, 16)
    assert result.centroids.shape == (16, 2)
    assert result.inertia == 0.0
    np.testing.assert_allclose(result.centroids[:5], vectors)


def test_kmeans_inertia_decreases_with_more_clusters():
    vectors, _ = clustered_vectors(num_clusters=6, per_cluster=60, seed=2)
    small = kmeans(vectors, 2, seed=0).inertia
    large = kmeans(vectors, 12, seed=0).inertia
    assert large < small


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500), k=st.integers(1, 16))
def test_kmeans_assignment_is_nearest_centroid(seed, k):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(64, 3))
    result = kmeans(vectors, k, seed=seed)
    d = np.linalg.norm(vectors[:, None, :] - result.centroids[None, :, :], axis=2)
    np.testing.assert_array_equal(result.assignments, np.argmin(d, axis=1))


def test_codebook_spec_bits_and_storage():
    spec = CodebookSpec(name="scale", num_entries=4096, vector_dim=3)
    assert spec.index_bits == 12
    assert spec.storage_bytes == 4096 * 3 * 2
    small = CodebookSpec(name="sh", num_entries=512, vector_dim=45)
    assert small.index_bits == 9


def test_codebook_train_encode_decode_roundtrip():
    vectors, _ = clustered_vectors(num_clusters=8, per_cluster=40, spread=0.01, seed=3)
    spec = CodebookSpec(name="test", num_entries=8, vector_dim=3)
    codebook = Codebook.train(spec, vectors, seed=3)
    indices = codebook.encode(vectors)
    decoded = codebook.decode(indices)
    assert decoded.shape == vectors.shape
    assert np.mean(np.linalg.norm(decoded - vectors, axis=1)) < 0.1


def test_codebook_shape_validation():
    spec = CodebookSpec(name="test", num_entries=4, vector_dim=3)
    with pytest.raises(ValueError):
        Codebook(spec, np.zeros((4, 2)))
    codebook = Codebook(spec, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        codebook.encode(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        codebook.decode(np.array([7]))


@pytest.mark.parametrize("dim,entries", [(3, 64), (4, 500), (45, 32)])
def test_train_encode_hands_off_the_encoding(dim, entries):
    # Fewer entries than vectors: the hand-off is the search encode runs.
    vectors, _ = clustered_vectors(num_clusters=7, per_cluster=90, dim=dim, seed=dim)
    spec = CodebookSpec(name="test", num_entries=entries, vector_dim=dim)
    codebook, indices = Codebook.train_encode(spec, vectors, seed=5)
    assert indices.dtype == np.int64
    assert indices.tobytes() == codebook.encode(vectors).tobytes()
    assert Codebook.train(spec, vectors, seed=5).centroids.tobytes() == codebook.centroids.tobytes()


@pytest.mark.parametrize("dim", [3, 45])
def test_padded_train_encode_decodes_like_encode(dim):
    # As many entries as vectors or more, with exact duplicate rows: each
    # vector keeps its own entry, which holds the same bits as the entry
    # encode picks.
    rng = np.random.default_rng(dim)
    distinct = rng.normal(size=(40, dim))
    vectors = np.vstack([distinct, distinct[rng.integers(0, 40, size=60)]])
    for entries in (len(vectors), 4096):
        spec = CodebookSpec(name="test", num_entries=entries, vector_dim=dim)
        codebook, indices = Codebook.train_encode(spec, vectors)
        decoded = codebook.decode(indices)
        assert decoded.tobytes() == codebook.decode(codebook.encode(vectors)).tobytes()
        assert decoded.tobytes() == vectors.tobytes()


@pytest.mark.xfail(
    strict=True,
    reason="encode's expanded distance ||x||^2 - 2 x.c + ||c||^2 cannot tell "
    "apart vectors within its rounding error, so it may pick another vector's entry",
)
def test_padded_train_encode_decodes_like_encode_near_float32_max():
    # Two scale vectors 1e30 apart under a float32-max component: the
    # expansion's rounding error (about 1e61) hides their squared distance.
    largest = float(np.finfo(np.float32).max)
    vectors = np.array([[1e-30, 1e30, largest], [1e-30, 1e-30, largest]])
    spec = CodebookSpec(name="scale", num_entries=4096, vector_dim=3)
    codebook, indices = Codebook.train_encode(spec, vectors)
    encoded = codebook.encode(vectors)
    assert codebook.decode(encoded).tobytes() == codebook.decode(indices).tobytes()
