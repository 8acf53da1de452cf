"""Differential tests: blocked k-means and encode against the plain originals.

The oracle below is a frozen copy of the straightforward implementation
(``rng.choice`` k-means++ seeding, one distance matrix per 8192-row chunk,
a per-cluster ``mean`` Lloyd update, and the same chunked ``encode``).  The
blocked implementation must reproduce it bit for bit: centroids,
assignments, inertia, iteration count and encode indices.
"""

import numpy as np
import pytest

from repro.compression.codebook import Codebook, CodebookSpec
from repro.compression.kmeans import (
    BLOCK_ELEMENTS,
    MIN_BLOCK_ROWS,
    _squared_distances_to,
    kmeans,
    nearest_centroids,
)


# ----------------------------------------------------------------------
# oracle: the original implementation, frozen
# ----------------------------------------------------------------------
def _oracle_closest(vectors, centroids, chunk=8192):
    n = len(vectors)
    assignments = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.float64)
    cent_sq = np.sum(centroids * centroids, axis=1)
    for start in range(0, n, chunk):
        block = vectors[start : start + chunk]
        cross = block @ centroids.T
        d2 = np.sum(block * block, axis=1)[:, None] - 2.0 * cross + cent_sq[None, :]
        idx = np.argmin(d2, axis=1)
        assignments[start : start + chunk] = idx
        distances[start : start + chunk] = np.clip(
            d2[np.arange(len(block)), idx], 0.0, None
        )
    return assignments, distances


def _oracle_init(vectors, k, rng):
    n = len(vectors)
    centroids = np.empty((k, vectors.shape[1]), dtype=np.float64)
    first = rng.integers(0, n)
    centroids[0] = vectors[first]
    closest_d2 = np.sum((vectors - centroids[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest_d2.sum()
        if total <= 1e-18:
            centroids[i:] = centroids[i - 1]
            break
        probs = closest_d2 / total
        choice = rng.choice(n, p=probs)
        centroids[i] = vectors[choice]
        d2_new = np.sum((vectors - centroids[i]) ** 2, axis=1)
        closest_d2 = np.minimum(closest_d2, d2_new)
    return centroids


def _oracle_kmeans(vectors, k, max_iterations=25, tolerance=1e-6, seed=0, sample_limit=50_000):
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    rng = np.random.default_rng(seed)
    if k >= n:
        centroids = np.concatenate([vectors, np.repeat(vectors[-1:], k - n, axis=0)], axis=0)
        return centroids, np.arange(n, dtype=np.int64), 0.0, 0
    if n > sample_limit:
        fit_vectors = vectors[rng.choice(n, size=sample_limit, replace=False)]
    else:
        fit_vectors = vectors
    centroids = _oracle_init(fit_vectors, k, rng)
    previous_inertia = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        assignments, distances = _oracle_closest(fit_vectors, centroids)
        inertia = float(distances.sum())
        for ci in range(k):
            members = fit_vectors[assignments == ci]
            if len(members) > 0:
                centroids[ci] = members.mean(axis=0)
            else:
                centroids[ci] = fit_vectors[np.argmax(distances)]
        if previous_inertia - inertia <= tolerance * max(previous_inertia, 1e-12):
            previous_inertia = inertia
            break
        previous_inertia = inertia
    assignments, distances = _oracle_closest(vectors, centroids)
    return centroids, assignments, float(distances.sum()), iterations


def _oracle_encode(centroids, vectors):
    cent_sq = np.sum(centroids * centroids, axis=1)
    indices = np.empty(len(vectors), dtype=np.int64)
    chunk = 8192
    for start in range(0, len(vectors), chunk):
        block = vectors[start : start + chunk]
        d2 = (
            np.sum(block * block, axis=1)[:, None]
            - 2.0 * block @ centroids.T
            + cent_sq[None, :]
        )
        indices[start : start + chunk] = np.argmin(d2, axis=1)
    return indices


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_kmeans_matches_oracle(vectors, k, **kwargs):
    result = kmeans(vectors, k, **kwargs)
    centroids, assignments, inertia, iterations = _oracle_kmeans(vectors, k, **kwargs)
    assert_same_bits(result.centroids, centroids)
    assert_same_bits(result.assignments, assignments)
    assert_same_bits(np.float64(result.inertia), np.float64(inertia))
    assert result.iterations == iterations
    return result


def assert_encode_matches_oracle(centroids, vectors):
    spec = CodebookSpec(name="test", num_entries=len(centroids), vector_dim=centroids.shape[1])
    assert_same_bits(Codebook(spec, centroids).encode(vectors), _oracle_encode(centroids, vectors))


def block_rows(k):
    return max(BLOCK_ELEMENTS // k, MIN_BLOCK_ROWS)


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 45])
@pytest.mark.parametrize("k", [1, 2, 64, 512])
def test_kmeans_matches_oracle_across_widths_and_sizes(d, k):
    rng = np.random.default_rng(1000 * d + k)
    vectors = rng.normal(size=(700, d))
    result = assert_kmeans_matches_oracle(vectors, k, max_iterations=12, seed=d)
    assert_encode_matches_oracle(result.centroids, vectors)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 45])
def test_padded_codebook_matches_oracle(d):
    # k >= n: the centroids are the inputs padded with the last row, so
    # encoding meets exact ties between duplicated entries.
    rng = np.random.default_rng(d)
    vectors = rng.normal(size=(300, d))
    for k in (300, 4096):
        result = assert_kmeans_matches_oracle(vectors, k, seed=d)
        assert_encode_matches_oracle(result.centroids, vectors)
        assert_encode_matches_oracle(result.centroids, rng.normal(size=(150, d)))


def test_registry_shaped_codebook_matches_oracle():
    # The shape of the largest registry scenes' scale/colour groups.
    rng = np.random.default_rng(4200)
    vectors = rng.normal(0.0, 0.5, size=(4200, 3))
    result = assert_kmeans_matches_oracle(vectors, 4096, max_iterations=12)
    assert_encode_matches_oracle(result.centroids, vectors)


@pytest.mark.parametrize("d", [2, 3])
def test_duplicated_and_tied_rows_match_oracle(d):
    rng = np.random.default_rng(7 + d)
    # Fewer distinct rows than clusters: seeding runs out of distance and
    # duplicates centroids, and Lloyd leaves clusters empty.
    distinct = rng.normal(size=(10, d))
    repeated = distinct[rng.integers(0, 10, size=600)]
    result = assert_kmeans_matches_oracle(repeated, 64, seed=3)
    assert_encode_matches_oracle(result.centroids, repeated)
    # Rounded values: many equal distances (and negative zeros).
    rounded = np.round(rng.normal(size=(800, d)), 1)
    result = assert_kmeans_matches_oracle(rounded, 64, seed=4)
    assert_encode_matches_oracle(result.centroids, rounded)
    assert_encode_matches_oracle(np.round(result.centroids, 1), rounded)


def test_sample_limit_subsample_matches_oracle():
    vectors = np.random.default_rng(11).normal(size=(900, 3))
    result = assert_kmeans_matches_oracle(vectors, 64, sample_limit=300, seed=5)
    assert len(result.assignments) == 900


@pytest.mark.parametrize("k,d", [(4096, 4), (512, 45)])
def test_every_short_tail_block_matches_oracle(k, d):
    # n shorter than one block, exactly whole blocks, and every tail that
    # is folded into the block before it (1 .. MIN_BLOCK_ROWS - 1 rows).
    rows = block_rows(k)
    rng = np.random.default_rng(k + d)
    centroids = rng.normal(size=(k, d))
    for n in [1, 7, rows - 1, rows, 2 * rows] + [2 * rows + t for t in range(1, MIN_BLOCK_ROWS + 2)]:
        # A product of one or two rows rounds differently from the full
        # product in only some elements, so the shortest tails get many draws.
        for _ in range(6 if n - 2 * rows in (1, 2) else 1):
            vectors = rng.normal(size=(n, d))
            assert_encode_matches_oracle(centroids, vectors)
            for actual, expected in zip(
                nearest_centroids(vectors, centroids), _oracle_closest(vectors, centroids)
            ):
                assert_same_bits(actual, expected)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 45])
def test_seeding_distances_match_row_sums(d):
    # Short rows are accumulated column by column; that must round exactly
    # like the row reduction the oracle's seeding uses.
    vectors = np.random.default_rng(d).normal(size=(500, d))
    distances_to = _squared_distances_to(vectors)
    for center in vectors[:3]:
        assert_same_bits(distances_to(center), np.sum((vectors - center) ** 2, axis=1))


def test_kmeans_with_folded_tails_matches_oracle():
    rows = block_rows(512)
    vectors = np.random.default_rng(13).normal(size=(2 * rows + MIN_BLOCK_ROWS, 4))
    for tail in (1, 7, MIN_BLOCK_ROWS - 1):
        assert_kmeans_matches_oracle(vectors[: 2 * rows + tail], 512, seed=tail)


def test_wide_sh_group_encode_matches_oracle():
    rng = np.random.default_rng(45)
    centroids = rng.normal(size=(512, 45))
    for n in (1, 2, 1024 + 3, 2048 + 17):
        assert_encode_matches_oracle(centroids, rng.normal(size=(n, 45)))


def test_nan_input_still_raises():
    vectors = np.random.default_rng(0).normal(size=(50, 3))
    vectors[17, 1] = np.nan
    with pytest.raises(ValueError):
        _oracle_kmeans(vectors, 8)
    with pytest.raises(ValueError):
        kmeans(vectors, 8)
