"""Differential tests: blocked k-means and encode against the plain originals.

The oracle below is a frozen copy of the straightforward implementation
(``rng.choice`` k-means++ seeding, one distance matrix per 8192-row chunk,
a per-cluster ``mean`` Lloyd update, and the same chunked ``encode``).  The
blocked implementation must reproduce it bit for bit: centroids,
assignments, inertia, iteration count and encode indices, and seeding must
leave the RNG where ``rng.choice`` leaves it.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.codebook import Codebook, CodebookSpec
from repro.compression.kmeans import (
    BLOCK_ELEMENTS,
    DRAW_BLOCK,
    MIN_BLOCK_ROWS,
    _distance_lower_bounds,
    _kmeans_plus_plus_init,
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
    # The shape of the largest registry scenes' scale/colour groups.  No
    # seeding draw comes near a rounding margin, so none falls back.
    rng = np.random.default_rng(4200)
    vectors = rng.normal(0.0, 0.5, size=(4200, 3))
    result = assert_kmeans_matches_oracle(vectors, 4096, max_iterations=12)
    assert result.seeding_fallbacks == 0
    assert_encode_matches_oracle(result.centroids, vectors)


def test_registry_shaped_sh_codebook_matches_oracle():
    # A registry scene's SH group: 45-wide rows, 512 entries.
    rng = np.random.default_rng(2600)
    vectors = rng.normal(0.0, 0.5, size=(2600, 45))
    result = assert_kmeans_matches_oracle(vectors, 512, max_iterations=12)
    assert result.seeding_fallbacks == 0


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


# ----------------------------------------------------------------------
# wide rows: seeding prunes each draw with a rounding-safe lower bound
# ----------------------------------------------------------------------
WIDE = [8, 9, 45, 129]


def assert_seeding_matches_oracle(vectors, k, seed):
    """Seeding alone (no Lloyd), so inputs Lloyd cannot take stay testable.

    Both must raise alike, or agree on the centroids and on the RNG's next
    ``random()``.  Returns the number of draws that fell back.
    """
    oracle_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            expected = _oracle_init(vectors, k, oracle_rng)
        except ValueError:
            with pytest.raises(ValueError):
                _kmeans_plus_plus_init(vectors, k, rng)
            return 0
        actual, fallbacks = _kmeans_plus_plus_init(vectors, k, rng)
    assert_same_bits(actual, expected)
    assert rng.random() == oracle_rng.random()
    return fallbacks


def assert_seeding_raises_like_oracle(vectors, k, seed):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            _oracle_init(vectors, k, np.random.default_rng(seed))
        with pytest.raises(ValueError):
            _kmeans_plus_plus_init(vectors, k, np.random.default_rng(seed))


@pytest.mark.parametrize("d", WIDE)
@pytest.mark.parametrize("case", ["normal", "tiny", "huge", "far", "duplicates"])
def test_wide_bounds_never_exceed_the_row_sums(d, case):
    # The pruning is exact only if no bound exceeds the row sum the oracle
    # computes.  Seeding stops before subnormal distances matter (their
    # total is under 1e-18), so the underflow floor is checked here.
    rng = np.random.default_rng(10 * d + len(case))
    vectors = {
        "normal": lambda: rng.normal(size=(400, d)),
        "tiny": lambda: rng.normal(size=(400, d)) * 1e-160,
        "huge": lambda: rng.normal(size=(400, d)) * 1e150,
        "far": lambda: 1e6 + rng.normal(0.0, 1e-3, size=(400, d)),
        "duplicates": lambda: rng.normal(size=(8, d))[rng.integers(0, 8, size=400)],
    }[case]()
    lower_bound = _distance_lower_bounds(vectors)
    for index in range(0, len(vectors), 23):
        row_sums = np.sum((vectors - vectors[index]) ** 2, axis=1)
        assert np.all(lower_bound(index) <= row_sums)


@pytest.mark.parametrize("d", WIDE)
def test_wide_kmeans_matches_oracle(d):
    rng = np.random.default_rng(300 + d)
    vectors = rng.normal(size=(900, d))
    for k in (64, 300):
        result = assert_kmeans_matches_oracle(vectors, k, max_iterations=12, seed=k + d)
        assert_encode_matches_oracle(result.centroids, vectors)


@pytest.mark.parametrize("d", WIDE)
@pytest.mark.parametrize("scale", [1e-160, 1e150])
def test_wide_seeding_at_extreme_scales_matches_oracle(d, scale):
    # 1e-160: every square underflows into subnormals, where rounding
    # error is absolute and only the floor keeps the bound below the row
    # sum.  1e150: squares near the top of the range, still finite.
    vectors = np.random.default_rng(d).normal(size=(700, d)) * scale
    for k, seed in ((64, 1), (256, 2)):
        assert_seeding_matches_oracle(vectors, k, seed)
    assert_kmeans_matches_oracle(vectors, 64, seed=3)


@pytest.mark.parametrize("d", WIDE)
def test_wide_overflowing_rows_raise_like_oracle(d):
    vectors = np.random.default_rng(d).normal(size=(300, d)) * 1e160
    assert_seeding_raises_like_oracle(vectors, 16, seed=4)


@pytest.mark.parametrize("d", WIDE)
def test_wide_tight_far_cluster_matches_oracle(d):
    # ||x||^2 and 2 x.c cancel to noise far above the distances: the bound
    # proves nothing and every row takes the exact sum.
    rng = np.random.default_rng(50 + d)
    vectors = 1e6 + rng.normal(0.0, 1e-3, size=(700, d))
    for k, seed in ((64, 5), (256, 6)):
        assert_seeding_matches_oracle(vectors, k, seed)
    assert_kmeans_matches_oracle(vectors, 64, seed=7)


@pytest.mark.parametrize("d", WIDE)
def test_wide_rows_whose_norms_overflow_match_oracle(d):
    # Squared norms overflow to inf (bounds are NaN) while the distances
    # stay finite, so non-finite bounds must count as candidates.
    rng = np.random.default_rng(70 + d)
    vectors = 1e154 * (1.0 + rng.normal(0.0, 1e-3, size=(500, d)))
    for k, seed in ((32, 8), (128, 9)):
        assert_seeding_matches_oracle(vectors, k, seed)


@pytest.mark.parametrize("d", WIDE)
def test_wide_duplicate_and_zero_rows_match_oracle(d):
    rng = np.random.default_rng(90 + d)
    distinct = rng.normal(size=(12, d))
    duplicates = distinct[rng.integers(0, 12, size=600)]
    assert_kmeans_matches_oracle(duplicates, 64, seed=10)
    zeros = np.zeros((400, d))
    assert_kmeans_matches_oracle(zeros, 16, seed=11)
    mixed = np.vstack([zeros, rng.normal(size=(300, d)), duplicates[:200]])
    for k, seed in ((64, 12), (500, 13)):
        assert_seeding_matches_oracle(mixed, k, seed)
    assert_kmeans_matches_oracle(mixed, 64, seed=14)


@pytest.mark.parametrize("d", WIDE)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wide_non_finite_rows_raise_like_oracle(d, bad):
    vectors = np.random.default_rng(d).normal(size=(200, d))
    vectors[[17, 150], d // 2] = bad
    for seed in (15, 16):
        assert_seeding_raises_like_oracle(vectors, 8, seed)


def test_wide_fortran_ordered_rows_match_oracle():
    # A row subset sums like the whole array only in C order, so other
    # layouts take the full evaluation.  (Pruned sums would differ from the
    # oracle's in the last bit only, which a draw almost never sees.)
    vectors = np.asfortranarray(np.random.default_rng(17).normal(size=(600, 45)))
    assert_seeding_matches_oracle(vectors, 128, seed=17)


# ----------------------------------------------------------------------
# the k-means++ draw: block sums under a rounding margin
# ----------------------------------------------------------------------
kmeans_module = importlib.import_module("repro.compression.kmeans")


def seeded_rows(rows, n, d, scale, seed):
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=(n, d)) * scale
    if rows == "normal":
        return normal
    if rows == "zeros":
        return np.zeros((n, d))
    duplicates = normal[: max(1, n // 10)][rng.integers(0, max(1, n // 10), size=n)]
    if rows == "duplicates":
        return duplicates
    # "mixed": zero, distinct and duplicated rows interleaved.
    mixed = np.where((np.arange(n) % 3 == 0)[:, None], 0.0, normal)
    return np.where((np.arange(n) % 3 == 1)[:, None], duplicates, mixed)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 300) | st.sampled_from([63, 64, 65, 127, 128, 129, 256]),
    d=st.sampled_from([1, 3, 4, 8, 45]),
    scale=st.sampled_from([1e-160, 1.0, 1e150]),
    rows=st.sampled_from(["normal", "duplicates", "zeros", "mixed"]),
    k_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_matches_choice(n, d, scale, rows, k_share, seed):
    # n below, at and off multiples of DRAW_BLOCK; subnormal, unit and
    # near-overflow squares; ties and all-zero distances.
    vectors = seeded_rows(rows, n, d, scale, seed)
    assert_seeding_matches_oracle(vectors, 1 + int(k_share * (n - 1)), seed)


@pytest.mark.parametrize("n", [1, DRAW_BLOCK - 1, DRAW_BLOCK, 300])
def test_every_draw_can_fall_back(monkeypatch, n):
    # A margin of 3/4 of the total: u * total always lies within it of one
    # neighbouring partial sum, so every draw takes the full cumulative sum
    # with the random() the block draw already took.
    blocks = -(-n // DRAW_BLOCK)
    eps = np.finfo(np.float64).eps
    monkeypatch.setattr(
        kmeans_module, "DRAW_SLACK", 0.75 / ((n + DRAW_BLOCK + blocks + 8) * eps)
    )
    vectors = np.random.default_rng(n).normal(size=(n, 3))
    k = max(1, n // 2)
    assert assert_seeding_matches_oracle(vectors, k, seed=n) == k - 1
    if n > 1:
        assert kmeans(vectors, k, seed=n).seeding_fallbacks == k - 1


@pytest.mark.parametrize("relative", [-1e-14, 0.0, 1e-14])
def test_total_within_the_margin_of_the_stop(relative):
    # After the first centroid the distances sum to 1e-18 within far less
    # than the margin, so only the pairwise total may decide whether
    # seeding stops and duplicates the first centroid or draws.
    n, d, seed = 200, 3, 21
    vectors = np.random.default_rng(seed).normal(size=(n, d))
    first = np.random.default_rng(seed).integers(0, n)
    total = np.sum((vectors - vectors[first]) ** 2, axis=1).sum()
    vectors *= np.sqrt(1e-18 * (1.0 + relative) / total)
    total = np.sum((vectors - vectors[first]) ** 2, axis=1).sum()
    blocks = -(-n // DRAW_BLOCK)
    margin = (
        kmeans_module.DRAW_SLACK * (n + DRAW_BLOCK + blocks + 8) * np.finfo(np.float64).eps * 1e-18
    )
    assert abs(total - 1e-18) < margin
    fallbacks = assert_seeding_matches_oracle(vectors, 16, seed)
    assert fallbacks == (total > 1e-18)


def test_totals_near_overflow_take_the_full_sum():
    # Seed 11 starts at row 0, so the distances are 0, a^2 and 4 a^2: a
    # finite total of 0.6 times the largest double, where another order of
    # the sum might overflow, so the draw takes the full cumulative sum.
    a = np.sqrt(0.12 * np.finfo(np.float64).max)
    vectors = np.array([[0.0], [a], [2.0 * a]])
    assert assert_seeding_matches_oracle(vectors, 2, seed=11) == 1


def near_boundary_rows(seed, n=200, ulps=30):
    """1-D inputs whose first draw lands within a few ulps of a partial sum.

    Row ``j``'s weight is solved so that ``u`` times the exact total, for
    the ``u`` that seeding with ``seed`` draws first, is exactly the prefix
    through ``j`` (or, when no positive weight does that, through
    ``j - 1``); the row is then moved by -ulps .. ulps ulps.
    """
    rng = np.random.default_rng(seed)
    first, u = rng.integers(0, n), rng.random()
    x = np.random.default_rng(1000 + seed).random(n) + 0.5
    x[first] = 0.0
    prefix = np.cumsum(x * x)
    j = int(np.searchsorted(prefix, u * prefix[-1]))
    assert j not in (0, first)
    before, after = prefix[j - 1], prefix[-1] - prefix[j]
    weight = (u * (before + after) - before) / (1.0 - u)
    if weight <= 0:
        weight = before / u - before - after
    root = np.sqrt(weight)
    for step in range(-ulps, ulps + 1):
        rows = x.copy()
        rows[j] = root + step * np.spacing(root)
        yield rows[:, None]


#: Seeds for which block sums alone, without the margin, pick another row.
NEAR_SEEDS = (7, 8, 10, 14, 17)


def test_draws_at_a_partial_sum_fall_back_and_match_choice():
    fallbacks = 0
    for seed in NEAR_SEEDS:
        for rows in near_boundary_rows(seed):
            fallbacks += assert_seeding_matches_oracle(rows, 2, seed)
    assert fallbacks > 0


def test_without_the_margin_some_draws_at_a_partial_sum_differ(monkeypatch):
    # What the margin is for: block sums alone pick another index than
    # rng.choice for some of these inputs.
    monkeypatch.setattr(kmeans_module, "DRAW_SLACK", 0.0)
    differ = 0
    for seed in NEAR_SEEDS:
        for rows in near_boundary_rows(seed):
            expected = _oracle_init(rows, 2, np.random.default_rng(seed))
            actual, _ = _kmeans_plus_plus_init(rows, 2, np.random.default_rng(seed))
            differ += actual.tobytes() != expected.tobytes()
    assert differ > 0
