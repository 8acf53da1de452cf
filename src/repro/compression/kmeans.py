"""A small k-means implementation (k-means++ init, Lloyd iterations).

Used to build the vector-quantization codebooks.  It guarantees that the
returned codebook has exactly ``k`` rows even when there are fewer than
``k`` distinct inputs (duplicated centroids).

Every nearest-centroid search (the Lloyd step, the final assignment and
:meth:`repro.compression.codebook.Codebook.encode`) goes through
:func:`nearest_centroids`, which works in row blocks of about
``BLOCK_ELEMENTS`` distances (4 MB) so the ``n x k`` distance matrix never
exists at once.  The fast paths return the same bits as a plain evaluation
(one distance matrix, ``rng.choice`` seeding, a per-cluster ``mean``
update), under these rules:

* each block evaluates ``||x||^2 - 2 x.c + ||c||^2`` in that operation
  order; the in-place form used here rounds identically;
* no block is shorter than ``MIN_BLOCK_ROWS`` rows: a short tail joins the
  block before it, because BLAS may round the cross term of a product with
  very few rows differently in the last bit (a one-row product takes the
  matrix-vector path), while blocks of ``MIN_BLOCK_ROWS`` rows or more
  match a single full-size product;
* k-means++ draws with ``Generator.choice``'s own arithmetic (normalised
  cumulative sum, one ``random()``, right-sided search), so the chosen
  index and the RNG stream are unchanged;
* for ``d < 8`` the seeding distances accumulate column by column, which
  is the order NumPy sums a row of fewer than 8 terms in; wider rows keep
  the row reduction, which NumPy sums pairwise;
* the Lloyd update sums each cluster per column with ``np.bincount``,
  which adds rows in member order exactly as ``mean(axis=0)`` does for
  ``d >= 2``; NumPy reduces an ``(m, 1)`` block pairwise, so ``d == 1``
  keeps the per-cluster mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Distances evaluated per block of :func:`nearest_centroids` (4 MB of float64).
BLOCK_ELEMENTS = 1 << 19
#: Fewest rows in a block when the input is split (see the module docstring).
MIN_BLOCK_ROWS = 16


@dataclass
class KMeansResult:
    """Result of a k-means run."""

    centroids: np.ndarray    # (k, d)
    assignments: np.ndarray  # (n,) index of the closest centroid per input
    inertia: float           # sum of squared distances to assigned centroids
    iterations: int


def nearest_centroids(vectors: np.ndarray, centroids: np.ndarray) -> tuple:
    """Closest centroid index and squared distance per vector, in row blocks."""
    n = len(vectors)
    assignments = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.float64)
    cent_sq = np.sum(centroids * centroids, axis=1)
    rows = max(BLOCK_ELEMENTS // max(len(centroids), 1), MIN_BLOCK_ROWS)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] < MIN_BLOCK_ROWS:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [n]):
        block = vectors[start:stop]
        # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, evaluated in that order.
        d2 = block @ centroids.T
        d2 *= -2.0
        d2 += np.sum(block * block, axis=1)[:, None]
        d2 += cent_sq
        idx = np.argmin(d2, axis=1)
        assignments[start:stop] = idx
        distances[start:stop] = d2[np.arange(len(block)), idx]
    np.clip(distances, 0.0, None, out=distances)
    return assignments, distances


def _squared_distances_to(vectors: np.ndarray):
    """``center -> np.sum((vectors - center) ** 2, axis=1)``, bit for bit."""
    if vectors.shape[1] >= 8:
        return lambda center: np.sum((vectors - center) ** 2, axis=1)
    # NumPy sums a row this short in order, so whole columns can be added.
    columns = vectors.T.copy()

    def squared_distances(center: np.ndarray) -> np.ndarray:
        d2 = (columns[0] - center[0]) ** 2
        for column, value in zip(columns[1:], center[1:]):
            d2 += (column - value) ** 2
        return d2

    return squared_distances


def _kmeans_plus_plus_init(
    vectors: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding."""
    n, d = vectors.shape
    centroids = np.empty((k, d), dtype=np.float64)
    squared_distances = _squared_distances_to(vectors)
    first = rng.integers(0, n)
    centroids[0] = vectors[first]
    closest_d2 = squared_distances(centroids[0])
    for i in range(1, k):
        total = closest_d2.sum()
        if total <= 1e-18:
            # All remaining vectors identical to chosen centroids: duplicate.
            centroids[i:] = centroids[i - 1]
            break
        if not np.isfinite(total):
            raise ValueError("k-means++ distances are not finite (NaN or inf input)")
        cdf = np.cumsum(closest_d2 / total)
        cdf /= cdf[-1]
        choice = cdf.searchsorted(rng.random(), side="right")
        centroids[i] = vectors[choice]
        np.minimum(closest_d2, squared_distances(centroids[i]), out=closest_d2)
    return centroids


def _update_centroids(
    vectors: np.ndarray,
    assignments: np.ndarray,
    distances: np.ndarray,
    centroids: np.ndarray,
) -> None:
    """Lloyd update in place: member means, empty clusters at the farthest point."""
    k, d = centroids.shape
    counts = np.bincount(assignments, minlength=k)
    filled = counts > 0
    if d == 1:
        for ci in np.flatnonzero(filled):
            centroids[ci] = vectors[assignments == ci].mean(axis=0)
    else:
        sums = np.stack(
            [np.bincount(assignments, weights=column, minlength=k) for column in vectors.T],
            axis=1,
        )
        centroids[filled] = sums[filled] / counts[filled, None]
    # Re-seed empty clusters at the farthest point.
    centroids[~filled] = vectors[np.argmax(distances)]


def kmeans(
    vectors: np.ndarray,
    k: int,
    max_iterations: int = 25,
    tolerance: float = 1e-6,
    seed: int = 0,
    sample_limit: int = 50_000,
) -> KMeansResult:
    """Cluster ``vectors`` into ``k`` centroids.

    Lloyd stops after one update whatever ``max_iterations`` is, because
    ``previous_inertia`` starts at ``inf`` and ``inf - inertia <= tolerance
    * inf`` holds on the first pass (a known defect, kept so VQ-dependent
    results stay put).

    Parameters
    ----------
    vectors:
        ``(n, d)`` input vectors.
    k:
        Codebook size.  If ``k >= n`` the centroids are the (padded) inputs.
    max_iterations:
        Lloyd iteration cap.
    tolerance:
        Relative inertia improvement below which iteration stops.
    seed:
        RNG seed (k-means++ and subsampling).
    sample_limit:
        If ``n`` exceeds this, centroids are fitted on a random subsample and
        only the final assignment uses all vectors (standard practice for
        codebook training).
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
    n, _ = vectors.shape
    if n == 0:
        raise ValueError("cannot run k-means on zero vectors")
    if k <= 0:
        raise ValueError("k must be positive")
    rng = np.random.default_rng(seed)

    if k >= n:
        centroids = np.concatenate(
            [vectors, np.repeat(vectors[-1:], k - n, axis=0)], axis=0
        )
        assignments = np.arange(n, dtype=np.int64)
        return KMeansResult(
            centroids=centroids, assignments=assignments, inertia=0.0, iterations=0
        )

    if n > sample_limit:
        fit_vectors = vectors[rng.choice(n, size=sample_limit, replace=False)]
    else:
        fit_vectors = vectors

    centroids = _kmeans_plus_plus_init(fit_vectors, k, rng)
    previous_inertia = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        assignments, distances = nearest_centroids(fit_vectors, centroids)
        inertia = float(distances.sum())
        _update_centroids(fit_vectors, assignments, distances, centroids)
        if previous_inertia - inertia <= tolerance * max(previous_inertia, 1e-12):
            previous_inertia = inertia
            break
        previous_inertia = inertia

    assignments, distances = nearest_centroids(vectors, centroids)
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=float(distances.sum()),
        iterations=iterations,
    )
