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
* a k-means++ draw takes one ``random()`` ``u`` and picks the index that
  ``Generator.choice`` picks (the first whose normalised cumulative sum
  exceeds ``u``) without that n-long sum: ``closest_d2`` lives in a
  zero-padded ``(blocks, DRAW_BLOCK)`` buffer, the draw sums each block,
  takes the prefix ``P`` of those sums, finds the block holding
  ``u * P[-1]`` and then the index from that block's own cumulative sum.
  With ``e = eps / 2`` (the unit roundoff), a sum of ``m`` non-negative
  terms in any order is off by at most ``(m - 1) e`` of the exact sum (to
  first order; ``n e`` is far below 1 here), so each of these partial
  sums, and ``u * P[-1]``, is within ``(blocks + DRAW_BLOCK + 1) e`` of
  the total from its exact value; the normalised cumulative sum of
  ``Generator.choice`` (NumPy's pairwise total, the division, the
  in-order ``cumsum``, the division by its last entry) is within ``(2n +
  1) e`` plus ``(n + 2) 2**-1075`` of underflow from the exact one,
  whatever its total rounded to.  The draw keeps its index
  only when ``u * P[-1]`` lies more than ``DRAW_SLACK (n + DRAW_BLOCK +
  blocks + 8) eps`` times ``P[-1]`` from both neighbouring partial sums,
  over four times what those bounds add up to, so ``Generator.choice``
  lands between the same two.  Otherwise, and when ``P[-1]`` is within
  that margin of the ``1e-18`` stop (where only the pairwise total
  decides), not finite or above half the largest double (where another
  order of the sum may overflow), the draw takes ``Generator.choice``'s
  arithmetic with the same ``u``; ``KMeansResult.seeding_fallbacks``
  counts those draws.  Either way the chosen index and the RNG stream are
  unchanged;
* for ``d < 8`` the seeding distances accumulate column by column, which
  is the order NumPy sums a row of fewer than 8 terms in; wider rows keep
  the row reduction, which NumPy sums pairwise;
* wider rows prune each draw after the first with a lower bound: one
  matrix-vector product gives ``||x||^2 - 2 x.c + ||c||^2`` for every row,
  less ``(d + 3) eps (||x|| + ||c||)^2`` (more than the rounding error of
  that expansion plus that of the row sum) and a floor of ``d + 3``
  smallest normal numbers (more than underflow can add).  Only rows whose
  bound is below their ``closest_d2``, or is not finite, get the row sum.
  A pruned row is exact: its row sum, as NumPy rounds it, cannot fall
  below the bound, which is at least ``closest_d2``, so
  ``minimum(closest_d2, distance)`` would have kept ``closest_d2``.  A
  subset of rows sums like the whole array only in C order, so other
  layouts, like narrow rows (where the bound costs more than it saves),
  keep the full evaluation;
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
#: Entries per block of a k-means++ draw (see the module docstring).
DRAW_BLOCK = 64
#: How many times the draw's margin exceeds its rounding-error bound.
DRAW_SLACK = 4
#: Largest block total a draw trusts: below it no order of the sum overflows.
_DRAW_TOTAL_LIMIT = float(np.finfo(np.float64).max) / 2


@dataclass
class KMeansResult:
    """Result of a k-means run."""

    centroids: np.ndarray    # (k, d)
    assignments: np.ndarray  # (n,) index of the closest centroid per input
    inertia: float           # sum of squared distances to assigned centroids
    iterations: int
    seeding_fallbacks: int = 0  # k-means++ draws that took the full cumulative sum


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


def _distance_lower_bounds(vectors: np.ndarray):
    """Lower bounds on squared distances to one row: ``index -> bound``.

    Every row's ``np.sum((x - vectors[index]) ** 2)`` is at least its entry
    of ``bound`` (the margin is in the module docstring).
    """
    d = vectors.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.sum(vectors * vectors, axis=1)
        # radii[i] + radii[j] is sqrt((d + 3) eps) (||x_i|| + ||x_j||).
        radii = np.sqrt(squares * ((d + 3) * np.finfo(np.float64).eps))
    floor = (d + 3) * np.finfo(np.float64).tiny

    def lower_bound(index: int) -> np.ndarray:
        # Huge rows overflow the bound, not the distance: a non-finite bound
        # proves nothing, and the caller evaluates those rows exactly.
        with np.errstate(over="ignore", invalid="ignore"):
            bound = vectors @ vectors[index]
            bound *= -2.0
            bound += squares
            bound += squares[index]
            margin = radii + radii[index]
            margin *= margin
            margin += floor
            bound -= margin
        return bound

    return lower_bound


def _block_draw(
    padded: np.ndarray, prefix: np.ndarray, target: float, margin: float
):
    """First index whose running sum exceeds ``target``, or ``None``.

    ``None`` when ``target`` lies within ``margin`` of a neighbouring
    partial sum, where rounding could move the index (module docstring).
    """
    block = int(prefix.searchsorted(target, side="right"))
    if block == len(prefix):
        return None
    before = prefix[block - 1] if block else 0.0
    running = np.cumsum(padded[block])
    running += before
    j = int(running.searchsorted(target, side="right"))
    if j == DRAW_BLOCK:
        return None
    lower = running[j - 1] if j else before
    if target - lower <= margin or running[j] - target <= margin:
        return None
    return block * DRAW_BLOCK + j


def _kmeans_plus_plus_init(
    vectors: np.ndarray, k: int, rng: np.random.Generator
) -> tuple:
    """k-means++ seeding: the centroids and how many draws fell back."""
    n, d = vectors.shape
    centroids = np.empty((k, d), dtype=np.float64)
    squared_distances = _squared_distances_to(vectors)
    first = rng.integers(0, n)
    centroids[0] = vectors[first]
    blocks = -(-n // DRAW_BLOCK)
    padded = np.zeros((blocks, DRAW_BLOCK))
    closest_d2 = padded.reshape(-1)[:n]
    closest_d2[:] = squared_distances(centroids[0])
    relative_margin = (
        DRAW_SLACK * (n + DRAW_BLOCK + blocks + 8) * np.finfo(np.float64).eps
    )
    # A row subset sums like the whole array only in C order.
    lower_bound = (
        _distance_lower_bounds(vectors)
        if d >= 8 and vectors.flags.c_contiguous
        else None
    )
    fallbacks = 0
    for i in range(1, k):
        prefix = np.cumsum(padded.sum(axis=1))
        total = float(prefix[-1])
        margin = total * relative_margin
        choice = u = None
        if total < _DRAW_TOTAL_LIMIT and total - margin > 1e-18:
            u = rng.random()
            choice = _block_draw(padded, prefix, u * total, margin)
        if choice is None:
            # Generator.choice's own arithmetic, with the same random().
            total = closest_d2.sum()
            if total <= 1e-18:
                # All remaining vectors identical to chosen centroids: duplicate.
                centroids[i:] = centroids[i - 1]
                break
            if not np.isfinite(total):
                raise ValueError("k-means++ distances are not finite (NaN or inf input)")
            cdf = np.cumsum(closest_d2 / total)
            cdf /= cdf[-1]
            choice = cdf.searchsorted(rng.random() if u is None else u, side="right")
            fallbacks += 1
        centroids[i] = vectors[choice]
        if lower_bound is None:
            np.minimum(closest_d2, squared_distances(centroids[i]), out=closest_d2)
            continue
        bound = lower_bound(choice)
        rows = np.flatnonzero((bound < closest_d2) | ~np.isfinite(bound))
        exact = np.sum((vectors[rows] - centroids[i]) ** 2, axis=1)
        closest_d2[rows] = np.minimum(closest_d2[rows], exact)
    return centroids, fallbacks


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

    centroids, fallbacks = _kmeans_plus_plus_init(fit_vectors, k, rng)
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
        seeding_fallbacks=fallbacks,
    )
