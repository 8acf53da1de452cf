"""Order statistics used by the benchmark's metrics.

Latencies are kept per attempted op; a failed or refused op is recorded
as ``math.inf`` so it counts as missing every latency percentile.
Percentiles use the nearest-rank rule: the value at 1-based rank
``ceil(q * n)`` of the ``n`` attempted ops.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

#: Percentiles a run may report, lowest first.
CANDIDATE_PERCENTILES = (0.5, 0.9, 0.99, 0.999)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def rank(q: float, n: int) -> int:
    """1-based nearest rank of quantile ``q`` among ``n`` samples."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    if n < 1:
        raise ValueError("rank of an empty sample")
    # The epsilon keeps q * n from landing one rank high through
    # floating-point error (0.9 * 100 == 90.00000000000001).
    return max(1, math.ceil(q * n - 1e-9))


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank ``q`` quantile; failures (``inf``) sort last."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[rank(q, len(ordered)) - 1]


def beyond(q: float, n: int) -> int:
    """How many of ``n`` samples lie above the ``q`` quantile's rank."""
    return n - rank(q, n)


def highest_supported(
    n: int,
    candidates: Sequence[float] = CANDIDATE_PERCENTILES,
    min_beyond: int = MIN_BEYOND,
) -> Optional[float]:
    """The highest candidate quantile with ``min_beyond`` samples above it.

    ``n`` counts every attempted op, failed ones included, so a failure
    can push a percentile onto a missing sample but never shrinks the
    sample a percentile rests on.  ``None`` when even the lowest candidate
    lacks support.
    """
    supported = [q for q in candidates if n >= 1 and beyond(q, n) >= min_beyond]
    return max(supported) if supported else None


def mode_boundary(
    samples: Iterable[float],
    q: float,
    window: float = 0.05,
    jump: float = 0.25,
) -> Optional[str]:
    """A warning when the ``q`` quantile sits on a boundary between modes.

    Looks at the samples within ``window`` (a share of ``n``, at least one
    rank) on either side of the quantile's rank.  A gap between two
    neighbouring samples there wider than ``jump`` times the quantile's
    value means a small change in the mix would move the percentile from
    one mode to the other, so the reported value is not stable.  Returns
    the warning text, or ``None`` when the percentile lies inside one mode.
    """
    ordered = sorted(s for s in samples if math.isfinite(s))
    n = len(ordered)
    if n < 3:
        return None
    r = rank(q, n) - 1
    width = max(1, int(round(window * n)))
    lo, hi = max(0, r - width), min(n - 1, r + width)
    value = ordered[r]
    gap, at = max((ordered[i + 1] - ordered[i], i) for i in range(lo, hi))
    if value <= 0 or gap <= jump * value:
        return None
    return (
        f"p{format_quantile(q)} = {value:.4g} lies on a mode boundary: "
        f"samples {at + 1} and {at + 2} of {n} are {ordered[at]:.4g} and {ordered[at + 1]:.4g}"
    )


def format_quantile(q: float) -> str:
    """``0.9`` -> ``"90"``, ``0.999`` -> ``"99.9"``."""
    return f"{q * 100:.10g}"
