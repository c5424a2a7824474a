"""Order statistics for latency samples."""

from __future__ import annotations

from typing import Sequence

TAIL_BEYOND = 10


def _rank(p: int, n: int) -> int:
    return max(1, -(-p * n // 100))  # ceil(p * n / 100) in integers


def percentile(samples: Sequence[float], p: int) -> float:
    """Nearest-rank p-th percentile, for a whole number p."""
    return sorted(samples)[_rank(p, len(samples)) - 1]


def tail(samples: Sequence[float]) -> tuple[int, float]:
    """(p, value) for the highest whole percentile p whose nearest rank leaves
    at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned as p = 100.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return 100, max(samples)
    p = 100
    while n - _rank(p, n) < TAIL_BEYOND:
        p -= 1
    return p, percentile(samples, p)
