"""Order statistics for latency samples."""

from __future__ import annotations

# Candidate percentiles in basis points (1/100 of a percent), so that the
# "ten samples beyond" test is exact integer arithmetic.
LADDER_BP = (5000, 9000, 9900, 9990, 9999)
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten of n samples beyond it."""
    best = None
    for bp in LADDER_BP:
        if n * (10000 - bp) >= MIN_BEYOND * 10000:
            best = bp
    return None if best is None else best / 100


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with pct% of samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    bp = round(pct * 100)
    rank = -(-bp * len(ordered) // 10000)  # ceil(bp * n / 10000)
    return ordered[max(rank, 1) - 1]
