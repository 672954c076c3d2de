"""LRU stack-distance analysis (Mattson et al.).

Fully-associative LRU caches obey the inclusion property, so a single
pass computing each access's *stack distance* -- one plus the number of
distinct other lines touched since the previous access to the same line
-- yields the miss count for **every** cache size at once:

    miss(C lines) = #cold accesses + #accesses with distance > C.

This is what makes the paper's miss-rate-versus-cache-size figures
(5.2, 5.4, 5.5, 5.6, 6.2) cheap to regenerate: one pass per trace
instead of one simulation per cache size.

:func:`stack_distances` here is the sequential reference: a Fenwick
(binary indexed) tree over access positions, marking each line's most
recent access -- the classic O(n log n) algorithm, one Python loop
iteration per access.  :class:`DistanceProfile` defaults to the
batched offline kernel in :mod:`repro.core.kernels`, which computes
the same distances with no per-access Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cache import (
    CacheConfig,
    CacheStats,
    LineStream,
    as_line_stream,
    is_profile_source,
)

#: Distance value recorded for cold (first-touch) accesses.
COLD = -1


def stack_distances(run_lines: np.ndarray) -> np.ndarray:
    """Per-access LRU stack distances; :data:`COLD` for first touches.

    ``run_lines`` should already be collapsed with
    :func:`repro.core.cache.collapse_consecutive` for speed (collapsed
    duplicates all have distance 1 and can be re-added analytically).
    """
    n = len(run_lines)
    distances = np.empty(n, dtype=np.int64)
    tree = [0] * (n + 1)
    last_pos = {}
    for index, line in enumerate(run_lines.tolist()):
        pos = index + 1  # Fenwick trees are 1-indexed
        previous = last_pos.get(line)
        if previous is None:
            distances[index] = COLD
        else:
            # Count marked positions in (previous, pos): these are the
            # most-recent accesses of distinct other lines.
            marked = 0
            k = pos - 1
            while k > 0:
                marked += tree[k]
                k -= k & -k
            k = previous
            while k > 0:
                marked -= tree[k]
                k -= k & -k
            distances[index] = marked + 1
            # Unmark the previous access of this line.
            k = previous
            while k <= n:
                tree[k] -= 1
                k += k & -k
        # Mark this access as the line's most recent.
        k = pos
        while k <= n:
            tree[k] += 1
            k += k & -k
        last_pos[line] = pos
    return distances


@dataclass
class DistanceProfile:
    """A trace's stack-distance summary, reusable across cache sizes.

    ``counts[d]`` is the number of accesses with stack distance ``d``
    (``d >= 1``); ``cold`` counts first touches; ``duplicate_hits``
    re-adds the collapsed consecutive repeats (distance 1).
    """

    counts: np.ndarray
    cold: int
    duplicate_hits: int

    @property
    def total_accesses(self) -> int:
        return int(self.counts.sum()) + self.cold + self.duplicate_hits

    @classmethod
    def from_stream(cls, stream: LineStream,
                    kernel: str = "vectorized") -> "DistanceProfile":
        from . import kernels

        kernels.check_kernel(kernel)
        if kernel == "vectorized":
            counts, cold = kernels.set_distance_histogram(stream.run_lines, 1)
            return cls(counts=counts, cold=cold,
                       duplicate_hits=stream.duplicate_hits)
        distances = stack_distances(stream.run_lines)
        cold = int(np.count_nonzero(distances == COLD))
        finite = distances[distances != COLD]
        if len(finite):
            counts = np.bincount(finite)
        else:
            counts = np.zeros(1, dtype=np.int64)
        return cls(counts=counts, cold=cold, duplicate_hits=stream.duplicate_hits)

    def misses_at(self, capacity_lines: int) -> int:
        """Miss count for a fully-associative LRU cache holding
        ``capacity_lines`` lines."""
        if capacity_lines < 1:
            raise ValueError("capacity must be at least one line")
        upto = min(capacity_lines + 1, len(self.counts))
        hits_within = int(self.counts[:upto].sum())
        return int(self.counts.sum()) - hits_within + self.cold

    def miss_rate_at(self, capacity_lines: int) -> float:
        total = self.total_accesses
        return self.misses_at(capacity_lines) / total if total else 0.0

    @property
    def cold_miss_rate(self) -> float:
        total = self.total_accesses
        return self.cold / total if total else 0.0


@dataclass
class MissRateCurve:
    """Fully-associative miss rate as a function of cache size.

    ``miss_counts``/``cold_misses`` carry the exact per-size integer
    miss counts alongside the rates; :func:`miss_rate_curve` always
    fills them in, so :meth:`as_stats` round-trips bit-identically to
    direct simulation.  They default to ``None`` for hand-constructed
    curves, where :meth:`as_stats` falls back to reconstructing counts
    from the rates (accurate only to rounding).
    """

    line_size: int
    sizes: np.ndarray
    miss_rates: np.ndarray
    cold_miss_rate: float
    total_accesses: int
    miss_counts: Optional[np.ndarray] = None
    cold_misses: Optional[int] = None

    def as_stats(self) -> list:
        """Expand the curve into per-size :class:`CacheStats`."""
        if self.miss_counts is not None:
            misses_per_size = [int(m) for m in self.miss_counts]
        else:
            misses_per_size = [round(rate * self.total_accesses)
                               for rate in self.miss_rates.tolist()]
        if self.cold_misses is not None:
            cold = int(self.cold_misses)
        else:
            cold = round(self.cold_miss_rate * self.total_accesses)
        stats = []
        for size, misses in zip(self.sizes.tolist(), misses_per_size):
            config = CacheConfig(size=int(size), line_size=self.line_size, assoc=None)
            stats.append(CacheStats(
                config=config,
                accesses=self.total_accesses,
                misses=misses,
                cold_misses=cold,
            ))
        return stats


def miss_rate_curve(trace, line_size: int, cache_sizes) -> MissRateCurve:
    """Fully-associative LRU miss rates for every size in
    ``cache_sizes`` (bytes), from a single stack-distance pass.

    ``trace`` is a byte-address array, a :class:`LineStream`, or a
    profile source (:func:`~repro.core.cache.is_profile_source`), in
    which case the memoized -- possibly store-backed -- profile is
    reused instead of recomputed.
    """
    if is_profile_source(trace):
        profile = trace.profile(line_size)
    else:
        profile = DistanceProfile.from_stream(as_line_stream(trace, line_size))
    sizes = np.asarray(sorted(cache_sizes), dtype=np.int64)
    total = profile.total_accesses
    misses = np.array([
        profile.misses_at(max(int(size) // line_size, 1)) for size in sizes
    ], dtype=np.int64)
    rates = misses / total if total else np.zeros(len(sizes))
    return MissRateCurve(
        line_size=line_size,
        sizes=sizes,
        miss_rates=rates,
        cold_miss_rate=profile.cold_miss_rate,
        total_accesses=total,
        miss_counts=misses,
        cold_misses=profile.cold,
    )
