"""Miss classification: cold / capacity / conflict (the 3C model).

The paper reasons separately about cold misses (Section 5.2.2),
capacity misses (working sets, Sections 5.2.3, 5.3.2, 6.1) and conflict
misses (Sections 5.3.3, 6.2).  We use the standard decomposition:

* **cold** -- first access to a line; unavoidable.
* **capacity** -- non-cold misses that a fully-associative LRU cache of
  the same total size would also incur (stack distance exceeds the line
  count).
* **conflict** -- the remainder: misses of the set-associative cache
  that full associativity would have avoided.

On the default vectorized kernel both numbers come from distance
profiles -- the fully-associative count from a
:class:`~repro.core.stackdist.DistanceProfile`, the set-associative
count from a :class:`~repro.core.kernels.SetDistanceProfile` -- so no
per-access Python loop runs anywhere on the LRU path.
"""

from __future__ import annotations

from . import kernels
from .cache import (
    CacheConfig,
    CacheStats,
    _simulate_runs,
    as_line_stream,
    is_profile_source,
)
from .stackdist import DistanceProfile


def classify_misses(trace, config: CacheConfig,
                    profile: DistanceProfile = None,
                    set_profile: "kernels.SetDistanceProfile" = None,
                    kernel: str = "vectorized") -> CacheStats:
    """Simulate ``config`` and decompose its misses into the 3C model.

    ``trace`` is a byte-address array, a :class:`LineStream` matching
    the config's line size, or a profile source (see
    :func:`~repro.core.cache.is_profile_source`).  On the vectorized
    kernel a profile source supplies both distance profiles --
    ``profile(line_size)`` and ``set_profile(line_size, n_sets)``,
    memoized and possibly store-backed -- and the access count, so
    the address stream is never read; ``kernel="reference"`` reads
    ``trace.stream(line_size)`` and simulates it sequentially.

    Pass a precomputed ``profile`` (from the same stream) to amortize
    the fully-associative distance pass across configs, and -- on the
    vectorized kernel -- a ``set_profile`` matching
    ``(config.line_size, config.n_sets)`` to amortize the per-set pass
    across every associativity sharing it.
    """
    kernels.check_kernel(kernel)
    line_size = config.line_size
    source = kernel == "vectorized" and is_profile_source(trace)
    stream = None if source else as_line_stream(trace, line_size)

    if profile is None:
        profile = (trace.profile(line_size) if source
                   else DistanceProfile.from_stream(stream, kernel=kernel))
    fully_associative_misses = profile.misses_at(config.n_lines)

    if kernel == "reference":
        misses, cold = _simulate_runs(stream.run_lines, config)
    elif config.n_sets == 1:
        # The set-associative cache IS the fully-associative one.
        misses, cold = fully_associative_misses, profile.cold
    else:
        if set_profile is None:
            set_profile = (
                trace.set_profile(line_size, config.n_sets) if source
                else kernels.SetDistanceProfile.from_stream(
                    stream, config.n_sets))
        misses, cold = set_profile.stats_pair(config)
    capacity = fully_associative_misses - cold
    conflict = misses - fully_associative_misses
    if conflict < 0:
        # LRU set-associative caches can (rarely) beat fully-associative
        # LRU on pathological streams; fold the difference into capacity
        # so the three categories still sum to the miss count.
        capacity += conflict
        conflict = 0
    return CacheStats(
        config=config,
        accesses=profile.total_accesses,
        misses=misses,
        cold_misses=cold,
        capacity_misses=capacity,
        conflict_misses=conflict,
    )
