"""Parameter-sweep helpers for cache studies.

The paper's figures sweep one axis at a time (cache size, line size,
block size, associativity, tile size) while holding the rest fixed.
These helpers run such grids efficiently: one collapsed
:class:`LineStream` per line size, one stack-distance profile per
stream, one per-set :class:`~repro.core.kernels.SetDistanceProfile`
per ``(line_size, n_sets)`` -- each shared across every configuration
that can reuse it, so a whole associativity sweep costs one kernel
pass per distinct set count instead of one simulation per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .cache import CacheConfig, LineStream, is_profile_source, simulate
from .classify import classify_misses
from .kernels import SetDistanceProfile
from .stackdist import DistanceProfile, MissRateCurve, miss_rate_curve

#: The cache-size grid (bytes) used throughout the paper's figures.
PAPER_CACHE_SIZES = tuple(1024 * k for k in (1, 2, 4, 8, 16, 32, 64, 128, 256))

#: Line sizes studied in Figures 5.4/5.5 and Table 7.1.
PAPER_LINE_SIZES = (16, 32, 64, 128, 256)

#: Associativities studied in Figure 5.7 (None = fully associative).
PAPER_ASSOCIATIVITIES = (1, 2, 4, 8, 16, None)


@dataclass
class TraceStreams:
    """Per-line-size collapsed streams, distance profiles and per-set
    profiles for one byte-address trace, built lazily and memoized --
    the in-RAM profile source (see
    :func:`~repro.core.cache.is_profile_source`).

    ``kernel`` selects how profiles are computed.  Only the profiles
    and streams are memoized: the previous-occurrence index a distance
    pass builds lives only as long as that pass (the per-set passes
    derive their own from the set-partitioned stream), so a
    long-lived source holds no index arrays.
    """

    addresses: np.ndarray
    kernel: str = "vectorized"

    def __post_init__(self) -> None:
        kernels.check_kernel(self.kernel)
        self._streams = {}
        self._profiles = {}
        self._set_profiles = {}

    def stream(self, line_size: int) -> LineStream:
        if line_size not in self._streams:
            self._streams[line_size] = LineStream.from_addresses(self.addresses, line_size)
        return self._streams[line_size]

    def profile(self, line_size: int) -> DistanceProfile:
        if line_size not in self._profiles:
            self._profiles[line_size] = DistanceProfile.from_stream(
                self.stream(line_size), kernel=self.kernel)
        return self._profiles[line_size]

    def set_profile(self, line_size: int, n_sets: int) -> SetDistanceProfile:
        """The per-set distance profile for ``(line_size, n_sets)``,
        serving every associativity that shares it."""
        key = (line_size, n_sets)
        if key not in self._set_profiles:
            if n_sets == 1:
                # One set = fully associative: reuse the distance
                # profile rather than running a second identical pass.
                profile = self.profile(line_size)
                built = SetDistanceProfile(
                    line_size=line_size, n_sets=1, counts=profile.counts,
                    cold=profile.cold, duplicate_hits=profile.duplicate_hits)
            else:
                built = SetDistanceProfile.from_stream(
                    self.stream(line_size), n_sets)
            self._set_profiles[key] = built
        return self._set_profiles[key]


def _as_streams(trace, kernel: str):
    if is_profile_source(trace):
        return trace
    return TraceStreams(np.asarray(trace), kernel=kernel)


def sweep_cache_sizes(
    trace, line_size: int, cache_sizes=PAPER_CACHE_SIZES, assoc=None,
    kernel: str = "vectorized",
) -> list:
    """Miss stats across ``cache_sizes`` at fixed line size and
    associativity.

    Fully-associative sweeps use one stack-distance pass; finite
    associativities read each size off its per-set profile
    (``kernel="reference"`` simulates each size sequentially instead).
    Returns a list of :class:`CacheStats`.
    """
    kernels.check_kernel(kernel)
    streams = _as_streams(trace, kernel)
    if assoc is None:
        curve = miss_rate_curve(streams, line_size, cache_sizes)
        return curve.as_stats()
    return [simulate(streams, CacheConfig(size=int(size), line_size=line_size,
                                          assoc=assoc), kernel=kernel)
            for size in sorted(cache_sizes)]


def sweep_associativities(
    trace, size: int, line_size: int, associativities=PAPER_ASSOCIATIVITIES,
    classify: bool = False, kernel: str = "vectorized",
) -> list:
    """Miss stats across associativities at fixed size and line size.

    With the vectorized kernel every associativity sharing a set count
    reads off one :class:`SetDistanceProfile` pass, and ``classify``
    adds the 3C decomposition from the same profiles.
    """
    kernels.check_kernel(kernel)
    streams = _as_streams(trace, kernel)
    stats = []
    for assoc in associativities:
        config = CacheConfig(size=size, line_size=line_size, assoc=assoc)
        if classify:
            stats.append(classify_misses(
                streams, config, profile=streams.profile(line_size),
                kernel=kernel))
        else:
            stats.append(simulate(streams, config, kernel=kernel))
    return stats


def fully_associative_curve(
    trace, line_size: int, cache_sizes=PAPER_CACHE_SIZES,
    kernel: str = "vectorized",
) -> MissRateCurve:
    """The miss-rate-versus-size curve for a fully-associative cache."""
    return miss_rate_curve(_as_streams(trace, kernel), line_size, cache_sizes)
