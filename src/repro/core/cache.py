"""Trace-driven texture cache simulator (paper Sections 3.2, 4.1).

The cache is characterized by three parameters (Section 3.2): cache
size, line size, and associativity, with LRU replacement.  The
simulator consumes byte-address streams produced by the rendering
pipeline and reports hit/miss statistics.

Two exactness-preserving optimizations keep multi-configuration studies
tractable in Python:

* byte addresses are reduced to cache-line addresses up front, and
* consecutive duplicate line addresses are collapsed into runs.  A
  repeat access to the most-recently-used line is always a hit and does
  not reorder the LRU stack, so collapsing is exact for any LRU cache;
  the suppressed accesses are credited back as hits.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..texture.image import is_power_of_two, log2_int


@dataclass(frozen=True)
class CacheConfig:
    """An SRAM texture cache organization.

    Parameters
    ----------
    size:
        Total capacity in bytes.
    line_size:
        Line (block transfer) size in bytes; must be a power of two.
    assoc:
        Ways per set; ``None`` means fully associative.
    """

    size: int
    line_size: int
    assoc: Optional[int] = None

    def __post_init__(self) -> None:
        if not is_power_of_two(self.line_size):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if self.size <= 0 or self.size % self.line_size != 0:
            raise ValueError(
                f"size ({self.size}) must be a positive multiple of line_size"
            )
        if self.assoc is not None:
            if self.assoc <= 0:
                raise ValueError("assoc must be positive")
            # assoc beyond n_lines degrades gracefully to fully associative.
            if self.n_lines % self.ways != 0:
                raise ValueError(
                    f"{self.n_lines} lines cannot be divided into {self.assoc}-way sets"
                )

    @property
    def n_lines(self) -> int:
        """Number of cache lines."""
        return self.size // self.line_size

    @property
    def ways(self) -> int:
        """Lines per set (= ``n_lines`` when fully associative)."""
        return self.n_lines if self.assoc is None else min(self.assoc, self.n_lines)

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.n_lines // self.ways

    @property
    def fully_associative(self) -> bool:
        return self.assoc is None or self.assoc >= self.n_lines

    def label(self) -> str:
        """Short human-readable description used in reports."""
        if self.fully_associative:
            assoc = "full"
        elif self.ways == 1:
            assoc = "direct"
        else:
            assoc = f"{self.ways}-way"
        return f"{self.size // 1024}KB/{self.line_size}B/{assoc}"


@dataclass
class CacheStats:
    """Outcome of simulating one trace against one cache.

    ``capacity_misses`` and ``conflict_misses`` are ``None`` unless the
    stats came from :func:`repro.core.classify.classify_misses`.
    """

    config: CacheConfig
    accesses: int
    misses: int
    cold_misses: int
    capacity_misses: Optional[int] = None
    conflict_misses: Optional[int] = None
    extra: dict = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate

    @property
    def cold_miss_rate(self) -> float:
        return self.cold_misses / self.accesses if self.accesses else 0.0


def to_lines(addresses: np.ndarray, line_size: int) -> np.ndarray:
    """Reduce byte addresses to line addresses."""
    shift = log2_int(line_size)
    return np.asarray(addresses, dtype=np.int64).ravel() >> shift


def collapse_consecutive(lines: np.ndarray) -> tuple:
    """Collapse runs of identical consecutive line addresses.

    Returns ``(run_lines, duplicate_hits)`` where ``duplicate_hits`` is
    the number of suppressed accesses, all of which are guaranteed LRU
    hits.
    """
    lines = np.asarray(lines, dtype=np.int64)
    if len(lines) == 0:
        return lines, 0
    keep = np.empty(len(lines), dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    run_lines = lines[keep]
    return run_lines, int(len(lines) - len(run_lines))


@dataclass
class LineStream:
    """A collapsed line-address stream, reusable across cache configs
    that share a line size."""

    line_size: int
    run_lines: np.ndarray
    total_accesses: int

    @classmethod
    def from_addresses(cls, addresses: np.ndarray, line_size: int) -> "LineStream":
        lines = to_lines(addresses, line_size)
        run_lines, _ = collapse_consecutive(lines)
        return cls(line_size=line_size, run_lines=run_lines, total_accesses=len(lines))

    @property
    def duplicate_hits(self) -> int:
        return self.total_accesses - len(self.run_lines)


class LRUCache:
    """A single set-associative LRU cache with an ``access`` method.

    This is the reference sequential implementation; it is also the
    workhorse of :func:`simulate` (operating on collapsed streams).
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._sets = [OrderedDict() for _ in range(config.n_sets)]
        self._ways = config.ways
        self._set_mask = config.n_sets - 1 if is_power_of_two(config.n_sets) else None
        self._n_sets = config.n_sets
        self._seen = set()
        self.accesses = 0
        self.misses = 0
        self.cold_misses = 0

    def _set_index(self, line: int) -> int:
        if self._set_mask is not None:
            return line & self._set_mask
        return line % self._n_sets

    def access(self, line: int) -> bool:
        """Access one line address; returns True on a hit."""
        self.accesses += 1
        target = self._sets[self._set_index(line)]
        if line in target:
            target.move_to_end(line)
            return True
        self.misses += 1
        if line not in self._seen:
            self.cold_misses += 1
            self._seen.add(line)
        target[line] = None
        if len(target) > self._ways:
            target.popitem(last=False)
        return False

    def flush(self) -> None:
        """Invalidate every line (Section 3.2: "the caches can be
        flushed if necessary when the textures change").  Statistics
        are preserved; previously-seen lines stay non-cold."""
        for target in self._sets:
            target.clear()

    def contents(self) -> set:
        """Line addresses currently resident (for tests)."""
        resident = set()
        for target in self._sets:
            resident.update(target.keys())
        return resident

    def stats(self) -> CacheStats:
        return CacheStats(
            config=self.config,
            accesses=self.accesses,
            misses=self.misses,
            cold_misses=self.cold_misses,
        )


def _simulate_runs(
    run_lines: np.ndarray, config: CacheConfig, policy: str = "lru",
    seed: int = 0,
) -> tuple:
    """Simulate a collapsed stream; returns (misses, cold_misses).

    ``policy`` selects the replacement policy: ``lru`` (the paper's
    assumption), ``fifo`` (hits do not refresh), or ``random`` (evict a
    uniformly random resident line; deterministic under ``seed``).
    Inner loop kept deliberately flat: line addresses are converted to
    Python ints once (numpy scalar hashing is slow) and set lookup,
    move-to-end and eviction are all O(1).
    """
    if policy not in ("lru", "fifo", "random"):
        raise ValueError(f"unknown replacement policy {policy!r}")
    ways = config.ways
    n_sets = config.n_sets
    mask = n_sets - 1 if is_power_of_two(n_sets) else None
    sets = [OrderedDict() for _ in range(n_sets)]
    seen = set()
    misses = 0
    cold = 0
    refresh_on_hit = policy == "lru"
    rng = np.random.default_rng(seed) if policy == "random" else None
    for line in run_lines.tolist():
        target = sets[line & mask] if mask is not None else sets[line % n_sets]
        if line in target:
            if refresh_on_hit:
                target.move_to_end(line)
            continue
        misses += 1
        if line not in seen:
            cold += 1
            seen.add(line)
        target[line] = None
        if len(target) > ways:
            if rng is None:
                target.popitem(last=False)
            else:
                # Evict a random resident line (not the one just added).
                residents = list(target.keys())[:-1]
                del target[residents[rng.integers(0, len(residents))]]
    return misses, cold


def collapse_segments(segments, line_size: int) -> list:
    """Collapse each byte-address segment to line-address runs.

    The shared front half of every multi-segment simulation: returns a
    list of ``(run_lines, duplicate_hits)`` pairs, one per segment,
    ready for either the reference cache loop or the vectorized
    kernels.  Collapsing is per-segment, so a line straddling a
    boundary still charges the later segment its (guaranteed-hit)
    repeat accesses.
    """
    return [collapse_consecutive(to_lines(addresses, line_size))
            for addresses in segments]


def simulate_sequence(segments, config: CacheConfig,
                      kernel: str = "vectorized") -> list:
    """Simulate consecutive address segments through ONE cache,
    returning per-segment :class:`CacheStats`.

    Used for the inter-frame temporal locality study (Section 3.1.2):
    the second frame of an animation starts with the first frame's
    cache contents ("warm"), so its stats isolate whatever reuse
    survives between frames.  ``kernel="vectorized"`` (the default)
    computes all segments in one batched stack-distance pass;
    ``"reference"`` drives the sequential :class:`LRUCache`.
    """
    from . import kernels

    kernels.check_kernel(kernel)
    collapsed = collapse_segments(segments, config.line_size)
    if kernel == "vectorized":
        return kernels.sequence_stats(collapsed, config)
    cache = LRUCache(config)
    stats = []
    for lines, duplicate_hits in collapsed:
        start_misses = cache.misses
        start_cold = cache.cold_misses
        start_accesses = cache.accesses
        for line in lines.tolist():
            cache.access(line)
        stats.append(CacheStats(
            config=config,
            accesses=(cache.accesses - start_accesses) + duplicate_hits,
            misses=cache.misses - start_misses,
            cold_misses=cache.cold_misses - start_cold,
        ))
    return stats


def is_profile_source(trace) -> bool:
    """True for a *profile source*: any object serving memoized
    distance profiles through ``profile(line_size)`` and
    ``set_profile(line_size, n_sets)`` --
    :class:`~repro.core.sweep.TraceStreams`,
    :class:`~repro.engine.runner.StoredTraceStreams` or
    :class:`~repro.engine.streaming.StreamedProfiles`."""
    return hasattr(trace, "profile") and hasattr(trace, "set_profile")


def as_line_stream(trace, line_size: int) -> LineStream:
    """The collapsed :class:`LineStream` of ``trace`` at ``line_size``:
    a byte-address array is collapsed, a matching :class:`LineStream`
    passes through, and a profile source serves its memoized stream."""
    if isinstance(trace, LineStream):
        if trace.line_size != line_size:
            raise ValueError(
                f"LineStream line size {trace.line_size} != config {line_size}"
            )
        return trace
    if is_profile_source(trace):
        return trace.stream(line_size)
    return LineStream.from_addresses(trace, line_size)


def simulate(trace, config: CacheConfig, policy: str = "lru", seed: int = 0,
             kernel: str = "vectorized") -> CacheStats:
    """Simulate ``trace`` against ``config``.

    ``trace`` is a byte-address array, a prepared :class:`LineStream`
    (whose ``line_size`` must match the config) or a profile source
    (see :func:`is_profile_source`).  A profile source answers the
    vectorized LRU case from its memoized -- possibly store-backed --
    ``set_profile(line_size, n_sets)`` without touching the address
    stream; every other case reads ``trace.stream(line_size)``.
    ``policy`` selects the replacement policy (``lru``, ``fifo``,
    ``random``); note that collapsing consecutive duplicates is exact
    for all three (a repeat access to a resident line never evicts).

    ``kernel`` selects the implementation for the LRU policy:
    ``"vectorized"`` (default) uses the batched stack-distance kernels
    of :mod:`repro.core.kernels`, bit-identical to ``"reference"``,
    the sequential per-access loop.  FIFO and random replacement have
    no stack-distance characterization and always take the reference
    loop.
    """
    from . import kernels

    kernels.check_kernel(kernel)
    vectorized_lru = policy == "lru" and kernel == "vectorized"
    if vectorized_lru and is_profile_source(trace):
        return trace.set_profile(config.line_size,
                                 config.n_sets).stats_for(config)
    stream = as_line_stream(trace, config.line_size)
    if vectorized_lru:
        return kernels.simulate_stream(stream, config)
    misses, cold = _simulate_runs(stream.run_lines, config, policy=policy, seed=seed)
    return CacheStats(
        config=config,
        accesses=stream.total_accesses,
        misses=misses,
        cold_misses=cold,
    )
