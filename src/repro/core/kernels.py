"""Vectorized cache-simulation kernels.

The paper's studies are whole grids of cache configurations (size x
line size x associativity) over multi-million-access traces, and the
reference simulator (:class:`~repro.core.cache.LRUCache` and the
``_simulate_runs`` loop) pays a Python-level iteration per access per
configuration.  This module provides exact, batched replacements built
on two observations:

**Per-set decomposition.**  A set-associative LRU cache is ``n_sets``
*independent* fully-associative LRU caches, each seeing the
subsequence of line addresses that map to its set.  Partitioning the
collapsed run stream by set index (one stable argsort) and computing
LRU stack distances over the partitioned stream therefore yields --
in one pass -- the exact miss count for **every** associativity that
shares that ``(line_size, n_sets)`` pair:

    misses(ways) = cold + #{accesses with per-set distance > ways}.

**Offline stack distances.**  The per-access stack distance itself is
a 2-D dominance count.  With ``prev(i)`` the position of the previous
access to the same line (-1 for first touches),

    distance(i) = 1 + #{j in (prev(i), i) : prev(j) <= prev(i)}
                = F(i) - prev(i),   F(i) = #{j < i : prev(j) <= prev(i)},

because every j <= prev(i) satisfies ``prev(j) < j <= prev(i)``
trivially.  ``F`` is computed offline by top-down merge counting from
ONE stable argsort: each block of positions, kept sorted by ``prev``
value, is stably split into its two halves level by level, and the
number of left-half elements preceding each right-half element in the
merged order is exactly its dominance contribution -- cumsum and index
arithmetic only, no per-element Python anywhere (see
:func:`dominance_counts`).

The same ``F - prev`` identity survives concatenating the per-set
subsequences: every position in an earlier set's block trivially
satisfies the dominance condition, and each line address maps to
exactly one set, so one global pass computes all per-set distances.

**Blocked fold.**  Histograms (:func:`set_distance_histogram`) run
the dominance count over one block at a time.  A stream longer than
:data:`_FOLD_RUNS` runs is cut into blocks of that many; each block
becomes a :class:`PartialSetProfile` and the blocks are combined by
its exact, associative :meth:`~PartialSetProfile.merge` -- the same
fold the streamed pipeline runs over trace blocks, so in-RAM and
streamed profiles share one kernel.  Texture streams revisit a few
thousand distinct lines, so the merge states stay small while each
block's dominance count runs on the narrow int32 packing (below
``2**15`` positions) over cache-resident arrays, instead of ~14
full-length int64 levels.  For ``n_sets > 1`` the block fold runs
over the set-partitioned, MRU-collapsed residue as one
fully-associative stream (exact by the identity above).  Per-access
distances (:func:`stack_distances`, :func:`per_set_distances`) keep
the direct pass.

The kernels are exact (bit-identical miss / cold / capacity / conflict
counts versus the reference); :mod:`repro.core.cache` keeps the
sequential implementation selectable via ``kernel="reference"`` and
for the FIFO/random replacement policies, which have no stack-distance
characterization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import CacheConfig, CacheStats, LineStream, collapse_consecutive, to_lines

#: Distance value recorded for cold (first-touch) accesses; mirrors
#: :data:`repro.core.stackdist.COLD`.
COLD = -1

#: Kernel selector values accepted throughout the simulator.
KERNELS = ("reference", "vectorized")


def check_kernel(kernel: str) -> str:
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    return kernel


def _argsort_bounded(keys: np.ndarray, upper: int) -> np.ndarray:
    """Stable argsort of non-negative ``keys`` known to be ``< upper``.

    NumPy's stable sort is a (fast) radix sort only for <= 16-bit
    integer dtypes, so narrow keys sort directly and wider bounded
    keys sort as two chained 16-bit radix passes (low then high half),
    several times faster than the int64 mergesort either way.
    """
    if upper <= 1 << 16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if upper <= 1 << 32:
        lo = (keys & 0xFFFF).astype(np.uint16)
        first = np.argsort(lo, kind="stable")
        hi = (keys >> 16).astype(np.uint16)
        second = np.argsort(hi[first], kind="stable")
        return first[second]
    return np.argsort(keys, kind="stable")


def previous_occurrences(lines: np.ndarray) -> np.ndarray:
    """``prev[i]`` = index of the previous access to ``lines[i]``, or
    -1 for a first touch.  One stable argsort; no Python loop."""
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = _argsort_bounded(lines, int(lines.max()) + 1)
    ordered = lines[order]
    same = ordered[1:] == ordered[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


#: Pairs closer than this many position bits are resolved by one
#: batched all-pairs comparison instead of per-level partitioning.
#: A wider bottom means fewer partition levels but ``n * 2**bits``
#: bytes of boolean temporaries.  Histograms run this kernel on fold
#: blocks of :data:`_FOLD_RUNS` positions, whose temporaries (512 KB at
#: width 32) stay cache-resident rather than streaming through memory;
#: on those blocks widths 16 and 64 were both slower than 32.
_BOTTOM_BITS = 5

#: Streams shorter than ``2**_NARROW_BITS`` positions pack
#: ``count << 15 | position`` into int32 instead of
#: ``count << 32 | position`` into int64.
_NARROW_BITS = 15


def dominance_counts(prev: np.ndarray) -> np.ndarray:
    """``F[i] = #{j < i : prev[j] <= prev[i]}`` for every position.

    Top-down merge counting driven by ONE stable argsort.  Start from
    the fully value-sorted permutation and, level by level, stably
    split each block of ``2**(t+1)`` positions into its two
    ``2**t``-position halves (pure cumsum arithmetic -- no further
    sorting).  Before each split, the block *is* the stable merge of
    its halves, so for every right-half element the number of
    left-half elements preceding it in the block equals
    ``#{left j : prev[j] <= prev[i]}`` exactly (left positions all
    precede right positions, so stability breaks value ties the right
    way).  Each (j, i) pair is counted at exactly one level -- the
    highest differing bit of j and i.

    Constant-factor engineering: positions are a permutation of
    ``[0, n)``, so every block is a fixed ``2**(t+1)``-wide position
    range and block starts/offsets are index arithmetic (no bincount,
    no gathers); each element packs ``accumulated_count << shift |
    position`` into one integer so the per-level count update is
    branch-free arithmetic and the only random memory access per level
    is the partition scatter itself; the last ``_BOTTOM_BITS`` levels
    (pairs within 32-position blocks, by then contiguous and
    value-sorted) collapse into a single batched 32x32 triangular
    comparison.  The pack width follows ``n``: below ``2**15``
    positions (every block of :func:`set_distance_histogram`'s fold)
    both count and position fit 15 bits, so the packing is
    ``count << 15`` in int32 and each level moves half the bytes;
    longer streams pack ``count << 32`` in int64.  Requires
    ``n < 2**31``.
    """
    prev = np.asarray(prev, dtype=np.int64)
    n = len(prev)
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    if n >= 1 << 31:
        raise ValueError("dominance_counts supports up to 2**31-1 accesses")
    if n < 1 << _NARROW_BITS:
        dtype, shift = np.int32, _NARROW_BITS
    else:
        dtype, shift = np.int64, 32
    mask = (1 << shift) - 1
    # P packs (accumulated count << shift) | position, value-sorted.
    P = _argsort_bounded(prev + 1, n + 1).astype(dtype, copy=False)
    ks = np.arange(n, dtype=dtype)
    buffer = np.empty_like(P)
    bottom = 1 << _BOTTOM_BITS
    level = (n - 1).bit_length() - 1
    while level >= _BOTTOM_BITS:
        half = 1 << level
        width = half << 1
        bit = (P >> level) & 1          # 1 = right half of its block
        # Stable rank among left-half elements, rebased per block: one
        # cumsum, everything else index arithmetic.
        left_rank = ks - np.cumsum(bit, dtype=dtype) + bit
        left_rank -= np.repeat(left_rank[::width], width)[:n]
        P += (bit * left_rank) << shift  # lefts dominating each right
        # Lefts keep their rank at the block start; rights go after the
        # block's ``half`` lefts.  (A block too short to hold ``half``
        # lefts holds no rights at all, so the scalar is always right.)
        slot = (ks & -width) + left_rank
        right_slot = ks + half
        right_slot -= left_rank
        slot += (right_slot - slot) * bit
        buffer[slot] = P
        P, buffer = buffer, P
        level -= 1
    # Bottom levels in one shot: every remaining pair lives inside a
    # 32-position block, contiguous and value-sorted, so stable array
    # order encodes ``prev[j] <= prev[i]`` and a strict position
    # comparison over the lower triangle counts exactly the pairs not
    # yet counted above.  Padding positions sort after every real one
    # (and, 2**15 being a multiple of 32, still fit the narrow mask).
    padded = -(-n // bottom) * bottom
    if padded != n:
        P = np.concatenate([P, np.arange(n, padded, dtype=dtype)])
    pos = (P & mask).astype(np.int32).reshape(-1, bottom)
    within = (pos[:, None, :] < pos[:, :, None])
    within &= np.tri(bottom, k=-1, dtype=bool)
    within = within.sum(axis=2, dtype=np.int64).ravel()[:n]
    counts[P[:n] & mask] = (P[:n] >> shift) + within
    return counts


def stack_distances(run_lines: np.ndarray) -> np.ndarray:
    """Vectorized per-access LRU stack distances (:data:`COLD` for
    first touches); exact drop-in for the Fenwick reference
    :func:`repro.core.stackdist.stack_distances`."""
    run_lines = np.asarray(run_lines, dtype=np.int64)
    prev = previous_occurrences(run_lines)
    counts = dominance_counts(prev)
    return np.where(prev < 0, np.int64(COLD), counts - prev)


def set_partition(run_lines: np.ndarray, n_sets: int) -> np.ndarray:
    """The run stream reordered into per-set subsequences (stable, so
    each subsequence preserves access order).  ``n_sets == 1`` returns
    the stream unchanged."""
    run_lines = np.asarray(run_lines, dtype=np.int64)
    if n_sets <= 1:
        return run_lines
    # Line addresses are non-negative, so % matches the reference
    # cache's mask/modulo set indexing exactly.
    order = _argsort_bounded(run_lines % n_sets, n_sets)
    return run_lines[order]


def _partition_order(run_lines: np.ndarray, n_sets: int) -> np.ndarray:
    """Stable permutation grouping the stream into per-set blocks."""
    return _argsort_bounded(run_lines % n_sets, n_sets)


def _partitioned_prev(run_lines: np.ndarray, n_sets: int,
                      prev: np.ndarray,
                      order: np.ndarray = None) -> np.ndarray:
    """Previous-occurrence indices of the set-partitioned stream,
    derived from the unpartitioned ``prev`` without a second argsort
    over line addresses.

    A line's occurrences all map to one set and the stable partition
    preserves their relative order, so the partitioned stream's
    previous occurrence IS the unpartitioned one relocated:
    ``prev_part[k] = rank[prev[order[k]]]``.
    """
    if order is None:
        order = _partition_order(run_lines, n_sets)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    moved = prev[order]
    warm = moved >= 0
    out = np.full(len(order), -1, dtype=np.int64)
    out[warm] = rank[moved[warm]]
    return out


#: Runs per fold block of :func:`set_distance_histogram`.  Every
#: block's dominance count then runs on the narrow int32 packing over
#: cache-resident arrays, and the cross-block work is the exact
#: :meth:`PartialSetProfile.merge` over states bounded by the number
#: of distinct lines.  2**14 was the fastest of 2**12..2**16 on a
#: 2-vCPU host.
_FOLD_RUNS = 1 << 14


def set_distance_histogram(run_lines: np.ndarray, n_sets: int,
                           prev: np.ndarray = None) -> tuple:
    """``(counts, cold)`` for the per-set stack distances of a
    collapsed run stream: ``counts[d]`` is the number of accesses at
    per-set distance ``d`` (aggregated over sets), ``cold`` the number
    of first touches.  Lines never span sets, so one concatenated pass
    computes every set's distances at once.

    MRU short-circuit: an access whose set-partitioned predecessor is
    the same line sits at the top of its set's LRU stack -- per-set
    distance exactly 1 -- and re-touching the MRU line leaves the
    stack untouched, so collapsing those runs *before* the dominance
    count changes no other access's distance.  Texture streams are
    dominated by such immediate re-references once a set's worth of
    interleaving is removed (85-99% of the partitioned stream on the
    paper scenes), so the n-log-n dominance core runs over a small
    residue instead of the full stream.

    Blocked fold: a residue longer than :data:`_FOLD_RUNS` is folded
    block by block through :meth:`PartialSetProfile.merge`, treated as
    ONE fully-associative stream -- by the ``F - prev`` identity its
    fully-associative distances are the per-set ones, since every
    earlier set's position dominates trivially.  The streams touch a
    few thousand distinct lines, so the merges stay small and the
    dominance count never sees more than one block.  (Folding the raw
    per-set stream instead would carry ``n_sets`` stacks through every
    merge and pay the MRU repeats the collapse removed.)

    ``prev`` optionally supplies :func:`previous_occurrences` of the
    *unpartitioned* stream so grid sweeps (many ``n_sets``, one
    stream) pay for that argsort once.
    """
    run_lines = np.asarray(run_lines, dtype=np.int64)
    if n_sets <= 1:
        seq = run_lines
        seq_prev = previous_occurrences(run_lines) if prev is None else prev
        mru_hits = 0
    else:
        partitioned = run_lines[_partition_order(run_lines, n_sets)]
        seq, mru_hits = collapse_consecutive(partitioned)
        seq_prev = previous_occurrences(seq)
    if len(seq) > _FOLD_RUNS:
        counts, repeats = _folded_histogram(seq, seq_prev)
        mru_hits += repeats
    else:
        warm = seq_prev >= 0
        counts = np.bincount(dominance_counts(seq_prev)[warm]
                             - seq_prev[warm])
    if counts.sum() or mru_hits:
        # The residue never holds adjacent equal lines, so its warm
        # distances are all >= 2 and folding the collapsed distance-1
        # hits back in reproduces the unreduced histogram exactly.
        counts = np.pad(counts, (0, max(0, 2 - len(counts))))
        counts[1] += mru_hits
    else:
        counts = np.zeros(1, dtype=np.int64)
    cold = int(np.count_nonzero(seq_prev < 0))
    return counts.astype(np.int64, copy=False), cold


def _folded_histogram(seq: np.ndarray, seq_prev: np.ndarray) -> tuple:
    """``(counts, repeats)``: the fully-associative distance histogram
    of ``seq`` folded over :data:`_FOLD_RUNS`-run blocks.  A block's
    previous occurrences are the stream's, rebased to the block start
    (an earlier occurrence outside the block is an open first touch),
    so no block sorts again.  ``repeats`` is the number of block
    boundaries the merge credited as collapsed duplicates: distance-1
    accesses of ``seq`` that the caller adds back to bin 1."""
    state = PartialSetProfile.empty(1, 1)
    for lo in range(0, len(seq), _FOLD_RUNS):
        block = seq[lo:lo + _FOLD_RUNS]
        block_prev = seq_prev[lo:lo + _FOLD_RUNS] - lo
        block_prev[block_prev < 0] = -1
        state = state.merge(PartialSetProfile.from_runs(
            block, block_prev, 0, len(block), 1, 1))
    profile = state.finalize()
    return profile.counts, profile.duplicate_hits


def per_set_distances(run_lines: np.ndarray, n_sets: int,
                      prev: np.ndarray = None) -> tuple:
    """``(distances, cold)`` per access of a collapsed run stream, in
    stream order: ``distances[i]`` is the access's LRU stack distance
    *within its set* and ``cold[i]`` marks first touches (where the
    distance value is meaningless).

    Unlike :func:`set_distance_histogram` this keeps the per-access
    verdicts instead of aggregating, which is what the hierarchy,
    victim and prefetch simulators need.  ``prev`` optionally supplies
    :func:`previous_occurrences` of the unpartitioned stream so callers
    sharing one stream pay for that argsort once.
    """
    run_lines = np.asarray(run_lines, dtype=np.int64)
    if prev is None:
        prev = previous_occurrences(run_lines)
    cold = prev < 0
    if n_sets <= 1:
        return dominance_counts(prev) - prev, cold
    order = _partition_order(run_lines, n_sets)
    partitioned = run_lines[order]
    # MRU short-circuit (see set_distance_histogram): an access equal
    # to its set-partitioned predecessor is a distance-1 hit and a
    # stack no-op, so the dominance core runs over the collapsed
    # residue only.  First touches always survive the collapse, so
    # the ``cold`` mask is untouched.
    keep = np.empty(len(partitioned), dtype=bool)
    if len(partitioned):
        keep[0] = True
        np.not_equal(partitioned[1:], partitioned[:-1], out=keep[1:])
    reduced = partitioned[keep]
    seq_prev = previous_occurrences(reduced)
    part = np.ones(len(partitioned), dtype=np.int64)
    part[keep] = dominance_counts(seq_prev) - seq_prev
    distances = np.empty(len(run_lines), dtype=np.int64)
    distances[order] = part
    return distances, cold


def _shallow_outcomes(run_lines: np.ndarray, n_sets: int,
                      ways: int) -> np.ndarray:
    """Per-access miss verdicts for ``ways <= 2``, without dominance
    counting.

    Partition the stream by set and drop consecutive same-set
    duplicates: the dropped positions are exactly the distance-1 hits,
    and in the remaining (adjacent-distinct) subsequence a warm access
    at distance 2 is exactly one whose line reappears two slots after
    its previous occurrence -- any farther, and the window between the
    two occurrences holds two adjacent-distinct accesses to lines other
    than it, i.e. at least two distinct lines, pushing the distance
    past 2.  So the whole verdict is two shifted comparisons, O(n)
    instead of the O(n log n) merge count.  Line equality implies set
    equality (each line maps to one set), so no set-id comparisons are
    needed.
    """
    n = len(run_lines)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = None
    grouped = run_lines
    if n_sets > 1:
        order = _partition_order(run_lines, n_sets)
        grouped = run_lines[order]
    dup = np.zeros(n, dtype=bool)
    np.equal(grouped[1:], grouped[:-1], out=dup[1:])
    kept = np.flatnonzero(~dup)
    collapsed = grouped[kept]
    miss_part = np.empty(n, dtype=bool)
    miss_part[dup] = False
    miss_collapsed = np.ones(len(collapsed), dtype=bool)
    if ways == 2 and len(collapsed) > 2:
        np.not_equal(collapsed[2:], collapsed[:-2], out=miss_collapsed[2:])
    miss_part[kept] = miss_collapsed
    if order is None:
        return miss_part
    miss = np.empty(n, dtype=bool)
    miss[order] = miss_part
    return miss


def run_outcomes(run_lines: np.ndarray, config: CacheConfig,
                 prev: np.ndarray = None) -> tuple:
    """``(miss, cold)`` boolean masks per access of a collapsed run
    stream through a set-associative LRU cache.

    Exactness: a set-associative LRU cache is ``n_sets`` independent
    fully-associative LRU stacks, and an access hits iff its set's
    stack holds the line -- i.e. iff fewer than ``ways`` distinct lines
    of the same set were touched since its previous access.  That count
    is exactly the set-relative stack distance, so

        miss  <=>  cold  or  set-relative distance > ways,

    matching the sequential :class:`~repro.core.cache.LRUCache` verdict
    per access, not just in aggregate.  Direct-mapped and two-way
    configurations (the paper's main design points) resolve the
    threshold by adjacency (:func:`_shallow_outcomes`); deeper
    associativities take the full per-set distance computation.
    """
    run_lines = np.asarray(run_lines, dtype=np.int64)
    if prev is None:
        prev = previous_occurrences(run_lines)
    cold = prev < 0
    if config.ways <= 2:
        return _shallow_outcomes(run_lines, config.n_sets, config.ways), cold
    distances, _ = per_set_distances(run_lines, config.n_sets, prev=prev)
    return cold | (distances > config.ways), cold


def line_miss_mask(lines: np.ndarray, config: CacheConfig) -> np.ndarray:
    """Per-access hit/miss verdicts for an *uncollapsed* line-address
    stream (True = miss).  Consecutive duplicates are guaranteed LRU
    hits, so outcomes are computed on the collapsed runs and scattered
    back; positions between run heads stay False."""
    lines = np.asarray(lines, dtype=np.int64).ravel()
    outcomes = np.zeros(len(lines), dtype=bool)
    if len(lines) == 0:
        return outcomes
    keep = np.empty(len(lines), dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    miss, _ = run_outcomes(lines[keep], config)
    outcomes[keep] = miss
    return outcomes


def miss_mask(addresses: np.ndarray, config: CacheConfig) -> np.ndarray:
    """Per-access hit/miss verdicts for a byte-address stream through
    ``config`` (True = miss); exact drop-in for recording
    :meth:`LRUCache.access` returns along the trace."""
    shift = int(config.line_size).bit_length() - 1
    lines = np.asarray(addresses, dtype=np.int64).ravel() >> shift
    return line_miss_mask(lines, config)


def miss_stream(addresses: np.ndarray, config: CacheConfig) -> np.ndarray:
    """The exact line-address sequence ``config`` fetches from the next
    level down (its misses, in access order) for a byte-address
    stream."""
    shift = int(config.line_size).bit_length() - 1
    lines = np.asarray(addresses, dtype=np.int64).ravel() >> shift
    if len(lines) == 0:
        return lines
    keep = np.empty(len(lines), dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    run_lines = lines[keep]
    miss, _ = run_outcomes(run_lines, config)
    return run_lines[miss]


@dataclass
class SetDistanceProfile:
    """Per-set stack-distance summary of one trace, keyed by
    ``(line_size, n_sets)``.

    One profile yields the exact miss count of **every** LRU cache
    organization sharing its line size and set count -- associativity
    ``w`` means capacity ``n_sets * w * line_size`` -- via
    :meth:`misses_at`.  ``n_sets == 1`` coincides with the
    fully-associative :class:`~repro.core.stackdist.DistanceProfile`.
    """

    line_size: int
    n_sets: int
    counts: np.ndarray
    cold: int
    duplicate_hits: int

    @property
    def total_accesses(self) -> int:
        return int(self.counts.sum()) + self.cold + self.duplicate_hits

    @classmethod
    def from_stream(cls, stream: LineStream, n_sets: int,
                    prev: np.ndarray = None) -> "SetDistanceProfile":
        counts, cold = set_distance_histogram(stream.run_lines, n_sets,
                                              prev=prev)
        return cls(line_size=stream.line_size, n_sets=n_sets, counts=counts,
                   cold=cold, duplicate_hits=stream.duplicate_hits)

    @classmethod
    def from_blocks(cls, blocks, line_size: int,
                    n_sets: int) -> "SetDistanceProfile":
        """Fold :meth:`from_stream` over an iterable of *raw*
        (uncollapsed) line-address blocks.

        Exactly equal -- same counts, cold and duplicate-hit fields --
        to :meth:`from_stream` over the concatenated stream, for any
        partition of the stream into blocks, while holding only one
        block plus :class:`PartialSetProfile` state (bounded by the
        number of distinct lines, not the trace length) in memory.
        """
        state = PartialSetProfile.empty(line_size, n_sets)
        for block in blocks:
            state = state.merge(PartialSetProfile.from_lines(
                block, line_size, n_sets))
        return state.finalize()

    def misses_at(self, ways: int) -> int:
        """Exact miss count for the ``ways``-associative LRU cache of
        ``n_sets * ways * line_size`` bytes."""
        if ways < 1:
            raise ValueError("ways must be at least one line per set")
        upto = min(ways + 1, len(self.counts))
        hits_within = int(self.counts[:upto].sum())
        return int(self.counts.sum()) - hits_within + self.cold

    def stats_pair(self, config: CacheConfig) -> tuple:
        """``(misses, cold_misses)`` for ``config``, which must share
        this profile's line size and set count."""
        if config.line_size != self.line_size:
            raise ValueError(
                f"config line size {config.line_size} != profile {self.line_size}")
        if config.n_sets != self.n_sets:
            raise ValueError(
                f"config has {config.n_sets} sets, profile {self.n_sets}")
        return self.misses_at(config.ways), self.cold

    def stats_for(self, config: CacheConfig) -> CacheStats:
        """The :class:`CacheStats` this profile implies for ``config``
        (which must share this profile's line size and set count)."""
        misses, cold = self.stats_pair(config)
        return CacheStats(
            config=config,
            accesses=self.total_accesses,
            misses=misses,
            cold_misses=cold,
        )


def _set_offsets(set_ids: np.ndarray, n_sets: int) -> np.ndarray:
    """Group bounds of a set-grouped array: set ``s`` occupies
    ``[offsets[s], offsets[s+1])``."""
    offsets = np.zeros(n_sets + 1, dtype=np.int64)
    np.cumsum(np.bincount(set_ids, minlength=n_sets), out=offsets[1:])
    return offsets


def _grouped_rank(offsets: np.ndarray, n: int) -> np.ndarray:
    """0-based within-group rank of each element of a grouped array."""
    return (np.arange(n, dtype=np.int64)
            - np.repeat(offsets[:-1], np.diff(offsets)))


def _member_positions(sorted_values: np.ndarray, queries: np.ndarray) -> tuple:
    """``(found, pos)``: membership of ``queries`` in the sorted,
    duplicate-free ``sorted_values``, with ``pos`` the match index
    (meaningful only where ``found``)."""
    if len(sorted_values) == 0 or len(queries) == 0:
        return (np.zeros(len(queries), dtype=bool),
                np.zeros(len(queries), dtype=np.int64))
    pos = np.searchsorted(sorted_values, queries)
    np.minimum(pos, len(sorted_values) - 1, out=pos)
    return sorted_values[pos] == queries, pos


@dataclass
class PartialSetProfile:
    """Resumable per-block stack-distance state for one
    ``(line_size, n_sets)`` pair -- the unit the streaming pipeline
    folds over :class:`~repro.pipeline.trace.FragmentBlock` chunks.

    The state of a stream segment is everything a *later* segment can
    observe about it plus everything an *earlier* segment could still
    change about it:

    * ``counts`` -- histogram of distances already closed inside the
      segment (an access whose previous same-line touch is also in the
      segment; its distance window is sealed and no merge can move it);
    * ``open_lines`` -- the segment's first touches, per set in
      first-touch order.  Their distances depend on what precedes the
      segment, so they stay symbolic until a left merge resolves them
      (or :meth:`finalize` declares them cold);
    * ``stack_lines`` -- the segment's distinct lines per set in
      MRU-first (last-occurrence) order: the exact LRU stack a later
      segment's opens land on;
    * ``first_line`` / ``last_line`` -- raw boundary addresses, so a
      merge can credit a boundary duplicate as the collapsed stream
      would.

    :meth:`merge` is exact -- ``a.merge(b)`` equals
    ``from_lines(concat(a_lines, b_lines))`` field for field -- which
    makes it associative, so any block partition of a stream (and any
    merge tree over the per-shard partials) finalizes to the identical
    :class:`SetDistanceProfile`.

    The resolution formula: for segment ``b``'s ``k``-th open of a set
    (1-based first-touch order) found at depth ``d`` (1 = MRU) in
    segment ``a``'s ending stack, the distinct lines touched between
    the two occurrences are ``b``'s ``k - 1`` earlier opens of the set
    unioned with the ``d - 1`` lines above it in ``a``'s stack, so

        distance = k + d - 1 - #{earlier opens resident above it},

    and the correction term is a per-set dominance count over
    (first-touch order, depth) pairs -- the same merge-counting kernel
    the in-RAM path uses.
    """

    line_size: int
    n_sets: int
    counts: np.ndarray
    duplicate_hits: int
    total_accesses: int
    stack_lines: np.ndarray
    open_lines: np.ndarray
    offsets: np.ndarray
    first_line: int
    last_line: int

    @classmethod
    def empty(cls, line_size: int, n_sets: int) -> "PartialSetProfile":
        """The merge identity (profile of the empty stream)."""
        if n_sets < 1:
            raise ValueError("n_sets must be at least 1")
        return cls(line_size=line_size, n_sets=n_sets,
                   counts=np.zeros(1, dtype=np.int64), duplicate_hits=0,
                   total_accesses=0,
                   stack_lines=np.empty(0, dtype=np.int64),
                   open_lines=np.empty(0, dtype=np.int64),
                   offsets=np.zeros(n_sets + 1, dtype=np.int64),
                   first_line=-1, last_line=-1)

    @classmethod
    def from_lines(cls, lines: np.ndarray, line_size: int,
                   n_sets: int) -> "PartialSetProfile":
        """State of one raw (uncollapsed) line-address block."""
        if n_sets < 1:
            raise ValueError("n_sets must be at least 1")
        lines = np.asarray(lines, dtype=np.int64).ravel()
        if len(lines) == 0:
            return cls.empty(line_size, n_sets)
        run_lines, duplicate_hits = collapse_consecutive(lines)
        return cls.from_runs(run_lines, previous_occurrences(run_lines),
                             duplicate_hits, len(lines), line_size, n_sets)

    @classmethod
    def from_runs(cls, run_lines: np.ndarray, prev: np.ndarray,
                  duplicate_hits: int, total_accesses: int,
                  line_size: int, n_sets: int) -> "PartialSetProfile":
        """State of one collapsed run stream given its
        :func:`previous_occurrences`.  The collapse and the prev
        argsort depend only on the line size, so a fold computing many
        set counts over one block pays for them once and calls this
        per ``n_sets`` (:func:`from_lines` is the convenience form)."""
        if len(run_lines) == 0:
            return cls.empty(line_size, n_sets)
        counts, _ = set_distance_histogram(run_lines, n_sets, prev=prev)
        n = len(run_lines)
        if n_sets > 1:
            sets = run_lines % n_sets
        else:
            sets = np.zeros(n, dtype=np.int64)
        open_idx = np.flatnonzero(prev < 0)
        open_order = open_idx[_argsort_bounded(sets[open_idx], n_sets)]
        last_mask = np.ones(n, dtype=bool)
        last_mask[prev[prev >= 0]] = False
        last_idx = np.flatnonzero(last_mask)[::-1]  # MRU first
        stack_order = last_idx[_argsort_bounded(sets[last_idx], n_sets)]
        return cls(line_size=line_size, n_sets=n_sets,
                   counts=counts.astype(np.int64, copy=False),
                   duplicate_hits=duplicate_hits,
                   total_accesses=total_accesses,
                   stack_lines=run_lines[stack_order],
                   open_lines=run_lines[open_order],
                   offsets=_set_offsets(sets[open_idx], n_sets),
                   first_line=int(run_lines[0]),
                   last_line=int(run_lines[-1]))

    @classmethod
    def from_addresses(cls, addresses: np.ndarray, line_size: int,
                       n_sets: int) -> "PartialSetProfile":
        return cls.from_lines(to_lines(addresses, line_size),
                              line_size, n_sets)

    def merge(self, other: "PartialSetProfile") -> "PartialSetProfile":
        """State of ``self``'s stream followed by ``other``'s."""
        a, b = self, other
        if a.line_size != b.line_size or a.n_sets != b.n_sets:
            raise ValueError(
                f"cannot merge ({a.line_size}B, {a.n_sets} sets) with "
                f"({b.line_size}B, {b.n_sets} sets)")
        if a.total_accesses == 0:
            return b
        if b.total_accesses == 0:
            return a
        n_sets = a.n_sets

        # Resolve b's opens against a's ending stack.  Lines never
        # span sets, so one global sorted lookup serves every set.
        sort_a = np.argsort(a.stack_lines)
        found, pos = _member_positions(a.stack_lines[sort_a], b.open_lines)
        hit_idx = np.flatnonzero(found)
        a_rank = _grouped_rank(a.offsets, len(a.stack_lines))
        depth = a_rank[sort_a[pos[hit_idx]]] + 1       # 1 = MRU
        k = _grouped_rank(b.offsets, len(b.open_lines))[hit_idx] + 1

        if len(hit_idx):
            # Overlap correction: per set, count earlier resolved opens
            # sitting strictly above this line in a's stack.  Rank-
            # compress (set, depth) keys -- distinct within a set -- and
            # reuse the dominance kernel; earlier sets always dominate,
            # so subtracting each group's start rebases the count per
            # set (the `_partitioned_prev` trick).
            m = len(hit_idx)
            if n_sets > 1:
                hit_sets = b.open_lines[hit_idx] % n_sets  # ascending
            else:
                hit_sets = np.zeros(m, dtype=np.int64)
            change = np.empty(m, dtype=bool)
            change[0] = True
            np.not_equal(hit_sets[1:], hit_sets[:-1], out=change[1:])
            starts = np.flatnonzero(change)
            base = np.repeat(starts, np.diff(np.append(starts, m)))
            comp = np.empty(m, dtype=np.int64)
            comp[np.lexsort((depth, hit_sets))] = np.arange(m, dtype=np.int64)
            overlap = dominance_counts(comp) - base
            resolved = np.bincount(k + depth - 1 - overlap)
        else:
            resolved = np.zeros(1, dtype=np.int64)

        duplicate_hits = a.duplicate_hits + b.duplicate_hits
        if b.first_line == a.last_line:
            # The concatenated stream collapses b's leading access into
            # a's final run.  That access is b's first open of its set
            # (k == 1) landing on a's MRU (d == 1), so it resolved to
            # distance 1 above; re-credit it as the collapsed hit it
            # is.  Dropping an MRU repeat perturbs no other window, so
            # every remaining count already matches the collapsed
            # stream.
            resolved[1] -= 1
            duplicate_hits += 1

        length = max(len(a.counts), len(b.counts), len(resolved))
        counts = np.zeros(length, dtype=np.int64)
        counts[:len(a.counts)] += a.counts
        counts[:len(b.counts)] += b.counts
        counts[:len(resolved)] += resolved
        # Keep the histogram canonical (no trailing zeros; the
        # boundary correction can zero the last bin) so merged states
        # compare equal to from_lines states regardless of merge order.
        nonzero = np.flatnonzero(counts)
        counts = counts[:int(nonzero[-1]) + 1] if len(nonzero) \
            else np.zeros(1, dtype=np.int64)

        # Merged stack: b's stack over a's survivors (lines b did not
        # re-touch), per set.  A composite (set, source) key with one
        # stable bounded sort interleaves the groups while preserving
        # each source's internal order.
        b_touched = np.sort(b.stack_lines)
        retouched, _ = _member_positions(b_touched, a.stack_lines)
        survivors = a.stack_lines[~retouched]
        stack_cat = np.concatenate([b.stack_lines, survivors])
        open_cat = np.concatenate([a.open_lines, b.open_lines[~found]])

        def interleave(cat, n_first):
            if n_sets > 1:
                sets_cat = cat % n_sets
            else:
                sets_cat = np.zeros(len(cat), dtype=np.int64)
            source = np.ones(len(cat), dtype=np.int64)
            source[:n_first] = 0
            order = _argsort_bounded(sets_cat * 2 + source, 2 * n_sets)
            return cat[order], sets_cat

        stack_lines, stack_sets = interleave(stack_cat, len(b.stack_lines))
        open_lines, _ = interleave(open_cat, len(a.open_lines))
        return PartialSetProfile(
            line_size=a.line_size, n_sets=n_sets, counts=counts,
            duplicate_hits=duplicate_hits,
            total_accesses=a.total_accesses + b.total_accesses,
            stack_lines=stack_lines, open_lines=open_lines,
            offsets=_set_offsets(stack_sets, n_sets),
            first_line=a.first_line, last_line=b.last_line)

    def finalize(self) -> SetDistanceProfile:
        """Close the fold: unresolved opens are the cold misses."""
        nonzero = np.flatnonzero(self.counts)
        if len(nonzero):
            counts = self.counts[:int(nonzero[-1]) + 1]
        else:
            counts = np.zeros(1, dtype=np.int64)
        return SetDistanceProfile(
            line_size=self.line_size, n_sets=self.n_sets,
            counts=counts.astype(np.int64, copy=False),
            cold=len(self.open_lines), duplicate_hits=self.duplicate_hits)


def simulate_stream(stream: LineStream, config: CacheConfig) -> CacheStats:
    """Vectorized exact LRU simulation of one collapsed stream."""
    return SetDistanceProfile.from_stream(stream, config.n_sets).stats_for(config)


def sequence_stats(collapsed_segments, config: CacheConfig) -> list:
    """Per-segment :class:`CacheStats` for consecutive collapsed
    segments through ONE LRU cache (the inter-frame study).

    ``collapsed_segments`` is a list of ``(run_lines, duplicate_hits)``
    pairs, each collapsed independently so boundary repeats still count
    as (distance-1) hits of the later segment.  Concatenating the
    segments reproduces the carried cache state exactly: a per-set
    stack distance never sees segment boundaries, just like the warm
    cache it models.
    """
    if not collapsed_segments:
        return []
    runs = [np.asarray(r, dtype=np.int64) for r, _ in collapsed_segments]
    lengths = np.array([len(r) for r in runs], dtype=np.int64)
    joined = np.concatenate(runs) if runs else np.empty(0, dtype=np.int64)
    segment = np.repeat(np.arange(len(runs), dtype=np.int64), lengths)

    if config.n_sets > 1:
        order = np.argsort(joined % config.n_sets, kind="stable")
        joined = joined[order]
        segment = segment[order]
    prev = previous_occurrences(joined)
    cold = prev < 0
    distances = dominance_counts(prev) - prev  # only valid where warm
    miss = cold | (~cold & (distances > config.ways))

    n_segments = len(runs)
    miss_counts = np.bincount(segment[miss], minlength=n_segments)
    cold_counts = np.bincount(segment[cold], minlength=n_segments)
    stats = []
    for index, (run_lines, duplicate_hits) in enumerate(collapsed_segments):
        stats.append(CacheStats(
            config=config,
            accesses=int(lengths[index]) + int(duplicate_hits),
            misses=int(miss_counts[index]),
            cold_misses=int(cold_counts[index]),
        ))
    return stats


__all__ = [
    "COLD",
    "KERNELS",
    "PartialSetProfile",
    "SetDistanceProfile",
    "check_kernel",
    "dominance_counts",
    "line_miss_mask",
    "miss_mask",
    "miss_stream",
    "per_set_distances",
    "previous_occurrences",
    "run_outcomes",
    "sequence_stats",
    "set_distance_histogram",
    "set_partition",
    "simulate_stream",
    "stack_distances",
]
