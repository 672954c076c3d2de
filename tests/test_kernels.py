"""Unit tests for the vectorized cache-simulation kernels
(repro.core.kernels): exact equivalence against the sequential
reference simulator and the Fenwick stack-distance loop."""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.cache import (
    CacheConfig,
    LineStream,
    _simulate_runs,
    collapse_consecutive,
    simulate,
    simulate_sequence,
)
from repro.core.kernels import (
    COLD,
    SetDistanceProfile,
    _argsort_bounded,
    check_kernel,
    dominance_counts,
    previous_occurrences,
    sequence_stats,
    set_distance_histogram,
    set_partition,
)
from repro.core.stackdist import stack_distances as fenwick_stack_distances
from repro.engine import ArtifactStore, Engine, TraceSpec, set_profile_payload


def random_lines(seed, n=2000, universe=256):
    return np.random.default_rng(seed).integers(0, universe, size=n,
                                                dtype=np.int64)


def naive_previous(lines):
    last = {}
    prev = np.full(len(lines), -1, dtype=np.int64)
    for i, line in enumerate(lines.tolist()):
        if line in last:
            prev[i] = last[line]
        last[line] = i
    return prev


def naive_dominance(prev):
    n = len(prev)
    counts = np.zeros(n, dtype=np.int64)
    for i in range(n):
        counts[i] = int(np.sum(prev[:i] <= prev[i]))
    return counts


class TestArgsortBounded:
    @pytest.mark.parametrize("upper", [1, 7, 1 << 16, 1 << 20, 1 << 33])
    def test_matches_stable_argsort(self, upper):
        rng = np.random.default_rng(upper % 97)
        keys = rng.integers(0, upper, size=500, dtype=np.int64)
        expected = np.argsort(keys, kind="stable")
        np.testing.assert_array_equal(_argsort_bounded(keys, upper), expected)

    def test_stability_with_heavy_ties(self):
        keys = np.tile(np.arange(3, dtype=np.int64), 100)
        order = _argsort_bounded(keys, 3)
        # Equal keys keep their original relative order.
        for value in range(3):
            positions = order[keys[order] == value]
            assert np.all(np.diff(positions) > 0)


class TestPreviousOccurrences:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive(self, seed):
        lines = random_lines(seed, n=1500, universe=100)
        np.testing.assert_array_equal(previous_occurrences(lines),
                                      naive_previous(lines))

    def test_degenerate(self):
        assert len(previous_occurrences(np.empty(0, dtype=np.int64))) == 0
        np.testing.assert_array_equal(
            previous_occurrences(np.array([42])), [-1])


class TestDominanceCounts:
    # Sizes straddling the bottom-block width (32) and power-of-two
    # level boundaries, where the partition arithmetic is most fragile.
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 31, 32, 33, 63, 64, 65,
                                   100, 257, 1000])
    def test_matches_naive(self, n):
        prev = naive_previous(random_lines(n + 1, n=n, universe=max(n // 3, 1)))
        np.testing.assert_array_equal(dominance_counts(prev),
                                      naive_dominance(prev))

    def test_all_cold(self):
        prev = np.full(50, -1, dtype=np.int64)
        # prev == -1 everywhere: every earlier j dominates.
        np.testing.assert_array_equal(dominance_counts(prev), np.arange(50))

    @pytest.mark.parametrize("n", [(1 << 15) - 1, 1 << 15, (1 << 15) + 1])
    def test_pack_width_boundary(self, n):
        # Below 2**15 positions the kernel packs int32, from 2**15 on
        # int64; both must match the counts the Fenwick reference
        # implies: F = distance + prev when warm, and the number of
        # earlier first touches when cold.
        lines = random_lines(n, n=n, universe=n // 4)
        prev = naive_previous(lines)
        distances = fenwick_stack_distances(lines)
        cold = distances == COLD
        expected = np.where(cold, np.cumsum(cold) - cold, distances + prev)
        np.testing.assert_array_equal(dominance_counts(prev), expected)


class TestStackDistances:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_fenwick_reference(self, seed):
        lines = random_lines(seed, n=3000, universe=300)
        run_lines, _ = _collapse(lines)
        np.testing.assert_array_equal(kernels.stack_distances(run_lines),
                                      fenwick_stack_distances(run_lines))

    def test_cold_marker(self):
        distances = kernels.stack_distances(np.array([1, 2, 1, 2]))
        assert distances[0] == COLD and distances[1] == COLD
        assert distances[2] == 2 and distances[3] == 2


def _collapse(lines):
    keep = np.empty(len(lines), dtype=bool)
    keep[0:1] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    kept = lines[keep]
    return kept, len(lines) - len(kept)


class TestSetPartition:
    def test_stable_per_set_order(self):
        lines = random_lines(3, n=500, universe=64)
        part = set_partition(lines, 8)
        sets = part % 8
        assert np.all(np.diff(sets) >= 0)
        for s in range(8):
            np.testing.assert_array_equal(part[sets == s], lines[lines % 8 == s])

    def test_partitioned_prev_matches_direct(self):
        lines = random_lines(11, n=800, universe=96)
        prev = previous_occurrences(lines)
        for n_sets in (2, 4, 16):
            direct = previous_occurrences(set_partition(lines, n_sets))
            derived = kernels._partitioned_prev(lines, n_sets, prev)
            np.testing.assert_array_equal(derived, direct)


FOLD = kernels._FOLD_RUNS


def _residue(lines, n_sets):
    """The set-partitioned, collapsed stream the histogram folds."""
    return collapse_consecutive(set_partition(lines, n_sets))[0]


def _stream_over_residue(residue, n_sets, seed):
    """A collapsed run stream whose residue is exactly ``residue``
    (set-grouped, no adjacent equals): each line is repeated 1-3 times
    (MRU repeats within its set) and the per-set subsequences are
    interleaved at random."""
    rng = np.random.default_rng(seed)
    repeated = np.repeat(residue, rng.integers(1, 4, size=len(residue)))
    sets = repeated % n_sets
    stream = np.empty_like(repeated)
    stream[np.argsort(rng.permutation(sets), kind="stable")] = repeated
    return collapse_consecutive(stream)[0]


def _fenwick_histogram(run_lines, n_sets):
    residue = _residue(run_lines, n_sets)
    distances = fenwick_stack_distances(residue)
    warm = distances[distances != COLD]
    mru_hits = len(run_lines) - len(residue)
    if len(warm) == 0 and mru_hits == 0:
        return np.zeros(1, dtype=np.int64), len(distances)
    counts = np.bincount(warm, minlength=2)
    counts[1] += mru_hits
    return counts, len(distances) - len(warm)


class TestBlockedFold:
    """``set_distance_histogram`` folds residues longer than one block
    through ``PartialSetProfile.merge``; it must equal the Fenwick
    reference over the partitioned, collapsed stream on both sides of
    every block boundary."""

    def _check(self, residue, n_sets, seed=0):
        assert np.array_equal(_residue(residue, n_sets), residue)
        run_lines = _stream_over_residue(residue, n_sets, seed)
        np.testing.assert_array_equal(_residue(run_lines, n_sets), residue)
        counts, cold = set_distance_histogram(run_lines, n_sets)
        expected, expected_cold = _fenwick_histogram(run_lines, n_sets)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected)
        assert cold == expected_cold

    @pytest.mark.parametrize("n_sets", [1, 2, 8, 64])
    @pytest.mark.parametrize("length", [FOLD - 1, FOLD, FOLD + 1,
                                        3 * FOLD + 7])
    def test_all_cold(self, length, n_sets):
        residue = set_partition(np.arange(length, dtype=np.int64) * 3,
                                n_sets)
        self._check(residue, n_sets)

    @pytest.mark.parametrize("n_sets", [1, 2, 8, 64])
    @pytest.mark.parametrize("length", [FOLD - 1, FOLD, FOLD + 1,
                                        3 * FOLD + 7])
    def test_working_set_wider_than_a_block(self, length, n_sets):
        lines = random_lines(length, n=2 * length, universe=2 * FOLD)
        residue = _residue(lines, n_sets)[:length]
        assert len(residue) == length
        self._check(residue, n_sets, seed=length)

    @pytest.mark.parametrize("n_sets", [1, 2, 8, 64])
    def test_residue_ends_on_a_block_boundary(self, n_sets):
        lines = random_lines(n_sets, n=3 * FOLD, universe=FOLD // 2)
        residue = _residue(lines, n_sets)[:2 * FOLD]
        assert len(residue) == 2 * FOLD
        self._check(residue, n_sets, seed=n_sets)


class TestSetDistanceProfile:
    @pytest.mark.parametrize("seed", range(8))
    def test_misses_match_reference_grid(self, seed):
        lines = random_lines(seed, n=2500, universe=200)
        run_lines, _ = _collapse(lines)
        stream = LineStream(line_size=32, run_lines=run_lines,
                            total_accesses=len(lines))
        for n_sets in (1, 2, 4, 8, 32, 64):
            profile = SetDistanceProfile.from_stream(stream, n_sets)
            for ways in (1, 2, 4, 8):
                config = CacheConfig(n_sets * ways * 32, 32, ways)
                misses, cold = _simulate_runs(run_lines, config)
                assert profile.misses_at(ways) == misses
                assert profile.cold == cold

    def test_shared_prev_gives_same_profile(self):
        lines = random_lines(21, n=1200, universe=150)
        run_lines, _ = _collapse(lines)
        stream = LineStream(line_size=64, run_lines=run_lines,
                            total_accesses=len(lines))
        prev = previous_occurrences(run_lines)
        for n_sets in (1, 4, 16):
            fresh = SetDistanceProfile.from_stream(stream, n_sets)
            shared = SetDistanceProfile.from_stream(stream, n_sets, prev=prev)
            np.testing.assert_array_equal(fresh.counts, shared.counts)
            assert fresh.cold == shared.cold

    def test_stats_pair_validates_shape(self):
        stream = LineStream(line_size=32, run_lines=np.arange(10),
                            total_accesses=10)
        profile = SetDistanceProfile.from_stream(stream, 4)
        with pytest.raises(ValueError):
            profile.stats_pair(CacheConfig(256, 64, 1))  # wrong line size
        with pytest.raises(ValueError):
            profile.stats_pair(CacheConfig(256, 32, 1))  # 8 sets, not 4

    def test_empty_stream(self):
        stream = LineStream(line_size=32, run_lines=np.empty(0, dtype=np.int64),
                            total_accesses=0)
        profile = SetDistanceProfile.from_stream(stream, 4)
        assert profile.misses_at(2) == 0
        assert profile.total_accesses == 0


class TestSimulateEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces_grid(self, seed):
        addresses = np.random.default_rng(seed).integers(
            0, 1 << 14, size=4000, dtype=np.int64)
        for line_size in (16, 64):
            for size in (512, 4096):
                for assoc in (1, 2, 8, None):
                    config = CacheConfig(size, line_size, assoc)
                    fast = simulate(addresses, config)
                    slow = simulate(addresses, config, kernel="reference")
                    assert (fast.accesses, fast.misses, fast.cold_misses) == \
                           (slow.accesses, slow.misses, slow.cold_misses)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            simulate(np.arange(10), CacheConfig(256, 32), kernel="numba")
        with pytest.raises(ValueError):
            check_kernel("fenwick")

    def test_non_lru_policies_take_reference_path(self):
        addresses = random_lines(2, n=2000, universe=4000) * 8
        config = CacheConfig(512, 32, 2)
        for policy in ("fifo", "random"):
            stats = simulate(addresses, config, policy=policy)
            reference = simulate(addresses, config, policy=policy,
                                 kernel="reference")
            assert stats.misses == reference.misses


class TestSequenceStats:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_cache(self, seed):
        rng = np.random.default_rng(seed)
        segments = [rng.integers(0, 1 << 13, size=rng.integers(50, 1500))
                    for _ in range(4)]
        for assoc in (1, 2, None):
            config = CacheConfig(1024, 32, assoc)
            fast = simulate_sequence(segments, config)
            slow = simulate_sequence(segments, config, kernel="reference")
            assert len(fast) == len(slow) == len(segments)
            for a, b in zip(fast, slow):
                assert (a.accesses, a.misses, a.cold_misses) == \
                       (b.accesses, b.misses, b.cold_misses)

    def test_empty(self):
        assert sequence_stats([], CacheConfig(256, 32)) == []

    def test_warm_second_segment_reuses_first(self):
        frame = np.arange(0, 1024, 4)
        stats = simulate_sequence([frame, frame], CacheConfig(4096, 32))
        assert stats[0].misses == 32   # all cold
        assert stats[1].misses == 0    # fully warm


class TestSceneSlices:
    """Exact equivalence on real rendered traces across paper grids."""

    @pytest.fixture(scope="class")
    def streams(self):
        engine = Engine()
        spec = TraceSpec("town", scale=0.05, order=("vertical",))
        return engine.streams(spec, ("blocked", 4))

    def test_paper_grid_bit_identical(self, streams):
        for line_size in (32, 128):
            stream = streams.stream(line_size)
            for size in (2048, 16384):
                for assoc in (1, 2, 4, 8, 16, None):
                    config = CacheConfig(size, line_size, assoc)
                    fast = simulate(stream, config)
                    slow = simulate(stream, config, kernel="reference")
                    assert (fast.misses, fast.cold_misses) == \
                           (slow.misses, slow.cold_misses), config.label()

    def test_histogram_totals(self, streams):
        stream = streams.stream(64)
        counts, cold = set_distance_histogram(stream.run_lines, 8)
        assert counts.sum() + cold == len(stream.run_lines)


class TestStoreRoundTrip:
    def test_set_profile_persists(self, tmp_path):
        store = ArtifactStore(tmp_path)
        lines = random_lines(9, n=900, universe=128)
        run_lines, _ = _collapse(lines)
        stream = LineStream(line_size=32, run_lines=run_lines,
                            total_accesses=len(lines))
        profile = SetDistanceProfile.from_stream(stream, 8)
        payload = set_profile_payload({"addresses": "test"}, 32, 8)
        store.save_set_profile(payload, profile)
        loaded = store.load_set_profile(payload)
        assert loaded is not None
        assert (loaded.line_size, loaded.n_sets, loaded.cold,
                loaded.duplicate_hits) == (32, 8, profile.cold,
                                           profile.duplicate_hits)
        np.testing.assert_array_equal(loaded.counts, profile.counts)

    def test_missing_and_torn_files_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload = set_profile_payload({"addresses": "test"}, 32, 8)
        assert store.load_set_profile(payload) is None
        from repro.engine.artifacts import fingerprint
        path = store._path("set_profiles", fingerprint(payload), ".npz")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not an npz")
        assert store.load_set_profile(payload) is None
