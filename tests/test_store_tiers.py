"""Tests for the tiered read-through store.

Covers T0 (the byte-bounded in-process LRU and the verify-once digest
cache): LRU eviction under byte pressure, stat revalidation so on-disk
tampering is never masked by a process-level hit, and hash-at-most-once
loads.  Covers T2 (``REPRO_STORE_REMOTE``): zero-render read-through
into a cold local store, local quarantine + recompute on remote
corruption, degradation when the remote root is unreachable, and
concurrent read-throughs deduplicating into one verified local copy
(including a reader arriving between the payload and sidecar fetch).
"""

import sys
import threading

import numpy as np
import pytest

from repro.engine import (
    ArtifactStore,
    Engine,
    TraceSpec,
    addresses_payload,
    fingerprint,
    profile_payload,
    render_calls,
    tiers,
)
from tests import fault_injection as faults

SPEC = TraceSpec(scene="goblet", scale=0.1, order=("horizontal",))
LAYOUT = ("blocked", 4)
ADDR_PAYLOAD = addresses_payload(SPEC, LAYOUT)
PROFILE_32 = profile_payload(ADDR_PAYLOAD, 32)


@pytest.fixture(autouse=True)
def _fresh_process_caches():
    """Each test starts with empty process tiers (counters persist;
    tests assert on deltas, never absolutes)."""
    tiers.clear_process_caches()
    yield
    tiers.clear_process_caches()


def warm_store(root):
    store = ArtifactStore(root)
    engine = Engine(store=store)
    streams = engine.streams(SPEC, LAYOUT)
    streams.profile(32)
    streams.profile(64)
    streams.set_profile(32, 8)
    return store, engine


def quarantine_reasons(store, kind):
    directory = store.root / "quarantine" / kind
    if not directory.is_dir():
        return ""
    return "\n".join(f.read_text()
                     for f in directory.glob("*.reason.json"))


class TestMemoryTier:
    def _anchor(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"x")
        return path

    def test_lru_eviction_under_byte_pressure(self, tmp_path):
        tier = tiers.MemoryTier(max_bytes=100)
        for index in range(3):
            tier.put(("k", index), self._anchor(tmp_path, f"a{index}"),
                     f"value-{index}", 40)
        # 3 x 40 bytes > 100: the least-recently-used entry is gone.
        assert tier.get(("k", 0)) is tiers.MISS
        assert tier.get(("k", 1)) == "value-1"
        assert tier.get(("k", 2)) == "value-2"
        stats = tier.stats()
        assert stats["bytes"] <= stats["max_bytes"]
        assert stats["evictions"] == 1

    def test_get_refreshes_lru_order(self, tmp_path):
        tier = tiers.MemoryTier(max_bytes=100)
        tier.put(("k", 0), self._anchor(tmp_path, "a0"), "value-0", 40)
        tier.put(("k", 1), self._anchor(tmp_path, "a1"), "value-1", 40)
        assert tier.get(("k", 0)) == "value-0"  # 0 is now most recent
        tier.put(("k", 2), self._anchor(tmp_path, "a2"), "value-2", 40)
        assert tier.get(("k", 1)) is tiers.MISS
        assert tier.get(("k", 0)) == "value-0"

    def test_oversized_value_is_not_cached(self, tmp_path):
        tier = tiers.MemoryTier(max_bytes=100)
        tier.put(("k", "big"), self._anchor(tmp_path, "big"), "v", 101)
        assert tier.get(("k", "big")) is tiers.MISS
        assert tier.stats()["entries"] == 0

    def test_stat_revalidation_drops_rewritten_anchor(self, tmp_path):
        tier = tiers.MemoryTier(max_bytes=100)
        anchor = self._anchor(tmp_path, "a")
        tier.put(("k",), anchor, "cached", 10)
        assert tier.get(("k",)) == "cached"
        anchor.write_bytes(b"different length")  # size change
        assert tier.get(("k",)) is tiers.MISS
        assert tier.stats()["entries"] == 0


class TestT0Integration:
    def test_warm_load_serves_the_cached_object(self, tmp_path):
        warm_store(tmp_path)
        first = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        second = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        # T0 is process-wide: distinct store instances over the same
        # root share one deserialized artifact, no disk read.
        assert first is second

    def test_disabled_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MEMORY", "0")
        warm_store(tmp_path)
        assert not tiers.memory_tier().enabled
        first = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        second = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        assert first is not second
        np.testing.assert_array_equal(first.counts, second.counts)

    def test_byte_budget_bounds_resident_set(self, tmp_path, monkeypatch):
        store, _ = warm_store(tmp_path)
        reference = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        budget = reference.counts.nbytes + 64  # exactly one profile
        monkeypatch.setenv("REPRO_STORE_MEMORY_BYTES", str(budget))
        tiers.clear_process_caches()

        fresh = ArtifactStore(tmp_path)
        fresh.load_profile(PROFILE_32)
        fresh.load_profile(profile_payload(ADDR_PAYLOAD, 64))
        stats = tiers.memory_tier().stats()
        assert stats["max_bytes"] == budget
        assert stats["bytes"] <= budget
        assert stats["entries"] <= 1

    def test_tampering_not_masked_by_warm_t0(self, tmp_path):
        """The dangerous case: the SAME store instance that populated
        T0 must still see on-disk bit rot."""
        store, engine = warm_store(tmp_path)
        reference = ArtifactStore(tmp_path).load_profile(PROFILE_32)
        digest = fingerprint(PROFILE_32)
        victim = store.root / "profiles" / (digest + ".npz")
        faults.flip_bit(victim)

        assert store.load_profile(PROFILE_32) is None
        assert "mismatch" in quarantine_reasons(store, "profiles")
        recomputed = engine.streams(SPEC, LAYOUT).profile(32)
        np.testing.assert_array_equal(recomputed.counts, reference.counts)

    def test_restamped_truncation_not_masked(self, tmp_path):
        """truncate + restamp defeats the digest check on purpose; the
        decode layer must still quarantine, not serve a stale T0 hit."""
        store, _ = warm_store(tmp_path)
        digest = fingerprint(PROFILE_32)
        victim = store.root / "profiles" / (digest + ".npz")
        faults.truncate(victim)
        faults.restamp(store, "profiles", digest, ".npz")

        assert ArtifactStore(tmp_path).load_profile(PROFILE_32) is None
        assert "undecodable" in quarantine_reasons(store, "profiles")


class TestDigestCache:
    def test_verified_loads_hash_at_most_once(self, tmp_path, monkeypatch):
        # Disable T0 so every load goes through envelope verification.
        monkeypatch.setenv("REPRO_STORE_MEMORY", "0")
        warm_store(tmp_path)
        tiers.clear_process_caches()

        cache = tiers.digest_cache()
        before = cache.stats()
        assert ArtifactStore(tmp_path).load_profile(PROFILE_32) is not None
        after_first = cache.stats()
        hashed = after_first["misses"] - before["misses"]
        assert hashed >= 1  # payload actually hashed once

        for _ in range(3):
            assert ArtifactStore(tmp_path).load_profile(PROFILE_32) \
                is not None
        after = cache.stats()
        assert after["misses"] == after_first["misses"]  # never re-hashed
        assert after["hits"] > after_first["hits"]

    def test_publish_seeds_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MEMORY", "0")
        warm_store(tmp_path)  # publish records digests as a side effect
        cache = tiers.digest_cache()
        before = cache.stats()
        assert ArtifactStore(tmp_path).load_profile(PROFILE_32) is not None
        after = cache.stats()
        # The very first verified load costs a stat, not a hash.
        assert after["misses"] == before["misses"]

    def test_verify_always_bypasses_the_cache(self, tmp_path, monkeypatch):
        warm_store(tmp_path)
        monkeypatch.setenv("REPRO_STORE_MEMORY", "0")
        monkeypatch.setenv("REPRO_STORE_VERIFY", "always")
        tiers.clear_process_caches()
        cache = tiers.digest_cache()
        before = cache.stats()
        for _ in range(2):
            assert ArtifactStore(tmp_path).load_profile(PROFILE_32) \
                is not None
        after = cache.stats()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]


class TestRemoteTier:
    @pytest.fixture()
    def remote_root(self, tmp_path, monkeypatch):
        remote = tmp_path / "remote"
        remote.mkdir()
        monkeypatch.setenv("REPRO_STORE_REMOTE", str(remote))
        return remote

    def test_read_through_renders_nothing(self, tmp_path, remote_root):
        _, engine = warm_store(tmp_path / "origin")
        reference = engine.streams(SPEC, LAYOUT).profile(32)
        assert (remote_root / "profiles").is_dir()  # publish happened
        tiers.clear_process_caches()

        cold_root = tmp_path / "cold"
        before = render_calls()
        fetched = Engine(store=ArtifactStore(cold_root)) \
            .streams(SPEC, LAYOUT).profile(32)
        assert render_calls() == before  # zero renders: T2 served it
        np.testing.assert_array_equal(fetched.counts, reference.counts)
        # Write-back: the cold store now holds its own verified copy.
        report = ArtifactStore(cold_root).verify()
        assert report["clean"] and report["ok"] >= 1

    def test_remote_corruption_quarantines_locally(self, tmp_path,
                                                   remote_root):
        _, engine = warm_store(tmp_path / "origin")
        reference = engine.streams(SPEC, LAYOUT).profile(32)
        tiers.clear_process_caches()
        digest = fingerprint(PROFILE_32)
        faults.flip_bit(remote_root / "profiles" / (digest + ".npz"))

        cold = ArtifactStore(tmp_path / "cold")
        assert cold.load_profile(PROFILE_32) is None
        assert "mismatch" in quarantine_reasons(cold, "profiles")
        # ... and the engine transparently falls back to recompute.
        recomputed = Engine(store=cold).streams(SPEC, LAYOUT).profile(32)
        np.testing.assert_array_equal(recomputed.counts, reference.counts)

    def test_unreachable_remote_degrades_to_recompute(self, tmp_path,
                                                      monkeypatch):
        # A path *under a file* cannot be mkdir'd into existence by a
        # publish, unlike a merely missing directory: a dead mount.
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        monkeypatch.setenv("REPRO_STORE_REMOTE",
                           str(blocker / "no-such-mount"))
        store, engine = warm_store(tmp_path / "local")
        assert engine.streams(SPEC, LAYOUT).profile(32) is not None
        remote = store.stats()["remote"]
        assert remote["configured"] and not remote["reachable"]

    def test_half_fetched_read_through_still_hits(self, tmp_path,
                                                  remote_root):
        # A concurrent reader's fetch lands the payload first and the
        # sidecar second; a second reader arriving in between must
        # wait for (or finish) that fetch, not read a miss.
        _, engine = warm_store(tmp_path / "origin")
        reference = engine.streams(SPEC, LAYOUT).profile(32)
        tiers.clear_process_caches()
        digest = fingerprint(PROFILE_32)
        cold = ArtifactStore(tmp_path / "cold")
        assert tiers.RemoteTier(remote_root).fetch(
            "profiles", digest + ".npz", cold.root / "profiles")
        assert not (cold.root / "profiles" / (digest + ".json")).exists()

        fetched = cold.load_profile(PROFILE_32)
        assert fetched is not None
        np.testing.assert_array_equal(fetched.counts, reference.counts)
        assert quarantine_reasons(cold, "profiles") == ""
        report = ArtifactStore(cold.root).verify()
        assert report["clean"] and report["ok"] == 1

    def test_read_through_stress_every_reader_hits(self, tmp_path,
                                                   remote_root):
        # More readers than cores, switching threads as often as the
        # interpreter allows: none may read the fetch in flight as a
        # miss.
        warm_store(tmp_path / "origin")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(5):
                tiers.clear_process_caches()
                cold_root = tmp_path / f"cold-{round_index}"
                results = []

                def fetch():
                    results.append(
                        ArtifactStore(cold_root).load_profile(PROFILE_32))

                threads = [threading.Thread(target=fetch)
                           for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(results) == 8
                assert all(result is not None for result in results)
        finally:
            sys.setswitchinterval(interval)

    def test_concurrent_read_throughs_dedup(self, tmp_path, remote_root):
        warm_store(tmp_path / "origin")
        tiers.clear_process_caches()
        cold_root = tmp_path / "cold"
        results, errors = [], []

        def fetch():
            try:
                results.append(
                    ArtifactStore(cold_root).load_profile(PROFILE_32))
            except Exception as fault:  # pragma: no cover
                errors.append(fault)

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert all(result is not None for result in results)
        for result in results[1:]:
            np.testing.assert_array_equal(result.counts,
                                          results[0].counts)
        digest = fingerprint(PROFILE_32)
        # One verified local copy, no .tmp litter left behind.
        assert (cold_root / "profiles" / (digest + ".npz")).is_file()
        report = ArtifactStore(cold_root).verify()
        assert report["clean"] and report["tmp"] == 0
