"""Stored per-trace summaries (Table 4.1 and the locality statistics)
and the benchmark session's load-time self-healing.

A warm :class:`SceneBank` serves both scene-statistics tables off the
``summaries/`` store kind without building a scene, rendering or
loading a trace; the stored values equal direct calls exactly; damage
is quarantined and recomputed on load; and a bench session that runs
no store-wide ``repair()`` still heals a corrupted profile and a stale
torn sidecar at load time, with numbers identical to a clean store.
"""

import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import bench_locality_stats  # noqa: E402
import bench_table_4_1  # noqa: E402
from paperbench import SceneBank, curve, simulated  # noqa: E402

from repro.analysis import (  # noqa: E402
    accesses_per_texel,
    mean_texture_runlength,
    repetition_factor,
)
from repro.core import CacheConfig  # noqa: E402
from repro.engine import (  # noqa: E402
    ArtifactStore,
    Engine,
    TraceSpec,
    clear_process_caches,
    fingerprint,
    render_calls,
    summary_payload,
)
from repro.engine import artifacts as artifacts_module  # noqa: E402
from repro.engine import runner as runner_module  # noqa: E402
from repro.scenes import ALL_SCENES  # noqa: E402
from repro.scenes.stats import characterize  # noqa: E402

SCALE = 0.05


def _summary_files(store):
    return sorted((Path(store.root) / "summaries").glob("*.summary"))


@pytest.fixture(scope="module")
def warm_root(tmp_path_factory):
    """A store on which both harnesses have run once (cold)."""
    root = tmp_path_factory.mktemp("summaries") / "store"
    bank = SceneBank(scale=SCALE, store=ArtifactStore(root))
    cold = (bench_table_4_1.measure(bank), bench_locality_stats.measure(bank))
    return root, cold


def _counting(monkeypatch):
    """Count scene builds and trace/address loads of every engine."""
    calls = {"scene": 0, "load_render": 0, "load_addresses": 0}

    def count(owner, attribute):
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            calls[attribute] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, wrapper)

    count(Engine, "scene")
    count(ArtifactStore, "load_render")
    count(ArtifactStore, "load_addresses")
    return calls


class TestWarmServing:
    def test_no_scene_build_render_or_trace_load(self, warm_root,
                                                 monkeypatch):
        root, (cold_rows, cold_stats) = warm_root
        clear_process_caches()
        calls = _counting(monkeypatch)
        renders = render_calls()
        bank = SceneBank(scale=SCALE, store=ArtifactStore(root))
        rows = bench_table_4_1.measure(bank)
        stats = bench_locality_stats.measure(bank)
        assert calls == {"scene": 0, "load_render": 0, "load_addresses": 0}
        assert render_calls() == renders
        assert rows == cold_rows
        assert stats == cold_stats

    def test_values_equal_direct_calls(self, warm_root):
        root, _ = warm_root
        clear_process_caches()
        stored = Engine(store=ArtifactStore(root))
        direct = Engine(store=ArtifactStore(root))
        for name in ALL_SCENES:
            spec = TraceSpec(name, scale=SCALE, order="paper")
            result = direct.render(spec)
            chars = characterize(direct.scene(name, SCALE), result)
            assert stored.summary("scene", spec) == asdict(chars)
            trace = result.trace
            locality = stored.summary("locality", spec)
            assert locality["accesses_per_texel"] == \
                accesses_per_texel(trace).as_dict()
            assert locality["repetition_factor"] == repetition_factor(trace)
            assert locality["mean_texture_runlength"] == \
                mean_texture_runlength(trace)
            assert locality["n_accesses"] == trace.n_accesses
            # Stored as plain Python numbers, exactly.
            assert type(locality["n_accesses"]) is int
            assert type(locality["repetition_factor"]) is float

    def test_about_a_kilobyte_per_scene(self, warm_root):
        root, _ = warm_root
        files = _summary_files(ArtifactStore(root))
        assert len(files) == 2 * len(ALL_SCENES)
        assert all(path.stat().st_size < 2048 for path in files)

    def test_unknown_summary_rejected(self, tmp_path):
        engine = Engine(store=ArtifactStore(tmp_path))
        with pytest.raises(ValueError, match="unknown summary"):
            engine.summary("histogram",
                           TraceSpec("goblet", scale=SCALE, order="paper"))


class TestIntegrity:
    SPEC = TraceSpec("goblet", scale=SCALE, order=("horizontal",))

    def test_corrupt_payload_quarantined_and_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        reference = Engine(store=store).summary("locality", self.SPEC)
        [payload] = _summary_files(store)
        raw = bytearray(payload.read_bytes())
        raw[len(raw) // 2] ^= 0x01  # same size, different digest
        payload.write_bytes(bytes(raw))
        clear_process_caches()
        renders = render_calls()
        again = Engine(store=ArtifactStore(tmp_path)).summary(
            "locality", self.SPEC)
        assert again == reference
        reasons = list((tmp_path / "quarantine" / "summaries")
                       .glob("*.reason.json"))
        assert len(reasons) == 1
        assert "digest mismatch" in reasons[0].read_text()
        # Recomputed from the stored trace, not re-rendered, and
        # published again.
        assert render_calls() == renders
        assert ArtifactStore(tmp_path).verify()["clean"]
        assert len(_summary_files(store)) == 1

    def test_undecodable_payload_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        engine = Engine(store=store)
        reference = engine.summary("scene", self.SPEC)
        payload = summary_payload("scene", 1, self.SPEC)
        digest = fingerprint(payload)
        # A well-enveloped payload that is not a JSON object.
        path = store._path("summaries", digest, ".summary")
        path.write_text("[1, 2, 3]")
        store._write_sidecar("summaries", digest, path, payload)
        clear_process_caches()
        assert ArtifactStore(tmp_path).load_summary(payload) is None
        assert "undecodable summary" in "".join(
            f.read_text() for f in (tmp_path / "quarantine" / "summaries")
            .glob("*.reason.json"))
        assert Engine(store=ArtifactStore(tmp_path)).summary(
            "scene", self.SPEC) == reference

    def test_verify_and_stats_cover_the_kind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        Engine(store=store).summary("scene", self.SPEC)
        assert "summaries" in artifacts_module.KINDS
        report = store.verify()
        assert report["clean"] and report["kinds"]["summaries"]["ok"] == 1
        assert store.stats()["kinds"]["summaries"]["files"] == 2


class TestFingerprint:
    BASE = TraceSpec("town", scale=0.25, order="paper")

    def _digest(self, spec, name="scene", version=1):
        return fingerprint(summary_payload(name, version, spec))

    def test_changes_with_every_input(self):
        base = self._digest(self.BASE)
        variants = [
            self._digest(TraceSpec("guitar", scale=0.25, order="paper")),
            self._digest(TraceSpec("town", scale=0.5, order="paper")),
            self._digest(TraceSpec("town", scale=0.25, order="paper",
                                   time=1 / 30)),
            self._digest(TraceSpec("town", scale=0.25,
                                   order=("horizontal",))),
            self._digest(self.BASE, version=2),
            self._digest(self.BASE, name="locality"),
        ]
        assert base not in variants
        assert len(set(variants)) == len(variants)

    def test_stable_and_implementation_independent(self):
        assert self._digest(self.BASE) == self._digest(
            TraceSpec("town", scale=0.25, order=("vertical",)))
        assert self._digest(self.BASE) == self._digest(
            TraceSpec("town", scale=0.25, order="paper",
                      raster="reference"))

    def test_engine_uses_the_table_version(self, tmp_path, monkeypatch):
        spec = TraceSpec("goblet", scale=SCALE, order="paper")
        store = ArtifactStore(tmp_path)
        Engine(store=store).summary("locality", spec)
        version, compute = runner_module.SUMMARIES["locality"]
        monkeypatch.setitem(runner_module.SUMMARIES, "locality",
                            (version + 1, compute))
        clear_process_caches()
        Engine(store=ArtifactStore(tmp_path)).summary("locality", spec)
        assert len(_summary_files(store)) == 2


class TestLoadTimeHealing:
    """A bench session runs no store-wide ``repair()``; every damaged
    artifact it touches is quarantined and recomputed on load."""

    LAYOUT = ("blocked", 4)

    def _grid(self, bank):
        order = bank.paper_order_spec("goblet")
        return {
            "curve32": ("goblet", order, self.LAYOUT,
                        curve(32, (512, 2048, 8192))),
            "curve64": ("goblet", order, self.LAYOUT,
                        curve(64, (512, 2048, 8192))),
            "assoc": ("goblet", order, self.LAYOUT,
                      simulated(CacheConfig(2048, 32, 2))),
        }

    def _session(self, root):
        clear_process_caches()
        bank = SceneBank(scale=SCALE, store=ArtifactStore(root))
        return bank.evaluate(self._grid(bank))

    @staticmethod
    def _age(path):
        stale = time.time() - 2 * artifacts_module.TORN_GRACE_S
        os.utime(path, (stale, stale))

    def test_damage_heals_without_repair(self, tmp_path, monkeypatch):
        # Resolve in this process: the test is about the load path.
        monkeypatch.setattr(runner_module, "_usable_cores", lambda: 1)
        clean = self._session(tmp_path / "clean")

        root = tmp_path / "damaged"
        self._session(root)
        store = ArtifactStore(root)
        profiles = sorted((root / "profiles").glob("*.npz"))
        set_profiles = sorted((root / "set_profiles").glob("*.npz"))
        assert len(profiles) == 2 and len(set_profiles) == 1
        # 1. Bit rot in a stored profile (same size, wrong digest).
        raw = bytearray(profiles[0].read_bytes())
        raw[-9] ^= 0xFF
        profiles[0].write_bytes(bytes(raw))
        # 2. A stale torn sidecar: the publish of the per-set profile's
        #    sidecar died half way through, long ago.
        sidecar = set_profiles[0].with_suffix(".json")
        sidecar.write_text(sidecar.read_text()[:40])
        self._age(sidecar)
        # 3. A stale payload whose sidecar never landed.
        profiles[1].with_suffix(".json").unlink()
        self._age(profiles[1])

        def no_repair(self):
            raise AssertionError("the session ran a store-wide repair()")

        monkeypatch.setattr(ArtifactStore, "repair", no_repair)
        healed = self._session(root)

        for key in ("curve32", "curve64"):
            np.testing.assert_array_equal(healed[key].miss_counts,
                                          clean[key].miss_counts)
            assert healed[key].cold_misses == clean[key].cold_misses
        assert healed["assoc"] == clean["assoc"]
        reasons = "".join(
            path.read_text()
            for path in (root / "quarantine").glob("*/*.reason.json"))
        assert reasons.count('"reason"') == 3
        assert "digest mismatch" in reasons
        assert "unreadable sidecar" in reasons
        assert "missing sidecar" in reasons
        assert store.verify()["clean"]
