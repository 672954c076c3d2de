"""Batched profile resolution: ``Engine.prefetch`` on the StreamPool.

A cold batch resolves each (trace, layout) with a store miss as one
``profiles`` job on the persistent pool; the profiles come back in the
job's done event and must equal, field for field, the ones the same
batch resolves in-process.  A fully warm batch must not start a pool.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import ArtifactStore, Engine, TraceSpec
from repro.engine import pipelined
from repro.engine.pipelined import shutdown_stream_pool

from tests import fault_injection as injection

HORIZONTAL = TraceSpec(scene="goblet", scale=0.1, order=("horizontal",))
VERTICAL = TraceSpec(scene="goblet", scale=0.1, order=("vertical",))
#: Fully associative and per-set pairs; two layouts of one trace, so the
#: pool's jobs meet on that trace's render single-flight lock.
PAIRS = ((32, 1), (64, 1), (32, 8), (64, 4))
REQUESTS = [
    (HORIZONTAL, ("blocked", 4), PAIRS),
    (HORIZONTAL, ("nonblocked",), PAIRS),
    (VERTICAL, ("blocked", 4), ((32, 1), (32, 16))),
]


@pytest.fixture(autouse=True)
def fresh_pool():
    shutdown_stream_pool()
    yield
    shutdown_stream_pool()


def resolved(engine, requests=REQUESTS) -> dict:
    """Every requested profile, as the engine's sources serve it."""
    out = {}
    for trace_spec, layout_spec, pairs in requests:
        streams = engine.streams(trace_spec, layout_spec)
        for line_size, n_sets in pairs:
            out[(trace_spec, layout_spec, line_size, n_sets)] = (
                streams.profile(line_size) if n_sets == 1
                else streams.set_profile(line_size, n_sets))
    return out


def assert_same_profiles(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key, expected in want.items():
        actual = got[key]
        assert type(actual) is type(expected), key
        for field in dataclasses.fields(expected):
            a = getattr(actual, field.name)
            b = getattr(expected, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), \
                    (key, field.name)
            else:
                assert a == b, (key, field.name)


def in_process(tmp_path) -> dict:
    engine = Engine(store=ArtifactStore(tmp_path / "serial"))
    report = engine.prefetch(REQUESTS, workers=1)
    assert report.tasks == len(REQUESTS) and report.attempts == 0
    return resolved(engine)


def test_parallel_profiles_equal_in_process_ones(tmp_path):
    expected = in_process(tmp_path)
    engine = Engine(store=ArtifactStore(tmp_path / "pool"))
    report = engine.prefetch(REQUESTS, workers=2)
    assert report.tasks == len(REQUESTS)
    assert report.attempts == len(REQUESTS)
    assert report.ok and report.retries == report.fallbacks == 0
    # The workers rendered, mapped and profiled: this process never
    # materialized an address stream.
    for trace_spec, layout_spec, _ in REQUESTS:
        assert engine.streams(trace_spec, layout_spec)._addresses is None
    assert_same_profiles(resolved(engine), expected)
    # The workers persisted what they computed: 5 distinct profiles of
    # each kind.
    for kind in ("profiles", "set_profiles"):
        assert len(list((tmp_path / "pool" / kind).glob("*.npz"))) == 5


def test_unwritable_store_returns_profiles_in_done_events(tmp_path):
    expected = in_process(tmp_path)
    root = tmp_path / "readonly"
    # The pool forks inside the fault, so its workers inherit a store
    # whose every publish fails, as on a read-only disk.  (They demote
    # it and warn; this process never writes.)
    with injection.disk_full():
        engine = Engine(store=ArtifactStore(root))
        report = engine.prefetch(REQUESTS, workers=2)
        shutdown_stream_pool()
    assert report.ok and report.fallbacks == 0
    assert_same_profiles(resolved(engine), expected)
    for kind in ("profiles", "set_profiles", "addresses"):
        assert not list((root / kind).glob("*.npz")) \
            + list((root / kind).glob("*.npy")), kind


def test_fully_warm_batch_starts_no_pool(tmp_path, monkeypatch):
    root = tmp_path / "store"
    Engine(store=ArtifactStore(root)).prefetch(REQUESTS, workers=2)
    shutdown_stream_pool()
    assert pipelined._POOL is None

    def no_dispatch(*args, **kwargs):
        raise AssertionError("a warm batch dispatched jobs")

    monkeypatch.setattr(pipelined, "resolve_profiles", no_dispatch)
    engine = Engine(store=ArtifactStore(root))
    report = engine.prefetch(REQUESTS, workers=2)
    assert report.tasks == 0 and report.attempts == 0
    assert pipelined._POOL is None
    assert_same_profiles(resolved(engine), in_process(tmp_path))


def test_partly_warm_batch_dispatches_only_the_misses(tmp_path):
    root = tmp_path / "store"
    Engine(store=ArtifactStore(root)).prefetch(REQUESTS[:1], workers=1)
    engine = Engine(store=ArtifactStore(root))
    report = engine.prefetch(REQUESTS, workers=2)
    assert report.tasks == len(REQUESTS) - 1
    assert_same_profiles(resolved(engine), in_process(tmp_path))
