"""The shared experiment engine (render -> trace -> simulate, once).

``repro.engine`` is the single entry point every consumer uses to
obtain pipeline intermediates:

* :class:`ArtifactStore` -- content-addressed on-disk cache of rendered
  traces, per-layout byte-address streams and stack-distance profiles
  (default ``benchmarks/.cache/``, overridable via ``REPRO_CACHE_DIR``);
* :class:`TraceSpec` / :class:`ExperimentSpec` -- declarative
  descriptions of one render or a whole sweep grid;
* :class:`Engine` / :func:`run_experiment` -- the runner that
  deduplicates shared stages; :meth:`Engine.prefetch` resolves a batch
  of profile requests' store misses in parallel on the persistent
  worker pool.

Quickstart::

    from repro.engine import Engine, ExperimentSpec, TraceSpec

    engine = Engine()                     # benchmarks/.cache store
    spec = TraceSpec("town", scale=0.25, order=("vertical",))
    streams = engine.streams(spec, ("blocked", 8))   # cached end to end
    result = engine.run(ExperimentSpec(scenes=("town",),
                                       layouts=(("blocked", 8),)))
"""

from .artifacts import (
    ArtifactStore,
    CorruptArtifact,
    PIPELINE_VERSION,
    StoreError,
    StoreUnavailable,
    addresses_payload,
    default_cache_dir,
    fingerprint,
    profile_payload,
    set_profile_payload,
)
from .tiers import (
    DigestCache,
    MemoryTier,
    RemoteTier,
    clear_process_caches,
    digest_cache,
    memory_tier,
    remote_tier,
)
from .spec import (
    ExperimentSpec,
    TraceSpec,
    layout_from_spec,
    order_from_spec,
    paper_order_spec,
    resolve_order_spec,
)
from .runner import (
    Engine,
    ExperimentResult,
    ExperimentRow,
    StoredTraceStreams,
    WarmReport,
    render_calls,
    reset_render_calls,
    run_experiment,
)
from .streaming import (
    DEFAULT_CHUNK_SIZE,
    StreamAuditReport,
    StreamedProfiles,
    StreamingAuditError,
    classify_streamed,
)
from .pipelined import (
    PipelineError,
    StreamReport,
    shutdown_stream_pool,
)

__all__ = [
    "ArtifactStore",
    "CorruptArtifact",
    "PIPELINE_VERSION",
    "StoreError",
    "StoreUnavailable",
    "addresses_payload",
    "default_cache_dir",
    "fingerprint",
    "profile_payload",
    "set_profile_payload",
    "DigestCache",
    "MemoryTier",
    "RemoteTier",
    "clear_process_caches",
    "digest_cache",
    "memory_tier",
    "remote_tier",
    "ExperimentSpec",
    "TraceSpec",
    "layout_from_spec",
    "order_from_spec",
    "paper_order_spec",
    "resolve_order_spec",
    "Engine",
    "ExperimentResult",
    "ExperimentRow",
    "StoredTraceStreams",
    "WarmReport",
    "render_calls",
    "reset_render_calls",
    "run_experiment",
    "DEFAULT_CHUNK_SIZE",
    "StreamAuditReport",
    "StreamedProfiles",
    "StreamingAuditError",
    "classify_streamed",
    "PipelineError",
    "StreamReport",
    "shutdown_stream_pool",
]
