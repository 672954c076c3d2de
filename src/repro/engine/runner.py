"""The shared experiment engine.

One :class:`Engine` sits between every consumer (benchmark harnesses,
the CLI, the examples) and the pipeline.  It deduplicates shared
stages -- one render per (scene, order, filtering), one byte-address
stream per layout, one collapsed :class:`~repro.core.sweep.LineStream`
and stack-distance profile per line size -- first against in-memory
memos, then against the on-disk :class:`~repro.engine.artifacts.ArtifactStore`,
so warm processes perform zero renders.

:func:`run_experiment` executes a declarative
:class:`~repro.engine.spec.ExperimentSpec` grid through one engine,
optionally fanning the expensive render/trace stage out across
``multiprocessing`` workers that warm the shared store in parallel.

Fault tolerance
---------------
Store misses compute under the store's per-fingerprint single-flight
lock, so N racing processes produce one render per fingerprint.  The
parallel warm-up submits tasks individually, captures worker
exceptions, retries each failed task with exponential backoff and
jitter, and finally falls back to in-process execution; the outcome is
summarized in a :class:`WarmReport` on the :class:`ExperimentResult`
instead of a first worker crash killing the whole run.  An unwritable
store demotes itself (see :mod:`repro.engine.artifacts`) and the
engine transparently continues on its in-memory memos.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.cache import CacheConfig, CacheStats, simulate
from ..core.kernels import SetDistanceProfile, check_kernel
from ..core.stackdist import DistanceProfile
from ..core.sweep import TraceStreams
from ..pipeline.renderer import Renderer, RenderResult
from ..scenes import ALL_SCENES
from ..texture.memory import place_textures
from .artifacts import (
    ArtifactStore,
    addresses_payload,
    fingerprint,
    profile_payload,
    set_profile_payload,
)
from .spec import ExperimentSpec, TraceSpec, layout_from_spec, order_from_spec

#: Number of actual scene renders performed by this process (cache
#: misses only).  Tests assert warm runs leave this untouched.
RENDER_CALLS = 0

#: Warm-pool fault policy: how many retry rounds a failed task gets in
#: pool workers before falling back to in-process execution, the base
#: backoff between rounds (doubled each round, with jitter), and how
#: long one task may run before it is presumed hung and retried.
WARM_RETRIES = 2
WARM_BACKOFF_S = 0.25
WARM_TIMEOUT_S = 600.0


def render_calls() -> int:
    """Scene renders performed by this process so far."""
    return RENDER_CALLS


def reset_render_calls() -> None:
    global RENDER_CALLS
    RENDER_CALLS = 0


class StoredTraceStreams(TraceStreams):
    """:class:`TraceStreams` whose distance profiles -- fully
    associative and per-set -- round-trip through the artifact store
    (computed once per store, not once per process).

    The byte-address stream itself is lazy: pass ``loader`` instead of
    ``addresses`` and the array is only resolved (store load, or
    render + placement on a true miss) the first time a profile
    actually has to be *computed*.  A pure-warm sweep -- every profile
    store-resident -- therefore never touches the addresses artifact,
    let alone the scene."""

    def __init__(self, addresses=None, store: Optional[ArtifactStore] = None,
                 key_payload: Optional[dict] = None,
                 kernel: str = "vectorized", loader=None):
        if addresses is None and loader is None:
            raise ValueError("StoredTraceStreams needs addresses or a loader")
        self._loader = loader
        # The dataclass base assigns self.addresses; the property
        # setter below routes that into _addresses.
        super().__init__(addresses, kernel=kernel)
        self._store = store
        self._key_payload = key_payload

    @property
    def addresses(self):
        if self._addresses is None:
            self._addresses = self._loader()
        return self._addresses

    @addresses.setter
    def addresses(self, value):
        self._addresses = value

    def prefetch(self, pairs) -> None:
        """Resolve every ``(line_size, n_sets)`` profile a sweep grid
        will read, one store round-trip per *distinct* pair (memoized
        hits are free) -- the batched-serving mirror of
        :meth:`~repro.engine.streaming.StreamedProfiles.prefetch`.
        Misses compute lazily off the addresses, which materialize at
        most once for the whole batch."""
        for line_size, n_sets in sorted({(int(line), int(sets))
                                         for line, sets in pairs}):
            if n_sets == 1:
                # What miss_rate_curve and set_profile(line, 1) both
                # read; the per-set artifact derives from it for free.
                self.profile(line_size)
            else:
                self.set_profile(line_size, n_sets)

    def _backed(self) -> bool:
        return self._store is not None and self._key_payload is not None

    def _through_store(self, kind: str, payload: dict, load, save, compute):
        """Load-or-compute one artifact with single-flight: re-check
        the store under the lock so racing processes compute once."""
        cached = load(payload)
        if cached is not None:
            return cached
        with self._store.single_flight(kind, fingerprint(payload)):
            cached = load(payload)
            if cached is None:
                cached = compute()
                save(payload, cached)
        return cached

    def profile(self, line_size: int) -> DistanceProfile:
        if line_size not in self._profiles:
            if not self._backed():
                return super().profile(line_size)
            compute = super().profile
            self._profiles[line_size] = self._through_store(
                "profiles", profile_payload(self._key_payload, line_size),
                self._store.load_profile, self._store.save_profile,
                lambda: compute(line_size))
        return self._profiles[line_size]

    def set_profile(self, line_size: int, n_sets: int) -> SetDistanceProfile:
        key = (line_size, n_sets)
        if key not in self._set_profiles:
            if n_sets == 1 or not self._backed():
                # One set derives from the (store-backed) profile; it
                # has no artifact of its own.
                return super().set_profile(line_size, n_sets)
            compute = super().set_profile
            self._set_profiles[key] = self._through_store(
                "set_profiles",
                set_profile_payload(self._key_payload, line_size, n_sets),
                self._store.load_set_profile, self._store.save_set_profile,
                lambda: compute(line_size, n_sets))
        return self._set_profiles[key]


@dataclass
class WarmReport:
    """Outcome of one parallel store-warming phase.

    ``attempts`` counts every task submission to the worker pool,
    ``retries`` the resubmissions after a failure, ``fallbacks`` the
    tasks that only succeeded in-process after exhausting pool retries,
    and ``errors`` the (task label, error) pairs that failed everywhere
    -- those cells will recompute (and surface any real error) during
    in-process assembly.
    """

    tasks: int = 0
    attempts: int = 0
    retries: int = 0
    fallbacks: int = 0
    errors: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.errors


class Engine:
    """Memoized, store-backed access to every pipeline stage."""

    def __init__(self, store: Optional[ArtifactStore] = None):
        self.store = store if store is not None else ArtifactStore()
        self.last_warm_report: Optional[WarmReport] = None
        #: Aggregated recovery report of the last pipelined run
        #: (:class:`~repro.engine.pipelined.StreamReport`), ``None``
        #: when the last run did not pipeline.
        self.last_stream_report = None
        self._scenes = {}
        self._renders = {}
        self._placements = {}
        self._streams = {}
        self._streamed = {}

    # -- scene construction (cheap, never persisted) ---------------------

    def scene(self, name: str, scale: float, time: float = 0.0):
        """The built :class:`~repro.scenes.base.SceneData`, memoized."""
        key = (name, scale, time)
        if key not in self._scenes:
            self._scenes[key] = ALL_SCENES[name]().build(scale=scale, time=time)
        return self._scenes[key]

    # -- renders ---------------------------------------------------------

    def render(self, spec: TraceSpec, produce_image: bool = False,
               fresh: bool = False) -> RenderResult:
        """The render for ``spec``: memoized, then store-backed, then
        fresh.  ``produce_image=True`` always renders (framebuffers are
        not cached) but still persists the trace for later warm runs;
        ``fresh=True`` also skips the memo and store so the result
        carries real ``phase_ms`` timings (``render --profile``).

        Store misses render under the per-fingerprint single-flight
        lock: of N racing processes one renders, the rest load its
        published artifact."""
        if produce_image or fresh:
            result = self._render_fresh(spec, produce_image=produce_image)
            self.store.save_render(spec, result)
            return result
        if spec not in self._renders:
            result = self.store.load_render(spec)
            if result is None:
                digest = fingerprint(spec.payload())
                with self.store.single_flight("traces", digest):
                    result = self.store.load_render(spec)
                    if result is None:
                        result = self._render_fresh(spec, produce_image=False)
                        self.store.save_render(spec, result)
            self._renders[spec] = result
        return self._renders[spec]

    def _render_fresh(self, spec: TraceSpec, produce_image: bool) -> RenderResult:
        global RENDER_CALLS
        scene = self.scene(spec.scene, spec.scale, spec.time)
        renderer = Renderer(
            order=order_from_spec(spec.order),
            produce_image=produce_image,
            record_positions=spec.record_positions,
            max_anisotropy=spec.max_anisotropy,
            lod_bias=spec.lod_bias,
            use_mipmaps=spec.use_mipmaps,
            raster=spec.raster,
        )
        RENDER_CALLS += 1
        return renderer.render(scene)

    def trace(self, spec: TraceSpec):
        return self.render(spec).trace

    # -- placements and address streams ----------------------------------

    def placements(self, scene: str, scale: float, layout_spec,
                   time: float = 0.0) -> list:
        """Placed textures for (scene, layout), memoized."""
        key = (scene, scale, time, tuple(layout_spec))
        if key not in self._placements:
            built = self.scene(scene, scale, time)
            self._placements[key] = place_textures(
                built.get_mipmaps(), layout_from_spec(layout_spec))
        return self._placements[key]

    def addresses(self, trace_spec: TraceSpec, layout_spec) -> np.ndarray:
        """The byte-address stream for (trace, layout).  Warm hits load
        the stream directly, without building the scene or rendering."""
        return self.streams(trace_spec, layout_spec).addresses

    def streams(self, trace_spec: TraceSpec, layout_spec) -> StoredTraceStreams:
        """Store-backed :class:`TraceStreams` for (trace, layout).

        The address stream resolves lazily: nothing is loaded --
        let alone rendered -- until a profile actually needs the
        addresses, so pure-warm sweeps (profiles store-resident) skip
        the scene, the trace and the address artifact entirely."""
        key = (trace_spec, tuple(layout_spec))
        if key not in self._streams:
            payload = addresses_payload(trace_spec, layout_spec)

            def load_or_compute():
                addresses = self.store.load_addresses(payload)
                if addresses is None:
                    with self.store.single_flight("addresses",
                                                  fingerprint(payload)):
                        addresses = self.store.load_addresses(payload)
                        if addresses is None:
                            addresses = self.trace(trace_spec).byte_addresses(
                                self.placements(
                                    trace_spec.scene, trace_spec.scale,
                                    layout_spec, trace_spec.time))
                            self.store.save_addresses(payload, addresses)
                return addresses

            self._streams[key] = StoredTraceStreams(
                store=self.store, key_payload=payload,
                loader=load_or_compute)
        return self._streams[key]

    def streamed(self, trace_spec: TraceSpec, layout_spec,
                 chunk_size: Optional[int] = None, shards: int = 0,
                 stream_workers: int = 0):
        """Constant-memory :class:`~repro.engine.streaming.StreamedProfiles`
        for (trace, layout), memoized.  Same profiles (bit for bit) as
        :meth:`streams`, computed as a fold over bounded fragment
        blocks instead of materialized arrays.  ``stream_workers >= 2``
        runs the fold through the pipelined persistent pool
        (:mod:`repro.engine.pipelined`): cold renders are partitioned
        across workers and folded as they stream back."""
        from .streaming import DEFAULT_CHUNK_SIZE, StreamedProfiles
        chunk = int(chunk_size) if chunk_size else DEFAULT_CHUNK_SIZE
        key = (trace_spec, tuple(layout_spec), chunk, int(shards),
               int(stream_workers))
        if key not in self._streamed:
            self._streamed[key] = StreamedProfiles(
                self.store, trace_spec, layout_spec,
                chunk_size=chunk, shards=int(shards),
                stream_workers=int(stream_workers))
        return self._streamed[key]

    # -- experiment execution --------------------------------------------

    def run(self, experiment: ExperimentSpec, workers: int = 0,
            kernel: str = "vectorized", chunk_size: Optional[int] = None,
            shards: int = 0, stream_workers: int = 0,
            audit_parts: int = 0) -> "ExperimentResult":
        """Execute every cell of ``experiment``.

        ``workers > 1`` warms the store's render/address/profile
        artifacts with a multiprocessing pool first (one task per
        scene/order/layout), then assembles results from the warm
        store in this process; worker failures are retried and fall
        back in-process (see :class:`WarmReport`) rather than aborting
        the run.  ``kernel`` selects the LRU simulation path: the
        default reads every finite associativity off a store-backed
        per-set distance profile; ``"reference"`` runs the sequential
        :class:`~repro.core.cache.LRUCache` simulator.

        ``chunk_size`` and/or ``shards > 0`` switch the profile stage
        to the streaming fold (:mod:`repro.engine.streaming`): the
        trace is never materialized, peak memory is bounded by the
        chunk size independent of trace length, and ``shards`` fans
        the fold over a process pool.  ``stream_workers >= 2``
        pipelines the fold instead (:mod:`repro.engine.pipelined`):
        cold renders are partitioned across a persistent worker pool
        and folded as blocks stream back through shared memory.
        Streaming produces bit-identical rows and requires the
        vectorized kernel (the reference simulator needs the in-RAM
        stream).

        ``audit_parts = N`` additionally replays N sampled parts of
        every streamed trace through the sequential reference oracle
        (:meth:`~repro.engine.streaming.StreamedProfiles.audit`),
        raising on any per-access disagreement with the folded
        profiles; the reports land on
        :attr:`ExperimentResult.audit_reports`.
        """
        check_kernel(kernel)
        # Any shard/pipeline request counts as streaming (a single
        # shard folds serially) so combining one with the reference
        # kernel fails loudly instead of silently running the
        # non-streamed vectorized path.
        streaming = bool(chunk_size) or shards > 0 or stream_workers > 0
        if streaming and kernel != "vectorized":
            raise ValueError(
                "streaming execution (chunk_size/shards/stream_workers) "
                "requires the vectorized kernel; the reference simulator "
                "replays the materialized stream")
        if audit_parts and not streaming:
            raise ValueError(
                "audit_parts spot-audits the streaming fold; enable "
                "streaming (chunk_size/shards/stream_workers) to use it")
        warm_report = None
        if workers and workers > 1:
            warm_report = self._warm_parallel(experiment, workers)
            self.last_warm_report = warm_report
        rows = []
        audit_reports = []
        stream_reports = []
        for trace_spec in experiment.trace_specs():
            for layout_spec in experiment.layouts:
                if streaming:
                    streams = self.streamed(trace_spec, layout_spec,
                                            chunk_size=chunk_size,
                                            shards=shards,
                                            stream_workers=stream_workers)
                    # Per-run recovery accounting: the memoized
                    # StreamedProfiles would otherwise re-report a
                    # previous run's recoveries.
                    streams.stream_report = None
                    # One pass over the blocks computes the whole
                    # grid's profiles (instead of one pass per pair).
                    streams.prefetch(_profile_pairs(experiment))
                    if getattr(streams, "stream_report", None) is not None:
                        stream_reports.append(streams.stream_report)
                    if audit_parts:
                        audit_reports.append(streams.audit(
                            _profile_pairs(experiment),
                            parts=audit_parts))
                else:
                    streams = self.streams(trace_spec, layout_spec)
                    # Batched grid serving: one store round-trip per
                    # distinct (line_size, n_sets) pair up front, not
                    # one tier walk per grid cell during assembly.
                    streams.prefetch(_profile_pairs(experiment))
                for line_size in experiment.line_sizes:
                    for assoc in experiment.assocs:
                        rows.extend(self._sweep_sizes(
                            trace_spec, layout_spec, streams, line_size,
                            assoc, experiment.cache_sizes, kernel))
        stream_report = None
        if stream_reports:
            from .pipelined import StreamReport
            stream_report = StreamReport()
            for partial in stream_reports:
                stream_report.absorb(partial)
        self.last_stream_report = stream_report
        return ExperimentResult(spec=experiment, rows=rows,
                                warm_report=warm_report,
                                stream_report=stream_report,
                                audit_reports=tuple(audit_reports))

    def _sweep_sizes(self, trace_spec, layout_spec, streams, line_size,
                     assoc, cache_sizes, kernel: str = "vectorized") -> list:
        # The vectorized kernel reads every cell off the source's
        # (prefetched) profiles; the reference oracle really replays
        # the materialized stream through the sequential simulator.
        return [ExperimentRow(
            scene=trace_spec.scene, order=trace_spec.order,
            layout=tuple(layout_spec),
            stats=simulate(streams, CacheConfig(int(size), line_size, assoc),
                           kernel=kernel))
            for size in sorted(cache_sizes)]

    def _warm_parallel(self, experiment: ExperimentSpec,
                       workers: int) -> WarmReport:
        """Warm the store in pool workers, absorbing worker failures.

        Each task is submitted individually; failures are retried for
        :data:`WARM_RETRIES` rounds with exponential backoff + jitter
        (a fresh pool per round, so even a wedged pool cannot take the
        run down), then fall back to in-process execution.  Tasks that
        fail everywhere are recorded in the report and recomputed --
        surfacing their real error -- during assembly.
        """
        import multiprocessing

        pairs = tuple(sorted(_profile_pairs(experiment)))
        tasks = [(str(self.store.root), trace_spec, tuple(layout_spec),
                  pairs)
                 for trace_spec, layout_spec in experiment.stream_specs()]
        report = WarmReport(tasks=len(tasks))
        pending = tasks
        failures = []
        for round_index in range(WARM_RETRIES + 1):
            if not pending:
                break
            if round_index:
                report.retries += len(pending)
                delay = WARM_BACKOFF_S * (2 ** (round_index - 1))
                time.sleep(delay * (0.5 + random.random()))
            failures = []
            with multiprocessing.Pool(
                    processes=min(workers, len(pending))) as pool:
                handles = [(task, pool.apply_async(_warm_task, (task,)))
                           for task in pending]
                for task, handle in handles:
                    report.attempts += 1
                    try:
                        handle.get(timeout=WARM_TIMEOUT_S)
                    except Exception as fault:
                        failures.append(
                            (task, f"{type(fault).__name__}: {fault}"))
            pending = [task for task, _ in failures]
        errors = []
        for task, pool_error in failures:
            try:
                _warm_task(task)
            except Exception as fault:
                errors.append((_task_label(task),
                               f"{type(fault).__name__}: {fault} "
                               f"(pool: {pool_error})"))
            else:
                report.fallbacks += 1
        report.errors = tuple(errors)
        return report


def _profile_pairs(experiment: ExperimentSpec) -> set:
    """Every ``(line_size, n_sets)`` profile the grid's vectorized
    sweep will read -- the prefetch set for one streaming fold pass."""
    pairs = set()
    for line_size in experiment.line_sizes:
        for assoc in experiment.assocs:
            if assoc is None:
                pairs.add((int(line_size), 1))
            else:
                for size in experiment.cache_sizes:
                    config = CacheConfig(int(size), int(line_size), assoc)
                    pairs.add((int(line_size), config.n_sets))
    return pairs


def _task_label(task) -> str:
    _, trace_spec, layout_spec, _ = task
    return f"{trace_spec.scene}/{'-'.join(map(str, trace_spec.order))}" \
           f"/{'-'.join(map(str, layout_spec))}"


def _maybe_inject_warm_fault() -> None:
    """Fault-injection hook for the warm pool (used by tests/CI only).

    ``REPRO_FAULT_WARM=once:<path>`` makes exactly one task raise (the
    first to atomically create ``<path>``), exercising the retry path;
    ``REPRO_FAULT_WARM=workers`` makes every task raise inside pool
    workers while in-process fallback execution succeeds.
    """
    spec = os.environ.get("REPRO_FAULT_WARM")
    if not spec:
        return
    if spec == "workers":
        import multiprocessing
        if multiprocessing.current_process().name != "MainProcess":
            raise RuntimeError("injected warm-pool worker fault")
        return
    if spec.startswith("once:"):
        try:
            os.close(os.open(spec[len("once:"):],
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return
        raise RuntimeError("injected one-shot warm-pool fault")


def _warm_task(task) -> None:
    """Worker: populate the shared store for one (trace, layout) pair.

    Warms the *whole grid's* profile pairs (fully associative and
    per-set), so assembly in the parent is a pure tier read.  Both the
    addresses and the scene resolve lazily: a task whose profiles are
    all store-resident verifies a few envelopes and exits without
    building SceneData or reading the trace."""
    _maybe_inject_warm_fault()
    root, trace_spec, layout_spec, pairs = task
    engine = Engine(store=ArtifactStore(root))
    engine.streams(trace_spec, layout_spec).prefetch(pairs)


@dataclass(frozen=True)
class ExperimentRow:
    """One grid cell's result."""

    scene: str
    order: tuple
    layout: tuple
    stats: CacheStats

    @property
    def config(self) -> CacheConfig:
        return self.stats.config


@dataclass
class ExperimentResult:
    """All cells of one executed :class:`ExperimentSpec`."""

    spec: ExperimentSpec
    rows: list
    warm_report: Optional[WarmReport] = field(default=None)
    #: Aggregated :class:`~repro.engine.pipelined.StreamReport` when
    #: the run used pipelined streaming (``stream_workers >= 2``);
    #: ``None`` for serial/sharded runs.
    stream_report: object = field(default=None)
    #: One :class:`~repro.engine.streaming.StreamAuditReport` per
    #: streamed (trace, layout) pair when ``audit_parts`` was set.
    audit_reports: tuple = ()

    def select(self, **criteria) -> list:
        """Rows matching the given field/config values, e.g.
        ``select(scene="town", line_size=64)``."""
        config_fields = {"cache_size": "size", "line_size": "line_size",
                         "assoc": "assoc"}
        matched = []
        for row in self.rows:
            keep = True
            for name, wanted in criteria.items():
                if name in config_fields:
                    value = getattr(row.config, config_fields[name])
                else:
                    value = getattr(row, name)
                if value != wanted:
                    keep = False
                    break
            if keep:
                matched.append(row)
        return matched


def run_experiment(experiment: ExperimentSpec,
                   store: Optional[ArtifactStore] = None,
                   engine: Optional[Engine] = None,
                   workers: int = 0,
                   kernel: str = "vectorized",
                   chunk_size: Optional[int] = None,
                   shards: int = 0,
                   stream_workers: int = 0,
                   audit_parts: int = 0) -> ExperimentResult:
    """Convenience wrapper: run ``experiment`` on ``engine`` (or a
    fresh one over ``store``)."""
    if engine is None:
        engine = Engine(store=store)
    return engine.run(experiment, workers=workers, kernel=kernel,
                      chunk_size=chunk_size, shards=shards,
                      stream_workers=stream_workers,
                      audit_parts=audit_parts)
