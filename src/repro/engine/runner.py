"""The shared experiment engine.

One :class:`Engine` sits between every consumer (benchmark harnesses,
the CLI, the examples) and the pipeline.  It deduplicates shared
stages -- one render per (scene, order, filtering), one byte-address
stream per layout, one collapsed :class:`~repro.core.sweep.LineStream`
and stack-distance profile per line size -- first against in-memory
memos, then against the on-disk :class:`~repro.engine.artifacts.ArtifactStore`,
so warm processes perform zero renders.

:func:`run_experiment` executes a declarative
:class:`~repro.engine.spec.ExperimentSpec` grid through one engine.
:meth:`Engine.prefetch` resolves a batch of (trace, layout) profile
requests up front: store hits are memoized in this process, and each
(trace, layout) with a miss renders, maps and runs its distance passes
as one ``profiles`` job on the persistent
:class:`~repro.engine.pipelined.StreamPool`.

Fault tolerance
---------------
Store misses compute under the store's per-fingerprint single-flight
lock, so N racing processes produce one render per fingerprint.  The
pool's supervisor detects dead and wedged workers, respawns them and
retries only their jobs (:data:`WARM_RETRIES` times, with exponential
backoff and jitter); a job that exhausts its retries runs in-process.
The outcome is summarized in a :class:`WarmReport` instead of a first
worker crash killing the whole run.  An unwritable store demotes
itself (see :mod:`repro.engine.artifacts`) and the engine
transparently continues on its in-memory memos.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from ..analysis.metrics import (
    accesses_per_texel,
    mean_texture_runlength,
    repetition_factor,
)
from ..core.cache import CacheConfig, CacheStats, simulate
from ..core.kernels import SetDistanceProfile, check_kernel
from ..core.stackdist import DistanceProfile
from ..core.sweep import TraceStreams
from ..pipeline.renderer import Renderer, RenderResult
from ..scenes import ALL_SCENES
from ..scenes.stats import characterize
from ..texture.memory import place_textures
from .artifacts import (
    ArtifactStore,
    addresses_payload,
    fingerprint,
    profile_payload,
    set_profile_payload,
    summary_payload,
)
from .spec import ExperimentSpec, TraceSpec, layout_from_spec, order_from_spec

#: Number of actual scene renders performed by this process (cache
#: misses only).  Tests assert warm runs leave this untouched.
RENDER_CALLS = 0

#: Prefetch fault policy: how many times a failed ``profiles`` job is
#: retried on the pool before it runs in-process, and the base backoff
#: before a retry (doubled per retry, with jitter).  How long a job may
#: go without a heartbeat is the pool's ``REPRO_STREAM_JOB_TIMEOUT``.
WARM_RETRIES = 2
WARM_BACKOFF_S = 0.25


def _scene_summary(engine: "Engine", spec: TraceSpec) -> dict:
    """Table 4.1's row: the fields of
    :func:`~repro.scenes.stats.characterize`'s result."""
    scene = engine.scene(spec.scene, spec.scale, spec.time)
    return asdict(characterize(scene, engine.render(spec)))


def _locality_summary(engine: "Engine", spec: TraceSpec) -> dict:
    """The trace's Section 3.1.2 / 5.2.3 locality statistics."""
    trace = engine.trace(spec)
    return {
        "accesses_per_texel": accesses_per_texel(trace).as_dict(),
        "repetition_factor": repetition_factor(trace),
        "mean_texture_runlength": mean_texture_runlength(trace),
        "n_accesses": trace.n_accesses,
    }


#: Stored per-trace summaries served by :meth:`Engine.summary`: name ->
#: ``(version, compute(engine, trace_spec) -> dict)``.  The version is
#: part of the fingerprint; bump it when a function's output changes.
SUMMARIES = {
    "scene": (1, _scene_summary),
    "locality": (1, _locality_summary),
}


def _plain(value):
    """``value`` with numpy scalars turned into Python ints and floats,
    so it is JSON-able and round-trips exactly."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


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

    def prefetch(self, pairs, beat=None) -> dict:
        """Resolve every ``(line_size, n_sets)`` profile a sweep grid
        will read, one store round-trip per *distinct* pair (memoized
        hits are free) -- the batched-serving mirror of
        :meth:`~repro.engine.streaming.StreamedProfiles.prefetch`.
        Misses compute lazily off the addresses, which materialize at
        most once for the whole batch.  Returns ``{pair: profile}``;
        ``beat()``, if given, runs after each pair."""
        resolved = {}
        for pair in _distinct(pairs):
            line_size, n_sets = pair
            # n_sets == 1 is what miss_rate_curve and set_profile(line,
            # 1) both read; the per-set artifact derives from it.
            resolved[pair] = (self.profile(line_size) if n_sets == 1
                              else self.set_profile(line_size, n_sets))
            if beat is not None:
                beat()
        return resolved

    def memoize_resident(self, pairs) -> list:
        """Memoize every store-resident profile among ``pairs``;
        return the (sorted) pairs the store does not hold.  Never
        computes: this is the residency check that decides what a
        batch dispatches."""
        return [pair for pair in _distinct(pairs)
                if self._load_resident(pair) is None]

    def absorb(self, profiles: dict) -> None:
        """Memoize ``{pair: profile}`` resolved elsewhere (a pool
        worker's done event)."""
        for pair, profile in profiles.items():
            memo, key = self._memo(pair)
            memo[key] = profile

    def _backed(self) -> bool:
        return self._store is not None and self._key_payload is not None

    def _memo(self, pair) -> tuple:
        """``(memo dict, key)`` holding ``pair``'s profile.  ``n_sets ==
        1`` is the fully associative profile, which ``set_profile(line,
        1)`` derives from and which has no per-set artifact."""
        line_size, n_sets = pair
        if n_sets == 1:
            return self._profiles, line_size
        return self._set_profiles, pair

    def _artifact(self, pair) -> tuple:
        """``(kind, payload, load, save)`` of ``pair``'s store artifact."""
        line_size, n_sets = pair
        if n_sets == 1:
            return ("profiles", profile_payload(self._key_payload, line_size),
                    self._store.load_profile, self._store.save_profile)
        return ("set_profiles",
                set_profile_payload(self._key_payload, line_size, n_sets),
                self._store.load_set_profile, self._store.save_set_profile)

    def _load_resident(self, pair):
        """``pair``'s memoized or store-resident profile (a store hit is
        memoized), or None.  Never computes."""
        memo, key = self._memo(pair)
        if key not in memo:
            _, payload, load, _ = self._artifact(pair)
            cached = load(payload)
            if cached is None:
                return None
            memo[key] = cached
        return memo[key]

    def _through_store(self, pair, compute):
        """Load-or-compute ``pair``'s profile with single-flight:
        re-check the store under the lock so racing processes compute
        once."""
        cached = self._load_resident(pair)
        if cached is not None:
            return cached
        kind, payload, _, save = self._artifact(pair)
        with self._store.single_flight(kind, fingerprint(payload)):
            cached = self._load_resident(pair)
            if cached is None:
                cached = compute()
                save(payload, cached)
                memo, key = self._memo(pair)
                memo[key] = cached
        return cached

    def profile(self, line_size: int) -> DistanceProfile:
        if not self._backed():
            return super().profile(line_size)
        compute = super().profile
        return self._through_store((line_size, 1),
                                   lambda: compute(line_size))

    def set_profile(self, line_size: int, n_sets: int) -> SetDistanceProfile:
        if n_sets == 1 or not self._backed():
            # One set derives from the (store-backed) profile; it has no
            # artifact of its own.
            return super().set_profile(line_size, n_sets)
        compute = super().set_profile
        return self._through_store((line_size, n_sets),
                                   lambda: compute(line_size, n_sets))


@dataclass
class WarmReport:
    """Outcome of one parallel store-warming phase.

    ``tasks`` counts the ``profiles`` jobs a batch dispatched (one per
    (trace, layout) with a store miss), ``attempts`` every submission
    to the worker pool, ``retries`` the resubmissions after a failure,
    ``respawns`` the workers the supervisor replaced, ``fallbacks``
    the tasks that only succeeded in-process after exhausting pool
    retries, and ``errors`` the (task label, error) pairs that failed
    everywhere -- those cells will recompute (and surface any real
    error) during in-process assembly.
    """

    tasks: int = 0
    attempts: int = 0
    retries: int = 0
    fallbacks: int = 0
    errors: tuple = ()
    respawns: int = 0

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
        self._summaries = {}

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

    def trim(self, keep: TraceSpec) -> None:
        """Drop every memo except ``keep``'s scene and its placements --
        what a long-lived pool worker holds between jobs: the scene
        build is the costly part, and the next job may render the same
        scene again (another order, or another layout)."""
        scene = (keep.scene, keep.scale, keep.time)
        self._scenes = {key: value for key, value in self._scenes.items()
                        if key == scene}
        self._placements = {key: value
                            for key, value in self._placements.items()
                            if key[:3] == scene}
        self._renders.clear()
        self._streams.clear()
        self._streamed.clear()

    # -- per-trace summaries ---------------------------------------------

    def summary(self, name: str, spec: TraceSpec) -> dict:
        """The :data:`SUMMARIES` entry ``name`` for ``spec``'s trace:
        memoized, then store-backed, then computed under the
        per-fingerprint single-flight lock.  A store hit builds no
        scene and loads no trace."""
        if name not in SUMMARIES:
            raise ValueError(f"unknown summary {name!r} "
                             f"(expected one of {sorted(SUMMARIES)})")
        key = (name, spec)
        if key not in self._summaries:
            version, compute = SUMMARIES[name]
            payload = summary_payload(name, version, spec)
            values = self.store.load_summary(payload)
            if values is None:
                with self.store.single_flight("summaries",
                                              fingerprint(payload)):
                    values = self.store.load_summary(payload)
                    if values is None:
                        values = _plain(compute(self, spec))
                        self.store.save_summary(payload, values)
            self._summaries[key] = values
        return self._summaries[key]

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
                 chunk_size: Optional[int] = None,
                 stream_workers: int = 0):
        """Constant-memory :class:`~repro.engine.streaming.StreamedProfiles`
        for (trace, layout), memoized.  Same profiles (bit for bit) as
        :meth:`streams`, computed as a fold over bounded fragment
        blocks instead of materialized arrays.  ``stream_workers >= 2``
        runs the fold through the pipelined persistent pool
        (:mod:`repro.engine.pipelined`): cold renders are partitioned
        across workers, each folding the blocks it renders."""
        from .streaming import DEFAULT_CHUNK_SIZE, StreamedProfiles
        chunk = int(chunk_size) if chunk_size else DEFAULT_CHUNK_SIZE
        key = (trace_spec, tuple(layout_spec), chunk, int(stream_workers))
        if key not in self._streamed:
            self._streamed[key] = StreamedProfiles(
                self.store, trace_spec, layout_spec,
                chunk_size=chunk, stream_workers=int(stream_workers))
        return self._streamed[key]

    # -- batched profile resolution --------------------------------------

    def resolve(self, trace_spec: TraceSpec, layout_spec, pairs,
                kernel: str = "vectorized", beat=None) -> dict:
        """Resolve (trace, layout)'s ``pairs`` in this process, through
        the store, and return ``{pair: profile}``.  The reference kernel
        replays the address stream and reads no profile, so for it only
        the render and the addresses are resolved (and ``{}``
        returned)."""
        if kernel != "vectorized":
            self.addresses(trace_spec, layout_spec)
            return {}
        return self.streams(trace_spec, layout_spec).prefetch(pairs,
                                                              beat=beat)

    def prefetch(self, requests, workers: Optional[int] = None,
                 kernel: str = "vectorized") -> WarmReport:
        """Resolve a batch of profile requests up front, in parallel.

        ``requests`` are ``(trace_spec, layout_spec, pairs)`` tuples,
        ``pairs`` the ``(line_size, n_sets)`` profiles a sweep over that
        (trace, layout) will read.  Store-resident profiles are loaded
        and memoized here; each (trace, layout) with a miss becomes one
        ``profiles`` job on the persistent
        :class:`~repro.engine.pipelined.StreamPool`, whose worker
        renders, maps and runs the distance passes and ships the
        profiles back to be memoized.  A fully warm batch starts no
        pool.  Failed jobs are retried under the pool's supervisor and,
        past :data:`WARM_RETRIES`, run in-process (see
        :class:`WarmReport`).

        ``workers`` defaults to the cores this process may run on; with
        fewer than two the jobs run in-process.  With
        ``kernel="reference"`` only renders and addresses are resolved
        (see :meth:`resolve`)."""
        check_kernel(kernel)
        grouped: dict = {}
        for trace_spec, layout_spec, pairs in requests:
            grouped.setdefault((trace_spec, tuple(layout_spec)),
                               set()).update(_distinct(pairs))
        tasks = []
        for (trace_spec, layout_spec), pairs in grouped.items():
            if kernel == "vectorized":
                missing = self.streams(trace_spec, layout_spec) \
                    .memoize_resident(pairs)
                if missing:
                    tasks.append((trace_spec, layout_spec, tuple(missing)))
            elif self.store.load_addresses(
                    addresses_payload(trace_spec, layout_spec)) is None:
                tasks.append((trace_spec, layout_spec, ()))
        report = WarmReport(tasks=len(tasks))
        if not tasks:
            return report
        if workers is None:
            workers = _usable_cores()
        if workers < 2:
            for trace_spec, layout_spec, pairs in tasks:
                self.resolve(trace_spec, layout_spec, pairs, kernel)
            return report
        from . import pipelined
        results, residual = pipelined.resolve_profiles(
            self.store.root, tasks, workers, kernel, report,
            retries=WARM_RETRIES, backoff_s=WARM_BACKOFF_S,
            warm_fault=os.environ.get("REPRO_FAULT_WARM"))
        for index, profiles in results.items():
            trace_spec, layout_spec, _ = tasks[index]
            self.streams(trace_spec, layout_spec).absorb(profiles)
        errors = []
        for index, pool_error in sorted(residual.items()):
            trace_spec, layout_spec, pairs = tasks[index]
            try:
                _maybe_inject_warm_fault(os.environ.get("REPRO_FAULT_WARM"))
                self.resolve(trace_spec, layout_spec, pairs, kernel)
            except Exception as fault:
                errors.append((_task_label(trace_spec, layout_spec),
                               f"{type(fault).__name__}: {fault} "
                               f"(pool: {pool_error})"))
            else:
                report.fallbacks += 1
        report.errors = tuple(errors)
        return report

    # -- experiment execution --------------------------------------------

    def run(self, experiment: ExperimentSpec, workers: int = 0,
            kernel: str = "vectorized", chunk_size: Optional[int] = None,
            stream_workers: int = 0, audit_parts: int = 0) -> "ExperimentResult":
        """Execute every cell of ``experiment``.

        ``workers > 1`` first resolves the grid's profiles (or, for
        the reference kernel, its renders and addresses) on that many
        pool workers through :meth:`prefetch`, then assembles results
        in this process; worker failures are retried and fall back
        in-process (see :class:`WarmReport`) rather than aborting the
        run.  ``kernel`` selects the LRU simulation path: the
        default reads every finite associativity off a store-backed
        per-set distance profile; ``"reference"`` runs the sequential
        :class:`~repro.core.cache.LRUCache` simulator.

        ``chunk_size`` and/or ``stream_workers > 0`` switch the
        profile stage to the streaming fold
        (:mod:`repro.engine.streaming`): the trace is never
        materialized, and peak memory is bounded by the chunk size
        independent of trace length.  ``stream_workers >= 2``
        pipelines the fold (:mod:`repro.engine.pipelined`): cold
        renders are partitioned across a persistent worker pool, each
        worker folding the blocks it renders, and a warm trace's parts
        fan out over the same pool.  Streaming produces bit-identical
        rows and requires the vectorized kernel (the reference
        simulator needs the in-RAM stream).

        ``audit_parts = N`` additionally replays N sampled parts of
        every streamed trace through the sequential reference oracle
        (:meth:`~repro.engine.streaming.StreamedProfiles.audit`),
        raising on any per-access disagreement with the folded
        profiles; the reports land on
        :attr:`ExperimentResult.audit_reports`.
        """
        check_kernel(kernel)
        # Any pipeline request counts as streaming (a single worker
        # folds serially) so combining one with the reference kernel
        # fails loudly instead of silently running the non-streamed
        # vectorized path.
        streaming = bool(chunk_size) or stream_workers > 0
        if streaming and kernel != "vectorized":
            raise ValueError(
                "streaming execution (chunk_size/stream_workers) "
                "requires the vectorized kernel; the reference simulator "
                "replays the materialized stream")
        if audit_parts and not streaming:
            raise ValueError(
                "audit_parts spot-audits the streaming fold; enable "
                "streaming (chunk_size/stream_workers) to use it")
        warm_report = None
        pairs = _profile_pairs(experiment)
        if workers and workers > 1:
            warm_report = self.prefetch(
                [(trace_spec, layout_spec, pairs) for trace_spec, layout_spec
                 in experiment.stream_specs()],
                workers=workers, kernel=kernel)
            self.last_warm_report = warm_report
        rows = []
        audit_reports = []
        stream_reports = []
        for trace_spec in experiment.trace_specs():
            for layout_spec in experiment.layouts:
                if streaming:
                    streams = self.streamed(trace_spec, layout_spec,
                                            chunk_size=chunk_size,
                                            stream_workers=stream_workers)
                    # Per-run recovery accounting: the memoized
                    # StreamedProfiles would otherwise re-report a
                    # previous run's recoveries.
                    streams.stream_report = None
                    # One pass over the blocks computes the whole
                    # grid's profiles (instead of one pass per pair).
                    streams.prefetch(pairs)
                    if getattr(streams, "stream_report", None) is not None:
                        stream_reports.append(streams.stream_report)
                    if audit_parts:
                        audit_reports.append(streams.audit(
                            pairs, parts=audit_parts))
                else:
                    streams = self.streams(trace_spec, layout_spec)
                    if kernel == "vectorized":
                        # Batched grid serving: one store round-trip per
                        # distinct (line_size, n_sets) pair up front, not
                        # one tier walk per grid cell during assembly.
                        # (The reference oracle reads no profile.)
                        streams.prefetch(pairs)
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


def _usable_cores() -> int:
    """The cores this process may run on (its CPU affinity, where the
    platform reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _distinct(pairs) -> list:
    """``(line_size, n_sets)`` pairs as sorted, distinct int tuples."""
    return sorted({(int(line), int(sets)) for line, sets in pairs})


def _task_label(trace_spec, layout_spec) -> str:
    return f"{trace_spec.scene}/{'-'.join(map(str, trace_spec.order))}" \
           f"/{'-'.join(map(str, layout_spec))}"


def _maybe_inject_warm_fault(spec) -> None:
    """Fault-injection hook for prefetch jobs (used by tests/CI only);
    ``spec`` is the value of ``REPRO_FAULT_WARM`` in the dispatching
    process, which travels with each job.

    ``REPRO_FAULT_WARM=once:<path>`` makes exactly one task raise (the
    first to atomically create ``<path>``), exercising the retry path;
    ``REPRO_FAULT_WARM=workers`` makes every task raise inside pool
    workers while in-process fallback execution succeeds.
    """
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
    #: ``None`` for serial runs.
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
                   stream_workers: int = 0,
                   audit_parts: int = 0) -> ExperimentResult:
    """Convenience wrapper: run ``experiment`` on ``engine`` (or a
    fresh one over ``store``)."""
    if engine is None:
        engine = Engine(store=store)
    return engine.run(experiment, workers=workers, kernel=kernel,
                      chunk_size=chunk_size,
                      stream_workers=stream_workers,
                      audit_parts=audit_parts)
