"""Spans and counters recorded from outside the program.

The benchmark never edits the program to trace it.  :func:`instrument`
wraps public functions and methods of each layer in place -- every
module attribute and class attribute that refers to them -- so every
caller in this process, and in any process it forks afterwards, goes
through a wrapper that records one span per call:

    (name, start_ns, end_ns, parent index, op id)

Spans stay in memory and are written out when the pass ends.  A pool
worker forked after instrumentation records into its own copy of the
recorder, which dies with it: spans inside workers are out of reach
until the program emits its own.

:func:`layer_metrics` turns the spans into per-layer self time (a
span's duration minus the time its child spans cover) and counts.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

#: Span name -> per-layer metric that receives its self time.
SELF_TIME_METRICS = {
    "scenes.build": "scenes.build_s",
    "renderer.render": "renderer.render_s",
    "memory.place": "memory.place_s",
    "trace.byte_addresses": "trace.byte_addresses_s",
    "kernels.request": "kernels.profile_s",
    "kernels.distance_pass": "kernels.profile_s",
    "cache.simulate": "cache.simulate_s",
    "classify": "classify.s",
    "runner.run": "runner.run_s",
    "streaming.fold": "streaming.fold_s",
    "streaming.merge": "streaming.merge_s",
    "artifacts.save": "artifacts.save_s",
    "artifacts.load": "artifacts.load_s",
    "texcache.fill_streams": "texcache.fill_streams_s",
    "texcache.sweep": "texcache.sweep_s",
}

#: ``RenderResult.phase_ms`` key -> metric; the phases run inside
#: ``renderer.render`` and are subtracted from its self time.
PHASE_METRICS = {
    "clip": "raster.clip_s",
    "raster": "raster.raster_s",
    "access_gen": "filtering.access_gen_s",
    "filter": "filtering.filter_s",
}


class Recorder:
    """In-memory span stack plus named counters for one process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        # A wrapped call that raised unwinds through every frame above
        # it, so pop down to (and including) this span.
        while self._stack and self._stack.pop() != index:
            pass

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        """A span around a block; ``op`` tags it and every span it
        encloses with an op id."""
        outer = self.op
        if op is not None:
            self.op = op
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)
            self.op = outer

    def add(self, counter: str, value) -> None:
        self.counts[counter] += value

    def write(self, path) -> None:
        with open(path, "w") as sink:
            for name, start, end, parent, op in self.spans:
                sink.write(json.dumps({"name": name, "start_ns": start,
                                       "end_ns": end, "parent": parent,
                                       "op": op}) + "\n")


def _wrapper(recorder: Recorder, fn, name: str, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(index)
        if after is not None:
            after(recorder, index, result)
        return result
    return traced


def _rebind_everywhere(original, replacement) -> None:
    """Point every loaded module's attribute bound to ``original`` at
    ``replacement`` (covers ``from x import f`` copies)."""
    for module in list(sys.modules.values()):
        if module is None:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _wrap_function(recorder, module, attribute, name, after=None) -> None:
    original = getattr(module, attribute)
    _rebind_everywhere(original, _wrapper(recorder, original, name, after))


def _wrap_method(recorder, cls, attribute, name, after=None) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(cls, attribute,
                classmethod(_wrapper(recorder, raw.__func__, name, after)))
    else:
        setattr(cls, attribute, _wrapper(recorder, raw, name, after))


def _after_render(recorder, index, result) -> None:
    recorder.add("renderer.fragments", int(result.n_fragments))
    phases = result.phase_ms or {}
    for phase, metric in PHASE_METRICS.items():
        recorder.add(metric, phases.get(phase, 0.0) / 1000.0)
    # The phases are children of the render span that the recorder
    # cannot see as spans; remember them so self time excludes them.
    recorder.add(f"_phase_ns.{index}", sum(phases.values()) * 1e6)


def _after_addresses(recorder, index, result) -> None:
    recorder.add("trace.accesses_mapped", int(len(result)))


def _after_run(recorder, index, result) -> None:
    recorder.add("runner.cells", len(result.rows))
    report = result.stream_report
    if report is not None:
        recorder.add("pipelined.respawns", report.respawns)
        recorder.add("pipelined.range_retries", report.retried_ranges)
        recorder.add("pipelined.residual_ranges", report.residual_ranges)
        recorder.add("pipelined.fallbacks", report.fallbacks)
        recorder.add("pipelined.recovery_s", report.recovery_s)


def _after_load(recorder, index, result) -> None:
    if result is None:
        recorder.add("artifacts.load_misses", 1)


def _after_fill(recorder, index, result) -> None:
    recorder.add("texcache.fragments", int(len(result[0])))


def _after_sweep(recorder, index, result) -> None:
    recorder.add("texcache.cells", len(result))


def instrument(recorder: Recorder) -> None:
    """Wrap each layer's public entry points.  Import every module
    first, so that the names other modules copied are rebound too."""
    import repro.cli  # noqa: F401  (imports every layer)
    from repro.core import cache, classify, kernels, stackdist, sweep, texcache
    from repro.engine import artifacts, runner, streaming
    from repro.pipeline import renderer, trace
    from repro.scenes import ALL_SCENES
    from repro.texture import memory

    for cls in set(ALL_SCENES.values()):
        _wrap_method(recorder, cls, "build", "scenes.build")
    _wrap_method(recorder, renderer.Renderer, "render", "renderer.render",
                 _after_render)
    _wrap_function(recorder, memory, "place_textures", "memory.place")
    _wrap_method(recorder, trace.TexelTrace, "byte_addresses",
                 "trace.byte_addresses", _after_addresses)
    # Profile requests: every way a caller asks for a distance profile.
    for cls in (sweep.TraceStreams, runner.StoredTraceStreams):
        for attribute in ("profile", "set_profile"):
            if attribute in cls.__dict__:
                _wrap_method(recorder, cls, attribute, "kernels.request")
    _wrap_method(recorder, stackdist.DistanceProfile, "from_stream",
                 "kernels.request")
    _wrap_method(recorder, kernels.SetDistanceProfile, "from_stream",
                 "kernels.request")
    # Distance passes: the work a stored profile saves.
    for attribute in ("set_distance_histogram", "per_set_distances"):
        _wrap_function(recorder, kernels, attribute, "kernels.distance_pass")
    _wrap_function(recorder, stackdist, "stack_distances",
                   "kernels.distance_pass")
    _wrap_function(recorder, cache, "simulate", "cache.simulate")
    _wrap_function(recorder, classify, "classify_misses", "classify")
    _wrap_method(recorder, runner.Engine, "run", "runner.run", _after_run)
    _wrap_method(recorder, streaming.StreamedProfiles, "prefetch",
                 "streaming.fold")
    _wrap_method(recorder, kernels.PartialSetProfile, "merge",
                 "streaming.merge")
    store = artifacts.ArtifactStore
    for attribute in ("save_render", "save_addresses", "save_profile",
                      "save_set_profile", "publish_chunked_sidecar"):
        _wrap_method(recorder, store, attribute, "artifacts.save")
    for attribute in ("load_render", "load_addresses", "load_profile",
                      "load_set_profile"):
        _wrap_method(recorder, store, attribute, "artifacts.load",
                     _after_load)
    _wrap_function(recorder, texcache, "fragment_fill_streams",
                   "texcache.fill_streams", _after_fill)
    _wrap_function(recorder, texcache, "sweep_texcache", "texcache.sweep",
                   _after_sweep)


def _outermost(spans, index, name):
    """Index of the outermost span named ``name`` among ``index`` and
    its ancestors, or ``None``."""
    found = None
    while index >= 0:
        if spans[index][0] == name:
            found = index
        index = spans[index][3]
    return found


def layer_metrics(recorder: Recorder) -> dict:
    """Per-layer self times (s) and counts from one pass's spans."""
    spans = recorder.spans
    child_ns = defaultdict(int)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = defaultdict(float)
    calls = defaultdict(int)
    requests = set()
    computed = set()
    for index, (name, start, end, parent, op) in enumerate(spans):
        calls[name] += 1
        self_ns = (end - start - child_ns[index]
                   - recorder.counts.get(f"_phase_ns.{index}", 0.0))
        metric = SELF_TIME_METRICS.get(name)
        if metric is None and name.startswith("harness."):
            metric = name + "_s"
        if metric is not None:
            out[metric] += max(self_ns, 0.0) / 1e9
        if name == "kernels.request":
            requests.add(_outermost(spans, index, name))
        elif name == "kernels.distance_pass":
            if _outermost(spans, index, name) == index:
                out["kernels.profiles_computed"] += 1
            # The request this pass served was not answered from a
            # stored or memoized profile.
            computed.add(_outermost(spans, index, "kernels.request"))
    out["kernels.profile_requests"] = len(requests)
    out["kernels.served_requests"] = len(requests - computed)
    out["scenes.builds"] = calls["scenes.build"]
    out["renderer.renders"] = calls["renderer.render"]
    out["cache.simulate_calls"] = calls["cache.simulate"]
    out["streaming.merges"] = calls["streaming.merge"]
    out["artifacts.saves"] = calls["artifacts.save"]
    out["artifacts.loads"] = calls["artifacts.load"]
    for counter, value in recorder.counts.items():
        if not counter.startswith("_"):
            out[counter] += value
    out["trace.spanned_s"] = sum(
        end - start for _, start, end, parent, _ in spans if parent < 0) / 1e9
    return dict(out)
