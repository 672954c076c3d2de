"""Pytest plugin that turns one run of the paper harnesses into one
timed pass of the ``paper`` workload.

Loaded with ``-p perfbench.plugin``; configured by environment:

* ``PERFBENCH_OUT`` -- where to write the pass result (JSON);
* ``PERFBENCH_RESULTS`` -- directory the harnesses emit their tables
  to, instead of ``benchmarks/results/``;
* ``PERFBENCH_TRACE`` -- ``1`` to record spans (``PERFBENCH_SPANS``
  names the span file).

The timed pass is the test loop: from the first harness's set-up to
the last one's tear-down.  Everything before it -- interpreter start,
imports, collection -- is set-up.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import pytest

from perfbench.passes import cpu_seconds, snapshot, store_deltas
from perfbench.tracing import Recorder, instrument, layer_metrics


def pytest_configure(config):
    config.pluginmanager.register(PaperPass(), "perfbench-paper-pass")


class PaperPass:
    """State and hooks of one pass."""

    def __init__(self):
        self.traced = os.environ.get("PERFBENCH_TRACE") == "1"
        self.recorder = Recorder()
        self.outcomes = {}
        self.result = {"start": None, "end": None}
        if self.traced:
            instrument(self.recorder)

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtestloop(self, session):
        from repro.engine import ArtifactStore
        sys.modules["paperbench"].RESULTS_DIR = Path(
            os.environ["PERFBENCH_RESULTS"])
        store = ArtifactStore()
        before = snapshot(store) if self.traced else None
        self.result["cpu_start"] = cpu_seconds()
        self.result["start"] = time.monotonic()
        yield
        self.result["end"] = time.monotonic()
        self.result["cpu_end"] = cpu_seconds()
        if self.traced:
            layers = layer_metrics(self.recorder)
            layers.update(store_deltas(before, snapshot(store)))
            self.result["layers"] = layers

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        harness = item.name[len("test_"):]
        with self.recorder.span("harness." + harness, op=harness):
            yield

    def pytest_runtest_logreport(self, report):
        name = report.nodeid.rsplit("::test_", 1)[-1]
        self.outcomes[name] = (self.outcomes.get(name, True)
                               and not report.failed)

    def pytest_sessionfinish(self, session, exitstatus):
        self.result["ops"] = [{"op": name, "passed": passed}
                              for name, passed in self.outcomes.items()]
        self.result["worker_rss_mb"] = resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if self.traced:
            self.recorder.write(os.environ["PERFBENCH_SPANS"])
        with open(os.environ["PERFBENCH_OUT"], "w") as sink:
            json.dump(self.result, sink)
