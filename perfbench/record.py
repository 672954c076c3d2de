#!/usr/bin/env python3
"""Record ``perfbench/reference.json``: the outputs every timed op is
checked against.

    python3 perfbench/record.py

Run it once, from the root of a checkout of the commit whose outputs
are the reference.  Each reference is first checked against an
independent route through the program:

* ``paper`` -- the 11 emitted tables of a cold pass, which a warm pass
  on the same store must reproduce byte for byte;
* ``stream`` -- per frame and scene, a digest of the fold's 42 rows
  on the cold pass's layout and on the warm pass's second layout, each
  equal to the in-RAM ``Engine.streams`` route on a separate store;
* ``timing`` -- per frame and scene, a digest of every cell's cycle
  metrics; a reduced grid must match ``kernel="reference"`` cell for
  cell.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(BENCH_DIR))

from perfbench import passes, run  # noqa: E402

REDUCED_DEPTHS = (32, 1024)
REDUCED_LATENCIES = (4, 1024)


def record_paper(root: str) -> dict:
    bench = run.Run(root, "paper", 0, reference={})
    try:
        store = os.path.join(bench.dir, "store")
        tables = []
        for label in ("cold", "warm"):
            result = bench.run_pass(label, "paper", store, traced=False)
            if not all(op["passed"] for op in result.get("ops", ())):
                raise SystemExit(f"paper {label} pass failed: see "
                                 f"{os.path.join(result['where'], 'log')}")
            tables.append({
                name: open(os.path.join(result["where"], "results",
                                        name + ".txt")).read()
                for name in run.PAPER_HARNESSES})
        if tables[0] != tables[1]:
            raise SystemExit("paper tables differ between cold and warm")
        return tables[0]
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)


def record_stream(engine_for, layout) -> dict:
    from repro.engine import shutdown_stream_pool
    digests = {}
    for index, frame in enumerate(passes.FRAMES):
        pipelined = engine_for(f"s{index}{layout[1]}p")
        in_ram = engine_for(f"s{index}{layout[1]}r")
        digests[str(index)] = {}
        for scene in passes.SCENES:
            experiment = passes.stream_experiment(scene, frame, layout)
            folded = passes.rows_digest(pipelined.run(
                experiment, stream_workers=passes.STREAM_WORKERS).rows)
            oracle = passes.rows_digest(in_ram.run(experiment).rows)
            if folded != oracle:
                raise SystemExit(f"stream {scene} frame {index}: pipelined "
                                 "rows differ from the in-RAM route")
            digests[str(index)][scene] = folded
    shutdown_stream_pool()
    return digests


def record_timing(engine_for) -> dict:
    digests = {}
    for index, frame in enumerate(passes.FRAMES):
        engine = engine_for(f"t{index}")
        digests[str(index)] = {}
        for scene in passes.SCENES:
            inputs = passes.timing_inputs(engine, scene, frame,
                                          passes.TIMING_SCALE)
            fast = passes.timing_grid(inputs, REDUCED_DEPTHS,
                                      REDUCED_LATENCIES)
            slow = passes.timing_grid(inputs, REDUCED_DEPTHS,
                                      REDUCED_LATENCIES, kernel="reference")
            if passes.grid_digest(fast) != passes.grid_digest(slow):
                raise SystemExit(f"timing {scene} frame {index}: vectorized "
                                 "cells differ from kernel='reference'")
            digests[str(index)][scene] = passes.grid_digest(
                passes.timing_grid(inputs))
    return digests


def main() -> int:
    root = os.getcwd()
    problem = run.check_checkout(root)
    if problem and "reference.json" not in problem:
        print(f"record: {problem}", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".perfbench", "record")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.engine import ArtifactStore, Engine

    def engine_for(name):
        return Engine(store=ArtifactStore(os.path.join(scratch, name)))

    started = time.monotonic()
    try:
        reference = {
            "paper_scale": run.PAPER_SCALE,
            "paper": record_paper(root),
            "stream": record_stream(engine_for, passes.LAYOUT),
            "stream_relayout": record_stream(engine_for,
                                             passes.STREAM_WARM_LAYOUT),
            "timing": record_timing(engine_for),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    reference["recorded"] = run.host_stamp(root)
    with open(run.REFERENCE_PATH, "w") as sink:
        json.dump(reference, sink, indent=1, sort_keys=True)
        sink.write("\n")
    print(f"wrote {run.REFERENCE_PATH} in "
          f"{time.monotonic() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
