"""The benchmark's own tests: its correctness gate catches a tampered
reference, its inputs follow the seed, and its metric names match
``BENCHMARK.json``.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import passes, run  # noqa: E402


@pytest.fixture
def reference():
    return run.load_reference()


def _run(tmp_path, workload, reference, seed=0):
    return run.Run(str(tmp_path), workload, seed, reference=reference)


def _stream_result(reference, frame_index, section="stream", ok=True):
    return {"ok": ok,
            "ops": [{"op": scene, "digest": digest} for scene, digest
                    in reference[section][str(frame_index)].items()]}


def test_matching_outputs_pass(tmp_path, reference):
    bench = _run(tmp_path, "stream", reference, seed=3)
    bench.check_pass("cold", _stream_result(reference, 3))
    assert [ok for _, ok, _ in bench.ops] == [True] * len(passes.SCENES)


def test_tampered_stream_reference_is_caught(tmp_path, reference):
    tampered = copy.deepcopy(reference)
    tampered["stream"]["3"]["town"] = "0" * 64
    bench = _run(tmp_path, "stream", tampered, seed=3)
    bench.check_pass("cold", _stream_result(reference, 3))
    failed = [name for name, ok, _ in bench.ops if not ok]
    assert failed == ["cold.town"]


def test_warm_stream_is_checked_against_its_own_layout(tmp_path, reference):
    bench = _run(tmp_path, "stream", reference, seed=3)
    warm = _stream_result(reference, 3, "stream_relayout")
    bench.check_pass("warm", warm, warm=True)
    bench.check_pass("cold", warm)
    assert [ok for _, ok, _ in bench.ops] == [True] * 4 + [False] * 4


def test_a_failed_pass_fails_all_its_ops(tmp_path, reference):
    bench = _run(tmp_path, "timing", reference, seed=3)
    bench.check_pass("cold", _stream_result(reference, 3, "timing", ok=False))
    assert not any(ok for _, ok, _ in bench.ops)


def test_tampered_paper_table_is_caught(tmp_path, reference):
    where = tmp_path / "pass"
    (where / "results").mkdir(parents=True)
    for name in run.PAPER_HARNESSES:
        (where / "results" / f"{name}.txt").write_text(
            reference["paper"][name])
    result = {"where": str(where),
              "ops": [{"op": name, "passed": True}
                      for name in run.PAPER_HARNESSES]}
    tampered = copy.deepcopy(reference)
    tampered["paper"]["fig_5_4"] = tampered["paper"]["fig_5_4"].replace(
        "%", "% ", 1)
    bench = _run(tmp_path, "paper", tampered)
    bench.check_pass("warm", result)
    assert [name for name, ok, _ in bench.ops if not ok] == ["warm.fig_5_4"]


def test_failed_harness_is_caught_even_with_matching_table(tmp_path,
                                                           reference):
    where = tmp_path / "pass"
    (where / "results").mkdir(parents=True)
    for name in run.PAPER_HARNESSES:
        (where / "results" / f"{name}.txt").write_text(
            reference["paper"][name])
    result = {"where": str(where),
              "ops": [{"op": name, "passed": name != "table_7_1"}
                      for name in run.PAPER_HARNESSES]}
    bench = _run(tmp_path, "paper", reference)
    bench.check_pass("cold", result)
    assert [name for name, ok, _ in bench.ops if not ok] == ["cold.table_7_1"]


def test_reference_matches_the_program(reference, tmp_path):
    """A fresh in-RAM fold of the cheapest scene reproduces the
    recorded digest."""
    from repro.engine import ArtifactStore, Engine
    engine = Engine(store=ArtifactStore(str(tmp_path / "store")))
    rows = engine.run(passes.stream_experiment("goblet", passes.FRAMES[5]))
    assert len(rows.rows) == 42
    assert passes.rows_digest(rows.rows) == reference["stream"]["5"]["goblet"]


def test_recoveries_list_only_passes_the_pool_recovered_in():
    clean = {"respawns": 0, "range_retries": 0, "residual_ranges": 0,
             "fallbacks": 0, "recovery_s": 0.0}
    killed = dict(clean, respawns=1, range_retries=1, recovery_s=0.5)
    rounds = [{"cold": {"ops": [{"op": "flight", "recovery": killed},
                                {"op": "town", "recovery": clean}]},
               "warm": {"ops": [{"op": "flight", "recovery": None}]}},
              {"cold": {"ok": False}, "warm": {"ops": [{"op": "town"}]}}]
    assert run.recoveries(rounds) == {"r0.cold.flight": killed}


def test_kill_plans_follow_the_seed_and_cover_every_range():
    assert passes.kill_plan(7, 0) == passes.kill_plan(7, 0)
    assert len({passes.kill_plan(seed, 0) for seed in range(20)}) > 1
    plans = {passes.kill_plan(7, index)
             for index in range(run.MIN_ROUNDS["stream"])}
    assert len(plans) == passes.STREAM_RANGES


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        spec = json.load(source)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "stream", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
