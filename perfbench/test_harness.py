"""Fast tests of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
from scale_fu import cli  # noqa: E402
from tracer import Tracer, patched  # noqa: E402
from workloads import ACCEPTANCE_FAMILY, WORKLOADS, Workload  # noqa: E402

TINY = Workload(
    name="tiny",
    why="test",
    overlay={
        "dataset": {"per_class": 30},
        "federation": {"rounds": 2},
        "scale": {"deploy_steps": 2, "ppo": {"episodes": 2}},
    },
    request="client:3",
    family_size=1,
)


def _env() -> dict:
    env = dict(os.environ)
    env.pop("SCALE_SEED", None)
    return env


def _bindings() -> dict:
    """Every name bound in every loaded scale_fu module and class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "scale_fu" or name.startswith("scale_fu.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_self_time_of_nested_spans():
    tr = Tracer()
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
             ("b", 5.0, 9.0, 0)]
    for name, start, end, parent in spans:
        tr.names.append(name)
        tr.starts.append(start)
        tr.ends.append(end)
        tr.parents.append(parent)
        tr.trace_ids.append(0)
    assert tr.self_times() == [3.0, 2.0, 1.0, 4.0]
    summary = tr.summary(0)
    assert summary["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert tr.summary(1) == {}


def test_live_spans_nest_and_count_children():
    tr = Tracer()

    def inner():
        return 1

    outer_w = tr.wrap("outer", lambda: inner_w() + inner_w())
    inner_w = tr.wrap("inner", inner)
    assert outer_w() == 2
    assert tr.parents == [-1, 0, 0]
    assert tr.child_calls(0, "outer", "inner") == 2
    s = tr.summary(0)
    assert s["outer"]["self_s"] <= s["outer"]["total_s"]


def test_hook_time_stays_out_of_self_time():
    tr = Tracer()
    inner_w = tr.wrap("inner", lambda: None, hook=lambda *_: time.sleep(0.05))
    outer_w = tr.wrap("outer", lambda: inner_w())
    outer_w()
    s = tr.summary(0)
    assert s["outer"]["total_s"] >= 0.05
    assert s["outer"]["self_s"] < 0.04


def test_traced_run_wraps_then_restores_every_name(tmp_path):
    before = _bindings()
    tr = Tracer()
    with patched(tr, layers.TARGETS) as undo:
        from scale_fu import aoi, rl
        # a name imported into another module is wrapped where it is looked up
        assert rl.state_vector is not before[("scale_fu.rl", "state_vector")]
        assert cli.write_csv is not before[("scale_fu.cli", "write_csv")]
        assert "backward" in vars(rl.PolicyNet)
        assert aoi.AoiLedger.ages is not before[("scale_fu.aoi", "AoiLedger", "ages")]
        assert len(undo) >= len(layers.TARGETS)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []

    report = harness.measure(TINY, 0, 0.0, True, tmp_path, cli.main, _env())
    assert _bindings().keys() == before.keys()
    assert [k for k in before if _bindings()[k] is not before[k]] == []
    metrics = report.result(trace=True)["metrics"]
    assert set(metrics) == set(layers.per_layer_units())
    assert metrics["rl.train_unlearner.episodes"]["value"] == 2
    assert metrics["federation.run_rounds.rounds"]["value"] == 4  # train + retrain
    # the stage spans cover all but argument parsing; a tiny pipeline is so
    # short that parsing is visible, so it may fall below the floor
    coverage = metrics["trace.coverage"]["value"]
    assert 0.5 < coverage <= 1.0
    assert report.correct == (coverage >= harness.COVERAGE_FLOOR)


def test_low_trace_coverage_marks_the_run_incorrect(tmp_path, monkeypatch):
    report = harness.measure(TINY, 0, 0.0, True, tmp_path, cli.main, _env())
    monkeypatch.setattr(harness, "COVERAGE_FLOOR", 0.0)
    report.check()
    assert report.correct
    monkeypatch.setattr(harness, "COVERAGE_FLOOR", 1.01)
    report.check()
    assert not report.correct
    assert any("trace.coverage" in p for p in report.problems)


def test_quality_must_equal_the_reference(tmp_path):
    report = harness.measure(TINY, 0, 0.0, False, tmp_path, cli.main, _env())
    (master,) = report.masters
    quality = report.results[0].quality
    digest = harness.combined_digest(report.results[0].digests)

    report.reference = {str(master): {"quality": quality, "artifacts": digest}}
    report.check()
    assert report.correct
    assert "byte-identical to the reference" in "\n".join(report.summary_lines())

    # other bytes with the same quality are reported, not refused
    report.reference = {str(master): {"quality": quality, "artifacts": "0" * 64}}
    report.check()
    assert report.correct
    assert "DIFFERENT from the reference" in "\n".join(report.summary_lines())

    worse = {**quality, "scale_ra": quality["scale_ra"] - 0.01}
    report.reference = {str(master): {"quality": worse, "artifacts": digest}}
    report.check()
    assert not report.correct
    assert any(f"master {master}: quality" in p for p in report.problems)

    # a master whose eval fails in the reference is not checked
    report.reference = {str(master): {"quality": None, "artifacts": digest}}
    report.check()
    assert report.correct


def test_reference_covers_every_workload_and_master():
    for name in WORKLOADS:
        ref = harness.load_reference(name)
        assert sorted(ref) == sorted(str(m) for m in ACCEPTANCE_FAMILY)
        # only cnn-fed lacks quality, because its eval crashes (cli.py:408)
        assert all((e["quality"] is None) == (name == "cnn-fed") for e in ref.values())


def test_tiny_config_prints_every_end_to_end_metric(tmp_path):
    report = harness.measure(TINY, 0, 0.0, False, tmp_path, cli.main, _env())
    assert report.correct
    assert report.failed == 0 and report.attempted == 2 * len(harness.STAGES)
    result = report.result(trace=False)
    assert set(result["metrics"]) == set(harness.E2E_UNITS)
    for name, unit in harness.E2E_UNITS.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    text = "\n".join(report.summary_lines())
    for name, unit in {**harness.E2E_UNITS, **harness.SUMMARY_UNITS}.items():
        assert name in text and unit in text
    assert "2 runs identical" in text


def test_failed_commands_raise_error_rate(tmp_path):
    def crashing_eval(argv):
        if argv[0] == "eval":
            raise IndexError("forced")
        return cli.main(argv)

    report = harness.measure(TINY, 0, 0.0, False, tmp_path, crashing_eval, _env())
    assert report.failed == 2 and report.correct
    assert all("raised IndexError" in r.failures["eval"] for r in report.results)
    assert all(r.quality is None for r in report.results)
    assert "error_rate         2/12" in "\n".join(report.summary_lines())

    bad = Workload(name="bad", why="test", overlay=TINY.overlay, request="client:99",
                   family_size=1)
    report = harness.measure(bad, 0, 0.0, False, tmp_path, cli.main, _env())
    # unlearn rejects the request, so every unlearn and the eval fail
    assert report.failed == 2 * 5


def test_output_check_failure_marks_the_run_incorrect(tmp_path):
    def truncating_eval(argv):
        rc = cli.main(argv)
        if argv[0] == "eval":
            (Path(argv[2]) / "comparison.csv").write_text("# config_hash=x\nmethod\n")
        return rc

    report = harness.measure(TINY, 0, 0.0, False, tmp_path, truncating_eval, _env())
    assert not report.correct
    assert report.failed == 2


def test_tail_percentile_fits_the_sample_count():
    assert harness.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    name, value = harness.tail([float(i) for i in range(20)])
    assert name == "p90" and 17.0 < value < 19.0
    assert harness.tail([float(i) for i in range(100)])[0] == "p99"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_seeds_are_deterministic(name):
    w = WORKLOADS[name]
    assert w.masters(7) == w.masters(7)
    assert len(set(w.masters(7))) == w.family_size
    assert len(w.why) <= 200


def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$").match
    # every listed workload is defined here, with the same reason
    for w in doc["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    names = [w["name"] for w in doc["workloads"]] + [
        m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)) and all(name_ok(n) for n in names)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ref-mlp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
