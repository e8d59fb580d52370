"""Config schema enforcement, request-string parsing, and the CLI pipeline
end to end on a small run directory shared across tests."""

import ctypes
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from artifacts import read_csv
from scale_fu import baselines, cli, nn, pipeline, theory
from scale_fu.config import (
    ConfigError,
    DEFAULT_CONFIG,
    RunDir,
    TAG_INIT,
    TAG_REQUEST,
    component_seed,
    config_hash,
    read_json,
    validate_config,
    write_csv,
)
from scale_fu.data import RequestError, UnlearnRequest
from scale_fu.federation import FedConfig
from scale_fu.rl import PpoConfig

SMALL = {
    "dataset": {"classes": 3, "dim": 8, "per_class": 30},
    "model": {"hidden": [16, 8]},
    "federation": {"n_clients": 4, "rounds": 5, "clients_per_round": 4, "batch_size": 16},
    "scale": {
        "groups_per_layer": 4,
        "deploy_steps": 4,
        "ppo": {"episodes": 8, "t_collect": 4, "epochs": 2, "batch_size": 8},
    },
    "baselines": {"grad_steps": 3},
}

ALL_METHODS = "scale,retrain,uniform,grad_ascent"


# --- config schema


def test_defaults_validate_and_fill():
    cfg = validate_config({})
    assert cfg == validate_config(DEFAULT_CONFIG)
    assert cfg["federation"]["n_clients"] == 8
    assert cfg["scale"]["ppo"]["episodes"] == 200
    assert cfg["scale"]["m_sel"] is None


def test_unknown_key_named_with_path():
    with pytest.raises(ConfigError, match="federation.etta"):
        validate_config({"federation": {"etta": 0.1}})
    with pytest.raises(ConfigError, match="scale.ppo.clip"):
        validate_config({"scale": {"ppo": {"clip": 0.2}}})
    with pytest.raises(ConfigError, match="unknown key: extras"):
        validate_config({"extras": 1})
    # the request is the `--request` string, not a config block
    with pytest.raises(ConfigError, match="unknown key: request"):
        validate_config({"request": {"granularity": "client", "clients": [3]}})


def test_type_errors_name_the_field():
    with pytest.raises(ConfigError, match="federation.rounds"):
        validate_config({"federation": {"rounds": "thirty"}})
    with pytest.raises(ConfigError, match="dataset.spread"):
        validate_config({"dataset": {"spread": []}})


def test_range_checks():
    with pytest.raises(ConfigError, match="clients_per_round"):
        validate_config({"federation": {"clients_per_round": 9}})
    with pytest.raises(ConfigError, match="scale.lam"):
        validate_config({"scale": {"lam": 1.5}})
    with pytest.raises(ConfigError, match="scale.ppo"):
        validate_config({"scale": {"ppo": {"clip_eps": 0.0}}})
    with pytest.raises(RequestError, match="'tenant:3'; expected client"):
        UnlearnRequest.parse("tenant:3")
    with pytest.raises(RequestError, match="'class:3:x': invalid literal"):
        UnlearnRequest.parse("class:3:x")


def test_typed_configs_own_their_blocks():
    # a knob added to a typed config or to its block alone fails here
    fed_fields = {f.name for f in dataclasses.fields(FedConfig)} - {"seed"}
    assert fed_fields == set(DEFAULT_CONFIG["federation"]) - {"dirichlet_alpha"}
    assert DEFAULT_CONFIG["scale"]["ppo"] == dataclasses.asdict(PpoConfig())


def test_config_hash_tracks_content():
    a = config_hash(validate_config({}))
    b = config_hash(validate_config({"seeds": {"master": 43}}))
    assert a != b
    assert a == config_hash(validate_config({}))
    assert len(a) == 64


def test_component_seeds_differ_by_tag():
    seeds = {component_seed(42, t) for t in (0x0101, 0x0202, 0x0303, 0x0404)}
    assert len(seeds) == 4


# --- request strings


def test_parse_request_forms():
    req = UnlearnRequest.parse("client:3", 42)
    assert req == UnlearnRequest("client", (3,), seed=42)
    req = UnlearnRequest.parse("class:2:0,3", 42)
    assert req.granularity == "class" and req.class_set == (0, 3)
    req = UnlearnRequest.parse("sample:1:0.5", 42)
    assert req.granularity == "sample" and req.sample_fraction == 0.5


def test_parse_request_rejects_malformed():
    for bad in ("client", "client:x", "class:1", "class:1:", "sample:1:2.0", "owner:3",
                "client:-1", "client:3:0.5", ""):
        with pytest.raises(RequestError, match=repr(bad)):
            UnlearnRequest.parse(bad, 42)


def test_request_string_round_trip():
    for text in ("client:3", "class:2:0,3", "sample:1:0.5", "sample:3:0.123456789"):
        assert UnlearnRequest.parse(text, 42).describe() == text


# --- pipeline fixture


@pytest.fixture(scope="session")
def run_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg_path = base / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    out = base / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    for m in ("scale", "retrain", "uniform", "grad_ascent"):
        code = cli.main(["unlearn", "--run", str(out), "--method", m,
                         "--request", "client:1"])
        assert code == 0, m
    assert cli.main(["eval", "--run", str(out), "--methods", ALL_METHODS]) == 0
    return RunDir(out)


def load_global(rd):
    """The run's global model, in the architecture its config builds."""
    cfg = rd.read_config()
    like = pipeline.build_model0(cfg, pipeline.build_dataset(cfg))
    return nn.load_model(rd.global_model_path, like)


def test_train_artifacts_present(run_dir):
    assert run_dir.global_model_path.exists()
    assert run_dir.manifest_path.exists()
    assert run_dir.partition_path.exists()
    for c in range(4):
        assert run_dir.history_model_path(c).exists()
    h, header, rows = read_csv(run_dir.rounds_path)
    assert header == ["round", "participants", "loss", "acc"]
    assert len(rows) == 5
    assert h == run_dir.hash


def test_partition_json_holds_the_rebuilt_partition(run_dir):
    # unlearn rebuilds the partition from the config; partition.json records it
    cfg, h = run_dir.read_config(), run_dir.hash
    stored = read_json(run_dir.partition_path)
    assert stored["config_hash"] == h
    part = pipeline.build_partition(cfg, pipeline.build_dataset(cfg))
    assert stored["indices"] == [ix.tolist() for ix in part.indices]


def test_manifest_json_records_the_rebuilt_model(run_dir):
    # unlearn and eval rebuild the architecture from the config; manifest.json records it
    cfg = run_dir.read_config()
    model0 = pipeline.build_model0(cfg, pipeline.build_dataset(cfg))
    seed = component_seed(cfg["seeds"]["master"], TAG_INIT)
    assert read_json(run_dir.manifest_path) == {
        **nn.model_manifest(model0, seed=seed), "config_hash": run_dir.hash}


@pytest.mark.parametrize("spoil", [
    lambda path: path.unlink(),
    lambda path: path.write_text(path.read_text()[:-5]),
], ids=["deleted", "garbled"])
def test_unlearn_and_eval_never_read_manifest_json(run_dir, tmp_path, spoil):
    rd = RunDir(shutil.copytree(run_dir.root, tmp_path / "run"))
    spoil(rd.manifest_path)
    methods = ALL_METHODS.split(",")
    outputs = [rd.comparison_path] + [rd.metrics_path(m) for m in methods] + [
        rd.unlearned_model_path(m) for m in methods]
    for path in outputs:
        path.unlink()
    for m in methods:
        assert cli.main(["unlearn", "--run", str(rd.root), "--method", m,
                         "--request", "client:1"]) == 0, m
    assert cli.main(["eval", "--run", str(rd.root), "--methods", ALL_METHODS]) == 0
    for path in outputs:
        assert path.read_bytes() == (run_dir.root / path.relative_to(rd.root)).read_bytes()


def test_train_rerun_bit_identical(run_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    out = tmp_path / "again"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "global.model").read_bytes() == run_dir.global_model_path.read_bytes()


def test_unlearn_artifacts_present(run_dir):
    sdir = run_dir.method_dir("scale")
    for name in ("sensitivity.csv", "ppo_rewards.csv", "aoi_timeseries.csv",
                 "actions.jsonl", "unlearned.model", "unlearn_meta.json"):
        assert (sdir / name).exists(), name
    lines = (sdir / "actions.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert head["config_hash"] == run_dir.hash
    for line in lines[1:]:
        row = json.loads(line)
        assert set(row) == {"step", "layer", "groups", "s"}
    assert run_dir.unlearned_model_path("retrain").exists()
    assert run_dir.unlearned_model_path("uniform").exists()
    assert run_dir.unlearned_model_path("grad_ascent").exists()


def test_sensitivity_csv(run_dir):
    h, header, rows = read_csv(run_dir.method_dir("scale") / "sensitivity.csv")
    assert h == run_dir.hash
    assert header == ["layer", "rho", "s_align", "s_impact", "s_combined", "selected"]
    n_layers = load_global(run_dir).num_layers
    assert [int(row[0]) for row in rows] == list(range(n_layers))
    assert {row[-1] for row in rows} <= {"0", "1"}
    selected = [int(row[0]) for row in rows if row[-1] == "1"]
    assert selected == sorted(cli.read_meta(run_dir, "scale")["selected_layers"])


def test_uniform_budget_matches_scale(run_dir):
    original = load_global(run_dir)
    scale_m = nn.load_model(run_dir.unlearned_model_path("scale"), original)
    uniform_m = nn.load_model(run_dir.unlearned_model_path("uniform"), original)
    budget = baselines.newly_zeroed(original, scale_m)
    assert baselines.newly_zeroed(original, uniform_m) == budget
    meta = json.loads((run_dir.method_dir("uniform") / "unlearn_meta.json").read_text())
    assert meta["budget"] == budget


def test_retrain_on_empty_budget_uniform_is_identity(tmp_path):
    # uniform with budget 0 comes back byte-identical to the original
    cfg_path = tmp_path / "cfg.json"
    cfg = dict(SMALL)
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    rd = RunDir(out)
    original = load_global(rd)
    zeroless = baselines.baseline_uniform(original, 0, 4)
    assert all(np.array_equal(p, q) for p, q in zip(original.params, zeroless.params))


def test_metrics_json_schema_per_method(run_dir):
    h = run_dir.hash
    for m in ("scale", "retrain", "uniform", "grad_ascent"):
        payload = read_json(run_dir.metrics_path(m))
        assert set(payload) == {
            "method", "scenario", "ra", "fa", "fr", "comm_ct", "mean_aoi_steps",
            "mean_aoi_secs", "wall_secs", "seed", "config_hash",
        }
        assert payload["method"] == m
        assert payload["scenario"] == "client:1"
        assert payload["config_hash"] == h


def test_comparison_columns_and_retrain_deltas(run_dir):
    h, header, rows = read_csv(run_dir.comparison_path)
    assert header == ["method", "ra", "d_ra", "fa", "d_fa", "fr", "mean_aoi", "comm_ct"]
    assert [r[0] for r in rows] == ["scale", "retrain", "uniform", "grad_ascent"]
    gold = next(r for r in rows if r[0] == "retrain")
    assert float(gold[2]) == 0.0 and float(gold[4]) == 0.0
    assert h == run_dir.hash


def test_comparison_cross_checks_metrics(run_dir):
    _, _, rows = read_csv(run_dir.comparison_path)
    for row in rows:
        payload = read_json(run_dir.metrics_path(row[0]))
        assert float(row[1]) == payload["ra"]
        assert float(row[3]) == payload["fa"]
        assert float(row[5]) == payload["fr"]
        assert float(row[6]) == payload["mean_aoi_steps"]
        assert float(row[7]) == payload["comm_ct"]


def test_stages_in_memory_match_the_cli_artifacts(run_dir, tmp_path):
    # the CLI only serialises: each stage, run with no run directory, gives
    # what the CLI wrote for the same config and request
    cfg = run_dir.read_config()
    seed = cfg["seeds"]["master"]
    req = UnlearnRequest.parse("client:1", component_seed(seed, TAG_REQUEST))
    _, original, history, _ = pipeline.train(cfg)
    ds, part, split = pipeline.rebuild_split(cfg, req)
    scale = pipeline.unlearn_scale(cfg, original, history, req, seed)
    retrain, retrain_rounds = pipeline.unlearn_retrain(cfg, ds, part, split)
    uniform, _ = pipeline.unlearn_uniform(cfg, original, scale.deployed.model)
    ascent = pipeline.unlearn_grad_ascent(cfg, original, ds, split)
    runs = {
        "scale": (scale.deployed.model, scale.deployed.steps, seed),
        "retrain": (retrain, len(retrain_rounds), seed),
        "uniform": (uniform, 1, seed),
        "grad_ascent": (ascent.model, len(ascent.steps), seed),
    }

    blob = tmp_path / "blob"
    saved = {run_dir.global_model_path: original}
    saved.update({run_dir.unlearned_model_path(m): model for m, (model, _, _) in runs.items()})
    for path, model in saved.items():
        nn.write_blob(model.params, blob)
        assert blob.read_bytes() == path.read_bytes(), path.name

    lines = (run_dir.method_dir("scale") / "actions.jsonl").read_text().splitlines()
    assert scale.deployed.action_rows == [json.loads(line) for line in lines[1:]]

    groups = pipeline.scale_groups(cfg, original, scale.report.selected)
    reports = pipeline.evaluate(cfg, req, ds, split, original, runs,
                                (scale.deployed.action_rows, groups))
    assert [r.method for r in reports] == list(runs)
    for report in reports:
        stored = read_json(run_dir.metrics_path(report.method))
        del stored["config_hash"]
        assert dataclasses.asdict(report) == stored, report.method


def test_retrain_accounting_touches_everything(run_dir):
    payload = read_json(run_dir.metrics_path("retrain"))
    original = load_global(run_dir)
    assert payload["comm_ct"] == 5 * original.num_params
    assert payload["mean_aoi_steps"] == 0.0
    assert payload["wall_secs"] == 5 * 0.25


def test_uniform_accounting_one_burst(run_dir):
    payload = read_json(run_dir.metrics_path("uniform"))
    original = load_global(run_dir)
    assert payload["comm_ct"] == original.num_params
    # touched once at step 1, then ages 1..H-1 over the deploy horizon
    assert payload["mean_aoi_steps"] == pytest.approx((4 - 1) / 2)
    assert payload["wall_secs"] == 0.25


def test_eval_requires_retrain(run_dir):
    assert cli.main(["eval", "--run", str(run_dir.root), "--methods", "scale"]) == 2


def test_eval_refuses_a_repeated_method(run_dir, tmp_path, capsys):
    rd = RunDir(shutil.copytree(run_dir.root, tmp_path / "run"))
    before = rd.comparison_path.read_bytes()
    capsys.readouterr()
    assert cli.main(["eval", "--run", str(rd.root), "--methods", "retrain,scale,retrain"]) == 2
    assert "'retrain'" in capsys.readouterr().err
    assert rd.comparison_path.read_bytes() == before


def test_eval_rerun_is_stable(run_dir):
    before = run_dir.metrics_path("scale").read_bytes()
    assert cli.main(["eval", "--run", str(run_dir.root), "--methods", ALL_METHODS]) == 0
    assert run_dir.metrics_path("scale").read_bytes() == before


def test_conflicting_request_is_refused(run_dir):
    code = cli.main(["unlearn", "--run", str(run_dir.root), "--method", "retrain",
                     "--request", "client:2"])
    assert code == 2


def test_failed_unlearn_pins_no_request(run_dir, tmp_path):
    # uniform fails before it computes, so it must leave the run free for
    # another request
    rd = RunDir(shutil.copytree(run_dir.root, tmp_path / "run"))
    rd.request_path.unlink()
    for m in ALL_METHODS.split(","):
        shutil.rmtree(rd.method_dir(m))
    assert cli.main(["unlearn", "--run", str(rd.root), "--method", "uniform",
                     "--request", "client:1"]) == 2
    assert not rd.request_path.exists()
    assert cli.main(["unlearn", "--run", str(rd.root), "--method", "scale",
                     "--request", "client:2"]) == 0
    assert read_json(rd.request_path)["string"] == "client:2"


def test_cross_hash_eval_refused(run_dir, tmp_path, capsys):
    rd = RunDir(shutil.copytree(run_dir.root, tmp_path / "run"))
    meta_path = rd.method_dir("grad_ascent") / "unlearn_meta.json"
    meta = json.loads(meta_path.read_text())
    meta["config_hash"] = "0" * 64
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert cli.main(["eval", "--run", str(rd.root), "--methods", ALL_METHODS]) == 2
    assert f"{meta_path}: config_hash" in capsys.readouterr().err


def test_train_refuses_a_used_directory(run_dir, tmp_path, capsys):
    rd = RunDir(shutil.copytree(run_dir.root, tmp_path / "run"))
    before = {p: p.read_bytes() for p in rd.root.rglob("*") if p.is_file()}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL, "federation": {**SMALL["federation"], "rounds": 6}}))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(rd.root)]) == 2
    assert str(rd.root) in capsys.readouterr().err
    assert {p: p.read_bytes() for p in rd.root.rglob("*") if p.is_file()} == before


def test_unlearn_before_train_fails_cleanly(tmp_path):
    code = cli.main(["unlearn", "--run", str(tmp_path / "nope"), "--method", "scale",
                     "--request", "client:0"])
    assert code == 2


def test_unlearn_names_a_blob_cut_mid_value(run_dir, tmp_path, capsys):
    rd = RunDir(shutil.copytree(run_dir.root, tmp_path / "run"))
    for path in (rd.global_model_path, rd.history_model_path(0)):
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        code = cli.main(["unlearn", "--run", str(rd.root), "--method", "scale",
                         "--request", "client:1"])
        assert code == 2
        assert str(path) in capsys.readouterr().err
        path.write_bytes(blob)


def drop_key(key):
    """A cut that keeps the JSON object valid but deletes one key."""
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


def set_key(key, value):
    """A cut that keeps the JSON object valid but gives one key a bad value."""
    return lambda text: json.dumps({**json.loads(text), key: value})


# each file a command reads as JSON, the command that reads it, a cut of its
# text and what the error says; the command must exit 2 and name the file
# and what is wrong
CORRUPT_JSON = [
    ("config.json", "eval", lambda text: text[: len(text) // 2]),
    ("request.json", "eval", lambda text: "{"),
    ("unlearn_scale/unlearn_meta.json", "eval", lambda text: text[:40]),
    ("unlearn_scale/actions.jsonl", "eval", lambda text: text[:60]),
    ("history/meta.json", "unlearn", lambda text: text[:-3]),
    ("request.json", "unlearn", lambda text: ""),
]
# valid JSON that lacks a key the command reads
MISSING_KEY = [
    ("request.json", "eval", lambda text: "{}"),
    ("unlearn_scale/unlearn_meta.json", "eval", drop_key("steps")),
    ("history/meta.json", "unlearn", drop_key("sizes")),
]
# valid JSON holding a value the command cannot use under the named key
BAD_VALUE = [
    ("unlearn_scale/unlearn_meta.json", "eval", "steps", "many"),
    ("unlearn_retrain/unlearn_meta.json", "eval", "seed", "x"),
    ("request.json", "eval", "seed", 1.5),
    ("request.json", "eval", "string", "client:-1"),
    ("history/meta.json", "unlearn", "config_hash", "0" * 64),
    ("history/meta.json", "unlearn", "clients", 5),
    ("history/meta.json", "unlearn", "sizes", {str(c): -13 for c in range(4)}),
    ("history/meta.json", "unlearn", "last_round", {str(c): "x" for c in range(4)}),
    ("request.json", "eval", "config_hash", "0" * 64),
    ("unlearn_scale/unlearn_meta.json", "eval", "config_hash", "0" * 64),
]


@pytest.mark.parametrize(
    "name,command,cut,what",
    [(n, c, cut, "not valid JSON") for n, c, cut in CORRUPT_JSON]
    + [(n, c, cut, "missing key") for n, c, cut in MISSING_KEY]
    + [(n, c, set_key(k, v), repr(v)) for n, c, k, v in BAD_VALUE],
    ids=[f"{c}-{n}" for n, c, _ in CORRUPT_JSON]
    + [f"{c}-{n}-missing-key" for n, c, _ in MISSING_KEY]
    + [f"{c}-{n}-bad-{k}" for n, c, k, _ in BAD_VALUE])
def test_corrupt_json_artifact_is_named(run_dir, tmp_path, capsys, name, command, cut, what):
    rd = RunDir(shutil.copytree(run_dir.root, tmp_path / "run"))
    path = rd.root / name
    path.write_text(cut(path.read_text()))
    if command == "eval":
        argv = ["eval", "--run", str(rd.root), "--methods", ALL_METHODS]
    else:
        argv = ["unlearn", "--run", str(rd.root), "--method", "scale", "--request", "client:1"]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and what in err


def test_selected_layer_outside_model_is_named(run_dir, tmp_path, capsys):
    rd = RunDir(shutil.copytree(run_dir.root, tmp_path / "run"))
    path = rd.method_dir("scale") / "unlearn_meta.json"
    meta = json.loads(path.read_text())
    meta["selected_layers"] = [99]
    path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["eval", "--run", str(rd.root), "--methods", ALL_METHODS]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "selected_layers" in err


# a field of the first action row and a value eval cannot replay
BAD_ACTION = [("layer", "unselected"), ("groups", [99]), ("step", 0)]


@pytest.mark.parametrize("key,value", BAD_ACTION, ids=[k for k, _ in BAD_ACTION])
def test_bad_action_row_is_named(run_dir, tmp_path, capsys, key, value):
    rd = RunDir(shutil.copytree(run_dir.root, tmp_path / "run"))
    path = rd.method_dir("scale") / "actions.jsonl"
    lines = path.read_text().splitlines()
    if value == "unselected":
        selected = cli.read_meta(rd, "scale")["selected_layers"]
        n_layers = load_global(rd).num_layers
        value = next(l for l in range(n_layers) if l not in selected)
    row = json.loads(lines[1])
    row[key] = value
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["eval", "--run", str(rd.root), "--methods", ALL_METHODS]) == 2
    err = capsys.readouterr().err
    assert f"{path} line 2" in err and key in err


def test_action_past_the_horizon_is_named(run_dir, tmp_path, capsys):
    rd = RunDir(shutil.copytree(run_dir.root, tmp_path / "run"))
    path = rd.method_dir("scale") / "actions.jsonl"
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row["step"] = cli.read_meta(rd, "scale")["steps"] + 1
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["eval", "--run", str(rd.root), "--methods", ALL_METHODS]) == 2
    err = capsys.readouterr().err
    assert f"{path} line 2" in err and "unlearn_meta.json" in err


def test_config_without_config_object_is_refused(run_dir, tmp_path):
    rd = RunDir(shutil.copytree(run_dir.root, tmp_path / "run"))
    rd.config_path.write_text("[]\n")
    with pytest.raises(ConfigError, match="no config object"):
        rd.read_config()


def test_invalid_json_config_file_is_named(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"federation": ')
    code = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"{cfg_path}: not valid JSON" in capsys.readouterr().err


def test_uniform_requires_scale_run(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    code = cli.main(["unlearn", "--run", str(out), "--method", "uniform",
                     "--request", "client:1"])
    assert code == 2


def test_invalid_config_key_via_cli(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"federation": {"etta": 0.1}}))
    code = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 2


# --- theory subcommand


def test_theory_cli_default(tmp_path, capsys):
    out = tmp_path / "theory_report.json"
    code = cli.cmd_theory(samples=2000, out_path=str(out))
    assert code == 0
    entries = json.loads(out.read_text())
    assert [e["claim_id"] for e in entries] == [
        theory.CLAIM_ALIGNMENT, theory.CLAIM_COVERAGE,
        theory.CLAIM_ERROR_BOUND, theory.CLAIM_ACCELERATION,
    ]
    statuses = [e["status"] for e in entries]
    assert statuses.count("PASS") == 2
    assert statuses.count("PAPER-DISCREPANCY") == 2
    printed = capsys.readouterr().out
    assert "PAPER-DISCREPANCY" in printed


def test_theory_cli_paper_literal_form_fails(tmp_path):
    out = tmp_path / "theory_report.json"
    code = cli.cmd_theory(samples=2000, aoi_paper_literal=True, out_path=str(out))
    assert code == 1
    entries = json.loads(out.read_text())
    by_id = {e["claim_id"]: e for e in entries}
    assert by_id[theory.CLAIM_ERROR_BOUND]["status"] == "FAIL"


def test_mini_cnn_pipeline_evaluates_every_method(tmp_path):
    # mini_cnn's flatten layer has no parameters, so the full group index
    # holds layers (0, 1, 3) and a layer id is not its rank
    cfg = {**SMALL, "model": {"arch": "mini_cnn"},
           "dataset": {"classes": 3, "dim": 25, "per_class": 20}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    for m in ALL_METHODS.split(","):
        assert cli.main(["unlearn", "--run", str(out), "--method", m,
                         "--request", "client:1"]) == 0, m
    rd = RunDir(out)
    model = load_global(rd)
    assert baselines.full_group_index(model, 4).layers == (0, 1, 3)
    assert cli.main(["eval", "--run", str(out), "--methods", ALL_METHODS]) == 0
    _, _, rows = read_csv(rd.comparison_path)
    assert [r[0] for r in rows] == ALL_METHODS.split(",")


# --- atomic artifact writes


class Unprintable:
    def __str__(self):
        raise RuntimeError("cannot print")


@pytest.mark.parametrize("write", [
    lambda rd, path: write_csv(rd, path, ["a"], [[1], [Unprintable()]]),
    lambda rd, path: nn.write_blob([np.ones(3), None], path),
], ids=["write_csv", "write_blob"])
def test_writer_failing_partway_keeps_old_file(tmp_path, write):
    rd = RunDir(tmp_path)
    rd.write_config(validate_config({}))
    path = tmp_path / "artifact"
    path.write_bytes(b"old bytes")
    with pytest.raises((RuntimeError, AttributeError)):
        write(rd, path)
    assert path.read_bytes() == b"old bytes"
    assert sorted(os.listdir(tmp_path)) == ["artifact", "config.json"]


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(b"old bytes, longer than the new ones")
    nn.write_blob([np.arange(2.0), np.array([-0.0])], path)
    assert path.read_bytes() == np.array([0.0, 1.0, -0.0], dtype="<f8").tobytes()
    assert os.listdir(tmp_path) == ["artifact"]


# --- process set-up


HEAP_PROBE = """
import resource
import numpy as np
from scale_fu import cli, nn
cli.keep_freed_heap()
rng = np.random.default_rng(0)
model = nn.make_model("mini_cnn", 64, 4, seed=0)
train = nn.Batch(rng.standard_normal((32, 64)), rng.integers(0, 4, 32))
full = nn.Batch(rng.standard_normal((600, 64)), rng.integers(0, 4, 600))
def work():
    for _ in range(50):
        nn.loss_and_grads(model, train)
    for _ in range(5):
        nn.forward(model, full)
work()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
work()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not has_mallopt(), reason="libc has no mallopt")
def test_kept_heap_makes_warm_steps_fault_free():
    # in a fresh interpreter, as `scale` runs: with glibc's defaults the same
    # steps take thousands of minor faults (each freed MB handed back)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", HEAP_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert int(out) <= 16
