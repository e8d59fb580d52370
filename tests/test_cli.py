"""Config schema enforcement, request-string parsing, and the CLI pipeline
end to end on a small run directory shared across tests."""

import json

import numpy as np
import pytest

from scale_fu import baselines, cli, metrics, nn, theory
from scale_fu.config import (
    ConfigError,
    DEFAULT_CONFIG,
    RunDir,
    component_seed,
    config_hash,
    read_csv,
    validate_config,
)

SMALL = {
    "dataset": {"classes": 3, "dim": 8, "per_class": 30},
    "model": {"hidden": [16, 8]},
    "federation": {"n_clients": 4, "rounds": 5, "clients_per_round": 4, "batch_size": 16},
    "scale": {
        "groups_per_layer": 4,
        "deploy_steps": 4,
        "ppo": {"episodes": 8, "t_collect": 4, "epochs": 2, "batch_size": 8},
    },
    "request": {"clients": [1]},
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
    with pytest.raises(ConfigError, match="granularity"):
        validate_config({"request": {"granularity": "tenant"}})
    with pytest.raises(ConfigError, match="scale.ppo"):
        validate_config({"scale": {"ppo": {"clip_eps": 0.0}}})


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv("SCALE_SEED", "7")
    assert validate_config({})["seeds"]["master"] == 7
    monkeypatch.setenv("SCALE_SEED", "many")
    with pytest.raises(ConfigError, match="SCALE_SEED"):
        validate_config({})


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
    cfg = validate_config({})
    block, req = cli.parse_request_string("client:3", cfg, 42)
    assert block["granularity"] == "client" and block["clients"] == [3]
    assert req.clients == (3,)

    block, req = cli.parse_request_string("class:2:0,3", cfg, 42)
    assert block["class_set"] == [0, 3] and req.class_set == (0, 3)

    block, req = cli.parse_request_string("sample:1:0.5", cfg, 42)
    assert block["sample_fraction"] == 0.5


def test_parse_request_rejects_malformed():
    cfg = validate_config({})
    for bad in ("client", "client:x", "class:1", "sample:1:2.0", "owner:3"):
        with pytest.raises((cli.CliError, ConfigError)):
            cli.parse_request_string(bad, cfg, 42)


def test_request_string_round_trip():
    cfg = validate_config({})
    for text in ("client:3", "class:2:0,3", "sample:1:0.5"):
        block, _ = cli.parse_request_string(text, cfg, 42)
        assert cli.request_string(block) == text


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


def test_train_artifacts_present(run_dir):
    assert run_dir.global_model_path.exists()
    assert run_dir.manifest_path.exists()
    assert run_dir.partition_path.exists()
    for c in range(4):
        assert run_dir.history_model_path(c).exists()
    h, header, rows = read_csv(run_dir.rounds_path)
    assert header == ["round", "participants", "loss", "acc"]
    assert len(rows) == 5
    assert h == run_dir.read_config()[1]


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
    assert head["config_hash"] == run_dir.read_config()[1]
    for line in lines[1:]:
        row = json.loads(line)
        assert set(row) == {"step", "layer", "groups", "s"}
    assert run_dir.unlearned_model_path("retrain").exists()
    assert run_dir.unlearned_model_path("uniform").exists()
    assert run_dir.unlearned_model_path("grad_ascent").exists()


def test_uniform_budget_matches_scale(run_dir):
    manifest = nn.load_manifest(run_dir.manifest_path)
    original = nn.load_model(run_dir.global_model_path, manifest)
    scale_m = nn.load_model(run_dir.unlearned_model_path("scale"), manifest)
    uniform_m = nn.load_model(run_dir.unlearned_model_path("uniform"), manifest)
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
    manifest = nn.load_manifest(rd.manifest_path)
    original = nn.load_model(rd.global_model_path, manifest)
    zeroless = baselines.baseline_uniform(original, 0, 4)
    assert all(np.array_equal(p, q) for p, q in zip(original.params, zeroless.params))


def test_metrics_json_schema_per_method(run_dir):
    h = run_dir.read_config()[1]
    for m in ("scale", "retrain", "uniform", "grad_ascent"):
        payload = metrics.read_metrics_json(run_dir.metrics_path(m))
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
    assert h == run_dir.read_config()[1]


def test_comparison_cross_checks_metrics(run_dir):
    _, _, rows = read_csv(run_dir.comparison_path)
    for row in rows:
        payload = metrics.read_metrics_json(run_dir.metrics_path(row[0]))
        assert float(row[1]) == payload["ra"]
        assert float(row[3]) == payload["fa"]
        assert float(row[5]) == payload["fr"]
        assert float(row[6]) == payload["mean_aoi_steps"]
        assert float(row[7]) == payload["comm_ct"]


def test_retrain_accounting_touches_everything(run_dir):
    payload = metrics.read_metrics_json(run_dir.metrics_path("retrain"))
    manifest = nn.load_manifest(run_dir.manifest_path)
    original = nn.load_model(run_dir.global_model_path, manifest)
    assert payload["comm_ct"] == 5 * original.num_params
    assert payload["mean_aoi_steps"] == 0.0
    assert payload["wall_secs"] == 5 * 0.25


def test_uniform_accounting_one_burst(run_dir):
    payload = metrics.read_metrics_json(run_dir.metrics_path("uniform"))
    manifest = nn.load_manifest(run_dir.manifest_path)
    original = nn.load_model(run_dir.global_model_path, manifest)
    assert payload["comm_ct"] == original.num_params
    # touched once at step 1, then ages 1..H-1 over the deploy horizon
    assert payload["mean_aoi_steps"] == pytest.approx((4 - 1) / 2)
    assert payload["wall_secs"] == 0.25


def test_eval_requires_retrain(run_dir):
    assert cli.main(["eval", "--run", str(run_dir.root), "--methods", "scale"]) == 2


def test_eval_rerun_is_stable(run_dir):
    before = run_dir.metrics_path("scale").read_bytes()
    assert cli.main(["eval", "--run", str(run_dir.root), "--methods", ALL_METHODS]) == 0
    assert run_dir.metrics_path("scale").read_bytes() == before


def test_conflicting_request_is_refused(run_dir):
    code = cli.main(["unlearn", "--run", str(run_dir.root), "--method", "retrain",
                     "--request", "client:2"])
    assert code == 2


def test_cross_hash_eval_refused_unless_forced(run_dir):
    meta_path = run_dir.method_dir("grad_ascent") / "unlearn_meta.json"
    original = meta_path.read_text()
    meta = json.loads(original)
    meta["config_hash"] = "0" * 64
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    try:
        assert cli.main(["eval", "--run", str(run_dir.root),
                         "--methods", ALL_METHODS]) == 2
        assert cli.main(["eval", "--run", str(run_dir.root),
                         "--methods", ALL_METHODS, "--force"]) == 0
    finally:
        meta_path.write_text(original)
        assert cli.main(["eval", "--run", str(run_dir.root),
                         "--methods", ALL_METHODS]) == 0


def test_unlearn_before_train_fails_cleanly(tmp_path):
    code = cli.main(["unlearn", "--run", str(tmp_path / "nope"), "--method", "scale",
                     "--request", "client:0"])
    assert code == 2


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
    model = nn.load_model(rd.global_model_path, nn.load_manifest(rd.manifest_path))
    assert baselines.full_group_index(model, 4).layers == (0, 1, 3)
    assert cli.main(["eval", "--run", str(out), "--methods", ALL_METHODS]) == 0
    _, _, rows = read_csv(rd.comparison_path)
    assert [r[0] for r in rows] == ALL_METHODS.split(",")
