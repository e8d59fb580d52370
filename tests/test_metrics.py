"""Accuracy tie rules against hand counts, forgetting-rate arithmetic, and a
hand-simulated communication/freshness trace."""

import dataclasses
import json
import math

import numpy as np
import pytest

from scale_fu import metrics, nn, rl
from scale_fu.aoi import GroupIndex, aoi_summary, partition_groups
from scale_fu.config import RunDir, validate_config


def bias_model(biases, in_dim=3):
    """Zero-weight dense layer: every input maps to constant logits `biases`."""
    b = np.asarray(biases, dtype=np.float64)
    spec = nn.LayerSpec(nn.DENSE, in_dim=in_dim, out_dim=b.size, activation=nn.ACT_NONE)
    params = np.zeros(spec.d)
    params[in_dim * b.size :] = b
    return nn.Model("bias", (in_dim,), b.size, (spec,), params)


def test_accuracy_hand_count():
    model = bias_model([0.3, 0.9, 0.1])          # always predicts class 1
    X = np.zeros((10, 3))
    y = np.array([1, 1, 0, 2, 1, 1, 0, 1, 2, 1], dtype=np.int64)
    assert metrics.accuracy(model, X, y) == 6 / 10


def test_accuracy_tie_breaks_to_lowest_class():
    model = bias_model([0.0, 0.0, 0.0])          # three-way tie -> class 0
    X = np.zeros((9, 3))
    y = np.array([0, 1, 2] * 3, dtype=np.int64)
    assert metrics.accuracy(model, X, y) == pytest.approx(1 / 3)


def test_accuracy_empty_set_errors():
    model = bias_model([0.0, 1.0])
    with pytest.raises(metrics.MetricsError):
        metrics.accuracy(model, np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


def test_forgetting_rate_identity_is_zero():
    model = bias_model([0.4, 0.6])
    X = np.zeros((5, 3))
    y = np.zeros(5, dtype=np.int64)
    assert metrics.forgetting_rate(model, model, X, y) == 0.0


def test_forgetting_rate_half_confidence():
    # p(class 0) drops from 0.75 to 0.375: retention 1/2, FR = 1/2
    before = bias_model([math.log(3.0), 0.0])
    after = bias_model([math.log(0.6), 0.0])
    X = np.zeros((4, 3))
    y = np.zeros(4, dtype=np.int64)
    assert metrics.forgetting_rate(before, after, X, y) == pytest.approx(0.5, abs=1e-12)


def test_forgetting_rate_negative_when_confidence_rises():
    before = bias_model([0.0, 0.0])              # p = 0.5
    after = bias_model([math.log(9.0), 0.0])     # p = 0.9
    X = np.zeros((3, 3))
    y = np.zeros(3, dtype=np.int64)
    fr = metrics.forgetting_rate(before, after, X, y)
    assert fr == pytest.approx(1.0 - 0.9 / 0.5, abs=1e-12)
    assert fr < 0.0


def test_forgetting_rate_floors_vanishing_confidence():
    before = bias_model([-800.0, 0.0])           # p underflows to exactly 0
    after = bias_model([0.0, 0.0])               # p = 0.5
    X = np.zeros((2, 3))
    y = np.zeros(2, dtype=np.int64)
    fr = metrics.forgetting_rate(before, after, X, y)
    assert fr == pytest.approx(1.0 - 0.5 / 1e-8, rel=1e-9)


def trace_index():
    # layer 0: 10 params in groups of 5; layer 1: 4 params in groups of 2
    return GroupIndex(layers=(0, 1), ranges=(((0, 5), (5, 10)), ((0, 2), (2, 4))))


def trace_rows():
    return [
        {"step": 1, "layer": 0, "groups": [0, 1], "s": 1.0},
        {"step": 2, "layer": 1, "groups": [0], "s": 0.5},
        {"step": 4, "layer": 0, "groups": [1], "s": 0.5},
        {"step": 4, "layer": 1, "groups": [1], "s": 0.5},
    ]


def means(aoi_rows):
    return [mean for _, _, mean, _ in aoi_rows]


def test_comm_overhead_hand_trace():
    """Five-step trace simulated by hand: C_t = 19, mean global AoI = 1.4."""
    out = metrics.comm_overhead(trace_rows(), trace_index(), secs_per_step=0.5, horizon=5)
    assert out["comm_ct"] == 10 + 2 + 5 + 2
    # ages of groups (0,0), (0,1), (1,0), (1,1) after each step:
    # [0,0,1,1] [1,1,0,2] [2,2,1,3] [3,0,2,0] [4,1,3,1]
    rows = metrics.replay_aoi(trace_rows(), trace_index(), horizon=5)
    assert means(rows) == [0.5, 1.0, 2.0, 1.25, 2.25]
    assert rows == [(1, 2.0, 0.5, 1.0), (2, 4.0, 1.0, 2.0), (3, 8.0, 2.0, 3.0),
                    (4, 5.0, 1.25, 3.0), (5, 9.0, 2.25, 4.0)]
    assert out["mean_aoi_steps"] == pytest.approx(1.4)
    assert out["mean_aoi_secs"] == pytest.approx(0.7)


def test_comm_overhead_empty_log_ages_grow_linearly():
    out = metrics.comm_overhead([], trace_index(), secs_per_step=1.0, horizon=4)
    assert out["comm_ct"] == 0
    assert means(metrics.replay_aoi([], trace_index(), horizon=4)) == [1.0, 2.0, 3.0, 4.0]
    assert out["mean_aoi_secs"] == pytest.approx(2.5)


def test_comm_overhead_single_touch_counting():
    rows = [{"step": 1, "layer": 0, "groups": [0], "s": 1.0}]
    out = metrics.comm_overhead(rows, trace_index(), secs_per_step=1.0)
    assert out["comm_ct"] == 5


def test_comm_ct_additive_and_aoi_composes_as_weighted_mean():
    rows = trace_rows()
    seg1 = [r for r in rows if r["step"] <= 2]
    seg2 = [{**r, "step": r["step"] - 2} for r in rows if r["step"] > 2]
    idx = trace_index()
    c_full = metrics.transmitted_count(rows, idx)
    assert c_full == metrics.transmitted_count(seg1, idx) + metrics.transmitted_count(seg2, idx)
    # freshness is a per-step mean: segment means recombine by step weights
    full = means(metrics.replay_aoi(rows, idx, horizon=5))
    assert np.mean(full) == pytest.approx(
        (np.mean(full[:2]) * 2 + np.mean(full[2:]) * 3) / 5
    )


def test_replay_matches_live_environment_trajectory():
    model = nn.make_model(nn.ARCH_MLP, 6, 3, seed=1, hidden=(5, 4))
    idx = partition_groups(model, [0, 1], 2)
    from tests.test_rl import flat_report

    cfg = rl.PpoConfig(t_collect=6, ratio_levels=4)
    env = rl.UnlearnEnv(model, flat_report([2.0, 1.0]), idx, cfg)
    rng = np.random.default_rng(3)
    policy = rl.PolicyNet(idx, 4, seed=0, hidden=8)
    state = env.reset()
    action_rows, live = [], []
    while not env.done:
        act = rl.policy_sample(policy, state, rng)
        state = env.step(act).next_state
        action_rows.append({"step": env.steps, "layer": idx.layers[act.layer_rank],
                            "groups": list(act.groups), "s": act.s})
        live.append((env.steps, *aoi_summary(env.ledger)))
    assert metrics.replay_aoi(action_rows, idx, horizon=env.steps) == live
    assert metrics.replay_aoi(action_rows, idx) == live


def test_replay_rejects_short_horizon():
    with pytest.raises(metrics.MetricsError):
        metrics.replay_aoi(trace_rows(), trace_index(), horizon=2)


def test_eval_report_validation_and_json_bytes(tmp_path):
    rep = metrics.EvalReport(
        method="scale", scenario="client:3", ra=0.9, fa=0.1, fr=0.42,
        comm_ct=1234, mean_aoi_steps=1.5, mean_aoi_secs=0.375,
        wall_secs=8.0, seed=42,
    )
    rd = RunDir(tmp_path)
    rd.write_config(validate_config({}))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    rd.write_json(p1, dataclasses.asdict(rep))
    rd.write_json(p2, dataclasses.asdict(rep))
    assert p1.read_bytes() == p2.read_bytes()
    loaded = rd.read_json(p1)
    assert loaded["config_hash"] == rd.hash
    assert set(loaded) == {
        "method", "scenario", "ra", "fa", "fr", "comm_ct", "mean_aoi_steps",
        "mean_aoi_secs", "wall_secs", "seed", "config_hash",
    }
    # keys are serialized sorted, so byte identity is reproducible
    assert list(json.loads(p1.read_text())) == sorted(loaded)
    with pytest.raises(metrics.MetricsError):
        metrics.EvalReport(method="x", scenario="s", ra=1.2, fa=0.0, fr=0.0,
                           comm_ct=0, mean_aoi_steps=0, mean_aoi_secs=0,
                           wall_secs=0, seed=0)
    with pytest.raises(metrics.MetricsError):
        metrics.EvalReport(method="x", scenario="s", ra=0.5, fa=0.0, fr=0.0,
                           comm_ct=-1, mean_aoi_steps=0, mean_aoi_secs=0,
                           wall_secs=0, seed=0)
