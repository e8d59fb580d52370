"""Budget allocation arithmetic for the uniform pruner and the projected
gradient-ascent proxy."""

import numpy as np
import pytest

from scale_fu import baselines, data, nn
from scale_fu.federation import evaluate


def test_equal_split_exact_division():
    assert baselines._equal_split_with_spill(9, [10, 10, 10]) == [3, 3, 3]


def test_equal_split_remainder_to_low_index():
    assert baselines._equal_split_with_spill(10, [10, 10, 10]) == [4, 3, 3]


def test_equal_split_waterfills_over_capacity():
    # bin 0 caps at 2; its unmet share spills into the open bins
    assert baselines._equal_split_with_spill(12, [2, 10, 10]) == [2, 5, 5]
    assert baselines._equal_split_with_spill(21, [2, 9, 10]) == [2, 9, 10]


def test_equal_split_budget_beyond_capacity_is_clamped():
    assert baselines._equal_split_with_spill(100, [3, 4]) == [3, 4]


def test_uniform_zero_budget_is_identity():
    model = nn.make_model(nn.ARCH_MLP, 8, 3, seed=0, hidden=(6, 5))
    out = baselines.baseline_uniform(model, 0, groups_per_layer=4)
    assert all(np.array_equal(p, q) for p, q in zip(model.params, out.params))


def test_uniform_full_budget_zeroes_model():
    model = nn.make_model(nn.ARCH_MLP, 8, 3, seed=1, hidden=(6, 5))
    out = baselines.baseline_uniform(model, model.num_params, groups_per_layer=4)
    assert all(np.all(p == 0.0) for p in out.params)
    assert baselines.newly_zeroed(model, out) == model.num_params


def test_uniform_budget_spent_exactly_and_spread():
    model = nn.make_model(nn.ARCH_MLP, 8, 3, seed=2, hidden=(6, 5))
    G = 4
    budget = 30
    out = baselines.baseline_uniform(model, budget, groups_per_layer=G)
    assert baselines.newly_zeroed(model, out) == budget
    zeroed = [
        int(np.count_nonzero((p != 0) & (q == 0)))
        for p, q in zip(model.params, out.params)
    ]
    assert max(zeroed) - min(zeroed) <= G


def test_uniform_prunes_smallest_magnitudes_first():
    spec = nn.LayerSpec(nn.DENSE, in_dim=3, out_dim=1, activation=nn.ACT_NONE)
    model = nn.Model("vec", (3,), 2, (spec,), np.array([0.5, -0.1, 0.3, -0.2]))
    out = baselines.baseline_uniform(model, 2, groups_per_layer=1)
    assert out.params[0].tolist() == [0.5, 0.0, 0.3, 0.0]


def test_uniform_validates_budget():
    model = nn.make_model(nn.ARCH_MLP, 8, 3, seed=0, hidden=(6, 5))
    with pytest.raises(baselines.BaselineError):
        baselines.baseline_uniform(model, -1, 4)
    with pytest.raises(baselines.BaselineError):
        baselines.baseline_uniform(model, model.num_params + 1, 4)


def test_newly_zeroed_counts_transitions_only():
    spec = nn.LayerSpec(nn.DENSE, in_dim=3, out_dim=1, activation=nn.ACT_NONE)
    before = nn.Model("vec", (3,), 2, (spec,), np.array([1.0, 0.0, 2.0, 3.0]))
    after = nn.Model("vec", (3,), 2, (spec,), np.array([0.0, 0.0, 2.0, 5.0]))
    # only index 0 went nonzero -> zero; index 1 was already zero
    assert baselines.newly_zeroed(before, after) == 1


def ascent_fixture():
    ds = data.gen_synthetic(3, 8, 40, 0.1, seed=4)
    model = nn.make_model(nn.ARCH_MLP, 8, 3, seed=4, hidden=(10, 6))
    return model, ds


def test_grad_ascent_zero_steps_unchanged():
    model, ds = ascent_fixture()
    res = baselines.baseline_grad_ascent(model, ds.inputs, ds.labels, 0, 0.05)
    assert res.steps == [] and not res.halted
    assert all(np.array_equal(p, q) for p, q in zip(model.params, res.model.params))


def test_grad_ascent_raises_forget_loss():
    model, ds = ascent_fixture()
    before, _ = evaluate(model, ds.inputs, ds.labels)
    res = baselines.baseline_grad_ascent(model, ds.inputs, ds.labels, 5, 0.02)
    after, _ = evaluate(res.model, ds.inputs, ds.labels)
    assert after > before
    assert len(res.steps) == 5
    assert [s.step for s in res.steps] == [1, 2, 3, 4, 5]
    # input untouched
    m2, _ = ascent_fixture()
    assert all(np.array_equal(p, q) for p, q in zip(model.params, m2.params))


def test_grad_ascent_projection_trace():
    model, ds = ascent_fixture()
    cap = 2.0 * float(np.linalg.norm(model.flat))
    res = baselines.baseline_grad_ascent(model, ds.inputs, ds.labels, 8, 5.0)
    assert any(s.projected for s in res.steps)
    for s in res.steps:
        assert s.norm <= cap + 1e-9
    projected = [s for s in res.steps if s.projected]
    assert all(s.norm == pytest.approx(cap) for s in projected)


def test_grad_ascent_halts_on_numeric_blowup():
    model, ds = ascent_fixture()
    # a poisoned starting point goes non-finite on the first forward pass
    model.params[0][:] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        res = baselines.baseline_grad_ascent(model, ds.inputs, ds.labels, 3, 0.01)
    assert res.halted
    assert "step 1" in res.halt_reason
    assert res.steps == []


def test_grad_ascent_validation():
    model, ds = ascent_fixture()
    with pytest.raises(baselines.BaselineError):
        baselines.baseline_grad_ascent(model, ds.inputs[:0], ds.labels[:0], 3, 0.01)
    with pytest.raises(baselines.BaselineError):
        baselines.baseline_grad_ascent(model, ds.inputs, ds.labels, 3, 0.0)
