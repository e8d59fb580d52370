"""AoI ledger tests: grouping shapes, age arithmetic, state vectors."""

import numpy as np
import pytest

from scale_fu import aoi, nn


def test_balanced_ranges_frozen_examples():
    assert aoi.balanced_ranges(10, 4) == ((0, 3), (3, 6), (6, 8), (8, 10))
    assert aoi.balanced_ranges(3, 8) == ((0, 1), (1, 2), (2, 3))  # d < G: singletons
    assert aoi.balanced_ranges(8, 2) == ((0, 4), (4, 8))
    assert aoi.balanced_ranges(1, 1) == ((0, 1),)
    with pytest.raises(aoi.AoiError):
        aoi.balanced_ranges(0, 4)


def test_balanced_ranges_partition_property():
    for d in range(1, 40):
        for g in range(1, 12):
            rs = aoi.balanced_ranges(d, g)
            assert rs[0][0] == 0 and rs[-1][1] == d
            sizes = [e - s for s, e in rs]
            assert sum(sizes) == d
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)  # larger groups first
            assert all(a[1] == b[0] for a, b in zip(rs, rs[1:]))


def fixture_model():
    return nn.make_model("mlp", 6, 3, seed=0, hidden=(8, 5))


def test_partition_groups_and_index():
    model = fixture_model()
    idx = aoi.partition_groups(model, [2, 0], groups_per_layer=4)
    assert idx.layers == (2, 0)  # preserves sensitivity order
    assert idx.n_groups(2) == 4 and idx.n_groups(0) == 4
    assert idx.total_groups == 8
    assert idx.keys()[0] == (2, 0) and idx.keys()[4] == (0, 0)
    d2 = model.layers[2].d
    assert sum(idx.group_size(2, j) for j in range(4)) == d2
    with pytest.raises(aoi.AoiError):
        aoi.partition_groups(model, [], 4)
    with pytest.raises(aoi.AoiError):
        aoi.partition_groups(model, [99], 4)


def test_partition_groups_skips_virtual_layers():
    model = nn.make_model("mini_cnn", 25, 3, seed=0)
    # layer 2 is flatten with d=0
    idx = aoi.partition_groups(model, [2, 3], groups_per_layer=2)
    assert idx.layers == (3,)
    with pytest.raises(aoi.AoiError):
        aoi.partition_groups(model, [2], groups_per_layer=2)


def test_ledger_age_arithmetic():
    model = fixture_model()
    idx = aoi.partition_groups(model, [0, 1], groups_per_layer=2)
    led = aoi.AoiLedger(idx)
    assert led.ages().tolist() == [0.0, 0.0, 0.0, 0.0]
    led.advance()
    led.touch([(0, 0)])
    assert led.age(0, 0) == 0
    assert led.age(0, 1) == 1 and led.age(1, 0) == 1
    led.advance()
    led.advance()
    assert led.age(0, 0) == 2 and led.age(0, 1) == 3
    led.touch([(0, 1), (1, 1)])
    assert led.age(0, 1) == 0 and led.age(1, 1) == 0
    assert led.max_age() == 3.0
    with pytest.raises(aoi.AoiError):
        led.touch([(9, 9)])
    with pytest.raises(aoi.AoiError):
        led.age(0, 7)


def test_ledger_round_robin_keeps_ages_bounded():
    model = fixture_model()
    idx = aoi.partition_groups(model, [0, 1, 2], groups_per_layer=2)
    led = aoi.AoiLedger(idx)
    keys = idx.keys()
    for step in range(50):
        led.advance()
        led.touch([keys[step % len(keys)]])
        assert led.max_age() <= len(keys)


def test_group_stats_frozen_values():
    model = fixture_model()
    idx = aoi.partition_groups(model, [0], groups_per_layer=2)
    model.params[0][:2] = [1.0, 3.0]
    sub_idx = aoi.GroupIndex(layers=(0,), ranges=(((0, 2), (2, model.layers[0].d)),))
    mu, sd = aoi.group_stats(model, sub_idx, 0, 0)
    assert (mu, sd) == (2.0, 1.0)

    model.params[0][:] = 0.0
    model.params[0][:4] = [0.5, -0.1, 0.3, -0.2]
    sub4 = aoi.GroupIndex(layers=(0,), ranges=(((0, 4), (4, model.layers[0].d)),))
    mu, sd = aoi.group_stats(model, sub4, 0, 0)
    assert mu == pytest.approx(0.125, abs=1e-12)
    assert sd == pytest.approx(0.2861, abs=1e-4)


def test_state_vector_layout_and_normalization():
    model = fixture_model()
    idx = aoi.partition_groups(model, [1, 0], groups_per_layer=2)
    led = aoi.AoiLedger(idx)
    sv0 = aoi.state_vector(model, led, idx)
    assert sv0.shape == (3 * 4,)
    assert np.all(sv0[0::3] == 0.0)  # all ages zero -> A_norm zero (max(1,.) floor)
    led.advance()
    led.advance()
    led.touch([(1, 0)])
    sv = aoi.state_vector(model, led, idx)
    assert sv[0] == 0.0            # (1,0) just touched
    assert sv[3] == 1.0            # (1,1) age 2 / max 2
    assert sv[6] == 1.0 and sv[9] == 1.0
    mu, sd = aoi.group_stats(model, idx, 1, 0)
    assert sv[1] == mu and sv[2] == sd
    assert np.all((sv[0::3] >= 0) & (sv[0::3] <= 1))


def test_global_aoi_is_mean_age():
    model = fixture_model()
    idx = aoi.partition_groups(model, [0, 1], groups_per_layer=1)
    led = aoi.AoiLedger(idx)
    for _ in range(8):
        led.advance()
    led.touch([(0, 0)])
    # ages now {0, 8}: mean 4 over the tracked groups
    s, m, mx = aoi.aoi_summary(led)
    assert (s, m, mx) == (8.0, 4.0, 8.0)

