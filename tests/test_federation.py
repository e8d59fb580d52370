"""FedAvg loop tests: aggregation algebra, descent, determinism, retrain."""

import dataclasses

import numpy as np
import pytest

from scale_fu import data, federation, nn


def small_world(seed=42, n_clients=4, spread=0.15):
    ds = data.gen_synthetic(3, 8, 30, spread, seed=seed)
    part = data.dirichlet_partition(ds, n_clients, 1.0, seed=seed)
    model0 = nn.make_model("mlp", 8, 3, seed=seed, hidden=(16, 8))
    return ds, part, model0


def test_aggregate_identical_models_is_fixed_point():
    model = nn.make_model("mlp", 4, 2, seed=0, hidden=(5, 4))
    out = federation.aggregate([model.copy() for _ in range(3)], [10, 20, 30])
    for a, b in zip(out.params, model.params):
        assert np.allclose(a, b, atol=1e-15)


def test_aggregate_weighted_mean_and_bounds():
    rng = np.random.default_rng(0)
    base = nn.make_model("mlp", 4, 2, seed=0, hidden=(5, 4))
    models = []
    for _ in range(3):
        models.append(dataclasses.replace(base, flat=base.flat + rng.normal(size=base.num_params)))
    sizes = [1, 2, 7]
    out = federation.aggregate(models, sizes)
    total = sum(sizes)
    for l in range(base.num_layers):
        want = sum(s / total * m.params[l] for m, s in zip(models, sizes))
        assert np.allclose(out.params[l], want, atol=1e-12)
        stacked = np.stack([m.params[l] for m in models])
        assert np.all(out.params[l] <= stacked.max(axis=0) + 1e-12)
        assert np.all(out.params[l] >= stacked.min(axis=0) - 1e-12)


def test_aggregate_permutation_invariant_to_float_tolerance():
    rng = np.random.default_rng(1)
    base = nn.make_model("mlp", 4, 2, seed=0, hidden=(5, 4))
    models, sizes = [], []
    for i in range(5):
        models.append(dataclasses.replace(base, flat=base.flat + rng.normal(size=base.num_params)))
        sizes.append(i + 1)
    a = federation.aggregate(models, sizes)
    perm = [3, 0, 4, 1, 2]
    b = federation.aggregate([models[i] for i in perm], [sizes[i] for i in perm])
    for x, y in zip(a.params, b.params):
        assert np.allclose(x, y, rtol=1e-12, atol=1e-14)


def test_aggregate_errors():
    m = nn.make_model("mlp", 4, 2, seed=0, hidden=(5, 4))
    other = nn.make_model("mlp", 4, 2, seed=0, hidden=(6, 4))
    with pytest.raises(federation.FederationError):
        federation.aggregate([], [])
    with pytest.raises(federation.FederationError):
        federation.aggregate([m, other], [1, 1])
    with pytest.raises(federation.FederationError):
        federation.aggregate([m], [0])


def test_local_update_descends_on_convex_problem():
    """Single linear layer = convex logistic regression: loss must not rise."""
    ds = data.gen_synthetic(3, 6, 40, 0.1, seed=5)
    spec = nn.LayerSpec(nn.DENSE, in_dim=6, out_dim=3, activation=nn.ACT_NONE)
    model = nn.Model("linear", (6,), 3, (spec,), nn.init_params((spec,), seed=2))
    before, _ = federation.evaluate(model, ds.inputs, ds.labels)
    after_model = federation.local_update(
        model, ds.inputs, ds.labels, epochs=3, eta=0.05, batch_size=120, seed=0
    )
    after, _ = federation.evaluate(after_model, ds.inputs, ds.labels)
    assert after <= before


def test_local_update_deterministic_and_pure():
    ds, part, model0 = small_world()
    X, y = data.client_view(ds, part.indices[0])
    before = [p.copy() for p in model0.params]
    a = federation.local_update(model0, X, y, 2, 0.05, 16, seed=9)
    b = federation.local_update(model0, X, y, 2, 0.05, 16, seed=9)
    c = federation.local_update(model0, X, y, 2, 0.05, 16, seed=10)
    for p, q in zip(a.params, b.params):
        assert np.array_equal(p, q)
    assert any(not np.array_equal(p, q) for p, q in zip(a.params, c.params))
    for p, q in zip(model0.params, before):
        assert np.array_equal(p, q)


def test_run_rounds_trains_and_logs():
    ds, part, model0 = small_world()
    cfg = federation.FedConfig(
        n_clients=4, rounds=15, local_epochs=2, eta=0.2, clients_per_round=4, seed=42
    )
    model, history, logs = federation.run_rounds(cfg, part, ds, model0)
    assert len(logs) == 15
    assert logs[-1].accuracy > 0.9
    assert history.clients() == [0, 1, 2, 3]
    for n in history.clients():
        assert history.sizes[n] == part.indices[n].size
        assert 1 <= history.last_round[n] <= 15
        assert history.uploads[n].shape == (model.num_params,)


def test_run_rounds_bit_identical_reruns():
    ds, part, model0 = small_world()
    cfg = federation.FedConfig(
        n_clients=4, rounds=5, local_epochs=1, eta=0.05, clients_per_round=2, seed=7
    )
    m1, h1, l1 = federation.run_rounds(cfg, part, ds, model0)
    m2, h2, l2 = federation.run_rounds(cfg, part, ds, model0)
    for a, b in zip(m1.params, m2.params):
        assert np.array_equal(a, b)
    assert [r.participants for r in l1] == [r.participants for r in l2]
    assert [r.loss for r in l1] == [r.loss for r in l2]
    for n in h1.clients():
        assert np.array_equal(h1.uploads[n], h2.uploads[n])


def test_run_rounds_zero_rounds():
    ds, part, model0 = small_world()
    cfg = federation.FedConfig(
        n_clients=4, rounds=0, local_epochs=1, eta=0.05, clients_per_round=2, seed=0
    )
    model, history, logs = federation.run_rounds(cfg, part, ds, model0)
    assert logs == [] and history.clients() == []
    for a, b in zip(model.params, model0.params):
        assert np.array_equal(a, b)


def test_run_rounds_partial_participation():
    ds, part, model0 = small_world()
    cfg = federation.FedConfig(
        n_clients=4, rounds=6, local_epochs=1, eta=0.05, clients_per_round=2, seed=3
    )
    _, history, logs = federation.run_rounds(cfg, part, ds, model0)
    seen = set()
    for log in logs:
        assert len(log.participants) == 2
        assert log.participants == sorted(log.participants)
        seen.update(log.participants)
    assert set(history.clients()) == seen


def test_retrain_excludes_forgotten_client():
    ds, part, model0 = small_world()
    cfg = federation.FedConfig(
        n_clients=4, rounds=15, local_epochs=2, eta=0.2, clients_per_round=4, seed=42
    )
    req = data.UnlearnRequest(granularity="client", clients=(2,))
    split = data.build_split(ds, part, req)
    model, logs = federation.retrain_baseline(cfg, part, ds, split, model0)
    for log in logs:
        assert 2 not in log.participants
        assert len(log.participants) == 3  # pool shrank below clients_per_round
    _, acc = federation.evaluate(model, ds.inputs[split.remain], ds.labels[split.remain])
    assert acc > 0.85


def test_retrain_empty_request_equals_full_training():
    """Retrain with nothing forgotten must reproduce training bit-for-bit."""
    ds, part, model0 = small_world()
    cfg = federation.FedConfig(
        n_clients=4, rounds=4, local_epochs=1, eta=0.05, clients_per_round=4, seed=1
    )
    full, _, _ = federation.run_rounds(cfg, part, ds, model0)
    split = data.ForgetSplit(
        forget=np.zeros(0, dtype=np.int64),
        remain=np.arange(ds.size),
        remain_per_client=[ix.copy() for ix in part.indices],
        forget_per_client=[np.zeros(0, dtype=np.int64) for _ in range(4)],
    )
    re, _ = federation.retrain_baseline(cfg, part, ds, split, model0)
    for a, b in zip(full.params, re.params):
        assert np.array_equal(a, b)


def test_retrain_class_forgotten_everywhere_cannot_predict_it():
    """Class unlearning across every client: retrain FA on that class ~ chance."""
    ds = data.gen_synthetic(4, 8, 40, 0.1, seed=6)
    part = data.dirichlet_partition(ds, 4, 1.0, seed=6)
    model0 = nn.make_model("mlp", 8, 4, seed=6, hidden=(16, 8))
    cfg = federation.FedConfig(
        n_clients=4, rounds=12, local_epochs=2, eta=0.05, clients_per_round=4, seed=6
    )
    req = data.UnlearnRequest(
        granularity="class", clients=(0, 1, 2, 3), class_set=(1,)
    )
    split = data.build_split(ds, part, req)
    model, _ = federation.retrain_baseline(cfg, part, ds, split, model0)
    X_u, y_u = ds.inputs[split.forget], ds.labels[split.forget]
    _, fa = federation.evaluate(model, X_u, y_u)
    assert fa <= 1 / 4 + 0.1
