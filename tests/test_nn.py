"""Core net tests: independent forward oracle, finite-difference gradients,
closed-form loss values, checkpoint round-trips, the flat parameter layout."""

import dataclasses
import math
import re

import numpy as np
import pytest

from scale_fu import federation, nn


def hand_forward_mlp(model, X):
    """Independent forward pass: per-sample python loops, no shared code."""
    outs = []
    for row in X:
        a = row.copy()
        for spec, vec in zip(model.layers, model.params):
            W = vec[: spec.in_dim * spec.out_dim].reshape(spec.out_dim, spec.in_dim)
            b = vec[spec.in_dim * spec.out_dim :]
            z = np.array([float(W[o] @ a) + b[o] for o in range(spec.out_dim)])
            a = np.maximum(z, 0.0) if spec.activation == nn.ACT_RELU else z
        outs.append(a)
    return np.array(outs)


def fd_grads(model, batch, eps=1e-4):
    """Central finite differences over every coordinate, laid out like
    `model.flat`; each loss is taken on a perturbed copy of the model."""
    g = np.zeros_like(model.flat)
    pert = model.copy()
    for i in range(g.size):
        for sign in (+1, -1):
            pert.flat[i] = model.flat[i] + sign * eps
            loss, _ = nn.loss_and_grads(pert, batch)
            g[i] += sign * loss
        pert.flat[i] = model.flat[i]
        g[i] /= 2 * eps
    return g


def rel_err(a, b):
    """Max relative error with unit floor, so tiny-gradient noise cannot blow up."""
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def small_batch(rng, dim, classes, n=6):
    return nn.Batch(rng.normal(size=(n, dim)), rng.integers(0, classes, size=n))


def test_forward_matches_hand_rolled_oracle():
    rng = np.random.default_rng(7)
    model = nn.make_model("mlp", 5, 3, seed=11, hidden=(8, 6))
    batch = small_batch(rng, 5, 3)
    got = nn.forward(model, batch)
    want = hand_forward_mlp(model, batch.inputs)
    assert np.max(np.abs(got - want)) < 1e-6


def test_zero_weight_model_loss_is_log_c():
    for classes in (2, 4, 10):
        model = nn.make_model("mlp", 6, classes, seed=0, hidden=(8, 6))
        for l in range(model.num_layers):
            model.params[l][:] = 0.0
        rng = np.random.default_rng(3)
        batch = small_batch(rng, 6, classes)
        loss, _ = nn.loss_and_grads(model, batch)
        assert abs(loss - math.log(classes)) < 1e-9


def test_gradcheck_mlp_many_draws():
    worst = 0.0
    for seed in range(12):
        rng = np.random.default_rng(1000 + seed)
        model = nn.make_model("mlp", 4, 3, seed=seed, hidden=(6, 5))
        batch = small_batch(rng, 4, 3, n=5)
        _, analytic = nn.loss_and_grads(model, batch)
        numeric = fd_grads(model, batch)
        worst = max(worst, rel_err(analytic, numeric))
    assert worst < 1e-5


def test_gradcheck_mini_cnn():
    rng = np.random.default_rng(42)
    model = nn.make_model("mini_cnn", 25, 3, seed=1)
    batch = small_batch(rng, 25, 3, n=4)
    _, analytic = nn.loss_and_grads(model, batch)
    numeric = fd_grads(model, batch)
    assert rel_err(analytic, numeric) < 1e-5


def test_duplicated_batch_same_loss_and_grads():
    rng = np.random.default_rng(5)
    model = nn.make_model("mlp", 6, 4, seed=2, hidden=(8, 6))
    batch = small_batch(rng, 6, 4)
    doubled = nn.Batch(
        np.vstack([batch.inputs, batch.inputs]),
        np.concatenate([batch.labels, batch.labels]),
    )
    l1, g1 = nn.loss_and_grads(model, batch)
    l2, g2 = nn.loss_and_grads(model, doubled)
    assert abs(l1 - l2) < 1e-12
    assert np.allclose(g1, g2, atol=1e-12)


def test_sgd_two_steps_sequential_semantics():
    """Two steps recompute grads between them; a summed single step differs."""
    rng = np.random.default_rng(9)
    model = nn.make_model("mlp", 6, 3, seed=4, hidden=(8, 6))
    batch = small_batch(rng, 6, 3)
    eta = 0.5

    _, g1 = nn.loss_and_grads(model, batch)
    m1 = nn.sgd_step(model, g1, eta)
    _, g2 = nn.loss_and_grads(m1, batch)
    m2 = nn.sgd_step(m1, g2, eta)

    # independent trace: same arithmetic done directly on copies
    assert np.allclose(m2.flat, model.flat - eta * g1 - eta * g2, atol=1e-15)

    summed = nn.sgd_step(model, g1 + g1, eta)
    assert not np.allclose(summed.flat, m2.flat)


def test_sgd_step_is_pure():
    model = nn.make_model("mlp", 4, 2, seed=0, hidden=(5, 4))
    before = model.flat.copy()
    _, g = nn.loss_and_grads(model, small_batch(np.random.default_rng(0), 4, 2))
    nn.sgd_step(model, g, 0.1)
    assert np.array_equal(model.flat, before)


def test_shape_errors():
    model = nn.make_model("mlp", 4, 2, seed=0, hidden=(5, 4))
    with pytest.raises(nn.ShapeError):
        nn.forward(model, nn.Batch(np.zeros((2, 7)), np.zeros(2, dtype=int)))
    with pytest.raises(nn.ShapeError):
        nn.loss_and_grads(model, nn.Batch(np.zeros((2, 4)), np.array([0, 5])))
    with pytest.raises(nn.ShapeError):
        nn.Batch(np.zeros((2, 4)), np.zeros(3, dtype=int))
    with pytest.raises(nn.ShapeError):
        nn.make_model("mini_cnn", 24, 3, seed=0)  # not square
    with pytest.raises(nn.ShapeError):
        nn.make_model("mini_cnn", 16, 3, seed=0)  # too small for two convs


def test_non_finite_raises_with_layer_index():
    model = nn.make_model("mlp", 4, 2, seed=0, hidden=(5, 4))
    model.params[1][0] = np.inf
    batch = small_batch(np.random.default_rng(0), 4, 2)
    with np.errstate(invalid="ignore"):
        with pytest.raises(nn.NumericError, match="layer 1"):
            nn.forward(model, batch)


def test_init_bounds_and_determinism():
    a, b = nn.make_model("mlp", 16, 4, seed=42), nn.make_model("mlp", 16, 4, seed=42)
    for p, q in zip(a.params, b.params):
        assert np.array_equal(p, q)
    c = nn.make_model("mlp", 16, 4, seed=43)
    assert any(not np.array_equal(p, q) for p, q in zip(a.params, c.params))
    for spec, p in zip(a.layers, a.params):
        fan_in, fan_out = spec.fans
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(p) <= bound)


def test_checkpoint_roundtrip(tmp_path):
    for arch, dim in (("mlp", 16), ("mini_cnn", 25)):
        model = nn.make_model(arch, dim, 4, seed=5)
        path = tmp_path / f"{arch}.model"
        nn.save_model(model, path)
        # the architecture comes from `like`, every parameter from the file
        like = nn.make_model(arch, dim, 4, seed=6)
        back = nn.load_model(path, like)
        assert back.arch_id == model.arch_id
        assert back.layers == model.layers
        for p, q in zip(back.params, model.params):
            assert np.array_equal(p, q)
        assert any(not np.array_equal(p, r) for p, r in zip(back.params, like.params))
    # a blob cut by a whole value or mid-value is rejected, naming the file
    path = tmp_path / "mlp.model"
    blob = path.read_bytes()
    for cut in (8, 3):
        path.write_bytes(blob[:-cut])
        with pytest.raises(nn.ShapeError, match=re.escape(str(path))):
            nn.load_model(path, nn.make_model("mlp", 16, 4, seed=5))


def test_mini_cnn_forward_shapes():
    model = nn.make_model("mini_cnn", 36, 5, seed=3)
    batch = small_batch(np.random.default_rng(1), 36, 5, n=3)
    logits = nn.forward(model, batch)
    assert logits.shape == (3, 5)


def assert_views_of_flat(model):
    """Every layer vector is the view of `model.flat` at its offset (numpy
    puts an empty slice, the flatten layer's, at the start of its base)."""
    flat = model.flat
    assert flat.dtype == np.float64 and flat.flags.c_contiguous
    offset = 0
    for p, d in zip(model.params, model.layer_dims(), strict=True):
        assert p.base is flat and p.shape == (d,)
        assert p.ctypes.data == flat.ctypes.data + 8 * (offset if d else 0)
        offset += d
    assert offset == flat.size


@pytest.mark.parametrize("arch,dim", [("mlp", 16), ("mini_cnn", 25)])
def test_params_are_views_of_one_flat_vector(tmp_path, arch, dim):
    model = nn.make_model(arch, dim, 4, seed=5)
    assert (0 in model.layer_dims()) == (arch == "mini_cnn")   # the flatten layer
    path = tmp_path / "m.model"
    nn.save_model(model, path)
    assert path.read_bytes() == model.flat.astype("<f8").tobytes()
    copy = model.copy()
    built = [model, copy, nn.load_model(path, model),
             federation.aggregate([model, copy], [1, 3]),
             dataclasses.replace(model, flat=np.arange(model.num_params, dtype=np.float64))]
    for m in built:
        assert_views_of_flat(m)
    # a copy shares no memory with its source, and holds what the
    # constructor builds from a copy of flat
    assert not np.shares_memory(copy.flat, model.flat)
    rebuilt = nn.Model(model.arch_id, model.input_shape, model.num_classes, model.layers,
                       model.flat.copy())
    assert vars(copy).keys() == vars(rebuilt).keys()
    for name in ("arch_id", "input_shape", "num_classes", "layers"):
        assert getattr(copy, name) == getattr(rebuilt, name)
    assert copy.flat.tobytes() == rebuilt.flat.tobytes()
    assert type(copy.params) is type(rebuilt.params) is nn.LayerViews
    assert [p.shape for p in copy.params] == [p.shape for p in rebuilt.params]
    with pytest.raises(AttributeError):
        copy.flat = rebuilt.flat
    # a write through a view shows in flat, and only in this model
    last = model.num_params - model.layer_dims()[-1]
    model.params[-1][0] = 7.5
    assert model.flat[last] == 7.5 and copy.flat[last] != 7.5
    model.flat[0] = -1.5
    assert model.params[0][0] == -1.5
    # the views and flat are bound once; an in-place update keeps them
    model.flat *= 2.0
    assert_views_of_flat(model)
    with pytest.raises(TypeError):
        model.params[0] = np.zeros(model.layer_dims()[0])
    with pytest.raises(AttributeError):
        model.params = copy.params
    with pytest.raises(AttributeError):
        model.flat = copy.flat
    with pytest.raises(nn.ShapeError):
        dataclasses.replace(model, flat=np.zeros(model.num_params + 1))


def test_in_place_layer_update_through_params():
    # `params[l] *= s` scales layer l in place and completes; assigning a new
    # array to `params[l]` raises before anything changes
    model = nn.make_model("mlp", 16, 4, seed=0)
    before = model.flat.copy()
    d0 = model.layer_dims()[0]
    model.params[0] *= 2.0
    want = np.concatenate([2.0 * before[:d0], before[d0:]])
    assert model.flat.tobytes() == want.tobytes()
    assert_views_of_flat(model)
    with pytest.raises(TypeError):
        model.params[0] = np.zeros(d0)
    assert model.flat.tobytes() == want.tobytes()
