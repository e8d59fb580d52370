"""Microbenchmarks of the PPO hot-path kernels on the default ref-mlp index,
and of the dense and conv2d layer kernels on cnn-fed's mini_cnn shapes.

    PYTHONPATH=src python -m pytest tests/bench_kernels.py -m bench

Marked `bench` and deselected by default (pyproject `addopts`), so tier-1
never times anything.
"""

import functools

import numpy as np
import pytest

from scale_fu import aoi, nn, rl
from scale_fu.config import validate_config

pytestmark = pytest.mark.bench

CFG = validate_config({})


@pytest.fixture(scope="module")
def setup():
    ds, sc = CFG["dataset"], CFG["scale"]
    model = nn.make_model("mlp", ds["dim"], ds["classes"], seed=0,
                          hidden=tuple(CFG["model"]["hidden"]))
    # m_sel = ceil(3 / 3) = 1: the default run keeps layer 1 (2080 parameters)
    idx = aoi.partition_groups(model, [1], sc["groups_per_layer"])
    ledger = aoi.AoiLedger(idx)
    for j in range(idx.n_groups(1)):
        ledger.advance()
        ledger.touch([(1, j)])
    model = rl.sparsify(model, idx, 1, range(0, idx.n_groups(1), 2), 0.5)
    return model, idx, ledger


def test_bench_state_vector(benchmark, setup):
    model, idx, ledger = setup
    benchmark(aoi.state_vector, model, ledger, idx)


def test_bench_min_group_sparsity(benchmark, setup):
    model, idx, _ = setup
    benchmark(rl.min_group_sparsity, model, idx)


def test_bench_sparsify(benchmark, setup):
    model, idx, _ = setup
    benchmark(rl.sparsify, model, idx, 1, (0, 3, 5), 0.3)


def test_bench_adam_step(benchmark, setup):
    _, idx, _ = setup
    ppo = rl.PpoConfig()
    layout = rl.PolicyLayout.from_index(idx, ppo.ratio_levels)
    policy = rl.PolicyNet(layout, seed=0, hidden=ppo.hidden)
    opt = rl.Adam(policy.flat, ppo.actor_lr)
    grad = np.random.default_rng(0).standard_normal(policy.flat.size) * 1e-3
    benchmark(opt.step, policy.flat, grad)


# --- NN layer kinds on cnn-fed's mini_cnn: 8x8 inputs, 4 classes ---------------

CNN_CFG = validate_config({"model": {"arch": "mini_cnn"},
                           "dataset": {"dim": 64, "per_class": 150}})
TRAIN_B = CNN_CFG["federation"]["batch_size"]
# `evaluate` runs the forward pass over the whole 600-sample dataset
EVAL_B = CNN_CFG["dataset"]["classes"] * CNN_CFG["dataset"]["per_class"]


def cnn_model():
    ds = CNN_CFG["dataset"]
    return nn.make_model("mini_cnn", ds["dim"], ds["classes"], seed=0)


def cnn_batch(batch_size):
    rng = np.random.default_rng(0)
    ds = CNN_CFG["dataset"]
    return nn.Batch(rng.standard_normal((batch_size, ds["dim"])),
                    rng.integers(0, ds["classes"], batch_size))


@functools.cache
def cnn_layers(batch_size):
    """mini_cnn's weighted layers in order: (W, b, layer input, upstream
    gradient, cached patch matrix or None)."""
    model = cnn_model()
    _, caches = nn._forward(model, cnn_batch(batch_size).inputs)
    rng = np.random.default_rng(1)
    out = []
    for spec, vec, (a, z, P) in zip(model.layers, model.params, caches):
        split = {nn.DENSE: nn._split_dense, nn.CONV2D: nn._split_conv}.get(spec.kind)
        if split:
            out.append((*split(spec, vec), a, rng.standard_normal(z.shape), P))
    return out


@pytest.mark.parametrize("batch_size", [TRAIN_B, EVAL_B])
@pytest.mark.parametrize("layer", [0, 1])
def test_bench_conv2d_forward(benchmark, layer, batch_size):
    W, b, a, _, _ = cnn_layers(batch_size)[layer]
    benchmark(nn._conv_forward, a, W, b)


@pytest.mark.parametrize("layer", [0, 1])
def test_bench_conv2d_backward(benchmark, layer):
    # as loss_and_grads calls it: cached patches, no input gradient for layer 0
    W, _, a, dz, P = cnn_layers(TRAIN_B)[layer]
    benchmark(nn._conv_backward, a, W, dz, P, input_grad=layer > 0)


@pytest.mark.parametrize("batch_size", [TRAIN_B, EVAL_B])
def test_bench_dense_forward(benchmark, batch_size):
    W, b, a, _, _ = cnn_layers(batch_size)[2]
    benchmark(nn._dense_forward, a, W, b)


def test_bench_dense_backward(benchmark):
    W, _, a, dz, _ = cnn_layers(TRAIN_B)[2]
    benchmark(nn._dense_backward, a, W, dz)


def test_bench_mini_cnn_loss_and_grads(benchmark):
    benchmark(nn.loss_and_grads, cnn_model(), cnn_batch(TRAIN_B))


def test_bench_mini_cnn_forward(benchmark):
    benchmark(nn.forward, cnn_model(), cnn_batch(EVAL_B))
