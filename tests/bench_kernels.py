"""Microbenchmarks of the PPO hot-path kernels on the default ref-mlp index.

    PYTHONPATH=src python -m pytest tests/bench_kernels.py -m bench

Marked `bench` and deselected by default (pyproject `addopts`), so tier-1
never times anything.
"""

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
