"""Microbenchmarks of the PPO hot-path kernels on the default ref-mlp index
(among them one env step, one policy sample, one PPO update and its
minibatch's forward, backward and optimizer parts, and one whole
`train_unlearner` with its collect/update split), of the
dense and conv2d layer kernels on cnn-fed's mini_cnn shapes (one client's
stack), of one ref-mlp and one cnn-fed client's FedAvg local update, of
one lockstep FedAvg round of each workload's clients, and of the stacked
call of one ref-mlp tick whose clients' minibatch sizes differ.

    PYTHONPATH=src python -m pytest tests/bench_kernels.py -m bench

Marked `bench` and deselected by default (pyproject `addopts`), so tier-1
never times anything.
"""

import dataclasses
import functools
import time

import numpy as np
import pytest

from scale_fu import aoi, cli, data, federation, nn, pipeline, rl, sensitivity
from scale_fu.config import TAG_PPO, component_seed, fed_config, ppo_config, validate_config
from scale_fu.sensitivity import SensitivityReport

pytestmark = pytest.mark.bench


@pytest.fixture(scope="module", autouse=True)
def kept_heap():
    # the heap policy `scale` runs under
    cli.keep_freed_heap()

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
    policy = rl.PolicyNet(idx, ppo.ratio_levels, seed=0, hidden=ppo.hidden)
    opt = rl.Adam(policy.flat, ppo.actor_lr)
    grad = np.random.default_rng(0).standard_normal(policy.flat.size) * 1e-3
    benchmark(opt.step, policy.flat, grad)


# --- the PPO loop on the default config: env step, sampler, update ------------


@pytest.fixture(scope="module")
def loop(setup):
    """An env over the sparsified default model, fresh nets, a fixed action
    list and a fixed buffer of two sampled episodes."""
    model, idx, _ = setup
    cfg = ppo_config(CFG)
    scores = np.arange(1.0, model.num_layers + 1.0)
    zeros = np.zeros(model.num_layers)
    report = SensitivityReport(client=0, lam=0.5, rho=zeros, s_align=zeros, s_impact=zeros,
                               s_combined=scores, selected=[1], m_sel=1)
    env = rl.UnlearnEnv(model, report, idx, cfg)

    def nets():
        policy = rl.PolicyNet(idx, cfg.ratio_levels, seed=0, hidden=cfg.hidden)
        return policy, rl.ValueNet(3 * idx.total_groups, seed=1, hidden=cfg.hidden)

    rng = np.random.default_rng(0)
    policy, _ = nets()
    actions, buffer = [], []
    for _ in range(2):
        state = env.reset()
        while not env.done:
            action = rl.policy_sample(policy, state, rng)
            tr = env.step(action)
            actions.append(action)
            buffer.append(tr)
            state = tr.next_state
    return env, cfg, nets, actions[: cfg.t_collect], buffer


def test_bench_env_step(benchmark, loop):
    # the 17th step of a fixed episode, after a reset and 16 steps untimed
    env, _, _, actions, _ = loop

    def sixteen_steps():
        env.reset()
        for action in actions[:16]:
            env.step(action)

    benchmark.pedantic(env.step, args=(actions[16],), setup=sixteen_steps, rounds=300)


def test_bench_policy_sample(benchmark, loop):
    _, _, nets, _, buffer = loop
    policy, _ = nets()
    rng = np.random.default_rng(1)
    benchmark(rl.policy_sample, policy, buffer[5].state, rng)


def test_bench_ppo_update(benchmark, loop):
    # one update over the fixed buffer, with fresh nets and optimizers each round
    _, cfg, nets, _, buffer = loop

    def fresh():
        policy, value_net = nets()
        opts = rl.Adam(policy.flat, cfg.actor_lr), rl.Adam(value_net.flat, cfg.critic_lr)
        return (policy, value_net, list(buffer), cfg, np.random.default_rng(2), *opts), {}

    benchmark.pedantic(rl.ppo_update, setup=fresh, rounds=40)


@pytest.fixture(scope="module")
def scale_inputs():
    """What `unlearn scale` trains on for master 42 of the default config
    with request client:3: the FedAvg model, client 3's sensitivity report,
    the group index of its selected layers and the PPO seed."""
    cfg = validate_config({"seeds": {"master": 42}})
    _, model, history, _ = pipeline.train(cfg)
    sc = cfg["scale"]
    report = sensitivity.analyze(history, model.params, 3, lam=sc["lam"], m_sel=sc["m_sel"],
                                 scheme=sc["dist_scheme"])
    idx = pipeline.scale_groups(cfg, model, report.selected)
    return model, report, idx, ppo_config(cfg), component_seed(42, TAG_PPO)


def test_bench_train_unlearner(benchmark, scale_inputs, monkeypatch):
    # a whole PPO training; extra_info holds the fastest round's split into
    # update (time inside ppo_update) and collect (the rest)
    model, report, idx, cfg, seed = scale_inputs
    update, inside, splits = rl.ppo_update, [], []

    def timed_update(*args):
        start = time.perf_counter()
        try:
            return update(*args)
        finally:
            inside.append(time.perf_counter() - start)

    def train():
        inside.clear()
        start = time.perf_counter()
        rl.train_unlearner(model, report, idx, cfg, seed)
        total = time.perf_counter() - start
        splits.append((total, sum(inside)))

    monkeypatch.setattr(rl, "ppo_update", timed_update)
    benchmark.pedantic(train, rounds=5)
    total, update_s = min(splits)
    benchmark.extra_info.update(update_s=update_s, collect_s=total - update_s)


# --- the three parts of one PPO minibatch: forward, backward, optimizer -------


@pytest.fixture(scope="module")
def minibatch(loop):
    """A fresh policy, one batch_size slice of the fixed buffer as states and
    action arrays, and a head gradient of that batch's shape."""
    _, cfg, nets, _, buffer = loop
    policy, _ = nets()
    part = buffer[: cfg.batch_size]
    states = np.stack([tr.state for tr in part])
    arrays = rl.action_arrays(policy.idx, [tr.action for tr in part])
    dZ = np.random.default_rng(3).standard_normal((len(part), policy.params["b_heads"].size))
    return cfg, policy, states, arrays, dZ


def test_bench_batch_log_probs(benchmark, minibatch):
    _, policy, states, arrays, _ = minibatch
    benchmark(rl.batch_log_probs, policy, states, arrays)


def test_bench_old_log_probs(benchmark, loop):
    # the old log-probs `ppo_update` takes once per update: the whole fixed
    # buffer, over its (n, 1, S) stack of states
    _, _, nets, _, buffer = loop
    policy, _ = nets()
    states = np.stack([tr.state for tr in buffer])[:, None, :]
    arrays = rl.action_arrays(policy.idx, [tr.action for tr in buffer])
    benchmark(rl.batch_log_probs, policy, states, arrays)


def test_bench_policy_backward(benchmark, minibatch):
    _, policy, states, _, dZ = minibatch
    _, _, _, cache = policy.logits(states)
    benchmark(policy.backward, *cache, dZ)


def test_bench_clip_and_adam_step(benchmark, minibatch):
    cfg, policy, states, _, dZ = minibatch
    grad = policy.backward(*policy.logits(states)[3], dZ).copy()
    opt = rl.Adam(policy.flat.copy(), cfg.actor_lr)
    params = policy.flat.copy()

    def clip_and_step():
        g = grad.copy()
        rl.clip_grad_norm(g, cfg.grad_clip)
        opt.step(params, g)

    benchmark(clip_and_step)


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
    """mini_cnn's weighted layers in order, for one client: (W, b, layer
    input rows, upstream gradient rows, cached patch matrix or None), the
    parameters as one-client stacks."""
    model = cnn_model()
    logits, caches = nn._forward(model, [vec[None] for vec in model.params],
                                 cnn_batch(batch_size).inputs, nn._Layout([batch_size]),
                                 keep=True)
    # each layer's output is the next layer's input; the last one's, the logits
    outputs = [a for a, _, _ in caches[1:]] + [logits]
    rng = np.random.default_rng(1)
    out = []
    for spec, vec, (a, Ps, _), z in zip(model.layers, model.params, caches, outputs):
        split = {nn.DENSE: nn._split_dense, nn.CONV2D: nn._split_conv}.get(spec.kind)
        if split:
            out.append((*split(spec, vec[None]), a, rng.standard_normal(z.shape),
                        Ps and Ps[0]))
    return out


@pytest.mark.parametrize("batch_size", [TRAIN_B, EVAL_B])
@pytest.mark.parametrize("layer", [0, 1])
def test_bench_conv2d_forward(benchmark, layer, batch_size):
    W, b, a, _, _ = cnn_layers(batch_size)[layer]
    benchmark(nn._conv_forward, a[None], W, b)


@pytest.mark.parametrize("layer", [0, 1])
def test_bench_conv2d_backward(benchmark, layer):
    # as loss_and_grads calls it: cached patches, no input gradient for layer 0
    W, _, a, dz, P = cnn_layers(TRAIN_B)[layer]
    benchmark(nn._conv_backward, a[None], W, dz[None], P, input_grad=layer > 0)


@pytest.mark.parametrize("batch_size", [TRAIN_B, EVAL_B])
def test_bench_dense_forward(benchmark, batch_size):
    W, b, a, _, _ = cnn_layers(batch_size)[2]
    benchmark(nn._dense_forward, a, W, b, nn._Layout([batch_size]))


def test_bench_dense_backward(benchmark):
    # as loss_and_grads calls it on one client: (1, B, ...) views of its
    # rows, and dW, db and the input gradient written into views
    W, _, a, dz, _ = cnn_layers(TRAIN_B)[2]
    spec = cnn_model().layers[-1]
    gW, gb = nn._split_dense(spec, np.empty((1, spec.d)))
    benchmark(nn._dense_backward, a[None], W, dz[None], out=(gW, gb, np.empty((1, *a.shape))))


def test_bench_mini_cnn_loss_and_grads(benchmark):
    benchmark(nn.loss_and_grads, cnn_model(), cnn_batch(TRAIN_B))


def test_bench_mini_cnn_forward(benchmark):
    benchmark(nn.forward, cnn_model(), cnn_batch(EVAL_B))


def test_bench_mlp_local_update(benchmark):
    # client 3 of ref-mlp's partition (51 samples, near the median client):
    # two local epochs of minibatches of 32 and 19
    ds = pipeline.build_dataset(CFG)
    X, y = data.client_view(ds, pipeline.build_partition(CFG, ds).indices[3])
    fed = fed_config(CFG)
    benchmark(federation.local_update, pipeline.build_model0(CFG, ds), X, y, 2, fed.eta,
              fed.batch_size, seed=0)


def test_bench_mini_cnn_local_update(benchmark):
    # client 5 of cnn-fed's partition (75 samples, near the median client):
    # two local epochs of minibatches of 32, 32 and 11
    ds = pipeline.build_dataset(CNN_CFG)
    X, y = data.client_view(ds, pipeline.build_partition(CNN_CFG, ds).indices[5])
    fed = fed_config(CNN_CFG)
    benchmark(federation.local_update, cnn_model(), X, y, 2, fed.eta, fed.batch_size, seed=0)


def round_calls(cfg, monkeypatch):
    """Round 1 of the workload's FedAvg, as run_rounds arguments, and the
    (flats, inputs, labels, sizes) of each stacked call it makes."""
    ds = pipeline.build_dataset(cfg)
    args = (dataclasses.replace(fed_config(cfg), rounds=1), pipeline.build_partition(cfg, ds),
            ds, pipeline.build_model0(cfg, ds))
    calls, call = [], nn.stacked_loss_and_grads

    def recorded(model, flats, inputs, labels, sizes):
        calls.append((flats.copy(), inputs, labels, sizes))
        return call(model, flats, inputs, labels, sizes)

    with monkeypatch.context() as patch:
        patch.setattr(nn, "stacked_loss_and_grads", recorded)
        federation.run_rounds(*args)
    return args, calls


def bench_round(benchmark, cfg, monkeypatch):
    # round 1 of the workload's FedAvg: its 8 clients' local updates in
    # lockstep, the aggregate and the evaluate forward; extra_info holds the
    # round's stacked calls
    args, calls = round_calls(cfg, monkeypatch)
    benchmark.extra_info.update(calls_per_round=len(calls))
    benchmark(federation.run_rounds, *args)


def test_bench_mlp_lockstep_round(benchmark, monkeypatch):
    bench_round(benchmark, CFG, monkeypatch)


def test_bench_mini_cnn_lockstep_round(benchmark, monkeypatch):
    bench_round(benchmark, CNN_CFG, monkeypatch)


def test_bench_mlp_mixed_size_tick(benchmark, monkeypatch):
    # the stacked call of ref-mlp round 1's first tick whose minibatch sizes
    # differ; extra_info holds its sizes
    args, calls = round_calls(CFG, monkeypatch)
    flats, inputs, labels, sizes = next(c for c in calls if len(set(c[3])) > 1)
    benchmark.extra_info.update(sizes=list(sizes))
    benchmark(nn.stacked_loss_and_grads, args[3], flats, inputs, labels, sizes)
