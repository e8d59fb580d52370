"""Differential tests: each vectorized kernel against the reference loop it
replaced, compared for exact equality, never a tolerance.

- `state_vector` against a loop over `group_stats`
- `min_group_sparsity` against `min(group_sparsity(...))`
- `AoiLedger` against a ledger keeping dict stamps
- flat `Adam.step` and `clip_grad_norm` against per-key dict versions
- a whole `train_unlearner` run with every reference swapped in
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scale_fu import aoi, nn, rl
from scale_fu.aoi import AoiError, GroupIndex, partition_groups
from scale_fu.sensitivity import SensitivityReport

# --- reference loops -----------------------------------------------------------


class DictLedger:
    """AoiLedger with a dict of stamps, as it was before the int array."""

    def __init__(self, idx):
        self.idx = idx
        self.t = 0
        self.stamps = {key: 0 for key in idx.keys()}

    def advance(self):
        self.t += 1

    def touch(self, keys):
        for key in keys:
            if key not in self.stamps:
                raise AoiError(f"unknown group {key}")
            self.stamps[key] = self.t

    def age(self, layer, j):
        return self.t - self.stamps[(layer, j)]

    def ages(self):
        return np.array([self.t - self.stamps[k] for k in self.idx.keys()], dtype=np.float64)

    def max_age(self):
        return float(self.ages().max())


def ref_state_vector(model, ledger, idx):
    ages = ledger.ages()
    denom = max(1.0, float(ages.max()))
    out = np.empty(3 * idx.total_groups, dtype=np.float64)
    for pos, (l, j) in enumerate(idx.keys()):
        mu, sd = aoi.group_stats(model, idx, l, j)
        out[3 * pos] = ages[pos] / denom
        out[3 * pos + 1] = mu
        out[3 * pos + 2] = sd
    return out


def ref_min_group_sparsity(model, idx):
    return min(rl.group_sparsity(model, idx, l, j) for l, j in idx.keys())


class DictAdam:
    """Adam over a dict of parameter arrays, one key at a time."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for k, g in grads.items():
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * g * g
            params[k] -= self.lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)


def dict_clip_grad_norm(grads, max_norm):
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# --- fixtures ------------------------------------------------------------------


def dense_model(dims, seed):
    specs = tuple(
        nn.LayerSpec(nn.DENSE, in_dim=dims[i], out_dim=dims[i + 1],
                     activation=nn.ACT_RELU if i < len(dims) - 2 else nn.ACT_NONE)
        for i in range(len(dims) - 1)
    )
    return nn.Model("stack", (dims[0],), dims[-1], specs, nn.init_params(specs, seed=seed))


def scramble(model, idx, rng, steps):
    """Random sparsify steps plus a random AoI history over the same index."""
    ledger, ref = aoi.AoiLedger(idx), DictLedger(idx)
    for _ in range(steps):
        layer = idx.layers[int(rng.integers(idx.n_layers))]
        n = idx.n_groups(layer)
        groups = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        model = rl.sparsify(model, idx, layer, groups, float(rng.integers(1, 11)) / 10)
        for led in (ledger, ref):
            led.advance()
            led.touch([(layer, int(j)) for j in groups])
    return model, ledger, ref


model_dims = st.lists(st.integers(1, 9), min_size=2, max_size=5)


@st.composite
def grouped_models(draw):
    """A dense stack, a subset of its layers in some sensitivity order, and a
    group count that often exceeds a layer's size or leaves a remainder."""
    dims = draw(model_dims)
    model = dense_model(dims, seed=draw(st.integers(0, 2**16)))
    order = draw(st.permutations(range(model.num_layers)))
    sensitive = order[: draw(st.integers(1, model.num_layers))]
    idx = partition_groups(model, sensitive, draw(st.integers(1, 40)))
    return model, idx


@st.composite
def cut_models(draw):
    """Arbitrary contiguous cuts, not only balanced_ranges' shapes."""
    dims = draw(model_dims)
    model = dense_model(dims, seed=draw(st.integers(0, 2**16)))
    layers, ranges = [], []
    for l in draw(st.permutations(range(model.num_layers))):
        d = model.layers[l].d
        cuts = sorted(draw(st.sets(st.integers(1, d - 1), max_size=6))) if d > 1 else []
        bounds = [0, *cuts, d]
        layers.append(l)
        ranges.append(tuple(zip(bounds, bounds[1:])))
    return model, GroupIndex(layers=tuple(layers), ranges=tuple(ranges))


# --- AoI state and done check ---------------------------------------------------


def assert_kernels_match(model, idx, seed, steps):
    model, ledger, ref = scramble(model, idx, np.random.default_rng(seed), steps)
    assert np.array_equal(aoi.state_vector(model, ledger, idx),
                          ref_state_vector(model, ref, idx))
    assert rl.min_group_sparsity(model, idx) == ref_min_group_sparsity(model, idx)


@settings(max_examples=150, deadline=None)
@given(grouped_models(), st.integers(0, 2**16), st.integers(0, 12))
def test_state_and_sparsity_match_reference_on_balanced_groups(case, seed, steps):
    model, idx = case
    assert_kernels_match(model, idx, seed, steps)


@settings(max_examples=100, deadline=None)
@given(cut_models(), st.integers(0, 2**16), st.integers(0, 12))
def test_state_and_sparsity_match_reference_on_arbitrary_cuts(case, seed, steps):
    model, idx = case
    assert_kernels_match(model, idx, seed, steps)


@pytest.mark.parametrize("groups", [1, 3, 7, 64, 5000])
@pytest.mark.parametrize("sensitive", [[3, 2, 1, 0], [1, 3], [2, 0]])
def test_state_and_sparsity_match_reference_on_mini_cnn(groups, sensitive):
    # layer 2 is the parameter-free flatten layer; partition_groups skips it
    model = nn.make_model("mini_cnn", 25, 3, seed=4)
    idx = partition_groups(model, sensitive, groups)
    assert 2 not in idx.layers
    assert_kernels_match(model, idx, seed=groups, steps=20)


def test_runs_cover_every_group_in_canonical_order():
    model = nn.make_model("mlp", 16, 4, seed=0)
    idx = partition_groups(model, [1, 0, 2], 7)
    # 2080 = 7 * 297 + 1, 1088 = 7 * 155 + 3, 132 = 7 * 18 + 6
    assert list(idx.runs) == [
        (1, slice(0, 298), 298, slice(0, 1)),
        (1, slice(298, 2080), 297, slice(1, 7)),
        (0, slice(0, 468), 156, slice(7, 10)),
        (0, slice(468, 1088), 155, slice(10, 14)),
        (2, slice(0, 114), 19, slice(14, 20)),
        (2, slice(114, 132), 18, slice(20, 21)),
    ]
    assert [idx.positions[key] for key in idx.keys()] == list(range(idx.total_groups))


@settings(max_examples=100, deadline=None)
@given(grouped_models(),
       st.lists(st.tuples(st.booleans(), st.integers(0, 10**6)), max_size=40))
def test_ledger_ages_match_dict_stamps(case, ops):
    _, idx = case
    keys = idx.keys()
    ledger, ref = aoi.AoiLedger(idx), DictLedger(idx)
    for is_advance, pick in ops:
        for led in (ledger, ref):
            if is_advance:
                led.advance()
            else:
                led.touch([keys[pick % len(keys)], keys[(pick // 7) % len(keys)]])
        assert np.array_equal(ledger.ages(), ref.ages())
        assert ledger.ages().dtype == np.float64
    for layer, j in keys:
        assert ledger.age(layer, j) == ref.age(layer, j)
    with pytest.raises(AoiError):
        ledger.touch([(99, 0)])


# --- optimizer ------------------------------------------------------------------


@pytest.mark.parametrize("max_norm,clips", [(1e-3, True), (1e6, False)])
def test_flat_adam_and_clip_match_per_key_reference(max_norm, clips):
    layout = rl.PolicyLayout(groups_per_layer=(3, 5), ratio_levels=4)
    net = rl.PolicyNet(layout, seed=8, hidden=11)
    ref_params = {k: v.copy() for k, v in net.params.items()}
    opt, ref_opt = rl.Adam(net.flat, lr=0.01), DictAdam(ref_params, lr=0.01)
    rng = np.random.default_rng(5)
    for _ in range(6):
        X = rng.standard_normal((7, layout.state_dim))
        _, _, _, (X, h1, h2) = net.logits(X)
        dheads = {name: rng.standard_normal((7, net.params[f"b_{name}"].size))
                  for name in net.head_names}
        grad = net.backward(X, h1, h2, dheads)
        ref_grads = {k: g.copy() for k, g in net.grads.items()}
        norm = rl.clip_grad_norm(grad, net.blocks, max_norm)
        assert norm == dict_clip_grad_norm(ref_grads, max_norm)
        assert (norm > max_norm) is clips
        opt.step(net.flat, grad)
        ref_opt.step(ref_params, ref_grads)
        for k, v in net.params.items():
            assert np.array_equal(v, ref_params[k]), k


def test_params_are_views_of_one_flat_buffer():
    net = rl.ValueNet(state_dim=6, seed=1, hidden=5)
    assert sum(v.size for v in net.params.values()) == net.flat.size
    for k, v in net.params.items():
        assert v.base is net.flat and net.grads[k].base is net.grad
    net.params["b_v"][:] = 2.5
    assert net.flat[net.blocks[1]].tolist() == [2.5]


# --- end to end -------------------------------------------------------------------


def test_train_unlearner_matches_reference_kernels(monkeypatch):
    model = dense_model((6, 5, 4, 3), seed=9)
    idx = partition_groups(model, [1, 0, 2], 2)   # sizes 12+12, 18+17, 8+7
    scores = np.array([1.0, 2.0, 0.5])
    report = SensitivityReport(
        client=0, lam=0.5, rho=np.zeros(3), s_align=np.zeros(3), s_impact=np.zeros(3),
        s_combined=scores, selected=[1, 0, 2], m_sel=3,
    )
    cfg = rl.PpoConfig(episodes=12, t_collect=10, epochs=3, batch_size=5, ratio_levels=4,
                       hidden=8, sparsity_cap=0.5, actor_lr=0.01, critic_lr=0.01)
    flat = rl.train_unlearner(model, report, idx, cfg, seed=31)

    nets = []
    trunk_init = rl._TrunkNet.__init__

    def recording_init(self, *args, **kwargs):
        trunk_init(self, *args, **kwargs)
        nets.append(self)

    def net_of(buf):
        return next(n for n in nets if buf is n.flat or buf is n.grad)

    class RefAdam(DictAdam):
        def __init__(self, params, lr):
            super().__init__(net_of(params).params, lr)

        def step(self, params, grad):
            net = net_of(params)
            super().step(net.params, net.grads)

    monkeypatch.setattr(rl._TrunkNet, "__init__", recording_init)
    monkeypatch.setattr(rl, "Adam", RefAdam)
    monkeypatch.setattr(rl, "clip_grad_norm",
                        lambda grad, blocks, max_norm: dict_clip_grad_norm(
                            net_of(grad).grads, max_norm))
    monkeypatch.setattr(rl, "AoiLedger", DictLedger)
    monkeypatch.setattr(rl, "state_vector", ref_state_vector)
    monkeypatch.setattr(rl, "min_group_sparsity", ref_min_group_sparsity)
    ref = rl.train_unlearner(model, report, idx, cfg, seed=31)

    assert len(nets) == 2
    assert any(e.steps < cfg.t_collect for e in ref.episodes)   # the cap ended some
    assert [e.total_reward for e in flat.episodes] == [e.total_reward for e in ref.episodes]
    assert flat.update_stats == ref.update_stats
    for a, b in ((flat.policy, ref.policy), (flat.value_net, ref.value_net)):
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k]), k
