"""Differential tests: each vectorized kernel against the reference loop it
replaced.

Compared for exact equality, never a tolerance:
- `rl.sparsify` and `baselines.baseline_uniform`, which share
  `rl.zero_order`, against their own per-group loops
- `state_vector` against a loop over `group_stats`
- `min_group_sparsity` against `min(group_sparsity(...))`
- `AoiLedger` against a ledger keeping dict stamps
- the incremental `UnlearnEnv`, which zeroes along each group's order taken
  once, against `RefEnv`, the env that copied the model, argsorted every
  acted group and rebuilt the whole state on every step
- the sampler's inverse-CDF draw against `Generator.choice`
- the episode rewards and actions of a whole `train_unlearner` run with every
  reference swapped in
- the lean PPO loop (the critic's values and the old log-probs taken over
  the buffer in `ppo_update`, a layer head with one choice skipped) against
  the loop it replaced, which ran the critic and summed each log-prob at
  every collect step and always computed the layer head: nets, update
  stats, episodes, sampled and deployed actions and every head gradient;
  the update-time old log-probs against the per-step ones (exact with one
  layer); and `ValueNet.row_values` and `PolicyNet.logits` over the
  (n, 1, S) stack against one forward per row
- the FedAvg step against a per-client reference that calls nothing under
  test (its own k²-slice patch blocks, per-offset input-gradient loop,
  bool-mask ReLU, per-layer gradients concatenated at the end and a new model
  per SGD step): `forward`, `loss_and_grads` and `local_update`, and the
  lockstep `run_rounds` against a per-client loop over `ref_local_update`
  and `ref_aggregate` (uneven clients, clients of all-distinct minibatch
  sizes, batch sizes 1 and 40 on mini_cnn, a partial pool, smaller
  stacked-call caps, one of them splitting a tick of mixed sizes, retrain's
  eligible set), model, uploads and round logs, values and signs alike; one
  stacked call over clients of mixed minibatch sizes against each client
  alone; a stack of conv clients against each client alone; and the
  `NumericError` a poisoned client of a stacked call raises against the one
  it raises alone
- `federation.aggregate`, `baselines.newly_zeroed`,
  `baselines.baseline_grad_ascent` and `sensitivity.loo_aggregate`, which act
  on the model's flat vector, against their per-layer loops

Compared within a fixed float64 tolerance, since the summation order changed:
- the patch-matrix GEMM `_conv_forward` / `_conv_backward` against the einsum
  loops they replaced; repeated calls must still agree exactly, and so must
  backward with the forward pass's cached patch matrix and with a rebuilt one,
  and the weight gradients with the input gradient skipped and computed
- the stacked policy heads (one GEMM each way), the one-softplus sigmoid and
  log-probs, the one-sum clip norm and Adam with folded bias corrections,
  against the per-head GEMMs, the old sigmoid, the per-block clip and the
  per-key Adam; the parameters and update stats of the whole
  `train_unlearner` run above; and the update-time old log-probs against
  the per-step ones with more than one layer
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scale_fu import aoi, baselines, data, federation, metrics, nn, pipeline, rl, sensitivity
from scale_fu.aoi import AoiError, GroupIndex, partition_groups
from scale_fu.config import fed_config, ppo_config, validate_config
from scale_fu.data import UnlearnRequest
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


def ref_sparsify(model, idx, layer, groups, s):
    """`rl.sparsify`'s own per-group zeroing loop, before `rl.zero_smallest`."""
    out = model.copy()
    vec = out.params[layer]
    for j in groups:
        sl = idx.slice_of(layer, j)
        sub = vec[sl]
        nz = np.flatnonzero(sub != 0.0)
        k = int(math.floor(s * nz.size))
        if k == 0:
            continue
        order = nz[np.argsort(np.abs(sub[nz]), kind="stable")]
        sub[order[:k]] = 0.0
        vec[sl] = sub
    return out


def ref_baseline_uniform(model, total_budget, groups_per_layer):
    """`baselines.baseline_uniform`'s own per-group zeroing loop, before
    `rl.zero_smallest`."""
    if total_budget == 0:
        return model.copy()
    idx = partition_groups(model, range(model.num_layers), groups_per_layer)
    out = model.copy()
    layer_caps = [
        int(np.count_nonzero(out.params[l] != 0.0)) for l in idx.layers
    ]
    per_layer = baselines._equal_split_with_spill(total_budget, layer_caps)
    for rank, layer in enumerate(idx.layers):
        if per_layer[rank] == 0:
            continue
        vec = out.params[layer]
        group_caps = [
            int(np.count_nonzero(vec[idx.slice_of(layer, j)] != 0.0))
            for j in range(idx.n_groups(layer))
        ]
        per_group = baselines._equal_split_with_spill(per_layer[rank], group_caps)
        for j, k in enumerate(per_group):
            if k == 0:
                continue
            sl = idx.slice_of(layer, j)
            sub = vec[sl]
            nz = np.flatnonzero(sub != 0.0)
            order = nz[np.argsort(np.abs(sub[nz]), kind="stable")]
            sub[order[:k]] = 0.0
            vec[sl] = sub
    return out


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


def ref_reward(action, report, ledger, idx, w_f, w_c):
    """`rl.reward` as it was: the score maximum on every call and one
    `ledger.age` call per selected group."""
    layer = idx.layers[action.layer_rank]
    s_max = max(report.score_of(l) for l in idx.layers)
    r_f = 0.0
    if s_max > 0.0:
        r_f = len(action.groups) * (report.score_of(layer) / s_max) * action.s
    r_c = 0.0
    max_age = ledger.max_age()
    if max_age > 0.0:
        share = sum(ledger.age(layer, j) / max_age for j in action.groups)
        r_c = (share / len(action.groups)) * action.s
    return w_f * r_f + w_c * r_c, r_f, r_c


class RefEnv:
    """`rl.UnlearnEnv` as it was, over the reference loops: every step copies
    the whole model, rebuilds the whole state and scans every group for the
    sparsity cap."""

    def __init__(self, model, report, idx, cfg):
        self._model0 = model
        self.report = report
        self.idx = idx
        self.cfg = cfg
        self.reset()

    def reset(self):
        self.model = self._model0.copy()
        self.ledger = DictLedger(self.idx)
        self.steps = 0
        self.done = False
        self.aoi_rows = []
        self.action_rows = []
        self.state = ref_state_vector(self.model, self.ledger, self.idx)
        return self.state

    def step(self, action):
        if self.done:
            raise rl.RlError("env is done; reset before stepping again")
        layer = self.idx.layers[action.layer_rank]
        r, r_f, r_c = ref_reward(action, self.report, self.ledger, self.idx,
                                 self.cfg.w_f, self.cfg.w_c)
        prev_state = self.state
        self.model = ref_sparsify(self.model, self.idx, layer, action.groups, action.s)
        self.ledger.advance()
        self.ledger.touch([(layer, j) for j in action.groups])
        self.steps += 1
        ages = self.ledger.ages()
        self.aoi_rows.append((self.steps, float(ages.sum()), float(ages.mean()),
                              float(ages.max())))
        self.action_rows.append({"step": self.steps, "layer": int(layer),
                                 "groups": [int(j) for j in action.groups], "s": action.s})
        self.state = ref_state_vector(self.model, self.ledger, self.idx)
        self.done = (self.steps >= self.cfg.t_collect
                     or ref_min_group_sparsity(self.model, self.idx) >= self.cfg.sparsity_cap)
        return rl.Transition(state=prev_state, action=action, reward=r,
                             next_state=self.state, done=self.done, r_forget=r_f,
                             r_fresh=r_c)


def ref_sigmoid(z):
    """`rl._sigmoid` as it was: 1 / (1 + e) where z >= 0, else e / (1 + e),
    e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    out = e / d
    np.divide(1.0, d, out=out, where=z >= 0)
    return out


def ref_logits(net, X):
    """`PolicyNet.logits` as it was: one GEMM per head, a stack of states
    taken as its (n, S) matrix."""
    h1, h2 = net.trunk(X.reshape(len(X), -1))
    W, b = net.params["W_heads"], net.params["b_heads"]
    out = []
    for name in ("layer", "group", "ratio"):
        c = net.head_cols[name]
        z = h2 @ W[c].T
        z += b[c]
        out.append(z)
    return (*out, (X, h1, h2))


def ref_backward(net, X, h1, h2, dZ):
    """`_TrunkNet.backward` as it was: two GEMMs per head, the heads' input
    gradients summed into a zeroed buffer."""
    p, g = net.params, net.grads
    dh2 = np.zeros_like(h2)
    for c in net.head_cols.values():
        dz = np.ascontiguousarray(dZ[:, c])
        np.matmul(dz.T, h2, out=g["W_heads"][c])
        np.add.reduce(dz, axis=0, out=g["b_heads"][c])
        dh2 += dz @ p["W_heads"][c]
    dp2 = dh2 * (1.0 - h2 * h2)
    np.matmul(dp2.T, h1, out=g["W2"])
    np.add.reduce(dp2, axis=0, out=g["b2"])
    dp1 = (dp2 @ p["W2"]) * (1.0 - h1 * h1)
    np.matmul(dp1.T, X, out=g["W1"])
    np.add.reduce(dp1, axis=0, out=g["b1"])
    return net.grad


def ref_batch_log_probs(policy, states, arrays):
    """`rl.batch_log_probs` as it was: per-head logits, the mask term as
    softplus(-z) * b + softplus(z) * (1 - b), and `ref_sigmoid`."""
    z_l, z_g, z_r, cache = ref_logits(policy, states)
    ranks, levels, bits, mask = arrays
    rows = np.arange(ranks.size)
    lsm_l, lsm_r = nn.log_softmax(z_l), nn.log_softmax(z_r)
    sp = rl._softplus(z_g)
    lp = lsm_l[rows, ranks] + lsm_r[rows, levels]
    lp = lp - np.add.reduce(mask * (rl._softplus(-z_g) * bits + sp * (1 - bits)), axis=1)
    p_l, p_r = np.exp(lsm_l), np.exp(lsm_r)
    sig = ref_sigmoid(z_g)
    ent_l = -np.add.reduce(p_l * lsm_l, axis=1)
    ent_r = -np.add.reduce(p_r * lsm_r, axis=1)
    ent_g = np.add.reduce(mask * (sp - z_g * sig), axis=1)
    aux = (z_g, cache, lsm_l, lsm_r, p_l, p_r, sig, ent_l, ent_r)
    return lp, ent_l + ent_r + ent_g, aux


def ref_conv_forward(x, W, b):
    # x: (B, C, H, W), W: (O, C, k, k) -> (B, O, H-k+1, W-k+1), valid padding
    B, C, H, Wd = x.shape
    O, _, k, _ = W.shape
    Ho, Wo = H - k + 1, Wd - k + 1
    out = np.broadcast_to(b[None, :, None, None], (B, O, Ho, Wo)).copy()
    for u in range(k):
        for v in range(k):
            out += np.einsum(
                "bcij,oc->boij", x[:, :, u : u + Ho, v : v + Wo], W[:, :, u, v]
            )
    return out


def ref_conv_backward(x, W, dz):
    B, C, H, Wd = x.shape
    O, _, k, _ = W.shape
    Ho, Wo = dz.shape[2], dz.shape[3]
    dW = np.zeros_like(W)
    dx = np.zeros_like(x)
    for u in range(k):
        for v in range(k):
            patch = x[:, :, u : u + Ho, v : v + Wo]
            dW[:, :, u, v] = np.einsum("boij,bcij->oc", dz, patch)
            dx[:, :, u : u + Ho, v : v + Wo] += np.einsum("boij,oc->bcij", dz, W[:, :, u, v])
    db = dz.sum(axis=(0, 2, 3))
    return dW, db, dx


class DictAdam:
    """Adam over a dict of parameter arrays, one key at a time, with the bias
    corrections applied to m and v."""

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
    """The clip with a squared norm summed per key, in the dict's order."""
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


# --- zeroing rule ----------------------------------------------------------------

# a NaN whose payload is not numpy's default one
PAYLOAD_NAN = np.uint64(0x7FF8_0000_0000_0001).view(np.float64)
TIED_VALUES = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0,
                        np.nan, PAYLOAD_NAN, np.inf, -np.inf])


def assert_same_bits(a, b):
    assert a is not b
    for p, q in zip(a.params, b.params, strict=True):
        assert p.tobytes() == q.tobytes()


@settings(max_examples=150, deadline=None)
@given(model_dims, st.integers(0, 2**16), st.integers(1, 12))
@example([5, 3, 2], 0, 4)   # 18 params: two runs (5, 5 | 4, 4); 8: one run (2 x 4)
@example([4, 4], 1, 7)      # 20 params: two runs (3 x 6 | 2)
def test_zeroing_rule_matches_per_group_loops(dims, seed, G):
    """Parameters take few values, so equal magnitudes of opposite sign and
    exact zeros of both signs are common; so are NaNs of two payloads and
    +-inf, which argsort puts after every finite magnitude, NaNs last and
    tied with each other. s = 1 zeroes every nonzero entry of a group
    (k = nnz) and s = 0.1 none of a group under ten nonzeros (k = 0); the
    uniform budgets run from 0 to the model's nonzero count."""
    model = dense_model(dims, seed=0)
    rng = np.random.default_rng(seed)
    for vec in model.params:
        vec[:] = rng.choice(TIED_VALUES, size=vec.size)
    before = model.copy()
    idx = partition_groups(model, list(range(model.num_layers)), G)
    for layer in idx.layers:
        n = idx.n_groups(layer)
        groups = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        for s in (0.1, 0.5, 1.0):
            assert_same_bits(rl.sparsify(model, idx, layer, groups, s),
                             ref_sparsify(model, idx, layer, groups, s))
    nnz = sum(int(np.count_nonzero(p)) for p in model.params)
    for budget in sorted({0, 1, nnz // 2, nnz - 1, nnz} & set(range(nnz + 1))):
        assert_same_bits(baselines.baseline_uniform(model, budget, G),
                         ref_baseline_uniform(model, budget, G))
    assert_same_bits(model, before)


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
    assert idx.offsets == (0, 7, 14)
    assert_canonical_layout(idx)
    # layer ids differ from ranks past the parameter-free flatten layer 2;
    # layer 3 has 51 parameters, so it alone gets fewer than 64 groups
    cnn = partition_groups(nn.make_model("mini_cnn", 25, 3, seed=2), [0, 1, 2, 3], 64)
    assert cnn.layers == (0, 1, 3)
    assert cnn.offsets == (0, 64, 128) and cnn.cols(2) == slice(128, 179)
    assert_canonical_layout(cnn)


def assert_canonical_layout(idx):
    """`offsets` and `cols` agree with `positions`, and every run of `runs`
    lies inside its rank's `cols`."""
    pos = idx.positions
    assert [pos[key] for key in idx.keys()] == list(range(idx.total_groups))
    assert idx.offsets == tuple(pos[(layer, 0)] for layer in idx.layers)
    for rank, layer in enumerate(idx.layers):
        last = idx.n_groups(layer) - 1
        assert idx.cols(rank) == slice(pos[(layer, 0)], pos[(layer, last)] + 1)
    for layer, _, _, run_pos in idx.runs:
        cols = idx.cols(idx.rank_of(layer))
        assert cols.start <= run_pos.start < run_pos.stop <= cols.stop


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


# --- environment -----------------------------------------------------------------


def flat_report(scores):
    scores = np.asarray(scores, dtype=np.float64)
    zeros = np.zeros(scores.size)
    return SensitivityReport(client=0, lam=0.5, rho=zeros, s_align=zeros, s_impact=zeros,
                             s_combined=scores, selected=list(range(scores.size)),
                             m_sel=scores.size)


def random_action(idx, cfg, rng):
    """A random action; one in three re-touches group 0 of layer rank 0."""
    if rng.random() < 1 / 3:
        rank, groups = 0, (0,)
    else:
        rank = int(rng.integers(idx.n_layers))
        n = idx.n_groups(idx.layers[rank])
        groups = tuple(int(j) for j in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                   replace=False))
    level = int(rng.integers(1, cfg.ratio_levels + 1))
    return rl.Action(rank, groups, level, level / cfg.ratio_levels)


def tie(model, seed):
    """A copy of `model` whose parameters are drawn from TIED_VALUES' finite
    part: equal magnitudes of opposite sign and zeros of both signs."""
    rng = np.random.default_rng(seed)
    out = model.copy()
    for vec in out.params:
        vec[:] = rng.choice(TIED_VALUES[:8], size=vec.size)
    return out


def run_env_against_reference(model, idx, cfg, seed, episodes=6):
    """Drive UnlearnEnv and RefEnv with the same random actions and compare
    every transition and the model bit for bit; then compare one `rl.deploy`
    with random actions against RefEnv's AoI and action rows. Returns the
    episode lengths."""
    report = flat_report(np.linspace(2.0, 0.5, model.num_layers))
    env, ref = rl.UnlearnEnv(model, report, idx, cfg), RefEnv(model, report, idx, cfg)
    rng = np.random.default_rng(seed)
    lengths = []
    for _ in range(episodes):
        assert env.reset().tobytes() == ref.reset().tobytes()
        while not env.done:
            action = random_action(idx, cfg, rng)
            got, want = env.step(action), ref.step(action)
            assert got.state.tobytes() == want.state.tobytes()
            assert got.next_state.tobytes() == want.next_state.tobytes()
            assert (got.reward, got.r_forget, got.r_fresh, got.done) == (
                want.reward, want.r_forget, want.r_fresh, want.done)
        assert ref.done
        assert_same_bits(env.model, ref.model)
        lengths.append(env.steps)
    deploy_against_reference(model, report, idx, cfg, rng)
    assert_same_bits(model, model.copy())
    return lengths


def deploy_against_reference(model, report, idx, cfg, rng):
    """`rl.deploy` with random actions in place of the greedy policy; RefEnv
    replaying them must log the same action rows and end with the same model
    bits, and its live AoI rows must equal the replay of deploy's log."""
    actions = []

    def random_mode(policy, state):
        actions.append(random_action(idx, cfg, rng))
        return actions[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rl, "policy_mode", random_mode)
        deployed = rl.deploy(None, model, report, idx, cfg, cfg.t_collect)
    ref = RefEnv(model, report, idx, cfg)
    for action in actions:
        ref.step(action)
    assert ref.done and len(deployed.action_rows) == ref.steps == len(actions)
    assert metrics.replay_aoi(deployed.action_rows, idx) == ref.aoi_rows
    assert deployed.action_rows == ref.action_rows
    assert_same_bits(deployed.model, ref.model)


def unequal_runs_model(seed):
    # layer 1: 5 * 4 + 4 = 24 parameters in 5 groups, sizes 5 | 5 | 5 | 5 | 4;
    # layer 0: 6 * 5 + 5 = 35 in 5 groups of 7; layer 2: 4 * 3 + 3 = 15, 3 | 3 | 3 | 3 | 3
    return dense_model((6, 5, 4, 3), seed=seed)


@pytest.mark.parametrize("seed", range(4))
def test_env_matches_reference_env_on_unequal_runs(seed):
    model = unequal_runs_model(seed)
    idx = partition_groups(model, [1, 0, 2], 5)
    cfg = rl.PpoConfig(t_collect=40, ratio_levels=4, sparsity_cap=0.3)
    lengths = run_env_against_reference(model, idx, cfg, seed)
    assert min(lengths) < cfg.t_collect            # the sparsity cap ended some


def test_env_matches_reference_env_on_mini_cnn():
    # layer 2 is the parameter-free flatten layer
    model = nn.make_model("mini_cnn", 25, 3, seed=2)
    idx = partition_groups(model, [1, 0, 3], 7)
    assert idx.layers == (1, 0, 3)
    cfg = rl.PpoConfig(t_collect=40, ratio_levels=5, sparsity_cap=0.2)
    lengths = run_env_against_reference(model, idx, cfg, seed=11, episodes=3)
    assert min(lengths) < cfg.t_collect


@pytest.mark.parametrize("seed", range(4))
def test_env_matches_reference_env_on_tied_magnitudes(seed):
    """The env's zero order is taken once; where magnitudes tie, only a
    stable order, ties to the lowest index, keeps it the order RefEnv's
    per-step argsort gives."""
    model = tie(unequal_runs_model(seed), seed)
    idx = partition_groups(model, [1, 0, 2], 5)
    cfg = rl.PpoConfig(t_collect=40, ratio_levels=4, sparsity_cap=0.3)
    run_env_against_reference(model, idx, cfg, seed)
    cnn = tie(nn.make_model("mini_cnn", 25, 3, seed=2), seed)
    idx = partition_groups(cnn, [1, 0, 3], 7)
    cfg = rl.PpoConfig(t_collect=40, ratio_levels=5, sparsity_cap=0.2)
    run_env_against_reference(cnn, idx, cfg, seed=11 + seed, episodes=3)


@settings(max_examples=60, deadline=None)
@given(grouped_models(), st.integers(0, 2**16), st.sampled_from([0.2, 0.7, 1.0]),
       st.booleans())
def test_env_matches_reference_env_on_random_models(case, seed, cap, tied):
    model, idx = case
    if tied:
        model = tie(model, seed)
    cfg = rl.PpoConfig(t_collect=8, ratio_levels=3, sparsity_cap=cap)
    run_env_against_reference(model, idx, cfg, seed, episodes=2)


# --- sampler -------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
def test_draw_matches_generator_choice(weights, seed):
    """Same index and the same generator state after, for normalized p."""
    w = np.array(weights)
    if w.sum() == 0.0:
        w[0] = 1.0
    p = w / w.sum()
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    assert rl._draw(ours, p) == int(theirs.choice(p.size, p=p))
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [1.2, -0.2], [0.5, 0.4], [np.inf, 0.0]])
def test_draw_rejects_what_choice_rejects(p):
    p = np.array(p)
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(p.size, p=p)
    with pytest.raises(rl.RlError):
        rl._draw(np.random.default_rng(0), p)


# --- convolution -----------------------------------------------------------------

CONV_RTOL = 1e-12


def assert_conv_close(got, ref):
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=CONV_RTOL,
                               atol=CONV_RTOL * np.abs(ref).max(initial=0.0))


def conv_forward_one(x, W, b):
    """`nn._conv_forward` on one client: (z, P) without the stack axis."""
    z, P = nn._conv_forward(x[None], W[None], b[None])
    return z[0], (None if P is None else P[0])


def conv_backward_one(x, W, dz, P=None, input_grad=True):
    """`nn._conv_backward` on one client, without the stack axis."""
    grads = nn._conv_backward(x[None], W[None], dz[None], None if P is None else P[None],
                              input_grad=input_grad)
    return tuple(None if g is None else g[0] for g in grads)


def check_conv(B, C, O, k, H, Wd, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((B, C, H, Wd))
    W = rng.standard_normal((O, C, k, k))
    b = rng.standard_normal(O)
    dz = rng.standard_normal((B, O, H - k + 1, Wd - k + 1))
    z, P = conv_forward_one(x, W, b)
    grads = conv_backward_one(x, W, dz)
    assert_conv_close(z, ref_conv_forward(x, W, b))
    for got, ref in zip(grads, ref_conv_backward(x, W, dz)):
        assert_conv_close(got, ref)
    assert np.array_equal(conv_forward_one(x, W, b)[0], z)
    for again, first in zip(conv_backward_one(x, W, dz), grads):
        assert np.array_equal(again, first)
    # the patch matrix is kept exactly when the batch fits in one block
    assert (P is None) == (B > nn.CONV_BLOCK)
    if P is not None:
        for cached, rebuilt in zip(conv_backward_one(x, W, dz, P), grads):
            assert np.array_equal(cached, rebuilt)
    dW, db, dx = conv_backward_one(x, W, dz, P, input_grad=False)
    assert dx is None
    assert np.array_equal(dW, grads[0]) and np.array_equal(db, grads[1])
    check_conv_stack(x, W, b, dz, rng)


def check_conv_stack(x, W, b, dz, rng, n=3):
    """A stack of n clients, the first being (x, W, b, dz), gives each client
    the bits of that client alone, forward and backward."""
    xs, Ws, bs, dzs = ([a, *(rng.standard_normal(a.shape) for _ in range(n - 1))]
                       for a in (x, W, b, dz))
    z, P = nn._conv_forward(np.stack(xs), np.stack(Ws), np.stack(bs))
    alone = [conv_forward_one(*c) for c in zip(xs, Ws, bs)]
    for i, (zi, Pi) in enumerate(alone):
        assert same_bytes(z[i], zi) and (P is None) == (Pi is None)
        if P is not None:
            assert same_bytes(P[i], Pi)
    grads = nn._conv_backward(np.stack(xs), np.stack(Ws), np.stack(dzs), P)
    for i, c in enumerate(zip(xs, Ws, dzs)):
        for got, one in zip(grads, conv_backward_one(*c)):
            assert same_bytes(got[i], one)


@st.composite
def conv_shapes(draw):
    k = draw(st.integers(1, 4))
    return (draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 6)), k,
            draw(st.integers(k, k + 5)), draw(st.integers(k, k + 5)))


@settings(max_examples=150, deadline=None)
@given(conv_shapes(), st.integers(0, 2**16))
def test_conv_matches_einsum_reference(shape, seed):
    check_conv(*shape, seed)


@pytest.mark.parametrize("B,C,O,k,H,Wd", [
    (1, 1, 1, 1, 1, 1),     # everything 1
    (4, 1, 8, 3, 8, 8),     # mini_cnn's first layer: C = 1
    (3, 8, 16, 3, 6, 6),    # mini_cnn's second layer
    (2, 3, 5, 1, 4, 7),     # k = 1, non-square image
    (2, 2, 7, 4, 4, 4),     # k = H: one output pixel
    (1, 5, 3, 2, 3, 9),     # B = 1, O < C
    # batch sizes around multiples of the 32-sample CONV_BLOCK
    (31, 8, 16, 3, 6, 6),
    (32, 1, 8, 3, 8, 8),
    (33, 8, 16, 3, 6, 6),
    (63, 8, 16, 3, 6, 6),
    (64, 1, 8, 3, 8, 8),
    (65, 8, 16, 3, 6, 6),
    (129, 1, 8, 3, 8, 8),
    (600, 8, 16, 3, 6, 6),  # the cnn-fed evaluate forward
    (600, 1, 8, 3, 8, 8),   # ... and its first layer
])
def test_conv_matches_einsum_reference_on_edge_shapes(B, C, O, k, H, Wd):
    check_conv(B, C, O, k, H, Wd, seed=B + C + O)


def patch_reference_conv(monkeypatch):
    """Swap the einsum loops into nn, one client at a time, with the kernels'
    stacked call signatures, writing into the channels-last `out` buffers."""
    def forward(x, W, b, out=None):
        z = np.stack([ref_conv_forward(*c) for c in zip(x, W, b)])
        if out is not None:
            out.reshape(z.transpose(0, 1, 3, 4, 2).shape)[...] = z.transpose(0, 1, 3, 4, 2)
        return z, None

    def backward(x, W, dz, P=None, input_grad=True, out=None):
        grads = tuple(map(np.stack, zip(*(ref_conv_backward(*c) for c in zip(x, W, dz)))))
        if out is not None:
            out[...] = grads[2].transpose(0, 1, 3, 4, 2)
        return grads

    monkeypatch.setattr(nn, "_conv_forward", forward)
    monkeypatch.setattr(nn, "_conv_backward", backward)


def check_loss_and_grads_against_reference_conv(monkeypatch, B, data_seed, model_seed):
    rng = np.random.default_rng(data_seed)
    model = nn.make_model("mini_cnn", 36, 4, seed=model_seed)
    batch = nn.Batch(rng.standard_normal((B, 36)), rng.integers(0, 4, B))
    loss, grad = nn.loss_and_grads(model, batch)
    patch_reference_conv(monkeypatch)
    ref_loss, ref_grad = nn.loss_and_grads(model, batch)
    assert loss == pytest.approx(ref_loss, rel=CONV_RTOL)
    for got, ref in zip(model.layer_views(grad), model.layer_views(ref_grad)):
        assert_conv_close(got, ref)


def test_mini_cnn_loss_and_grads_match_reference_conv(monkeypatch):
    check_loss_and_grads_against_reference_conv(monkeypatch, 9, data_seed=3, model_seed=6)


@pytest.mark.parametrize("B", [nn.CONV_BLOCK - 1, nn.CONV_BLOCK + 1])
def test_mini_cnn_loss_and_grads_match_reference_conv_around_a_block(monkeypatch, B):
    # B <= CONV_BLOCK: backward reuses the forward pass's patch matrices;
    # B > CONV_BLOCK: it rebuilds them block by block
    check_loss_and_grads_against_reference_conv(monkeypatch, B, data_seed=B, model_seed=B)


THREADS_PROBE = """
import hashlib, numpy as np
from scale_fu import nn
rng = np.random.default_rng(0)
model = nn.make_model("mini_cnn", 64, 4, seed=0)
for B in (32, 57, 129, 600):
    batch = nn.Batch(rng.standard_normal((B, 64)), rng.integers(0, 4, B))
    _, grad = nn.loss_and_grads(model, batch)
    print(B, hashlib.sha256(nn.forward(model, batch).tobytes() + grad.tobytes()).hexdigest())
"""


def run_probe(probe, threads):
    """The stdout of `probe` run in a fresh interpreter at `threads` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


def test_mini_cnn_bits_do_not_depend_on_blas_threads():
    # cnn-fed's training minibatch, a forget set, two and many blocks
    assert run_probe(THREADS_PROBE, 1) == run_probe(THREADS_PROBE, 2)


PPO_THREADS_PROBE = """
import dataclasses, hashlib, numpy as np
from scale_fu import aoi, nn, rl
from scale_fu.config import ppo_config, validate_config
from scale_fu.sensitivity import SensitivityReport
cfg = validate_config({})
ds = cfg["dataset"]
model = nn.make_model("mlp", ds["dim"], ds["classes"], seed=0,
                      hidden=tuple(cfg["model"]["hidden"]))
zeros = np.zeros(model.num_layers)
report = SensitivityReport(client=0, lam=0.5, rho=zeros, s_align=zeros, s_impact=zeros,
                           s_combined=np.arange(1.0, model.num_layers + 1.0), selected=[1],
                           m_sel=1)
ppo = dataclasses.replace(ppo_config(cfg), episodes=20)
for groups in (cfg["scale"]["groups_per_layer"], 32):
    idx = aoi.partition_groups(model, [1], groups)
    res = rl.train_unlearner(model, report, idx, ppo, seed=5)
    deployed = rl.deploy(res.policy, model, report, idx, ppo, cfg["scale"]["deploy_steps"])
    h = hashlib.sha256(res.policy.flat.tobytes() + res.value_net.flat.tobytes())
    h.update(repr([e.total_reward for e in res.episodes]).encode())
    h.update(repr(deployed.action_rows).encode())
    print(groups, len(res.update_stats), h.hexdigest())
"""


def test_ppo_bits_do_not_depend_on_blas_threads():
    # the default 8-group index and fine-groups' 32, the widest head GEMM
    assert run_probe(PPO_THREADS_PROBE, 1) == run_probe(PPO_THREADS_PROBE, 2)


def test_dense_backward_without_input_grad_is_exact():
    rng = np.random.default_rng(4)
    a, W, dz = (rng.standard_normal(s) for s in ((7, 5), (3, 5), (7, 3)))
    dW, db, da = nn._dense_backward(a, W, dz)
    skip_dW, skip_db, skip_da = nn._dense_backward(a, W, dz, input_grad=False)
    assert skip_da is None and da.shape == a.shape
    assert np.array_equal(skip_dW, dW) and np.array_equal(skip_db, db)


# --- FedAvg local step -------------------------------------------------------------


def ref_patch_blocks(xt, k):
    # one slice copy per kernel offset into the block buffer
    B, H, Wd, C = xt.shape
    Ho, Wo = H - k + 1, Wd - k + 1
    buf = np.empty((min(B, nn.CONV_BLOCK), Ho, Wo, k, k, C))
    for lo in range(0, B, nn.CONV_BLOCK):
        hi = min(lo + nn.CONV_BLOCK, B)
        p = buf[: hi - lo]
        for u in range(k):
            for v in range(k):
                p[:, :, :, u, v] = xt[lo:hi, u : u + Ho, v : v + Wo]
        yield lo, hi, p.reshape(-1, k * k * C)


def ref_blocked_conv_forward(x, W, b):
    # one client's blocked patch-matrix conv: one `np.dot` per block of samples
    B, C, H, Wd = x.shape
    O, _, k, _ = W.shape
    Ho, Wo = H - k + 1, Wd - k + 1
    Wm = np.ascontiguousarray(W.transpose(2, 3, 1, 0)).reshape(k * k * C, O)
    out = np.empty((B * Ho * Wo, O))
    rows, P = Ho * Wo, None
    for lo, hi, P in ref_patch_blocks(x.transpose(0, 2, 3, 1), k):
        o = out[lo * rows : hi * rows]
        np.dot(P, Wm, out=o)
        o += b
    return out.reshape(B, Ho, Wo, O).transpose(0, 3, 1, 2), (P if B <= nn.CONV_BLOCK else None)


def ref_offset_conv_backward(x, W, dz, P=None, input_grad=True):
    # one client's conv backward, with one `d @ Wt[u, v]` GEMM per kernel offset
    B, C, H, Wd = x.shape
    O, _, k, _ = W.shape
    Ho, Wo = dz.shape[2], dz.shape[3]
    d = dz.transpose(0, 2, 3, 1).reshape(-1, O)
    if P is not None:
        dW = d.T @ P
    else:
        dW = np.zeros((O, k * k * C))
        rows = Ho * Wo
        for lo, hi, Pb in ref_patch_blocks(x.transpose(0, 2, 3, 1), k):
            dW += d[lo * rows : hi * rows].T @ Pb
    dW = dW.reshape(O, k, k, C).transpose(0, 3, 1, 2)
    db = d.sum(axis=0)
    if not input_grad:
        return dW, db, None
    Wt = np.ascontiguousarray(W.transpose(2, 3, 0, 1))
    dxt = np.zeros((B, H, Wd, C))
    for u in range(k):
        for v in range(k):
            dxt[:, u : u + Ho, v : v + Wo] += (d @ Wt[u, v]).reshape(B, Ho, Wo, C)
    return dW, db, dxt.transpose(0, 3, 1, 2)


def ref_check_finite(arr, layer, what):
    if not np.all(np.isfinite(arr)):
        raise nn.NumericError(f"non-finite {what} at layer {layer}")


def ref_forward_caches(model, X):
    # one client; every layer's output checked, the flatten's too
    B = X.shape[0]
    a = X.reshape(B, *model.input_shape) if len(model.input_shape) == 3 else X
    caches = []
    for i, (spec, vec) in enumerate(zip(model.layers, model.params)):
        if spec.kind == nn.DENSE:
            W, b = nn._split_dense(spec, vec)
            z, P = a @ W.T + b, None
        elif spec.kind == nn.CONV2D:
            W, b = nn._split_conv(spec, vec)
            z, P = ref_blocked_conv_forward(a, W, b)
        else:
            z, P = a.reshape(B, -1), None
        ref_check_finite(z, i, "activation")
        out = np.maximum(z, 0.0) if spec.activation == nn.ACT_RELU else z
        caches.append((a, z, P))
        a = out
    return a, caches


def ref_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def ref_loss_and_grads(model, batch):
    # one client; a bool ReLU mask, `.mean()`, the flatten's empty gradient
    # checked, and one gradient vector per layer, concatenated at the end
    logits, caches = ref_forward_caches(model, batch.inputs)
    B = len(batch)
    logp = ref_log_softmax(logits)
    loss = float(-logp[np.arange(B), batch.labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(B), batch.labels] -= 1.0
    dlogits /= B
    grads = [None] * model.num_layers
    da = dlogits
    for i in range(model.num_layers - 1, -1, -1):
        spec = model.layers[i]
        a_prev, z, P = caches[i]
        dz = da * (z > 0.0) if spec.activation == nn.ACT_RELU else da
        if spec.kind == nn.DENSE:
            W, _ = nn._split_dense(spec, model.params[i])
            dW, db, da = dz.T @ a_prev, dz.sum(axis=0), dz @ W
            grads[i] = np.concatenate([dW.ravel(), db])
        elif spec.kind == nn.CONV2D:
            W, _ = nn._split_conv(spec, model.params[i])
            dW, db, da = ref_offset_conv_backward(a_prev, W, dz, P, input_grad=i > 0)
            grads[i] = np.concatenate([dW.ravel(), db])
        else:
            grads[i] = np.zeros(0, dtype=np.float64)
            da = dz.reshape(a_prev.shape)
        ref_check_finite(grads[i], i, "gradient")
    return loss, np.concatenate(grads)


def ref_forward(model, batch):
    return ref_forward_caches(model, batch.inputs)[0]


def ref_local_update(model, X, y, epochs, eta, batch_size, seed):
    # one client at a time, a new model from every SGD step
    rng = np.random.default_rng(seed)
    current = model
    for _ in range(epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], batch_size):
            sel = order[start : start + batch_size]
            _, grad = ref_loss_and_grads(current, nn.Batch(X[sel], y[sel]))
            current = dataclasses.replace(current, flat=current.flat - eta * grad)
    return current


def ref_aggregate(models, sizes):
    # one weighted sum per layer vector
    total = float(sum(sizes))
    new_params = [np.zeros_like(p) for p in models[0].params]
    for m, s in zip(models, sizes):
        w = s / total
        for l, p in enumerate(m.params):
            new_params[l] += w * p
    return dataclasses.replace(models[0], flat=np.concatenate(new_params))


def ref_run_rounds(cfg, part, ds, model0, eligible=None, client_indices=None):
    """FedAvg as a per-client loop over `ref_local_update` and `ref_aggregate`:
    (model, {client: (upload, size, round)}, [(round, participants, loss,
    accuracy)])."""
    indices = part.indices if client_indices is None else client_indices
    pool = sorted(range(cfg.n_clients) if eligible is None else eligible)
    k = min(cfg.clients_per_round, len(pool))
    select_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    model, uploads, logs = model0, {}, []
    for rnd in range(1, cfg.rounds + 1):
        participants = sorted(select_rng.choice(pool, size=k, replace=False).tolist())
        local = []
        for n in participants:
            seed = int(np.random.SeedSequence(cfg.seed, spawn_key=(2, rnd, n)).generate_state(1)[0])
            X, y = ds.inputs[indices[n]], ds.labels[indices[n]]
            local.append(ref_local_update(model, X, y, cfg.local_epochs, cfg.eta,
                                          cfg.batch_size, seed))
            uploads[n] = (local[-1].flat, indices[n].size, rnd)
        model = ref_aggregate(local, [indices[n].size for n in participants])
        logits = ref_forward(model, nn.Batch(ds.inputs, ds.labels))
        loss = float(-ref_log_softmax(logits)[np.arange(len(ds.labels)), ds.labels].mean())
        acc = float((logits.argmax(axis=1) == ds.labels).mean())
        logs.append((rnd, participants, loss, acc))
    return model, uploads, logs


def same_bytes(got, ref):
    """Equal values, signs of zero and NaN payloads."""
    got, ref = np.asarray(got), np.asarray(ref)
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


# every minibatch a client can see: B = 1 is the last minibatch of a
# 33-sample client; 600 is the cnn-fed evaluate forward
STEP_BATCHES = [*range(1, 71), 600]
STEP_MODELS = [("mini_cnn", 64), ("mini_cnn", 49), ("mlp", 32), ("mlp", 784)]


def step_model(arch, dim):
    return nn.make_model(arch, dim, 4, seed=dim, hidden=(16, 8))


def step_data(dim, n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim)), rng.integers(0, 4, n)


@pytest.mark.parametrize("arch,dim", STEP_MODELS)
def test_local_step_bits_match_reference(arch, dim):
    model = step_model(arch, dim)
    before = model.flat.copy()
    X, y = step_data(dim, 600, seed=dim)
    for B in STEP_BATCHES:
        batch = nn.Batch(X[:B], y[:B])
        assert same_bytes(nn.forward(model, batch), ref_forward(model, batch)), B
        loss, grad = nn.loss_and_grads(model, batch)
        ref_loss, ref_grad = ref_loss_and_grads(model, batch)
        assert same_bytes(loss, ref_loss), B
        assert same_bytes(grad, ref_grad), B
        local = federation.local_update(model, X[:B], y[:B], 2, 0.05, 32, seed=B)
        ref_local = ref_local_update(model, X[:B], y[:B], 2, 0.05, 32, seed=B)
        assert same_bytes(local.flat, ref_local.flat), B
    # local_update steps its own copy
    assert same_bytes(model.flat, before)


# minibatch sizes of one stacked call, in the order a lockstep tick sorts
# them (largest first); the test also takes them smallest first and in an
# order whose equal sizes are not next to each other
MIXED_CALLS = {"mlp-32": ("mlp", 32, (32, 32, 11, 5, 1)),
               "mlp-784": ("mlp", 784, (32, 32, 11, 5, 1)),
               "mini_cnn-64": ("mini_cnn", 64, (32, 31, 7, 1))}


@pytest.mark.parametrize("arch,dim,sizes", MIXED_CALLS.values(), ids=MIXED_CALLS)
def test_mixed_size_call_bits_match_each_client_alone(arch, dim, sizes):
    # each client of one call has its own parameters and minibatch; its loss
    # and gradient must have the bytes of a call on it alone and of the
    # reference, signs of zero included
    model = step_model(arch, dim)
    for order in (sizes, sizes[::-1], (*sizes[1:], sizes[0])):
        X, y = step_data(dim, sum(order), seed=len(order) + dim)
        flats = np.stack([(1.0 + 0.25 * n) * model.flat for n in range(len(order))])
        flats[-1, ::7] = -0.0   # parameters of both zero signs
        losses, grads = nn.stacked_loss_and_grads(model, flats, X, y, order)
        assert grads.shape == flats.shape
        for n, (lo, B) in enumerate(zip(np.cumsum([0, *order[:-1]]).tolist(), order)):
            client = model.over(flats[n].copy())
            batch = nn.Batch(X[lo : lo + B], y[lo : lo + B])
            loss, grad = nn.loss_and_grads(client, batch)
            ref_loss, ref_grad = ref_loss_and_grads(client, batch)
            assert same_bytes(losses[n], loss) and same_bytes(loss, ref_loss), (order, n)
            assert same_bytes(grads[n], grad) and same_bytes(grad, ref_grad), (order, n)


def uneven_indices(n_samples, sizes, seed):
    """Disjoint client index arrays of the given sizes, drawn at random."""
    order = np.random.default_rng(seed).permutation(n_samples)
    return [np.sort(order[lo : lo + n]) for lo, n in
            zip(np.cumsum([0, *sizes[:-1]]).tolist(), sizes)]


# client sizes of the "uneven" and "distinct" pools; the last client of a
# pool takes the rest of the dataset
POOL_SIZES = {"uneven": [1, 5, 31, 32, 33, 64, 100], "distinct": [3, 7, 12, 18, 25, 40, 60]}

# (config overlay, stacked-call cap in samples, how the pool is restricted)
ROUNDS_CASES = {
    # ref-mlp's shapes, clients of 1, 5, 31, 32, 33 ... samples
    "mlp-uneven": ({}, None, "uneven"),
    # one minibatch an epoch, of a size no other client has: every tick is
    # one call of eight one-client runs
    "mlp-distinct": ({"federation": {"batch_size": 256}}, None, "distinct"),
    # a cap of 48 samples: the tick of sizes 32, ..., 32, 31, 5, 1 is cut
    # into one call per 32-sample client and a call of 31, 5 and 1
    "mlp-uneven-cap": ({}, 48, "uneven"),
    # one sample a minibatch: every client of a tick in one stacked call
    "mini_cnn-b1": ({"model": {"arch": "mini_cnn"}, "dataset": {"dim": 36, "per_class": 12},
                     "federation": {"batch_size": 1}}, None, None),
    # minibatches above CONV_BLOCK: the patch matrix is rebuilt in backward
    "mini_cnn-b40": ({"model": {"arch": "mini_cnn"}, "dataset": {"dim": 36, "per_class": 60},
                      "federation": {"batch_size": 40}}, None, None),
    # 3 of 8 clients a round, and a cap of two 32-sample clients a call
    "mlp-3-of-8": ({"federation": {"clients_per_round": 3}}, 64, None),
    # retrain's arguments: client 3 keeps half of its samples, client 5 none
    # and leaves the pool
    "mlp-retrain": ({}, 100, "retrain"),
    "mini_cnn-retrain": ({"model": {"arch": "mini_cnn"}, "dataset": {"dim": 36, "per_class": 40}},
                         None, "retrain"),
}


def test_run_rounds_bits_match_reference(monkeypatch):
    # cnn-fed's shapes, dirichlet clients of uneven size
    check_run_rounds(monkeypatch, {"model": {"arch": "mini_cnn"},
                                   "dataset": {"dim": 64, "per_class": 150}}, None, None)


@pytest.mark.parametrize("case", ROUNDS_CASES.values(), ids=ROUNDS_CASES)
def test_run_rounds_bits_match_reference_on_edge_cases(monkeypatch, case):
    check_run_rounds(monkeypatch, *case)


def check_run_rounds(monkeypatch, overlay, cap, pool):
    """A 3-round lockstep `run_rounds` against `ref_run_rounds`: the model,
    every upload and the round logs, signs of zero included."""
    cfg = validate_config({**overlay, "federation": {"rounds": 3, **overlay.get("federation", {})}})
    ds = pipeline.build_dataset(cfg)
    part = pipeline.build_partition(cfg, ds)
    kwargs = {}
    if pool in POOL_SIZES:
        sizes = POOL_SIZES[pool]
        n = len(ds.labels)
        kwargs["client_indices"] = uneven_indices(n, [*sizes, n - sum(sizes)], seed=7)
    elif pool == "retrain":
        req = UnlearnRequest.parse("sample:3:0.5", seed=5)
        split = data.build_split(ds, part, req)
        remain = [*split.remain_per_client[:5], np.zeros(0, np.int64),
                  *split.remain_per_client[6:]]
        kwargs = {"eligible": [n for n in range(8) if remain[n].size],
                  "client_indices": remain}
    args = (fed_config(cfg), part, ds, pipeline.build_model0(cfg, ds))
    if cap is not None:
        monkeypatch.setattr(nn, "STACK_FLOATS", cap * nn.sample_floats(args[3]))
    calls = record_calls(monkeypatch)
    model, history, logs = federation.run_rounds(*args, **kwargs)
    # a call's clients are sorted by size, largest first, and only a
    # one-client call passes the cap
    assert all(list(sizes) == sorted(sizes, reverse=True) for sizes in calls)
    if cap is not None:
        assert all(sum(sizes) <= cap or len(sizes) == 1 for sizes in calls)
    ref_model, ref_uploads, ref_logs = ref_run_rounds(*args, **kwargs)
    assert same_bytes(model.flat, ref_model.flat)
    assert history.clients() == sorted(ref_uploads)
    for c in history.clients():
        flat, size, rnd = ref_uploads[c]
        assert same_bytes(history.uploads[c], flat), c
        assert (history.sizes[c], history.last_round[c]) == (size, rnd)
    assert len(logs) == 3
    for log, (rnd, participants, loss, acc) in zip(logs, ref_logs):
        assert (log.round, log.participants) == (rnd, participants)
        assert same_bytes(log.loss, loss) and same_bytes(log.accuracy, acc)


def record_calls(monkeypatch):
    """The minibatch sizes of each `nn.stacked_loss_and_grads` call, in call
    order, from here on."""
    calls, call = [], nn.stacked_loss_and_grads

    def recorded(model, flats, inputs, labels, sizes):
        calls.append(tuple(sizes))
        return call(model, flats, inputs, labels, sizes)

    monkeypatch.setattr(nn, "stacked_loss_and_grads", recorded)
    return calls


@pytest.mark.parametrize("cap,ticks", [
    (None, [[(32, 32, 31, 5, 1)], [(32, 31, 5, 1, 1)], [(32,)], [(1,)]]),
    # 40 samples: each 32-sample client fills a call, and the smaller
    # clients share the last one
    (40, [[(32,), (32,), (31, 5, 1)], [(32,), (31, 5, 1, 1)], [(32,)], [(1,)]]),
    # 1 sample: one client a call
    (1, [[(32,), (32,), (31,), (5,), (1,)], [(32,), (31,), (5,), (1,), (1,)], [(32,)],
         [(1,)]]),
])
def test_lockstep_tick_is_one_call_sorted_by_size(monkeypatch, cap, ticks):
    # clients of 33, 1, 32, 5 and 31 samples, two epochs of 32-sample
    # minibatches: schedules (32, 1, 32, 1), (1, 1), (32, 32), (5, 5),
    # (31, 31). Each tick is one call of its clients sorted by size, largest
    # first, cut where the next client would pass the cap, and every client
    # ends with the bits of its local update alone.
    model = step_model("mlp", 32)
    X, y = step_data(32, 102, seed=3)
    rows = uneven_indices(102, [33, 1, 32, 5, 31], seed=4)
    if cap is not None:
        monkeypatch.setattr(nn, "STACK_FLOATS", cap * nn.sample_floats(model))
    calls = record_calls(monkeypatch)
    flats = federation.local_updates(model, X, y, rows, [10, 11, 12, 13, 14], 2, 0.05, 32)
    assert calls == [call for tick in ticks for call in tick]
    for n, (idx, seed) in enumerate(zip(rows, [10, 11, 12, 13, 14])):
        alone = ref_local_update(model, X[idx], y[idx], 2, 0.05, 32, seed)
        assert same_bytes(flats[n], alone.flat), n


NON_FINITE = ["input nan", "input inf", "weights inf", "head nan", "gradient overflow"]


def poison(model, X, where):
    """Put a non-finite value (or, for "gradient overflow", finite values whose
    layer-0 weight gradient overflows) into a copy of the model or in X."""
    model, X = model.copy(), X.copy()
    if where == "input nan":
        X[2, 3] = np.nan
    elif where == "input inf":
        X[0, 0] = -np.inf
    elif where == "weights inf":
        model.params[1][0] = np.inf
    elif where == "head nan":
        model.params[-1][-1] = np.nan
    else:
        # activations stay finite: tiny layer-0 weights scale down huge
        # inputs, but the next layer's huge weights blow up dW0 = dz0.T @ X
        X[:] = 1e300
        model.params[0][:] *= 1e-300
        model.params[1][:] *= 1e10
    return model, X


@pytest.mark.parametrize("arch,dim", STEP_MODELS[::2])
@pytest.mark.parametrize("where", NON_FINITE)
def test_non_finite_step_raises_reference_message(arch, dim, where):
    model, X = poison(step_model(arch, dim), step_data(dim, 5, seed=1)[0], where)
    batch = nn.Batch(X, step_data(dim, 5, seed=1)[1])
    for call, ref in ((nn.forward, ref_forward), (nn.loss_and_grads, ref_loss_and_grads)):
        if where == "gradient overflow" and call is nn.forward:
            continue   # nothing to raise
        messages = []
        for fn in (call, ref):
            with np.errstate(all="ignore"), pytest.raises(nn.NumericError) as err:
                fn(model, batch)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


@pytest.mark.parametrize("arch,dim", STEP_MODELS[::2])
@pytest.mark.parametrize("where", NON_FINITE)
@pytest.mark.parametrize("bad", [0, 2])
def test_non_finite_client_of_a_stacked_tick_names_the_layer(arch, dim, where, bad):
    # three clients stacked, one of them poisoned, of the same size as its
    # neighbours or of another: the message is the one the poisoned client
    # raises alone
    model = step_model(arch, dim)
    for sizes in ((5, 5, 5), (5, 9, 7)):
        X, y = step_data(dim, sum(sizes), seed=1)
        rows = slice(sum(sizes[:bad]), sum(sizes[: bad + 1]))
        flats = np.stack([model.flat, 0.5 * model.flat, 2.0 * model.flat])
        bad_model, X[rows] = poison(model.over(flats[bad].copy()), X[rows], where)
        flats[bad] = bad_model.flat
        with np.errstate(all="ignore"), pytest.raises(nn.NumericError) as err:
            ref_loss_and_grads(bad_model, nn.Batch(X[rows], y[rows]))
        kind = "gradient" if where == "gradient overflow" else "activation"
        assert f"non-finite {kind} at layer" in str(err.value)
        with np.errstate(all="ignore"), pytest.raises(nn.NumericError, match=f"^{err.value}$"):
            nn.stacked_loss_and_grads(model, flats, X, y, sizes)


def test_run_rounds_raises_on_a_non_finite_client():
    cfg = validate_config({"federation": {"rounds": 1}})
    ds = pipeline.build_dataset(cfg)
    part = pipeline.build_partition(cfg, ds)
    ds.inputs[part.indices[4][0], 0] = np.nan
    with np.errstate(all="ignore"), pytest.raises(nn.NumericError,
                                                  match="^non-finite activation at layer 0$"):
        federation.run_rounds(fed_config(cfg), part, ds, pipeline.build_model0(cfg, ds))


ROUNDS_THREADS_PROBE = """
import hashlib
from scale_fu import federation, pipeline
from scale_fu.config import fed_config, validate_config
for overlay in ({}, {"model": {"arch": "mini_cnn"}, "dataset": {"dim": 64, "per_class": 150}}):
    cfg = validate_config({**overlay, "federation": {"rounds": 3}})
    ds = pipeline.build_dataset(cfg)
    model, history, logs = federation.run_rounds(fed_config(cfg), pipeline.build_partition(cfg, ds),
                                                 ds, pipeline.build_model0(cfg, ds))
    h = hashlib.sha256(model.flat.tobytes() + repr(logs).encode())
    for c in history.clients():
        h.update(history.uploads[c].tobytes())
    print(model.arch_id, h.hexdigest())
"""


def test_lockstep_rounds_bits_do_not_depend_on_blas_threads():
    # ref-mlp's and cnn-fed's shapes, stacked calls of several clients
    assert run_probe(ROUNDS_THREADS_PROBE, 1) == run_probe(ROUNDS_THREADS_PROBE, 2)


# --- whole-model operations on the flat vector -------------------------------------


def ref_loo_aggregate(history, l, n):
    """`sensitivity.loo_aggregate` as it was: layer l only, summed over each
    upload's per-layer view."""
    others = [c for c in history.clients() if c != n]
    total = float(sum(history.sizes[c] for c in others))
    layer = {c: nn.views(history.uploads[c], [(d,) for d in history.dims])[l] for c in others}
    out = np.zeros_like(layer[others[0]])
    for c in others:
        out += (history.sizes[c] / total) * layer[c]
    return out


def ref_newly_zeroed(before, after):
    # one count per layer vector
    total = 0
    for p, q in zip(before.params, after.params):
        total += int(np.count_nonzero((p != 0.0) & (q == 0.0)))
    return total


def ref_grad_ascent(model, X_u, y_u, steps, eta_u):
    # per-layer gradients, ascent steps and projection; norms of the
    # concatenated layer vectors
    current = model.copy()
    norm_cap = 2.0 * float(np.linalg.norm(np.concatenate(model.params)))
    batch = nn.Batch(X_u, y_u)
    log = []
    for t in range(1, steps + 1):
        loss, grad = ref_loss_and_grads(current, batch)
        for p, g in zip(current.params, current.layer_views(grad)):
            p -= eta_u * -g
        norm = float(np.linalg.norm(np.concatenate(current.params)))
        projected = norm > norm_cap > 0.0
        if projected:
            scale = norm_cap / norm
            for p in current.params:
                p *= scale
            norm = norm_cap
        log.append(baselines.AscentStep(t, float(loss), norm, projected))
    return baselines.AscentResult(current, log)


def flat_op_models(arch, dim):
    """Five models of one architecture: two drawn from TIED_VALUES' finite
    part (zeros of both signs, equal magnitudes of opposite sign), three from
    a normal draw with a third of the coordinates set to 0.0 or -0.0."""
    base = step_model(arch, dim)
    rng = np.random.default_rng(dim)
    models = [tie(base, seed) for seed in (1, 2)]
    for _ in range(3):
        flat = rng.standard_normal(base.num_params)
        cut = rng.random(base.num_params) < 1 / 3
        flat[cut] = rng.choice([0.0, -0.0], size=int(cut.sum()))
        models.append(dataclasses.replace(base, flat=flat))
    return models


@pytest.mark.parametrize("arch,dim", STEP_MODELS[::2])
def test_aggregate_and_newly_zeroed_bits_match_per_layer_loops(arch, dim):
    models = flat_op_models(arch, dim)
    for sizes in ([1] * 5, [3, 1, 4, 1, 5], [600, 7, 33, 1, 2]):
        for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1]):
            picked, weights = [models[i] for i in order], [sizes[i] for i in order]
            assert same_bytes(federation.aggregate(picked, weights).flat,
                              ref_aggregate(picked, weights).flat)
    for a in models:
        for b in models:
            assert baselines.newly_zeroed(a, b) == ref_newly_zeroed(a, b)


# the model and dataset blocks of the benchmark's ref-mlp and cnn-fed workloads
HISTORY_OVERLAYS = {"ref-mlp": {},
                    "cnn-fed": {"model": {"arch": "mini_cnn"},
                                "dataset": {"dim": 64, "per_class": 150}}}


@pytest.mark.parametrize("overlay", HISTORY_OVERLAYS.values(), ids=HISTORY_OVERLAYS)
def test_loo_aggregate_bits_match_per_layer_reference(overlay):
    _, model, history, _ = pipeline.train(validate_config({**overlay, "seeds": {"master": 42}}))
    for n in history.clients():
        flat = model.layer_views(sensitivity.loo_aggregate(history, n))
        for l in range(model.num_layers):
            assert same_bytes(flat[l], ref_loo_aggregate(history, l, n)), (n, l)


@pytest.mark.parametrize("arch,dim,eta", [("mini_cnn", 64, 5.0), ("mlp", 32, 5.0)])
def test_grad_ascent_bits_match_per_layer_loops(arch, dim, eta):
    # a forget set over one conv block, so backward rebuilds the patch matrix
    model = step_model(arch, dim)
    X, y = step_data(dim, nn.CONV_BLOCK + 8, seed=dim)
    res = baselines.baseline_grad_ascent(model, X, y, 6, eta)
    ref = ref_grad_ascent(model, X, y, 6, eta)
    assert any(s.projected for s in res.steps) and not res.halted
    assert repr(res.steps) == repr(ref.steps)
    assert same_bytes(res.model.flat, ref.model.flat)


# --- policy step ----------------------------------------------------------------

# fixed before measuring: one fused step rounds float64 in another order
# (a few ulp); a training run compounds that over its updates
STEP_RTOL = 1e-12
RUN_RTOL = 1e-9


def assert_step_close(got, ref, rtol=STEP_RTOL, scale=0.0):
    """Within rtol of the largest of |ref| and `scale`, the size of the
    terms a result was summed from when they cancel."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=rtol,
                               atol=rtol * max(np.abs(ref).max(initial=0.0), scale))


def singleton_index(groups):
    """A GroupIndex of one-parameter groups, groups[r] of them at rank r."""
    return GroupIndex(layers=tuple(range(len(groups))),
                      ranges=tuple(aoi.balanced_ranges(g, g) for g in groups))


def random_policy(groups, ratio_levels, hidden, seed, scale):
    """A policy whose zero-initialized heads are given random weights of
    size `scale`, so that large `scale` saturates the sigmoid and softmax."""
    net = rl.PolicyNet(singleton_index(groups), ratio_levels, seed=seed, hidden=hidden)
    rng = np.random.default_rng(seed)
    for name in ("W_heads", "b_heads"):
        net.params[name][:] = scale * rng.standard_normal(net.params[name].shape)
    return net


def random_actions(net, n, rng):
    actions = []
    for _ in range(n):
        rank = int(rng.integers(net.idx.n_layers))
        g = net.idx.n_groups(net.idx.layers[rank])
        groups = rng.choice(g, size=int(rng.integers(1, g + 1)), replace=False)
        level = int(rng.integers(1, net.ratio_levels + 1))
        actions.append(rl.Action(rank, tuple(int(j) for j in groups), level,
                                 level / net.ratio_levels))
    return actions


@pytest.mark.parametrize("scale", [0.0, 0.3, 3.0, 40.0])
@pytest.mark.parametrize("groups,B", [((3, 5), 7), ((8,), 15), ((32,), 1)])
def test_fused_policy_step_matches_per_head_reference(groups, B, scale):
    net = random_policy(groups, 4, 11, seed=len(groups) + B, scale=scale)
    rng = np.random.default_rng(B)
    X = rng.standard_normal((B, 3 * net.idx.total_groups))
    arrays = rl.action_arrays(net.idx, random_actions(net, B, rng))
    for got, ref in zip(net.logits(X)[:3], ref_logits(net, X)[:3]):
        assert_step_close(got, ref)
    lp, entropy, aux = rl.batch_log_probs(net, X, arrays)
    ref_lp, ref_entropy, ref_aux = ref_batch_log_probs(net, X, arrays)
    assert_step_close(lp, ref_lp)
    # a saturated bit's entropy, softplus(z) - z * sigmoid(z), cancels terms
    # of size |z|; both sigmoids round 1 - sigmoid(z) differently there
    assert_step_close(entropy, ref_entropy, scale=np.abs(aux[0]).max())
    assert_step_close(aux[6], ref_aux[6])         # sigmoid(z_g)
    assert np.all(lp <= 0.0) and np.all(np.isfinite(lp))
    dZ = rng.standard_normal((B, net.params["b_heads"].size))
    grad = net.backward(X, *aux[1][1:], dZ).copy()
    assert_step_close(grad, ref_backward(net, X, *aux[1][1:], dZ))
    assert np.array_equal(net.backward(X, *aux[1][1:], dZ), grad)


@pytest.mark.parametrize("scale", [0.3, 40.0])
def test_mask_log_prob_matches_batch_and_reference(scale):
    net = random_policy((6,), 3, 5, seed=2, scale=scale)
    rng = np.random.default_rng(3)
    for action in random_actions(net, 10, rng):
        state = rng.standard_normal(3 * net.idx.total_groups)
        z_g = net.logits(state[None, :])[1][0]
        bits = np.zeros(6)
        bits[list(action.groups)] = 1.0
        ref = -float(np.add.reduce(rl._softplus(-z_g) * bits + rl._softplus(z_g) * (1 - bits)))
        lp, _, _ = rl.batch_log_probs(net, state[None, :], rl.action_arrays(net.idx, [action]))
        z_l, _, z_r, _ = net.logits(state[None, :])
        rest = nn.log_softmax(z_l)[0, 0] + nn.log_softmax(z_r)[0, action.ratio_level - 1]
        # one layer: lp is level - mask, and -mask + level rounds the same
        assert float(lp[0]) == ref + rest


@pytest.mark.parametrize("max_norm,clips", [(1e-3, True), (1e6, False)])
def test_flat_adam_and_clip_match_per_key_reference(max_norm, clips):
    idx = singleton_index((3, 5))
    net = rl.PolicyNet(idx, 4, seed=8, hidden=11)
    ref_params = {k: v.copy() for k, v in net.params.items()}
    opt, ref_opt = rl.Adam(net.flat, lr=0.01), DictAdam(ref_params, lr=0.01)
    rng = np.random.default_rng(5)
    for _ in range(6):
        X = rng.standard_normal((7, 3 * idx.total_groups))
        _, _, _, (X, h1, h2) = net.logits(X)
        grad = net.backward(X, h1, h2, rng.standard_normal((7, net.params["b_heads"].size)))
        ref_grads = {k: g.copy() for k, g in net.grads.items()}
        norm = rl.clip_grad_norm(grad, max_norm)
        assert norm == pytest.approx(dict_clip_grad_norm(ref_grads, max_norm), rel=STEP_RTOL)
        assert (norm > max_norm) is clips
        assert_step_close(grad, np.concatenate([g.ravel() for g in ref_grads.values()]))
        opt.step(net.flat, grad)
        ref_opt.step(ref_params, ref_grads)
        for k, v in net.params.items():
            assert_step_close(v, ref_params[k])


def test_params_are_views_of_one_flat_buffer():
    net = rl.ValueNet(state_dim=6, seed=1, hidden=5)
    assert sum(v.size for v in net.params.values()) == net.flat.size
    for k, v in net.params.items():
        assert v.base is net.flat and net.grads[k].base is net.grad
    # laid out W_heads (1 x 5), b_heads, ...
    net.params["b_heads"][:] = 2.5
    assert net.flat[5] == 2.5 and np.count_nonzero(net.flat[:5]) == 0


# --- end to end -------------------------------------------------------------------


def three_layer_run():
    """(model, report, idx, cfg) of a short PPO run over three layers."""
    model = dense_model((6, 5, 4, 3), seed=9)
    idx = partition_groups(model, [1, 0, 2], 2)   # sizes 12+12, 18+17, 8+7
    scores = np.array([1.0, 2.0, 0.5])
    report = SensitivityReport(
        client=0, lam=0.5, rho=np.zeros(3), s_align=np.zeros(3), s_impact=np.zeros(3),
        s_combined=scores, selected=[1, 0, 2], m_sel=3,
    )
    cfg = rl.PpoConfig(episodes=12, t_collect=10, epochs=3, batch_size=5, ratio_levels=4,
                       hidden=8, sparsity_cap=0.5, actor_lr=0.01, critic_lr=0.01)
    return model, report, idx, cfg


def test_train_unlearner_matches_reference_kernels(monkeypatch):
    model, report, idx, cfg = three_layer_run()
    sample = rl.policy_sample

    def recording(log):
        def record(policy, state, rng):
            log.append(sample(policy, state, rng))
            return log[-1]
        return record

    flat_actions, ref_actions = [], []
    monkeypatch.setattr(rl, "policy_sample", recording(flat_actions))
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

    monkeypatch.setattr(rl, "policy_sample", recording(ref_actions))
    monkeypatch.setattr(rl._TrunkNet, "__init__", recording_init)
    monkeypatch.setattr(rl.PolicyNet, "logits", ref_logits)
    monkeypatch.setattr(rl._TrunkNet, "backward", ref_backward)
    monkeypatch.setattr(rl, "batch_log_probs", ref_batch_log_probs)
    monkeypatch.setattr(rl, "Adam", RefAdam)
    monkeypatch.setattr(rl, "clip_grad_norm",
                        lambda grad, max_norm: dict_clip_grad_norm(net_of(grad).grads, max_norm))
    monkeypatch.setattr(rl, "UnlearnEnv", RefEnv)
    # the critic values the buffer one state at a time, as collect did
    monkeypatch.setattr(rl.ValueNet, "row_values",
                        lambda net, X: np.array([net.value(x) for x in X]))
    ref = rl.train_unlearner(model, report, idx, cfg, seed=31)
    monkeypatch.undo()

    assert len(nets) == 2
    assert any(e.steps < cfg.t_collect for e in ref.episodes)   # the cap ended some
    assert len(flat_actions) == sum(e.steps for e in ref.episodes)
    assert flat_actions == ref_actions
    assert [e.total_reward for e in flat.episodes] == [e.total_reward for e in ref.episodes]
    flat_deploy, ref_deploy = (rl.deploy(r.policy, model, report, idx, cfg, 10).action_rows
                               for r in (flat, ref))
    assert flat_deploy == ref_deploy and ref_deploy
    assert len(flat.update_stats) == len(ref.update_stats)
    for got, want in zip(flat.update_stats, ref.update_stats):
        assert got.keys() == want.keys()
        for k in got:
            assert got[k] == pytest.approx(want[k], rel=RUN_RTOL, abs=RUN_RTOL), k
    for a, b in ((flat.policy, ref.policy), (flat.value_net, ref.value_net)):
        for k in a.params:
            assert_step_close(a.params[k], b.params[k], rtol=RUN_RTOL)


# --- the PPO loop as it was: a critic forward per step, the full layer head ----------


def ref_net_forward(net, X):
    """`_TrunkNet.trunk` then `heads` as they were, with `@`: (h1, h2, z)."""
    p = net.params
    h1 = np.tanh(X @ p["W1"].T + p["b1"])
    h2 = np.tanh(h1 @ p["W2"].T + p["b2"])
    return h1, h2, h2 @ p["W_heads"].T + p["b_heads"]


def ref_value(net, state):
    """`ValueNet.value` as collect called it at every step."""
    return float(ref_net_forward(net, state[None, :])[2][0, 0])


def ref_net_backward(net, X, h1, h2, dZ):
    """`_TrunkNet.backward` as it was, with `np.matmul`."""
    p, g = net.params, net.grads
    np.matmul(dZ.T, h2, out=g["W_heads"])
    np.add.reduce(dZ, axis=0, out=g["b_heads"])
    dp2 = (dZ @ p["W_heads"]) * (1.0 - h2 * h2)
    np.matmul(dp2.T, h1, out=g["W2"])
    np.add.reduce(dp2, axis=0, out=g["b2"])
    dp1 = (dp2 @ p["W2"]) * (1.0 - h1 * h1)
    np.matmul(dp1.T, X, out=g["W1"])
    np.add.reduce(dp1, axis=0, out=g["b1"])
    return net.grad


def ref_head_logits(policy, X):
    h1, h2, z = ref_net_forward(policy, X)
    c = policy.head_cols
    return z[:, c["layer"]], z[:, c["group"]], z[:, c["ratio"]], (X, h1, h2)


def ref_decode(policy, state, pick):
    """The sampler and greedy decoder as they were: the layer head's
    log-softmax always, and the action's log-prob summed as layer, then
    mask over the layer's groups, then level."""
    z_l, z_g, z_r, _ = ref_head_logits(policy, state[None, :])
    lsm_l, lsm_r = nn.log_softmax(z_l)[0], nn.log_softmax(z_r)[0]
    rank, bits, level = pick(z_l[0], z_g[0], z_r[0], lsm_l, lsm_r)
    groups = np.flatnonzero(bits).tolist()
    if not groups:
        groups = [rl._oldest_group(policy.idx, state, rank)]
        bits[groups[0]] = 1.0
    action = rl.Action(rank, tuple(groups), level, level / policy.ratio_levels)
    mask_lp = -float(np.add.reduce(rl._softplus(z_g[0, policy.idx.cols(rank)]
                                                * (1.0 - 2.0 * bits))))
    return action, float(lsm_l[rank]) + mask_lp + float(lsm_r[level - 1])


def ref_policy_sample(policy, state, rng):
    def pick(z_l, z_g, z_r, lsm_l, lsm_r):
        rank = rl._draw(rng, np.exp(lsm_l))
        z = z_g[policy.idx.cols(rank)]
        bits = (rng.random(z.size) < np.exp(z - rl._softplus(z))).astype(np.float64)
        return rank, bits, rl._draw(rng, np.exp(lsm_r)) + 1

    return ref_decode(policy, state, pick)


def ref_policy_mode(policy, state):
    def pick(z_l, z_g, z_r, lsm_l, lsm_r):
        rank = int(np.argmax(z_l))
        bits = (z_g[policy.idx.cols(rank)] > 0.0).astype(np.float64)
        return rank, bits, int(np.argmax(z_r)) + 1

    return ref_decode(policy, state, pick)


def ref_full_head_log_probs(policy, states, arrays):
    """`rl.batch_log_probs` as it was: the layer head always."""
    z_l, z_g, z_r, cache = ref_head_logits(policy, states)
    ranks, levels, bits, mask = arrays
    rows = np.arange(ranks.size)
    lsm_l, lsm_r = nn.log_softmax(z_l), nn.log_softmax(z_r)
    sp = rl._softplus(z_g)
    lp = lsm_l[rows, ranks] + lsm_r[rows, levels]
    lp = lp - np.add.reduce(mask * rl._softplus(z_g * (1.0 - 2.0 * bits)), axis=1)
    p_l, p_r = np.exp(lsm_l), np.exp(lsm_r)
    sig = np.exp(z_g - sp)
    ent_l = -np.add.reduce(p_l * lsm_l, axis=1)
    ent_r = -np.add.reduce(p_r * lsm_r, axis=1)
    ent_g = np.add.reduce(mask * (sp - z_g * sig), axis=1)
    return lp, ent_l + ent_r + ent_g, (z_g, cache, lsm_l, lsm_r, p_l, p_r, sig, ent_l, ent_r)


def ref_old_log_probs(policy, buffer):
    """The old log-probs of the buffer's actions: `ref_full_head_log_probs`
    of each state alone, over its one-row `ref_head_logits`."""
    return np.array([
        ref_full_head_log_probs(policy, tr.state[None, :],
                                rl.action_arrays(policy.idx, [tr.action]))[0][0]
        for tr in buffer])


def ref_ppo_update(policy, value_net, buffer, values, old_lps, cfg, rng, policy_opt,
                   value_opt):
    """`rl.ppo_update` as it was, given the values collect stored per step;
    the old log-probs are taken at its start by `ref_old_log_probs` and
    appended to `old_lps`."""
    n = len(buffer)
    rows = np.arange(n)
    states = np.stack([tr.state for tr in buffer])
    old_lp = ref_old_log_probs(policy, buffer)
    old_lps.extend(old_lp.tolist())
    ranks, levels, bits, mask = rl.action_arrays(policy.idx, [tr.action for tr in buffer])
    one_l = np.zeros((n, policy.idx.n_layers))
    one_l[rows, ranks] = 1.0
    one_r = np.zeros((n, policy.ratio_levels))
    one_r[rows, levels] = 1.0
    adv_raw, returns = rl.gae(np.array([tr.reward for tr in buffer]), np.array(values),
                              np.array([tr.done for tr in buffer]), cfg.discount,
                              cfg.gae_lambda)
    adv = rl.normalize_advantages(adv_raw)
    columns = (states, ranks, levels, bits, mask, one_l, one_r, adv, returns, old_lp)
    stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "clip_frac": 0.0}
    n_batches = 0
    lo, hi = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps
    head_cols = tuple(policy.head_cols[h] for h in ("layer", "group", "ratio"))
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        shuffled = [col[perm] for col in columns]
        for start in range(0, n, cfg.batch_size):
            (x, ranks, levels, bits, mask, one_l, one_r, a_mb, ret_mb, old_mb) = (
                col[start : start + cfg.batch_size] for col in shuffled)
            m = x.shape[0]
            lp, entropy, aux = ref_full_head_log_probs(policy, x, (ranks, levels, bits, mask))
            z_g, cache, lsm_l, lsm_r, p_l, p_r, sig, ent_l, ent_r = aux
            ratio = np.exp(lp - old_mb)
            clipped = np.minimum(np.maximum(ratio, lo), hi)
            unclipped_a, clipped_a = ratio * a_mb, clipped * a_mb
            surr = np.minimum(unclipped_a, clipped_a)
            active = unclipped_a <= clipped_a
            coef = (np.where(active, unclipped_a, 0.0) * (-1.0 / m))[:, None]
            dZ = np.empty((m, policy.params["b_heads"].size))
            dz_l, dz_g, dz_r = (dZ[:, c] for c in head_cols)
            np.multiply(coef, one_l - p_l, out=dz_l)
            np.multiply(coef, one_r - p_r, out=dz_r)
            np.multiply(coef * mask, bits - sig, out=dz_g)
            ce = cfg.entropy_coef / m
            dz_l += ce * (p_l * (lsm_l + ent_l[:, None]))
            dz_r += ce * (p_r * (lsm_r + ent_r[:, None]))
            dz_g += ce * mask * (z_g * sig * (1.0 - sig))
            grad = ref_net_backward(policy, *cache, dZ)
            rl.clip_grad_norm(grad, cfg.grad_clip)
            policy_opt.step(policy.flat, grad)

            h1, h2, z = ref_net_forward(value_net, x)
            verr = z[:, 0] - ret_mb
            vgrad = ref_net_backward(value_net, x, h1, h2, ((2.0 / m) * verr)[:, None])
            rl.clip_grad_norm(vgrad, cfg.grad_clip)
            value_opt.step(value_net.flat, vgrad)

            stats["policy_loss"] += float(-(np.add.reduce(surr) / m))
            stats["value_loss"] += float(np.add.reduce(verr * verr) / m)
            stats["entropy"] += float(np.add.reduce(entropy) / m)
            stats["clip_frac"] += float((m - np.count_nonzero(active)) / m)
            n_batches += 1
    return {k: v / max(n_batches, 1) for k, v in stats.items()}


def ref_train_unlearner(model, report, idx, cfg, seed):
    """`rl.train_unlearner` as it was: the critic values every state as it
    is collected, and the sampler returns each action's log-prob. Returns
    the result, every sampled action, those per-step log-probs and the old
    log-probs `ref_ppo_update` took, both in collect order."""
    seeds = np.random.SeedSequence(seed)
    net_seed, sample_seed, update_seed = (int(s.generate_state(1)[0]) for s in seeds.spawn(3))
    policy = rl.PolicyNet(idx, cfg.ratio_levels, seed=net_seed, hidden=cfg.hidden)
    value_net = rl.ValueNet(3 * idx.total_groups, seed=net_seed + 1, hidden=cfg.hidden)
    opts = rl.Adam(policy.flat, cfg.actor_lr), rl.Adam(value_net.flat, cfg.critic_lr)
    sample_rng, update_rng = np.random.default_rng(sample_seed), np.random.default_rng(update_seed)
    env = rl.UnlearnEnv(model, report, idx, cfg)
    buffer, values, episodes, all_stats, actions, step_lps, old_lps = [], [], [], [], [], [], []
    for ep in range(1, cfg.episodes + 1):
        state = env.reset()
        total = rf_sum = rc_sum = 0.0
        while not env.done:
            action, lp = ref_policy_sample(policy, state, sample_rng)
            values.append(ref_value(value_net, state))
            tr = env.step(action)
            actions.append(action)
            step_lps.append(lp)
            buffer.append(tr)
            state = tr.next_state
            total += tr.reward
            rf_sum += tr.r_forget
            rc_sum += tr.r_fresh
        episodes.append(rl.EpisodeStat(ep, total, rf_sum, rc_sum, env.steps))
        if len(buffer) >= cfg.batch_size:
            all_stats.append(ref_ppo_update(policy, value_net, buffer, values, old_lps, cfg,
                                            update_rng, *opts))
            buffer.clear()
            values.clear()
    return rl.TrainResult(policy, value_net, episodes, all_stats), actions, step_lps, old_lps


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 48), st.sampled_from([1, 2, 8, 16, 32]), st.sampled_from([5, 8, 19, 64]),
       st.integers(0, 2**16))
@example(1, 8, 19, 0)
@example(40, 8, 19, 1)
@example(46, 32, 64, 2)
def test_row_values_match_one_forward_per_row(n, G, hidden, seed):
    # a plain (n, S) GEMM rounds differently from the one-row forward on
    # most of these shapes; the (n, 1, S) stack must not
    net = rl.ValueNet(3 * G, seed=seed, hidden=hidden)
    rng = np.random.default_rng(seed)
    net.flat[:] = 0.5 * rng.standard_normal(net.flat.size)   # the head starts at zero
    X = rng.standard_normal((n, 3 * G))
    got = net.row_values(X)
    assert got.shape == (n,)
    assert got.tobytes() == np.array([net.value(x) for x in X]).tobytes()
    assert got.tobytes() == np.array([ref_value(net, x) for x in X]).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 48), st.sampled_from([1, 2, 8, 16, 32]), st.sampled_from([5, 8, 19, 64]),
       st.integers(0, 2**16))
@example(1, 8, 19, 0)
@example(40, 8, 19, 1)
@example(46, 32, 64, 2)
def test_policy_logits_of_a_stack_match_one_forward_per_row(n, G, hidden, seed):
    # the old log-probs `ppo_update` takes over the (n, 1, S) stack must have
    # the bits of the one-state forward the sampler runs
    net = rl.PolicyNet(singleton_index((G,)), 10, seed=seed, hidden=hidden)
    rng = np.random.default_rng(seed)
    net.flat[:] = 0.5 * rng.standard_normal(net.flat.size)   # the heads start at zero
    X = rng.standard_normal((n, 3 * G))
    got = net.logits(X[:, None, :])[:3]
    for forward in (rl.PolicyNet.logits, ref_head_logits):
        rows = [forward(net, x[None, :])[:3] for x in X]
        for head, want in zip(got, zip(*rows)):
            assert head.shape == (n, want[0].shape[1])
            assert head.tobytes() == np.concatenate(want).tobytes()


def lean_cases():
    """(name, model, report, idx, cfg): `three_layer_run`, its model on one
    layer, with the default entropy coefficient and with a negative one
    (the layer head's gradient column then holds -0.0 wherever coef is
    negative or -0.0), and
    the default MLP on one layer (ref-mlp's shape) and on two."""
    model, report, idx, cfg = three_layer_run()
    yield "three-layer", model, report, idx, cfg
    one = dataclasses.replace(report, selected=[1], m_sel=1)
    yield "one-layer", model, one, partition_groups(model, [1], 3), cfg
    yield ("one-layer-negative-entropy", model, one, partition_groups(model, [1], 3),
           dataclasses.replace(cfg, entropy_coef=-0.05))
    defaults = validate_config({})
    ds = defaults["dataset"]
    mlp = nn.make_model("mlp", ds["dim"], ds["classes"], seed=0,
                        hidden=tuple(defaults["model"]["hidden"]))
    ppo = dataclasses.replace(ppo_config(defaults), episodes=20)
    scores = np.arange(1.0, mlp.num_layers + 1.0)
    zeros = np.zeros(mlp.num_layers)
    for selected in ([1], [2, 1]):
        rep = SensitivityReport(client=0, lam=0.5, rho=zeros, s_align=zeros, s_impact=zeros,
                                s_combined=scores, selected=selected, m_sel=len(selected))
        idx = partition_groups(mlp, selected, defaults["scale"]["groups_per_layer"])
        yield f"default-mlp-{len(selected)}-layer", mlp, rep, idx, ppo


@pytest.mark.parametrize("case", list(lean_cases()), ids=lambda case: case[0])
def test_train_unlearner_bits_match_the_per_step_critic_loop(monkeypatch, case):
    _, model, report, idx, cfg = case
    sample, actions = rl.policy_sample, []
    backward, ref_backward, dZs, ref_dZs = rl._TrunkNet.backward, ref_net_backward, [], []

    def recording(policy, state, rng):
        actions.append(sample(policy, state, rng))
        return actions[-1]

    def recording_backward(log, backward):
        def record(net, X, h1, h2, dZ):
            log.append(dZ.tobytes())
            return backward(net, X, h1, h2, dZ)
        return record

    monkeypatch.setattr(rl, "policy_sample", recording)
    monkeypatch.setattr(rl._TrunkNet, "backward", recording_backward(dZs, backward))
    got = rl.train_unlearner(model, report, idx, cfg, seed=31)
    monkeypatch.undo()
    monkeypatch.setattr(sys.modules[__name__], "ref_net_backward",
                        recording_backward(ref_dZs, ref_backward))
    want, want_actions, step_lps, old_lps = ref_train_unlearner(model, report, idx, cfg,
                                                                seed=31)
    monkeypatch.undo()

    assert actions == want_actions
    # the update-time old log-probs against the per-step sampler's, which
    # the loop stored before: the same bits with one layer, where the layer
    # term is exactly 0 and -mask + level rounds as level - mask does (steps
    # after the last update were never used)
    assert old_lps and len(old_lps) <= len(step_lps)
    step_lps = step_lps[: len(old_lps)]
    if idx.n_layers == 1:
        assert np.array(old_lps).tobytes() == np.array(step_lps).tobytes()
    else:
        assert_step_close(old_lps, step_lps)
    # every head gradient of both nets, signed zeros too
    assert dZs == ref_dZs and dZs
    # repr tells every float apart, signed zeros too
    assert repr(got.episodes) == repr(want.episodes)
    assert repr(got.update_stats) == repr(want.update_stats) and want.update_stats
    assert got.policy.flat.tobytes() == want.policy.flat.tobytes()
    assert got.value_net.flat.tobytes() == want.value_net.flat.tobytes()
    deployed = rl.deploy(got.policy, model, report, idx, cfg, cfg.t_collect)
    monkeypatch.setattr(rl, "policy_mode",
                        lambda policy, state: ref_policy_mode(policy, state)[0])
    ref_deployed = rl.deploy(want.policy, model, report, idx, cfg, cfg.t_collect)
    assert deployed.action_rows == ref_deployed.action_rows and deployed.action_rows
    assert_same_bits(deployed.model, ref_deployed.model)


@pytest.mark.parametrize("scale", [0.0, 0.3, 3.0, 40.0])
@pytest.mark.parametrize("groups,B", [((8,), 15), ((32,), 1), ((3, 5), 7)])
def test_policy_steps_match_the_full_layer_head(groups, B, scale):
    """Sampler, greedy decoder and batch log-probs against the code that
    always computed the layer head: with one layer they skip it. Each
    decoded action's log-prob, over the (1, 1, S) stack, against the one
    the old decoder summed: the same bits with one layer."""
    net = random_policy(groups, 4, 11, seed=len(groups) + B, scale=scale)
    rng = np.random.default_rng(B)
    X = rng.standard_normal((B, 3 * net.idx.total_groups))
    arrays = rl.action_arrays(net.idx, random_actions(net, B, rng))
    lp, entropy, aux = rl.batch_log_probs(net, X, arrays)
    ref_lp, ref_entropy, ref_aux = ref_full_head_log_probs(net, X, arrays)
    assert lp.tobytes() == ref_lp.tobytes()
    assert entropy.tobytes() == ref_entropy.tobytes()
    assert aux[6].tobytes() == ref_aux[6].tobytes()
    assert (aux[2] is None) is (len(groups) == 1)

    def check_log_prob(x, action, want):
        got = rl.batch_log_probs(net, x[None, None, :], rl.action_arrays(net.idx, [action]))[0]
        if len(groups) == 1:
            assert got.tobytes() == np.array([want]).tobytes()
        else:
            assert_step_close(got, [want])

    for x in X:
        rngs = np.random.default_rng(B), np.random.default_rng(B)
        got = rl.policy_sample(net, x, rngs[0])
        want, want_lp = ref_policy_sample(net, x, rngs[1])
        assert repr(got) == repr(want)
        assert rngs[0].random() == rngs[1].random()          # the same draws taken
        check_log_prob(x, got, want_lp)
        got = rl.policy_mode(net, x)
        want, want_lp = ref_policy_mode(net, x)
        assert repr(got) == repr(want)
        check_log_prob(x, got, want_lp)
    # a non-finite state: the sampler raises (at the level draw once the
    # layer draw is skipped) and the greedy decoder gives the same action
    nan = np.full(3 * net.idx.total_groups, np.nan)
    with np.errstate(invalid="ignore"):
        for sample in (rl.policy_sample, ref_policy_sample):
            with pytest.raises(rl.RlError):
                sample(net, nan, np.random.default_rng(B))
        assert repr(rl.policy_mode(net, nan)) == repr(ref_policy_mode(net, nan)[0])
