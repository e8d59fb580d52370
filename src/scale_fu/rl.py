"""PPO-driven adaptive sparsification over AoI-tracked parameter groups.

The action is factored: a categorical choice of sensitive layer, an
independent Bernoulli mask over that layer's groups, and a categorical
sparsity level in {1/K, ..., 1}. Policy and value nets are small tanh MLPs
trained with clipped-surrogate PPO, GAE, an entropy bonus, gradient-norm
clipping, and hand-rolled Adam. Everything is float64 numpy, seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import nn
from .aoi import AoiLedger, GroupIndex, aoi_summary, state_vector
from .sensitivity import SensitivityReport


class RlError(ValueError):
    pass


@dataclass(frozen=True)
class PpoConfig:
    episodes: int = 200
    t_collect: int = 32
    epochs: int = 10
    clip_eps: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    batch_size: int = 15
    entropy_coef: float = 0.01
    w_f: float = 0.7
    w_c: float = 0.3
    ratio_levels: int = 10
    sparsity_cap: float = 0.95
    hidden: int = 19
    grad_clip: float = 0.5

    def __post_init__(self):
        if self.episodes < 0 or self.t_collect < 1 or self.epochs < 1:
            raise RlError("bad episode/step/epoch counts")
        if not 0 < self.clip_eps < 1:
            raise RlError("clip_eps must be in (0, 1)")
        if not 0 <= self.discount <= 1 or not 0 <= self.gae_lambda <= 1:
            raise RlError("discount and gae_lambda must be in [0, 1]")
        if self.actor_lr <= 0 or self.critic_lr <= 0:
            raise RlError("learning rates must be positive")
        if self.batch_size < 1 or self.ratio_levels < 1:
            raise RlError("batch_size and ratio_levels must be >= 1")
        if self.w_f < 0 or self.w_c < 0 or self.w_f + self.w_c == 0:
            raise RlError("reward weights must be non-negative and not both zero")
        if not 0 < self.sparsity_cap <= 1:
            raise RlError("sparsity_cap must be in (0, 1]")


@dataclass(frozen=True)
class Action:
    """One sparsification decision: layer rank, group subset, ratio level."""

    layer_rank: int
    groups: tuple[int, ...]
    ratio_level: int           # 1..K
    s: float                   # ratio_level / K

    def __post_init__(self):
        if not self.groups:
            raise RlError("action must touch at least one group")
        if len(set(self.groups)) != len(self.groups):
            raise RlError("duplicate group in action")
        if self.ratio_level < 1:
            raise RlError("ratio_level is 1-based")
        if not 0 < self.s <= 1:
            raise RlError("sparsity ratio must be in (0, 1]")


@dataclass
class Transition:
    state: np.ndarray
    action: Action
    reward: float
    next_state: np.ndarray
    done: bool
    log_prob: float
    value: float
    r_forget: float = 0.0
    r_fresh: float = 0.0


# --- sparsifier -------------------------------------------------------------


def sparsify(model: nn.Model, idx: GroupIndex, layer: int, groups, s: float) -> nn.Model:
    """Zero the floor(s * nnz) smallest-magnitude nonzero coordinates of each
    selected group (ties to the lowest index). Returns a new model."""
    if not 0 < s <= 1:
        raise RlError("sparsity ratio must be in (0, 1]")
    groups = tuple(groups)
    if not groups:
        raise RlError("no groups to sparsify")
    n_groups = idx.n_groups(layer)
    out = model.copy()
    vec = out.params[layer]
    for j in groups:
        if not 0 <= j < n_groups:
            raise RlError(f"group {j} out of range for layer {layer}")
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


def group_sparsity(model: nn.Model, idx: GroupIndex, layer: int, j: int) -> float:
    sl = idx.slice_of(layer, j)
    sub = model.params[layer][sl]
    return float(np.count_nonzero(sub == 0.0) / sub.size)


def min_group_sparsity(model: nn.Model, idx: GroupIndex) -> float:
    """Smallest group_sparsity over all groups. Zeros are counted per row of
    each run of equal-size groups; a run's smallest ratio is its smallest
    count over the size they share."""
    return min(
        int(np.count_nonzero(model.params[layer][params].reshape(-1, size) == 0.0,
                             axis=1).min()) / size
        for layer, params, size, _ in idx.runs
    )


# --- rewards ----------------------------------------------------------------


def reward_forget(action: Action, report: SensitivityReport, idx: GroupIndex) -> float:
    """Sum over selected groups of (S_layer / max selected S) * s."""
    layer = idx.layers[action.layer_rank]
    s_max = max(report.score_of(l) for l in idx.layers)
    if s_max <= 0.0:
        return 0.0
    return len(action.groups) * (report.score_of(layer) / s_max) * action.s


def reward_fresh(action: Action, ledger: AoiLedger) -> float:
    """Mean over selected groups of (age / max age) * s; zero if nothing aged."""
    layer = ledger.idx.layers[action.layer_rank]
    max_age = ledger.max_age()
    if max_age <= 0.0:
        return 0.0
    share = sum(ledger.age(layer, j) / max_age for j in action.groups)
    return (share / len(action.groups)) * action.s


def reward(
    action: Action,
    report: SensitivityReport,
    ledger: AoiLedger,
    idx: GroupIndex,
    w_f: float,
    w_c: float,
) -> tuple[float, float, float]:
    r_f = reward_forget(action, report, idx)
    r_c = reward_fresh(action, ledger)
    return w_f * r_f + w_c * r_c, r_f, r_c


# --- numerics ---------------------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class Adam:
    """Standard Adam over one flat parameter vector."""

    def __init__(self, params: np.ndarray, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Update `params` in place from the flat gradient `grad`."""
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        params -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


def clip_grad_norm(grad: np.ndarray, blocks, max_norm: float) -> float:
    """Scale the flat gradient in place to norm <= max_norm; returns the norm
    before scaling. The squared norm is a Python sum of one pairwise sum per
    block (slices of `grad`, in order), so it keeps the bits of a per-array sum."""
    sq = grad * grad
    total = math.sqrt(sum(float(sq[sl].sum()) for sl in blocks))
    if total > max_norm and total > 0:
        grad *= max_norm / total
    return total


# --- policy / value networks ------------------------------------------------


@dataclass(frozen=True)
class PolicyLayout:
    """Maps (layer rank, group) to head columns and state positions."""

    groups_per_layer: tuple[int, ...]
    ratio_levels: int

    @property
    def n_layers(self) -> int:
        return len(self.groups_per_layer)

    @property
    def total_groups(self) -> int:
        return sum(self.groups_per_layer)

    @property
    def state_dim(self) -> int:
        return 3 * self.total_groups

    def group_offset(self, rank: int) -> int:
        return sum(self.groups_per_layer[:rank])

    def group_cols(self, rank: int) -> slice:
        off = self.group_offset(rank)
        return slice(off, off + self.groups_per_layer[rank])

    @classmethod
    def from_index(cls, idx: GroupIndex, ratio_levels: int) -> "PolicyLayout":
        return cls(
            groups_per_layer=tuple(idx.n_groups(l) for l in idx.layers),
            ratio_levels=ratio_levels,
        )


def _views(buf: np.ndarray, shapes: dict, blocks) -> dict:
    return {k: buf[sl].reshape(shapes[k]) for k, sl in zip(shapes, blocks)}


class _TrunkNet:
    """Two tanh hidden layers; heads are added by subclasses (zero-init).

    Parameters live in one flat float64 buffer `flat`; `params` holds named
    views into it. `backward` writes the gradient into the flat buffer `grad`
    through `grads`, views of the same shapes. Blocks are laid out in
    backward's order (heads, then W2, b2, W1, b1), which `clip_grad_norm`
    sums in."""

    def __init__(self, in_dim: int, hidden: int, head_dims: dict, seed: int):
        rng = np.random.default_rng(seed)

        def xavier(n_out, n_in):
            a = math.sqrt(6.0 / (n_in + n_out))
            return rng.uniform(-a, a, size=(n_out, n_in))

        shapes = {}
        for name, dim in head_dims.items():
            shapes[f"W_{name}"] = (dim, hidden)
            shapes[f"b_{name}"] = (dim,)
        shapes.update(W2=(hidden, hidden), b2=(hidden,), W1=(hidden, in_dim), b1=(hidden,))
        ends = list(accumulate(math.prod(shape) for shape in shapes.values()))
        self.blocks = tuple(slice(s, e) for s, e in zip([0] + ends, ends))
        self.flat = np.zeros(ends[-1])
        self.grad = np.zeros(ends[-1])
        self.params = _views(self.flat, shapes, self.blocks)
        self.grads = _views(self.grad, shapes, self.blocks)
        self.params["W1"][:] = xavier(hidden, in_dim)
        self.params["W2"][:] = xavier(hidden, hidden)
        self.head_names = tuple(head_dims)
        self.in_dim = in_dim

    def trunk(self, X: np.ndarray):
        h1 = np.tanh(X @ self.params["W1"].T + self.params["b1"])
        h2 = np.tanh(h1 @ self.params["W2"].T + self.params["b2"])
        return h1, h2

    def heads(self, h2: np.ndarray) -> dict:
        return {
            name: h2 @ self.params[f"W_{name}"].T + self.params[f"b_{name}"]
            for name in self.head_names
        }

    def backward(self, X, h1, h2, dheads: dict) -> np.ndarray:
        """Fill and return the flat gradient `self.grad` (overwritten by the
        next call). `dheads` names every head."""
        grads = self.grads
        dh2 = np.zeros_like(h2)
        for name, dz in dheads.items():
            grads[f"W_{name}"][:] = dz.T @ h2
            grads[f"b_{name}"][:] = dz.sum(axis=0)
            dh2 += dz @ self.params[f"W_{name}"]
        dp2 = dh2 * (1.0 - h2 * h2)
        grads["W2"][:] = dp2.T @ h1
        grads["b2"][:] = dp2.sum(axis=0)
        dh1 = dp2 @ self.params["W2"]
        dp1 = dh1 * (1.0 - h1 * h1)
        grads["W1"][:] = dp1.T @ X
        grads["b1"][:] = dp1.sum(axis=0)
        return self.grad


class PolicyNet(_TrunkNet):
    def __init__(self, layout: PolicyLayout, seed: int, hidden: int = 64):
        super().__init__(
            layout.state_dim,
            hidden,
            {
                "layer": layout.n_layers,
                "group": layout.total_groups,
                "ratio": layout.ratio_levels,
            },
            seed,
        )
        self.layout = layout

    def logits(self, X: np.ndarray):
        h1, h2 = self.trunk(X)
        hs = self.heads(h2)
        return hs["layer"], hs["group"], hs["ratio"], (X, h1, h2)


class ValueNet(_TrunkNet):
    def __init__(self, state_dim: int, seed: int, hidden: int = 64):
        super().__init__(state_dim, hidden, {"v": 1}, seed)

    def value(self, state: np.ndarray) -> float:
        h1, h2 = self.trunk(state[None, :])
        return float(self.heads(h2)["v"][0, 0])

    def values(self, X: np.ndarray):
        h1, h2 = self.trunk(X)
        return self.heads(h2)["v"][:, 0], (X, h1, h2)


# --- action probability machinery -------------------------------------------


def _oldest_group(layout: PolicyLayout, state: np.ndarray, rank: int) -> int:
    """Group with the largest normalized age within the chosen layer
    (ties to the lowest group index)."""
    off = layout.group_offset(rank)
    ages = state[3 * off : 3 * (off + layout.groups_per_layer[rank]) : 3]
    return int(np.argmax(ages))


def _mask_log_prob(z_g: np.ndarray, bits: np.ndarray) -> float:
    return float(np.sum(-_softplus(-z_g) * bits + -_softplus(z_g) * (1.0 - bits)))


def action_log_prob(policy: PolicyNet, state: np.ndarray, action: Action) -> float:
    """Log-probability of a fully specified action under the current policy."""
    z_l, z_g, z_r, _ = policy.logits(state[None, :])
    lay = policy.layout
    lp = float(_log_softmax(z_l)[0, action.layer_rank])
    cols = lay.group_cols(action.layer_rank)
    bits = np.zeros(lay.groups_per_layer[action.layer_rank])
    bits[list(action.groups)] = 1.0
    lp += _mask_log_prob(z_g[0, cols], bits)
    lp += float(_log_softmax(z_r)[0, action.ratio_level - 1])
    return lp


def policy_sample(policy: PolicyNet, state: np.ndarray, rng: np.random.Generator):
    """Sample an action; an empty mask is coerced to the oldest group of the
    chosen layer and the log-prob is recomputed for the coerced action."""
    z_l, z_g, z_r, _ = policy.logits(state[None, :])
    lay = policy.layout
    lsm_l, lsm_r = _log_softmax(z_l)[0], _log_softmax(z_r)[0]
    rank = int(rng.choice(lay.n_layers, p=np.exp(lsm_l)))
    cols = lay.group_cols(rank)
    probs = _sigmoid(z_g[0, cols])
    bits = (rng.random(probs.size) < probs).astype(np.float64)
    if bits.sum() == 0:
        bits[_oldest_group(lay, state, rank)] = 1.0
    level = int(rng.choice(lay.ratio_levels, p=np.exp(lsm_r))) + 1
    action = Action(
        layer_rank=rank,
        groups=tuple(int(j) for j in np.flatnonzero(bits)),
        ratio_level=level,
        s=level / lay.ratio_levels,
    )
    lp = float(lsm_l[rank]) + _mask_log_prob(z_g[0, cols], bits)
    lp += float(lsm_r[level - 1])
    return action, lp


def policy_mode(policy: PolicyNet, state: np.ndarray):
    """Greedy action: argmax heads, group bit set when p > 0.5, same coercion."""
    z_l, z_g, z_r, _ = policy.logits(state[None, :])
    lay = policy.layout
    rank = int(np.argmax(z_l[0]))
    cols = lay.group_cols(rank)
    bits = (z_g[0, cols] > 0.0).astype(np.float64)
    if bits.sum() == 0:
        bits[_oldest_group(lay, state, rank)] = 1.0
    level = int(np.argmax(z_r[0])) + 1
    action = Action(
        layer_rank=rank,
        groups=tuple(int(j) for j in np.flatnonzero(bits)),
        ratio_level=level,
        s=level / lay.ratio_levels,
    )
    lp = float(_log_softmax(z_l)[0, rank]) + _mask_log_prob(z_g[0, cols], bits)
    lp += float(_log_softmax(z_r)[0, level - 1])
    return action, lp


def _batch_action_arrays(layout: PolicyLayout, actions: list[Action]):
    n = len(actions)
    ranks = np.array([a.layer_rank for a in actions], dtype=np.int64)
    levels = np.array([a.ratio_level - 1 for a in actions], dtype=np.int64)
    bits = np.zeros((n, layout.total_groups))
    mask = np.zeros((n, layout.total_groups))
    for i, a in enumerate(actions):
        off = layout.group_offset(a.layer_rank)
        mask[i, off : off + layout.groups_per_layer[a.layer_rank]] = 1.0
        for j in a.groups:
            bits[i, off + j] = 1.0
    return ranks, levels, bits, mask


def batch_log_probs(policy: PolicyNet, states: np.ndarray, actions: list[Action]):
    """Vectorized log-probs and entropies for a batch of stored actions."""
    z_l, z_g, z_r, cache = policy.logits(states)
    lay = policy.layout
    ranks, levels, bits, mask = _batch_action_arrays(lay, actions)
    n = len(actions)
    lsm_l = _log_softmax(z_l)
    lsm_r = _log_softmax(z_r)
    lp = lsm_l[np.arange(n), ranks] + lsm_r[np.arange(n), levels]
    lp = lp + np.sum(mask * (-_softplus(-z_g) * bits - _softplus(z_g) * (1 - bits)), axis=1)
    p_l, p_r = np.exp(lsm_l), np.exp(lsm_r)
    sig = _sigmoid(z_g)
    ent_l = -(p_l * lsm_l).sum(axis=1)
    ent_r = -(p_r * lsm_r).sum(axis=1)
    ent_g = np.sum(mask * (_softplus(z_g) - z_g * sig), axis=1)
    entropy = ent_l + ent_r + ent_g
    aux = (z_l, z_g, z_r, cache, ranks, levels, bits, mask, lsm_l, lsm_r, p_l, p_r, sig)
    return lp, entropy, aux


# --- GAE --------------------------------------------------------------------


def gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    discount: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and returns; terminal bootstrap is 0."""
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    if not (rewards.shape == values.shape == dones.shape) or rewards.ndim != 1:
        raise RlError("gae needs aligned 1-d rewards/values/dones")
    n = rewards.size
    adv = np.zeros(n)
    carry = 0.0
    next_value = 0.0
    for t in range(n - 1, -1, -1):
        live = 0.0 if dones[t] else 1.0
        delta = rewards[t] + discount * next_value * live - values[t]
        carry = delta + discount * lam * live * carry
        adv[t] = carry
        next_value = values[t]
    return adv, adv + values


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    adv = np.asarray(adv, dtype=np.float64)
    return (adv - adv.mean()) / max(float(adv.std()), 1e-8)


# --- environment ------------------------------------------------------------


class UnlearnEnv:
    """Episode over a working copy of the model: reward is computed on the
    pre-mutation ledger, then sparsify, then the clock advances and the acted
    groups are touched (so they end the step at age zero)."""

    def __init__(
        self,
        model: nn.Model,
        report: SensitivityReport,
        idx: GroupIndex,
        cfg: PpoConfig,
    ):
        self._model0 = model
        self.report = report
        self.idx = idx
        self.cfg = cfg
        self.reset()

    def reset(self) -> np.ndarray:
        self.model = self._model0.copy()
        self.ledger = AoiLedger(self.idx)
        self.steps = 0
        self.done = False
        self.aoi_rows: list[tuple] = []
        self.action_rows: list[dict] = []
        self.state = state_vector(self.model, self.ledger, self.idx)
        return self.state

    def step(self, action: Action, log_prob: float = 0.0, value: float = 0.0) -> Transition:
        if self.done:
            raise RlError("env is done; reset before stepping again")
        layer = self.idx.layers[action.layer_rank]
        r, r_f, r_c = reward(
            action, self.report, self.ledger, self.idx, self.cfg.w_f, self.cfg.w_c
        )
        prev_state = self.state
        self.model = sparsify(self.model, self.idx, layer, action.groups, action.s)
        self.ledger.advance()
        self.ledger.touch([(layer, j) for j in action.groups])
        self.steps += 1
        self.aoi_rows.append((self.steps, *aoi_summary(self.ledger)))
        self.action_rows.append(
            {
                "step": self.steps,
                "layer": int(layer),
                "groups": [int(j) for j in action.groups],
                "s": action.s,
            }
        )
        self.state = state_vector(self.model, self.ledger, self.idx)
        self.done = (
            self.steps >= self.cfg.t_collect
            or min_group_sparsity(self.model, self.idx) >= self.cfg.sparsity_cap
        )
        return Transition(
            state=prev_state,
            action=action,
            reward=r,
            next_state=self.state,
            done=self.done,
            log_prob=log_prob,
            value=value,
            r_forget=r_f,
            r_fresh=r_c,
        )


# --- PPO update -------------------------------------------------------------


def ppo_update(
    policy: PolicyNet,
    value_net: ValueNet,
    buffer: list[Transition],
    cfg: PpoConfig,
    rng: np.random.Generator,
    policy_opt: Adam,
    value_opt: Adam,
) -> dict:
    """K epochs of clipped-surrogate updates over shuffled minibatches.

    Advantages come from GAE over the buffer (normalized batch-wide); the
    buffer is cleared before returning."""
    if not buffer:
        raise RlError("empty buffer")
    states = np.stack([tr.state for tr in buffer])
    actions = [tr.action for tr in buffer]
    rewards = np.array([tr.reward for tr in buffer])
    dones = np.array([tr.done for tr in buffer])
    old_lp = np.array([tr.log_prob for tr in buffer])
    values = np.array([tr.value for tr in buffer])
    adv_raw, returns = gae(rewards, values, dones, cfg.discount, cfg.gae_lambda)
    adv = normalize_advantages(adv_raw)
    n = len(buffer)
    lay = policy.layout
    stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "clip_frac": 0.0}
    n_batches = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            mb = perm[start : start + cfg.batch_size]
            m = mb.size
            lp, entropy, aux = batch_log_probs(policy, states[mb], [actions[i] for i in mb])
            (z_l, z_g, z_r, cache, ranks, levels, bits, mask, lsm_l, lsm_r, p_l, p_r, sig) = aux
            a_mb = adv[mb]
            ratio = np.exp(lp - old_lp[mb])
            clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
            surr = np.minimum(ratio * a_mb, clipped * a_mb)
            active = ratio * a_mb <= clipped * a_mb

            # d(-surrogate)/d lp, averaged over the minibatch
            coef = np.where(active, ratio * a_mb, 0.0) * (-1.0 / m)
            one_l = np.zeros_like(p_l)
            one_l[np.arange(m), ranks] = 1.0
            one_r = np.zeros_like(p_r)
            one_r[np.arange(m), levels] = 1.0
            dz_l = coef[:, None] * (one_l - p_l)
            dz_r = coef[:, None] * (one_r - p_r)
            dz_g = coef[:, None] * mask * (bits - sig)

            # entropy bonus gradients (minimizing -c*H)
            ce = cfg.entropy_coef / m
            ent_l = -(p_l * lsm_l).sum(axis=1, keepdims=True)
            ent_r = -(p_r * lsm_r).sum(axis=1, keepdims=True)
            dz_l += -ce * (-p_l * (lsm_l + ent_l))
            dz_r += -ce * (-p_r * (lsm_r + ent_r))
            dz_g += -ce * mask * (-z_g * sig * (1.0 - sig))

            grad = policy.backward(cache[0], cache[1], cache[2],
                                   {"layer": dz_l, "group": dz_g, "ratio": dz_r})
            clip_grad_norm(grad, policy.blocks, cfg.grad_clip)
            policy_opt.step(policy.flat, grad)

            v, vcache = value_net.values(states[mb])
            verr = v - returns[mb]
            dv = (2.0 / m) * verr
            vgrad = value_net.backward(vcache[0], vcache[1], vcache[2], {"v": dv[:, None]})
            clip_grad_norm(vgrad, value_net.blocks, cfg.grad_clip)
            value_opt.step(value_net.flat, vgrad)

            stats["policy_loss"] += float(-surr.mean())
            stats["value_loss"] += float((verr**2).mean())
            stats["entropy"] += float(entropy.mean())
            stats["clip_frac"] += float((~active).mean())
            n_batches += 1
    for k in stats:
        stats[k] /= max(n_batches, 1)
    buffer.clear()
    return stats


# --- training and deployment -------------------------------------------------


@dataclass
class EpisodeStat:
    episode: int
    total_reward: float
    r_f_sum: float
    r_c_sum: float
    steps: int


@dataclass
class TrainResult:
    policy: PolicyNet
    value_net: ValueNet
    episodes: list[EpisodeStat]
    update_stats: list[dict] = field(default_factory=list)


def train_unlearner(
    model: nn.Model,
    report: SensitivityReport,
    idx: GroupIndex,
    cfg: PpoConfig,
    seed: int,
) -> TrainResult:
    """PPO training loop; every episode restarts from a fresh model copy and
    a fresh ledger. The input model is never mutated."""
    layout = PolicyLayout.from_index(idx, cfg.ratio_levels)
    seeds = np.random.SeedSequence(seed)
    net_seed, sample_seed, update_seed = (
        int(s.generate_state(1)[0]) for s in seeds.spawn(3)
    )
    policy = PolicyNet(layout, seed=net_seed, hidden=cfg.hidden)
    value_net = ValueNet(layout.state_dim, seed=net_seed + 1, hidden=cfg.hidden)
    policy_opt = Adam(policy.flat, cfg.actor_lr)
    value_opt = Adam(value_net.flat, cfg.critic_lr)
    sample_rng = np.random.default_rng(sample_seed)
    update_rng = np.random.default_rng(update_seed)

    env = UnlearnEnv(model, report, idx, cfg)
    buffer: list[Transition] = []
    episodes: list[EpisodeStat] = []
    all_stats: list[dict] = []
    for ep in range(1, cfg.episodes + 1):
        state = env.reset()
        total = rf_sum = rc_sum = 0.0
        while not env.done:
            action, lp = policy_sample(policy, state, sample_rng)
            v = value_net.value(state)
            tr = env.step(action, log_prob=lp, value=v)
            buffer.append(tr)
            state = tr.next_state
            total += tr.reward
            rf_sum += tr.r_forget
            rc_sum += tr.r_fresh
        episodes.append(EpisodeStat(ep, total, rf_sum, rc_sum, env.steps))
        if len(buffer) >= cfg.batch_size:
            all_stats.append(
                ppo_update(policy, value_net, buffer, cfg, update_rng, policy_opt, value_opt)
            )
    return TrainResult(policy=policy, value_net=value_net, episodes=episodes,
                       update_stats=all_stats)


@dataclass
class DeployResult:
    model: nn.Model
    action_rows: list[dict]
    aoi_rows: list[tuple]
    rewards: list[float]
    steps: int


def deploy(
    policy: PolicyNet,
    model: nn.Model,
    report: SensitivityReport,
    idx: GroupIndex,
    cfg: PpoConfig,
    steps: int,
) -> DeployResult:
    """Greedy (mode) rollout on a fresh copy; stops early if the env is done."""
    if steps < 1:
        raise RlError("deploy needs at least one step")
    env = UnlearnEnv(model, report, idx, cfg)
    state = env.reset()
    rewards: list[float] = []
    for _ in range(steps):
        if env.done:
            break
        action, lp = policy_mode(policy, state)
        tr = env.step(action, log_prob=lp)
        rewards.append(tr.reward)
        state = tr.next_state
    return DeployResult(
        model=env.model,
        action_rows=env.action_rows,
        aoi_rows=env.aoi_rows,
        rewards=rewards,
        steps=env.steps,
    )
