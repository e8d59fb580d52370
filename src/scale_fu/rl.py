"""PPO-driven adaptive sparsification over AoI-tracked parameter groups.

The action is factored: a categorical choice of sensitive layer, an
independent Bernoulli mask over that layer's groups, and a categorical
sparsity level in {1/K, ..., 1}. Policy and value nets are small tanh MLPs
trained with clipped-surrogate PPO, GAE, an entropy bonus, gradient-norm
clipping, and hand-rolled Adam. Everything is float64 numpy, seeded.

Collect only samples actions: it runs neither the critic nor a
log-probability. Both nets change only inside `ppo_update`, so that is
where the critic values the buffer and `batch_log_probs` gives PPO's old
log-probs, each over the (n, 1, S) stack of states, whose rows have the
bits of a one-state forward. `batch_log_probs` is the one implementation
of an action's log-probability. With one sensitive layer the layer head
has one choice: its log-softmax is exactly 0, its entropy -0.0 and its
gradient a signed zero, so the sampler's layer draw, `batch_log_probs` and
the update's gradient column skip it and give the bits of the full
computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import nn
from .aoi import AoiLedger, GroupIndex, normalized_ages, state_vector, write_group_stats
from .sensitivity import SensitivityReport


class RlError(ValueError):
    pass


@dataclass(frozen=True)
class PpoConfig:
    """The `scale.ppo` config block: its defaults and its range rules."""

    episodes: int = 200
    t_collect: int = 32
    epochs: int = 10
    clip_eps: float = 0.2
    discount: float = 0.99
    gae_lambda: float = 0.95
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    batch_size: int = 15  # tuned on the bundled synthetic scenario
    entropy_coef: float = 0.01
    w_f: float = 0.7
    w_c: float = 0.3
    ratio_levels: int = 10
    sparsity_cap: float = 0.95
    hidden: int = 19  # tuned on the bundled synthetic scenario
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
    """One env step. Neither the critic's value of `state` nor the action's
    log-prob is kept: `ppo_update` computes both for the whole buffer, from
    nets that have not changed since collect."""

    state: np.ndarray
    action: Action
    reward: float
    next_state: np.ndarray
    done: bool
    r_forget: float = 0.0
    r_fresh: float = 0.0


# --- sparsifier -------------------------------------------------------------


def zero_order(row: np.ndarray) -> np.ndarray:
    """Indices of the nonzero entries of the 1-d `row`, smallest magnitude
    first (stable argsort, ties to the lowest index): the one zeroing rule of
    the adaptive sparsifier and the uniform baseline. Zeroing a prefix of the
    order leaves the rest of it the order of the survivors, since a stable
    sort restricted to a subset keeps that subset's relative order."""
    nz = np.flatnonzero(row != 0.0)
    return nz[np.argsort(np.abs(row[nz]), kind="stable")]


def zero_smallest(rows: np.ndarray, k: list[int]) -> None:
    """Zero, in place, the first k[i] entries of the `zero_order` of row i of
    the 2-d `rows` (0 <= k[i] <= the row's nonzeros)."""
    for row, c in zip(rows, k):
        if c:
            row[zero_order(row)[:c]] = 0.0


def zero_budget(s: float, nnz: int) -> int:
    """floor(s * nnz): how many entries `sparsify` zeroes in a selected group
    with nnz nonzero entries."""
    return math.floor(s * nnz)


def sparsify(model: nn.Model, idx: GroupIndex, layer: int, groups, s: float) -> nn.Model:
    """Zero the floor(s * nnz) smallest-magnitude nonzero coordinates of each
    selected group (ties to the lowest index; a group given twice is an
    error). Returns a new model; the input is never mutated."""
    if not 0 < s <= 1:
        raise RlError("sparsity ratio must be in (0, 1]")
    groups = tuple(groups)
    if not groups:
        raise RlError("no groups to sparsify")
    n_groups = idx.n_groups(layer)
    for j in groups:
        if not 0 <= j < n_groups:
            raise RlError(f"group {j} out of range for layer {layer}")
    if len(set(groups)) != len(groups):
        raise RlError("duplicate group to sparsify")
    out = model.copy()
    first = idx.offsets[idx.rank_of(layer)]
    for _, span, size, pos in idx.layer_runs[layer]:
        lo, hi = pos.start - first, pos.stop - first
        picked = {j - lo for j in groups if lo <= j < hi}
        if not picked:
            continue
        rows = out.params[layer][span].reshape(-1, size)
        nnz = np.add.reduce(rows != 0.0, axis=1).tolist()
        zero_smallest(rows, [zero_budget(s, c) if r in picked else 0 for r, c in enumerate(nnz)])
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
    ages = ledger.ages()
    max_age = float(np.maximum.reduce(ages))
    if max_age <= 0.0:
        return 0.0
    idx = ledger.idx
    cols = idx.cols(action.layer_rank)
    if min(action.groups) < 0 or max(action.groups) >= cols.stop - cols.start:
        raise RlError(f"group out of range for layer {idx.layers[action.layer_rank]}")
    share = sum((ages[cols][list(action.groups)] / max_age).tolist())
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


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


class Adam:
    """Standard Adam over one flat parameter vector, with the bias corrections
    folded into the step size and epsilon (Kingma and Ba, section 2):
    lr * (m/c1) / (sqrt(v/c2) + eps) equals
    (lr * sqrt(c2)/c1) * m / (sqrt(v) + eps * sqrt(c2))."""

    def __init__(self, params: np.ndarray, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self._num = np.empty_like(params)
        self._den = np.empty_like(params)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """Update `params` in place from the flat gradient `grad`:
        m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, then
        params -= step * (m / (sqrt(v) + eps * sqrt(c2))), every operation
        in place."""
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        root_c2 = math.sqrt(1.0 - self.b2**self.t)
        num, den = self._num, self._den
        self.m *= self.b1
        np.multiply(1 - self.b1, grad, out=num)
        self.m += num
        self.v *= self.b2
        np.multiply(1 - self.b2, grad, out=den)
        den *= grad
        self.v += den
        np.sqrt(self.v, out=den)
        den += self.eps * root_c2
        np.divide(self.m, den, out=num)
        num *= self.lr * root_c2 / c1
        params -= num


def clip_grad_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale the flat gradient in place to norm <= max_norm; returns the norm
    before scaling, from one pairwise sum of the squares."""
    total = math.sqrt(float(np.add.reduce(grad * grad)))
    if total > max_norm and total > 0:
        grad *= max_norm / total
    return total


# --- policy / value networks ------------------------------------------------


class _TrunkNet:
    """Two tanh hidden layers and one stacked linear head block (zero-init).

    The heads a subclass names are the rows of one block `W_heads`
    (total head dim, hidden) with bias `b_heads`, so every head comes from
    one GEMM; `head_cols` maps each head name to its columns of the head
    output, in the order given. Parameters live in one flat float64 buffer
    `flat` with named views `params`, laid out W_heads, b_heads, W2, b2, W1,
    b1. `backward` writes the gradient into the flat buffer `grad` through
    `grads`, views of the same shapes."""

    def __init__(self, in_dim: int, hidden: int, head_dims: dict, seed: int):
        rng = np.random.default_rng(seed)

        def xavier(n_out, n_in):
            a = math.sqrt(6.0 / (n_in + n_out))
            return rng.uniform(-a, a, size=(n_out, n_in))

        ends = list(accumulate(head_dims.values()))
        self.head_cols = {name: slice(e - dim, e)
                          for (name, dim), e in zip(head_dims.items(), ends)}
        shapes = dict(W_heads=(ends[-1], hidden), b_heads=(ends[-1],), W2=(hidden, hidden),
                      b2=(hidden,), W1=(hidden, in_dim), b1=(hidden,))
        size = sum(math.prod(shape) for shape in shapes.values())
        self.flat = np.zeros(size)
        self.grad = np.zeros(size)
        self.params = dict(zip(shapes, nn.views(self.flat, shapes.values())))
        self.grads = dict(zip(shapes, nn.views(self.grad, shapes.values())))
        self.params["W1"][:] = xavier(hidden, in_dim)
        self.params["W2"][:] = xavier(hidden, hidden)
        self.in_dim = in_dim

    def trunk(self, X: np.ndarray):
        p = self.params
        h1 = X @ p["W1"].T
        h1 += p["b1"]
        np.tanh(h1, out=h1)
        h2 = h1 @ p["W2"].T
        h2 += p["b2"]
        np.tanh(h2, out=h2)
        return h1, h2

    def heads(self, h2: np.ndarray) -> np.ndarray:
        """Every head's output, (batch, total head dim); `head_cols` splits it."""
        z = h2 @ self.params["W_heads"].T
        z += self.params["b_heads"]
        return z

    def backward(self, X, h1, h2, dZ: np.ndarray) -> np.ndarray:
        """Fill and return the flat gradient `self.grad` (overwritten by the
        next call) from `dZ`, the gradient of the stacked head output."""
        grads = self.grads
        np.matmul(dZ.T, h2, out=grads["W_heads"])
        np.add.reduce(dZ, axis=0, out=grads["b_heads"])
        dp2 = dZ @ self.params["W_heads"]
        dp2 *= 1.0 - h2 * h2
        np.matmul(dp2.T, h1, out=grads["W2"])
        np.add.reduce(dp2, axis=0, out=grads["b2"])
        dh1 = dp2 @ self.params["W2"]
        dp1 = dh1 * (1.0 - h1 * h1)
        np.matmul(dp1.T, X, out=grads["W1"])
        np.add.reduce(dp1, axis=0, out=grads["b1"])
        return self.grad


class PolicyNet(_TrunkNet):
    """The actor. `W_heads` stacks the layer head (L rows, one per sensitive
    layer), the group-mask head (G rows, one per group in canonical order)
    and the ratio-level head (R rows), so `head_cols` is layer 0:L, group
    L:L+G and ratio L+G:L+G+R. Its input is the 3-per-group state of `idx`."""

    def __init__(self, idx: GroupIndex, ratio_levels: int, seed: int, hidden: int = 64):
        super().__init__(
            3 * idx.total_groups,
            hidden,
            {"layer": idx.n_layers, "group": idx.total_groups, "ratio": ratio_levels},
            seed,
        )
        self.idx = idx
        self.ratio_levels = ratio_levels

    def logits(self, X: np.ndarray):
        """Layer, group and ratio logits, (n, head dim) column views of one
        head output, and the cache `backward` takes (for an (n, S) input).
        X is (n, S), or the (n, 1, S) stack, whose rows get the bits of
        `logits(X[i])` (see `ValueNet.row_values`)."""
        h1, h2 = self.trunk(X)
        z = self.heads(h2).reshape(len(X), -1)
        cols = self.head_cols
        return z[:, cols["layer"]], z[:, cols["group"]], z[:, cols["ratio"]], (X, h1, h2)


class ValueNet(_TrunkNet):
    def __init__(self, state_dim: int, seed: int, hidden: int = 64):
        super().__init__(state_dim, hidden, {"v": 1}, seed)

    def value(self, state: np.ndarray) -> float:
        h1, h2 = self.trunk(state[None, :])
        return float(self.heads(h2)[0, 0])

    def row_values(self, X: np.ndarray) -> np.ndarray:
        """`value` of each row of X, bit for bit: the forward over the
        (n, 1, S) stack runs the one-row kernels row by row, where one
        (n, S) GEMM rounds differently."""
        h1, h2 = self.trunk(X[:, None, :])
        return self.heads(h2)[:, 0, 0]

    def values(self, X: np.ndarray):
        h1, h2 = self.trunk(X)
        return self.heads(h2)[:, 0], (X, h1, h2)


# --- action probability machinery -------------------------------------------


def _oldest_group(idx: GroupIndex, state: np.ndarray, rank: int) -> int:
    """Group with the largest normalized age within the chosen layer
    (ties to the lowest group index)."""
    return int(np.argmax(state[0::3][idx.cols(rank)]))


def _action(policy: PolicyNet, state: np.ndarray, rank: int, bits: np.ndarray,
            level: int) -> Action:
    """The action (rank, bits, level) of `state`. An empty mask is coerced
    to the oldest group of the chosen layer."""
    groups = np.flatnonzero(bits).tolist()
    if not groups:
        groups = [_oldest_group(policy.idx, state, rank)]
    return Action(
        layer_rank=rank,
        groups=tuple(groups),
        ratio_level=level,
        s=level / policy.ratio_levels,
    )


_P_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _draw(rng: np.random.Generator, p: np.ndarray) -> int:
    """`rng.choice(p.size, p=p)`: the same index from the same one uniform
    draw, without choice's argument handling. p must be non-negative and
    sum to 1 within sqrt(eps)."""
    cdf = p.cumsum()
    total = float(cdf[-1])
    if not np.minimum.reduce(p) >= 0.0 or not abs(total - 1.0) <= _P_ATOL:
        raise RlError("probabilities must be non-negative and sum to 1")
    cdf /= total
    return int(cdf.searchsorted(rng.random(), side="right"))


def policy_sample(policy: PolicyNet, state: np.ndarray, rng: np.random.Generator) -> Action:
    """Sample layer, then mask bits, then level from `rng`. With one layer
    the layer is certain, but the one uniform `_draw` takes is still drawn,
    so the stream stays the same."""
    z_l, z_g, z_r, _ = policy.logits(state[None, :])
    if policy.idx.n_layers > 1:
        rank = _draw(rng, np.exp(nn.log_softmax(z_l)[0]))
    else:
        rng.random()
        rank = 0
    z = z_g[0, policy.idx.cols(rank)]
    probs = np.exp(z - _softplus(z))         # sigmoid(z)
    bits = rng.random(probs.size) < probs
    level = _draw(rng, np.exp(nn.log_softmax(z_r)[0])) + 1
    return _action(policy, state, rank, bits, level)


def policy_mode(policy: PolicyNet, state: np.ndarray) -> Action:
    """Greedy action: argmax heads, group bit set when p > 0.5."""
    z_l, z_g, z_r, _ = policy.logits(state[None, :])
    rank = int(np.argmax(z_l))
    bits = z_g[0, policy.idx.cols(rank)] > 0.0
    return _action(policy, state, rank, bits, int(np.argmax(z_r)) + 1)


def action_arrays(idx: GroupIndex, actions: list[Action]):
    """Stored actions as (ranks, levels, bits, mask) arrays, one row each;
    bits and mask have one column per group of `idx`, in canonical order."""
    n = len(actions)
    ranks = np.array([a.layer_rank for a in actions], dtype=np.int64)
    levels = np.array([a.ratio_level - 1 for a in actions], dtype=np.int64)
    bits = np.zeros((n, idx.total_groups))
    mask = np.zeros((n, idx.total_groups))
    for i, a in enumerate(actions):
        cols = idx.cols(a.layer_rank)
        mask[i, cols] = 1.0
        for j in a.groups:
            bits[i, cols.start + j] = 1.0
    return ranks, levels, bits, mask


def batch_log_probs(policy: PolicyNet, states: np.ndarray, arrays: tuple):
    """Log-probs and entropies of stored actions, given as their
    `action_arrays`, over `states` as `PolicyNet.logits` takes them. A mask
    bit b has log-prob -softplus((1 - 2b) * z), one softplus over the row
    (z - softplus(z), the same log sigmoid(z), rounds to 0 once softplus(z)
    rounds to z). With one layer, whose log-softmax is exactly 0 and entropy
    -0.0, the layer head's terms are skipped and `aux` holds None for lsm_l,
    p_l and ent_l."""
    z_l, z_g, z_r, cache = policy.logits(states)
    ranks, levels, bits, mask = arrays
    rows = np.arange(ranks.size)
    lsm_r = nn.log_softmax(z_r)
    p_r = np.exp(lsm_r)
    ent_r = -np.add.reduce(p_r * lsm_r, axis=1)
    lp, entropy = lsm_r[rows, levels], ent_r
    lsm_l = p_l = ent_l = None
    if policy.idx.n_layers > 1:
        lsm_l = nn.log_softmax(z_l)
        p_l = np.exp(lsm_l)
        ent_l = -np.add.reduce(p_l * lsm_l, axis=1)
        lp = lsm_l[rows, ranks] + lp
        entropy = ent_l + ent_r
    sp = _softplus(z_g)
    lp = lp - np.add.reduce(mask * _softplus(z_g * (1.0 - 2.0 * bits)), axis=1)
    sig = np.exp(z_g - sp)                      # sigmoid(z_g)
    entropy = entropy + np.add.reduce(mask * (sp - z_g * sig), axis=1)
    aux = (z_g, cache, lsm_l, lsm_r, p_l, p_r, sig, ent_l, ent_r)
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
    adv = [0.0] * n
    carry = 0.0
    next_value = 0.0
    # the recursion runs on Python floats: the same IEEE operations as on
    # numpy scalars, without their per-operation overhead
    r, v, d = rewards.tolist(), values.tolist(), dones.tolist()
    for t in range(n - 1, -1, -1):
        live = 0.0 if d[t] else 1.0
        delta = r[t] + discount * next_value * live - v[t]
        carry = delta + discount * lam * live * carry
        adv[t] = carry
        next_value = v[t]
    adv = np.array(adv)
    return adv, adv + values


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    adv = np.asarray(adv, dtype=np.float64)
    return (adv - adv.mean()) / max(float(adv.std()), 1e-8)


# --- environment ------------------------------------------------------------


class UnlearnEnv:
    """Episode over a working model the env owns: reward is computed on the
    pre-mutation ledger, then the acted groups are sparsified, then the clock
    advances and they are touched (so they end the step at age zero).

    `reset` copies the input model once and restores the state computed at
    construction; each step zeroes entries of that copy in place. Each
    group's `zero_order` is taken once, at construction: a step zeroes the
    next `zero_budget` entries of it, which are the ones `sparsify` would
    zero. The state is kept incrementally: every step rewrites the age
    column, and the mean and std of the acted layer's groups when the step
    zeroed anything. A zero count per group drives the sparsity-cap check."""

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
        # per group, in canonical order: its size, its zero_order as indices
        # into the layer vector, and its zero count after reset
        sizes, orders, zeros = [], [], []
        for layer, span, size, _ in idx.runs:
            for start in range(span.start, span.stop, size):
                order = zero_order(model.params[layer][start : start + size])
                sizes.append(size)
                orders.append(order + start)
                zeros.append(size - order.size)
        self._sizes, self._orders, self._zeros0 = sizes, orders, zeros
        self._state0 = state_vector(model, AoiLedger(idx), idx)
        self.reset()

    def reset(self) -> np.ndarray:
        self.model = self._model0.copy()
        self.ledger = AoiLedger(self.idx)
        self.steps = 0
        self.done = False
        self._zeros = list(self._zeros0)
        self.state = self._state0.copy()
        return self.state

    def step(self, action: Action) -> Transition:
        if self.done:
            raise RlError("env is done; reset before stepping again")
        layer = self.idx.layers[action.layer_rank]
        if min(action.groups) < 0 or max(action.groups) >= self.idx.n_groups(layer):
            raise RlError(f"group out of range for layer {layer}")
        r, r_f, r_c = reward(action, self.report, self.ledger, self.idx, self.cfg.w_f,
                             self.cfg.w_c)
        prev_state = self.state
        # zero the next zero_budget(s, nnz) entries of each acted group's order
        vec = self.model.params[layer]
        zeroed = 0
        for p in (self.idx.offsets[action.layer_rank] + j for j in action.groups):
            nnz = self._sizes[p] - self._zeros[p]
            k = zero_budget(action.s, nnz)
            if k:
                cut = self._orders[p].size - nnz
                vec[self._orders[p][cut : cut + k]] = 0.0
                self._zeros[p] += k
                zeroed += k
        self.ledger.advance()
        self.ledger.touch([(layer, j) for j in action.groups])
        self.steps += 1
        grid = prev_state.reshape(-1, 3).copy()
        grid[:, 0] = normalized_ages(self.ledger.ages())
        if zeroed:
            write_group_stats(grid, self.model, self.idx.layer_runs[layer])
        self.state = grid.ravel()
        self.done = (
            self.steps >= self.cfg.t_collect
            or min(z / n for z, n in zip(self._zeros, self._sizes)) >= self.cfg.sparsity_cap
        )
        return Transition(
            state=prev_state,
            action=action,
            reward=r,
            next_state=self.state,
            done=self.done,
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

    Neither net has changed since collect, so the buffer's values and old
    log-probs are taken first, each in one forward over the (n, 1, S) stack
    of states, with the bits of one forward per step. Advantages come from
    GAE over the buffer (normalized batch-wide); the buffer is cleared
    before returning. With one layer the layer head's gradient column is
    coef * 0.0 + ce * 0.0, what the full computation writes, and its other
    terms are skipped."""
    if not buffer:
        raise RlError("empty buffer")
    n = len(buffer)
    rows = np.arange(n)
    states = np.stack([tr.state for tr in buffer])
    values = value_net.row_values(states)
    arrays = action_arrays(policy.idx, [tr.action for tr in buffer])
    old_lp = batch_log_probs(policy, states[:, None, :], arrays)[0]
    ranks, levels, bits, mask = arrays
    one_l = np.zeros((n, policy.idx.n_layers))
    one_l[rows, ranks] = 1.0
    one_r = np.zeros((n, policy.ratio_levels))
    one_r[rows, levels] = 1.0
    rewards = np.array([tr.reward for tr in buffer])
    dones = np.array([tr.done for tr in buffer])
    adv_raw, returns = gae(rewards, values, dones, cfg.discount, cfg.gae_lambda)
    adv = normalize_advantages(adv_raw)
    columns = (states, ranks, levels, bits, mask, one_l, one_r, adv, returns, old_lp)
    stats = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0, "clip_frac": 0.0}
    n_batches = 0
    lo, hi = 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps
    head_cols = tuple(policy.head_cols[h] for h in ("layer", "group", "ratio"))
    n_heads = policy.params["b_heads"].size
    for _ in range(cfg.epochs):
        # one permutation per epoch; each minibatch is then a slice of it
        perm = rng.permutation(n)
        shuffled = [col[perm] for col in columns]
        for start in range(0, n, cfg.batch_size):
            (x, ranks, levels, bits, mask, one_l, one_r, a_mb, ret_mb, old_mb) = (
                col[start : start + cfg.batch_size] for col in shuffled)
            m = x.shape[0]
            lp, entropy, aux = batch_log_probs(policy, x, (ranks, levels, bits, mask))
            z_g, cache, lsm_l, lsm_r, p_l, p_r, sig, ent_l, ent_r = aux
            ratio = np.exp(lp - old_mb)
            clipped = np.minimum(np.maximum(ratio, lo), hi)
            unclipped_a, clipped_a = ratio * a_mb, clipped * a_mb
            surr = np.minimum(unclipped_a, clipped_a)
            active = unclipped_a <= clipped_a

            # d(-surrogate)/d lp, averaged over the minibatch, written into
            # the columns of one stacked head gradient
            coef = (np.where(active, unclipped_a, 0.0) * (-1.0 / m))[:, None]
            dZ = np.empty((m, n_heads))
            dz_l, dz_g, dz_r = (dZ[:, c] for c in head_cols)
            np.multiply(coef, one_r - p_r, out=dz_r)
            np.multiply(coef * mask, bits - sig, out=dz_g)

            # entropy bonus gradients (minimizing -c*H): each term is
            # -ce * (-x), which equals ce * x exactly
            ce = cfg.entropy_coef / m
            if p_l is None:
                # one layer: coef * (1 - 1) + ce * (1 * (0 + -0.0)), exactly
                np.multiply(coef, 0.0, out=dz_l)
                dz_l += ce * 0.0
            else:
                np.multiply(coef, one_l - p_l, out=dz_l)
                dz_l += ce * (p_l * (lsm_l + ent_l[:, None]))
            dz_r += ce * (p_r * (lsm_r + ent_r[:, None]))
            dz_g += ce * mask * (z_g * sig * (1.0 - sig))

            grad = policy.backward(cache[0], cache[1], cache[2], dZ)
            clip_grad_norm(grad, cfg.grad_clip)
            policy_opt.step(policy.flat, grad)

            v, vcache = value_net.values(x)
            verr = v - ret_mb
            dv = (2.0 / m) * verr
            vgrad = value_net.backward(vcache[0], vcache[1], vcache[2], dv[:, None])
            clip_grad_norm(vgrad, cfg.grad_clip)
            value_opt.step(value_net.flat, vgrad)

            # each mean as mean() takes it: the pairwise sum over m
            stats["policy_loss"] += float(-(np.add.reduce(surr) / m))
            stats["value_loss"] += float(np.add.reduce(verr * verr) / m)
            stats["entropy"] += float(np.add.reduce(entropy) / m)
            stats["clip_frac"] += float((m - np.count_nonzero(active)) / m)
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
    seeds = np.random.SeedSequence(seed)
    net_seed, sample_seed, update_seed = (
        int(s.generate_state(1)[0]) for s in seeds.spawn(3)
    )
    policy = PolicyNet(idx, cfg.ratio_levels, seed=net_seed, hidden=cfg.hidden)
    value_net = ValueNet(3 * idx.total_groups, seed=net_seed + 1, hidden=cfg.hidden)
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
            tr = env.step(policy_sample(policy, state, sample_rng))
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
    """The deployed model and its action log, one row per step."""

    model: nn.Model
    action_rows: list[dict]


def deploy(
    policy: PolicyNet,
    model: nn.Model,
    report: SensitivityReport,
    idx: GroupIndex,
    cfg: PpoConfig,
    steps: int,
) -> DeployResult:
    """Greedy (mode) rollout on a fresh copy; stops early if the env is done.
    Each step logs its action."""
    if steps < 1:
        raise RlError("deploy needs at least one step")
    env = UnlearnEnv(model, report, idx, cfg)
    state = env.reset()
    action_rows: list[dict] = []
    for _ in range(steps):
        if env.done:
            break
        action = policy_mode(policy, state)
        state = env.step(action).next_state
        action_rows.append({
            "step": env.steps,
            "layer": int(idx.layers[action.layer_rank]),
            "groups": [int(j) for j in action.groups],
            "s": action.s,
        })
    return DeployResult(model=env.model, action_rows=action_rows)
