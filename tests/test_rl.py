"""Sparsifier traces, reward arithmetic, env clock semantics, GAE oracle,
initial-policy uniformity, and PPO learning on a two-armed bandit built from
the real environment."""

import numpy as np
import pytest

from scale_fu import nn, rl
from scale_fu.aoi import AoiLedger, GroupIndex, partition_groups
from scale_fu.sensitivity import SensitivityReport


def dense_model(dims, seed=0):
    """Stack of dense layers; dims like (4, 3, 2)."""
    specs = []
    for i in range(len(dims) - 1):
        act = nn.ACT_RELU if i < len(dims) - 2 else nn.ACT_NONE
        specs.append(nn.LayerSpec(nn.DENSE, in_dim=dims[i], out_dim=dims[i + 1], activation=act))
    specs = tuple(specs)
    return nn.Model(
        arch_id="stack",
        input_shape=(dims[0],),
        num_classes=dims[-1],
        layers=specs,
        flat=nn.init_params(specs, seed=seed),
    )


def vec_model(values):
    """Single dense layer whose flat parameter vector is exactly `values`."""
    values = np.asarray(values, dtype=np.float64)
    d = values.size
    spec = nn.LayerSpec(nn.DENSE, in_dim=d - 1, out_dim=1, activation=nn.ACT_NONE)
    assert spec.d == d
    return nn.Model("vec", (d - 1,), 2, (spec,), values.copy())


def flat_report(scores, m_sel=None):
    scores = np.asarray(scores, dtype=np.float64)
    order = sorted(range(scores.size), key=lambda l: (-scores[l], l))
    m = m_sel if m_sel is not None else scores.size
    return SensitivityReport(
        client=0,
        lam=0.5,
        rho=np.zeros(scores.size),
        s_align=np.zeros(scores.size),
        s_impact=np.zeros(scores.size),
        s_combined=scores,
        selected=order[:m],
        m_sel=m,
    )


# --- sparsify ----------------------------------------------------------------


def test_sparsify_golden_trace():
    model = vec_model([0.5, -0.1, 0.3, -0.2])
    idx = GroupIndex(layers=(0,), ranges=(((0, 4),),))
    out = rl.sparsify(model, idx, 0, (0,), 0.5)
    assert out.params[0].tolist() == [0.5, 0.0, 0.3, 0.0]
    # input untouched
    assert model.params[0].tolist() == [0.5, -0.1, 0.3, -0.2]


def test_sparsify_counts_only_nonzeros():
    model = vec_model([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    idx = GroupIndex(layers=(0,), ranges=(((0, 6),),))
    once = rl.sparsify(model, idx, 0, (0,), 0.5)
    assert np.count_nonzero(once.params[0]) == 3
    assert once.params[0].tolist() == [6.0, 5.0, 4.0, 0.0, 0.0, 0.0]
    twice = rl.sparsify(once, idx, 0, (0,), 0.5)
    # floor(0.5 * 3) = 1 more coordinate drops
    assert np.count_nonzero(twice.params[0]) == 2
    assert twice.params[0].tolist() == [6.0, 5.0, 0.0, 0.0, 0.0, 0.0]


def test_sparsify_small_ratio_is_noop():
    model = vec_model([1.0, 2.0, 3.0, 4.0])
    idx = GroupIndex(layers=(0,), ranges=(((0, 4),),))
    out = rl.sparsify(model, idx, 0, (0,), 0.2)   # floor(0.8) = 0
    assert out.params[0].tolist() == [1.0, 2.0, 3.0, 4.0]


def test_sparsify_full_ratio_zeroes_group():
    model = vec_model([1.0, -2.0, 3.0, -4.0])
    idx = GroupIndex(layers=(0,), ranges=(((0, 2), (2, 4)),))
    out = rl.sparsify(model, idx, 0, (1,), 1.0)
    assert out.params[0].tolist() == [1.0, -2.0, 0.0, 0.0]


def test_sparsify_magnitude_ties_break_low_index():
    model = vec_model([0.3, -0.3, 0.3, 0.3])
    idx = GroupIndex(layers=(0,), ranges=(((0, 4),),))
    out = rl.sparsify(model, idx, 0, (0,), 0.25)
    assert out.params[0].tolist() == [0.0, -0.3, 0.3, 0.3]


def test_sparsify_validation():
    model = vec_model([1.0, 2.0, 3.0, 4.0])
    idx = GroupIndex(layers=(0,), ranges=(((0, 4),),))
    with pytest.raises(rl.RlError):
        rl.sparsify(model, idx, 0, (0,), 0.0)
    with pytest.raises(rl.RlError):
        rl.sparsify(model, idx, 0, (0,), 1.5)
    with pytest.raises(rl.RlError):
        rl.sparsify(model, idx, 0, (), 0.5)
    with pytest.raises(rl.RlError):
        rl.sparsify(model, idx, 0, (3,), 0.5)
    with pytest.raises(rl.RlError, match="duplicate"):
        rl.sparsify(model, idx, 0, (0, 0), 0.5)


# --- rewards -----------------------------------------------------------------


def test_reward_forget_hand_values():
    model = dense_model((4, 3, 2))
    idx = partition_groups(model, [0, 1], 1)
    report = flat_report([2.0, 1.0])
    a0 = rl.Action(layer_rank=0, groups=(0,), ratio_level=1, s=0.5)
    a1 = rl.Action(layer_rank=1, groups=(0,), ratio_level=1, s=0.5)
    assert rl.reward_forget(a0, report, idx) == pytest.approx(0.5)
    assert rl.reward_forget(a1, report, idx) == pytest.approx(0.25)


def test_reward_forget_group_count_scales():
    model = dense_model((4, 3, 2))
    idx = partition_groups(model, [0], 3)
    report = flat_report([5.0, 1.0])
    act = rl.Action(layer_rank=0, groups=(0, 1, 2), ratio_level=1, s=1.0)
    assert rl.reward_forget(act, report, idx) == pytest.approx(3.0)


def test_reward_forget_zero_scores():
    model = dense_model((4, 3, 2))
    idx = partition_groups(model, [0, 1], 1)
    report = flat_report([0.0, 0.0])
    act = rl.Action(layer_rank=0, groups=(0,), ratio_level=1, s=1.0)
    assert rl.reward_forget(act, report, idx) == 0.0


def test_reward_fresh_hand_values():
    model = dense_model((4, 3, 2))
    idx = partition_groups(model, [0], 2)
    ledger = AoiLedger(idx)
    act = rl.Action(layer_rank=0, groups=(0, 1), ratio_level=1, s=1.0)
    assert rl.reward_fresh(act, ledger) == 0.0   # nothing aged yet
    ledger.advance()
    ledger.touch([(idx.layers[0], 1)])
    ledger.advance()
    # ages now: group0 = 2, group1 = 1, max = 2
    got = rl.reward_fresh(act, ledger)
    assert got == pytest.approx((2 / 2 + 1 / 2) / 2)
    solo = rl.Action(layer_rank=0, groups=(1,), ratio_level=1, s=0.5)
    assert rl.reward_fresh(solo, ledger) == pytest.approx(0.5 * 0.5)
    for j in (-1, 2):
        act = rl.Action(layer_rank=0, groups=(0, j), ratio_level=1, s=1.0)
        with pytest.raises(rl.RlError, match="out of range"):
            rl.reward_fresh(act, ledger)


def test_reward_combination_weights():
    model = dense_model((4, 3, 2))
    idx = partition_groups(model, [0], 2)
    ledger = AoiLedger(idx)
    ledger.advance()
    report = flat_report([3.0, 1.0])
    act = rl.Action(layer_rank=0, groups=(0,), ratio_level=1, s=1.0)
    total, r_f, r_c = rl.reward(act, report, ledger, idx, w_f=0.7, w_c=0.3)
    assert r_f == pytest.approx(1.0)
    assert r_c == pytest.approx(1.0)
    assert total == pytest.approx(0.7 + 0.3)


# --- environment -------------------------------------------------------------


def env_fixture(t_collect=4, ratio_levels=2, groups=2, cap=0.95, **kw):
    model = dense_model((4, 3, 2), seed=3)
    idx = partition_groups(model, [0, 1], groups)
    report = flat_report([2.0, 1.0])
    cfg = rl.PpoConfig(t_collect=t_collect, ratio_levels=ratio_levels,
                       sparsity_cap=cap, **kw)
    return rl.UnlearnEnv(model, report, idx, cfg), model, idx


def test_env_step_clock_and_rows():
    env, model, idx = env_fixture()
    act = rl.Action(layer_rank=0, groups=(0,), ratio_level=1, s=0.5)
    tr = env.step(act)
    # acted group ends the step at age zero, everything else at one
    assert env.ledger.age(idx.layers[0], 0) == 0
    assert env.ledger.age(idx.layers[0], 1) == 1
    assert env.ledger.age(idx.layers[1], 0) == 1
    assert tr.r_fresh == 0.0                 # reward uses pre-step ages
    assert tr.reward == pytest.approx(env.cfg.w_f * tr.r_forget)
    assert not tr.done
    assert env.steps == 1
    assert tr.state.shape == tr.next_state.shape == (3 * idx.total_groups,)


def test_env_reaches_t_collect_then_raises():
    env, _, idx = env_fixture(t_collect=3)
    act = rl.Action(layer_rank=0, groups=(0,), ratio_level=1, s=0.5)
    for want_done in (False, False, True):
        tr = env.step(act)
        assert tr.done is want_done
    with pytest.raises(rl.RlError):
        env.step(act)
    env.reset()
    assert env.steps == 0 and not env.done


def test_env_done_when_everything_sparse():
    env, _, idx = env_fixture(t_collect=50, groups=1)
    done_flags = []
    for rank in range(len(idx.layers)):
        tr = env.step(rl.Action(layer_rank=rank, groups=(0,), ratio_level=2, s=1.0))
        done_flags.append(tr.done)
    assert done_flags == [False, True]
    assert rl.min_group_sparsity(env.model, idx) == 1.0


def test_env_reward_seen_before_mutation():
    """Zeroing a group then acting on it again still pays the forget term."""
    env, _, idx = env_fixture(t_collect=10, groups=1, cap=1.0)
    act = rl.Action(layer_rank=0, groups=(0,), ratio_level=2, s=1.0)
    first = env.step(act)
    second = env.step(act)
    assert second.r_forget == pytest.approx(first.r_forget)
    # the group was just touched, so its age (and freshness term) is zero
    assert second.r_fresh == 0.0


# --- GAE and advantage normalization ------------------------------------------


def test_gae_frozen_trace():
    adv, ret = rl.gae(np.array([1.0, 1.0]), np.array([0.0, 0.0]),
                      np.array([False, True]), discount=0.5, lam=1.0)
    assert adv.tolist() == [1.5, 1.0]
    assert ret.tolist() == [1.5, 1.0]


def test_gae_episode_boundary_blocks_credit():
    # two one-step episodes: no credit flows across the done flag
    adv, _ = rl.gae(np.array([1.0, 5.0]), np.array([0.0, 0.0]),
                    np.array([True, True]), discount=0.9, lam=0.9)
    assert adv.tolist() == [1.0, 5.0]


def test_gae_bootstraps_zero_at_buffer_end():
    adv, _ = rl.gae(np.array([1.0]), np.array([0.5]),
                    np.array([False]), discount=0.9, lam=0.9)
    assert adv[0] == pytest.approx(1.0 - 0.5)


def test_gae_validation():
    with pytest.raises(rl.RlError):
        rl.gae(np.ones(3), np.ones(2), np.zeros(3, dtype=bool), 0.9, 0.9)


def test_normalize_advantages():
    adv = rl.normalize_advantages(np.array([1.0, 2.0, 3.0, 4.0]))
    assert adv.mean() == pytest.approx(0.0, abs=1e-12)
    assert adv.std() == pytest.approx(1.0)
    flat = rl.normalize_advantages(np.full(5, 2.5))
    assert np.all(flat == 0.0)


# --- policy heads ------------------------------------------------------------


def policy_fixture(groups=2, ratio_levels=4, hidden=16, seed=11):
    model = dense_model((4, 3, 2), seed=5)
    idx = partition_groups(model, [0, 1], groups)
    policy = rl.PolicyNet(idx, ratio_levels, seed=seed, hidden=hidden)
    return policy, model, idx


def test_layout_geometry():
    policy, _, idx = policy_fixture(groups=2, ratio_levels=4, hidden=16)
    assert idx.n_layers == 2
    assert idx.total_groups == 4
    assert idx.offsets == (0, 2)
    assert idx.cols(1) == slice(2, 4)
    assert policy.params["W1"].shape == (16, 12)      # 3 state entries a group
    assert policy.head_cols == {"layer": slice(0, 2), "group": slice(2, 6),
                                "ratio": slice(6, 10)}


def test_initial_heads_are_uniform():
    policy, _, idx = policy_fixture(ratio_levels=4)
    rng = np.random.default_rng(0)
    # zero ages: empty-mask coercion always lands on group 0, so the
    # group-1 bit stays an untouched Bernoulli(1/2)
    state = np.zeros(3 * idx.total_groups)
    n = 10_000
    ranks = np.zeros(idx.n_layers)
    levels = np.zeros(4)
    g1_on = 0
    acts = []
    for _ in range(n):
        act = rl.policy_sample(policy, state, rng)
        acts.append(act)
        ranks[act.layer_rank] += 1
        levels[act.ratio_level - 1] += 1
        if 1 in act.groups:
            g1_on += 1
    lps, _, _ = rl.batch_log_probs(policy, np.tile(state, (n, 1)), rl.action_arrays(idx, acts))
    assert np.all(np.isfinite(lps))
    # layer head: p = 1/2, 3 sigma = 3 * sqrt(n/4) = 150
    assert abs(ranks[0] - n / 2) < 150
    # ratio head: p = 1/4
    sigma_r = (n * 0.25 * 0.75) ** 0.5
    assert np.all(np.abs(levels - n / 4) < 3 * sigma_r + 1)
    # second group bit is plain Bernoulli(1/2); the first absorbs coercions
    assert abs(g1_on - n / 2) < 150


def action_log_prob(policy, state, action):
    """Log-probability of a fully specified action under the current policy,
    one head at a time: the oracle for the log-probs batch_log_probs gives.
    A mask bit b has log-prob -softplus(-z) if set and -softplus(z) if not."""
    z_l, z_g, z_r, _ = policy.logits(state[None, :])
    lp = float(nn.log_softmax(z_l)[0, action.layer_rank])
    cols = policy.idx.cols(action.layer_rank)
    bits = np.zeros(cols.stop - cols.start)
    bits[list(action.groups)] = 1.0
    lp -= float(np.add.reduce(rl._softplus(z_g[0, cols] * (1.0 - 2.0 * bits))))
    lp += float(nn.log_softmax(z_r)[0, action.ratio_level - 1])
    return lp


def sampled_log_prob(policy, state, action):
    """The log-prob `ppo_update` takes for `action` at `state`: one row of
    `batch_log_probs` over the (n, 1, S) stack."""
    arrays = rl.action_arrays(policy.idx, [action])
    return float(rl.batch_log_probs(policy, state[None, None, :], arrays)[0][0])


def head_bias(policy, name):
    """The bias of one head: a view into the stacked head bias."""
    return policy.params["b_heads"][policy.head_cols[name]]


def test_empty_mask_coerced_to_oldest_group():
    policy, model, idx = policy_fixture(groups=2)
    # force empty group draws: massively negative group logits
    head_bias(policy, "group")[:] = -60.0
    state = np.zeros(3 * idx.total_groups)
    state[3 * 1] = 1.0   # group 1 of layer rank 0 is the oldest
    rng = np.random.default_rng(2)
    for _ in range(20):
        act = rl.policy_sample(policy, state, rng)
        lp = sampled_log_prob(policy, state, act)
        assert len(act.groups) == 1
        if act.layer_rank == 0:
            assert act.groups == (1,)
        else:
            assert act.groups == (0,)   # ages tie at zero, lowest index wins
        assert np.isfinite(lp)
        assert lp == pytest.approx(action_log_prob(policy, state, act))


def test_policy_mode_frozen_at_init():
    policy, _, idx = policy_fixture(ratio_levels=4)
    state = np.zeros(3 * idx.total_groups)
    act = rl.policy_mode(policy, state)
    lp = sampled_log_prob(policy, state, act)
    # all logits zero: argmax ties resolve low, p=0.5 bits stay off, coercion
    # then picks group 0 of layer rank 0; lowest ratio level
    assert act == rl.Action(layer_rank=0, groups=(0,), ratio_level=1, s=0.25)
    assert np.isfinite(lp)


def test_saturated_logits_stay_finite():
    policy, _, idx = policy_fixture(ratio_levels=4)
    head_bias(policy, "layer")[:] = np.array([60.0, -60.0])
    head_bias(policy, "group")[:] = 60.0
    head_bias(policy, "ratio")[:] = np.array([-60.0, 60.0, -60.0, -60.0])
    state = np.zeros(3 * idx.total_groups)
    rng = np.random.default_rng(3)
    act = rl.policy_sample(policy, state, rng)
    lp = sampled_log_prob(policy, state, act)
    assert act.layer_rank == 0
    assert act.groups == (0, 1)
    assert act.ratio_level == 2
    assert np.isfinite(lp) and lp < 0.0


def test_stored_log_probs_match_batch_recompute():
    """The ratio is one, to rounding, on the first pass over fresh data: the
    old log-probs `ppo_update` takes over the (n, 1, S) stack match the
    minibatch's (n, S) recompute and the one-head-at-a-time oracle."""
    policy, model, idx = policy_fixture()
    cfg = rl.PpoConfig(t_collect=6, ratio_levels=4)
    env = rl.UnlearnEnv(model, flat_report([2.0, 1.0]), idx, cfg)
    rng = np.random.default_rng(7)
    buffer = []
    state = env.reset()
    while not env.done:
        tr = env.step(rl.policy_sample(policy, state, rng))
        buffer.append(tr)
        state = tr.next_state
    states = np.stack([tr.state for tr in buffer])
    acts = rl.action_arrays(idx, [tr.action for tr in buffer])
    old, _, _ = rl.batch_log_probs(policy, states[:, None, :], acts)
    lps, ent, _ = rl.batch_log_probs(policy, states, acts)
    assert np.allclose(lps, old, atol=1e-10)
    oracle = [action_log_prob(policy, tr.state, tr.action) for tr in buffer]
    assert np.allclose(old, oracle, atol=1e-10)
    assert np.all(ent > 0.0)


# --- PPO update mechanics ----------------------------------------------------


def collect_buffer(policy, model, idx, cfg, seed=0, episodes=2):
    env = rl.UnlearnEnv(model, flat_report([2.0, 1.0]), idx, cfg)
    rng = np.random.default_rng(seed)
    buffer = []
    for _ in range(episodes):
        state = env.reset()
        while not env.done:
            tr = env.step(rl.policy_sample(policy, state, rng))
            buffer.append(tr)
            state = tr.next_state
    return buffer


def test_ppo_update_runs_and_clears_buffer():
    policy, model, idx = policy_fixture()
    cfg = rl.PpoConfig(t_collect=5, ratio_levels=4, epochs=3, batch_size=4)
    value_net = rl.ValueNet(3 * idx.total_groups, seed=1, hidden=16)
    buffer = collect_buffer(policy, model, idx, cfg)
    popt = rl.Adam(policy.flat, cfg.actor_lr)
    vopt = rl.Adam(value_net.flat, cfg.critic_lr)
    before = {k: v.copy() for k, v in policy.params.items()}
    stats = rl.ppo_update(policy, value_net, buffer, cfg, np.random.default_rng(0), popt, vopt)
    assert buffer == []
    assert set(stats) == {"policy_loss", "value_loss", "entropy", "clip_frac"}
    assert stats["entropy"] > 0.0
    moved = any(not np.array_equal(before[k], policy.params[k]) for k in before)
    assert moved


def test_ppo_update_rejects_empty_buffer():
    policy, model, idx = policy_fixture()
    cfg = rl.PpoConfig()
    value_net = rl.ValueNet(3 * idx.total_groups, seed=1)
    with pytest.raises(rl.RlError):
        rl.ppo_update(policy, value_net, [], cfg, np.random.default_rng(0),
                      rl.Adam(policy.flat, 1e-3), rl.Adam(value_net.flat, 1e-3))


def test_adam_matches_reference_first_step():
    params = np.array([1.0, 2.0])
    opt = rl.Adam(params, lr=0.1)
    opt.step(params, np.array([0.5, -0.5]))
    # bias-corrected first step moves by lr * g/(|g| + eps) = lr * sign, almost
    assert params[0] == pytest.approx(1.0 - 0.1, abs=1e-6)
    assert params[1] == pytest.approx(2.0 + 0.1, abs=1e-6)


def test_grad_clip_scales_to_max_norm():
    grad = np.array([3.0, 4.0])
    norm = rl.clip_grad_norm(grad, 0.5)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(grad) == pytest.approx(0.5)
    small = np.array([0.1, 0.0])
    rl.clip_grad_norm(small, 0.5)
    assert small[0] == pytest.approx(0.1)


# --- learning: two-armed bandit through the real env --------------------------


def bandit_setup():
    model = dense_model((4, 3, 2), seed=9)
    idx = partition_groups(model, [0, 1], 1)
    report = flat_report([1.0, 0.01])
    cfg = rl.PpoConfig(
        episodes=150,
        t_collect=4,
        epochs=4,
        actor_lr=0.05,
        critic_lr=0.05,
        batch_size=8,
        entropy_coef=0.0,
        w_f=1.0,
        w_c=0.0,
        ratio_levels=1,
        sparsity_cap=1.0,
        hidden=16,
        discount=0.5,
    )
    return model, report, idx, cfg


def test_bandit_policy_prefers_high_reward_arm():
    model, report, idx, cfg = bandit_setup()
    result = rl.train_unlearner(model, report, idx, cfg, seed=123)
    env = rl.UnlearnEnv(model, report, idx, cfg)
    state = env.reset()
    z_l, _, _, _ = result.policy.logits(state[None, :])
    probs = np.exp(z_l[0] - z_l[0].max())
    probs /= probs.sum()
    assert probs[0] > 0.95
    act = rl.policy_mode(result.policy, state)
    assert act.layer_rank == 0


def test_bandit_reward_curve_improves():
    model, report, idx, cfg = bandit_setup()
    result = rl.train_unlearner(model, report, idx, cfg, seed=321)
    totals = [ep.total_reward for ep in result.episodes]
    head = np.mean(totals[:15])
    tail = np.mean(totals[-15:])
    assert tail > head
    # converged behavior collects the forget reward every step of the episode
    assert tail > 0.9 * cfg.t_collect * 0.9


def test_train_unlearner_does_not_mutate_inputs():
    model, report, idx, cfg = bandit_setup()
    cfg = rl.PpoConfig(episodes=3, t_collect=3, epochs=2, batch_size=4,
                       ratio_levels=2, hidden=8)
    snap = [p.copy() for p in model.params]
    result = rl.train_unlearner(model, report, idx, cfg, seed=5)
    assert all(np.array_equal(a, b) for a, b in zip(snap, model.params))
    assert [ep.episode for ep in result.episodes] == [1, 2, 3]
    for ep in result.episodes:
        assert ep.steps > 0
        assert ep.total_reward == pytest.approx(
            cfg.w_f * ep.r_f_sum + cfg.w_c * ep.r_c_sum
        )


def test_train_unlearner_deterministic():
    model, report, idx, _ = bandit_setup()
    cfg = rl.PpoConfig(episodes=4, t_collect=3, epochs=2, batch_size=4,
                       ratio_levels=2, hidden=8)
    a = rl.train_unlearner(model, report, idx, cfg, seed=77)
    b = rl.train_unlearner(model, report, idx, cfg, seed=77)
    for k in a.policy.params:
        assert np.array_equal(a.policy.params[k], b.policy.params[k])
    assert [e.total_reward for e in a.episodes] == [e.total_reward for e in b.episodes]


# --- deployment ---------------------------------------------------------------


def test_deploy_greedy_and_deterministic():
    model, report, idx, cfg = bandit_setup()
    before = model.flat.copy()
    cfg = rl.PpoConfig(episodes=0, t_collect=8, ratio_levels=2, hidden=8,
                       sparsity_cap=0.95)
    policy = rl.PolicyNet(idx, cfg.ratio_levels, seed=2, hidden=cfg.hidden)
    r1 = rl.deploy(policy, model, report, idx, cfg, steps=5)
    r2 = rl.deploy(policy, model, report, idx, cfg, steps=5)
    assert r1.action_rows == r2.action_rows
    assert all(np.array_equal(a, b) for a, b in zip(r1.model.params, r2.model.params))
    # one row per step, steps 1, 2, ... in order
    assert 1 <= len(r1.action_rows) <= 5
    assert [row["step"] for row in r1.action_rows] == list(range(1, len(r1.action_rows) + 1))
    # greedy at zero-init: always layer rank 0, group 0, lowest level
    assert r1.action_rows[0]["layer"] == idx.layers[0]
    assert r1.action_rows[0]["groups"] == [0]
    # the deployed copy differs from or equals the input, but input is intact
    assert np.array_equal(model.flat, before)


def test_deploy_validates_steps():
    model, report, idx, cfg = bandit_setup()
    policy = rl.PolicyNet(idx, cfg.ratio_levels, seed=2, hidden=cfg.hidden)
    with pytest.raises(rl.RlError):
        rl.deploy(policy, model, report, idx, cfg, steps=0)
