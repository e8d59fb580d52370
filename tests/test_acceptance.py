"""End-to-end acceptance sweep on the reference synthetic scenario: training
quality, gradient correctness, unlearning effectiveness against the retrain
gold standard and the budget-matched uniform baseline, agent convergence,
sensitivity targeting, the analytical-claim oracles, invariant sweeps,
bitwise determinism, and the heterogeneity trend.

Everything here drives the installed CLI surface (cli.main) and reads back
artifacts, so a pass certifies the shipped pipeline, not internal shortcuts.
"""

import json
import time

import numpy as np
import pytest

from artifacts import read_csv
from scale_fu import aoi, cli, data, federation, metrics, nn, pipeline, rl, sensitivity, theory
from scale_fu.config import RunDir, read_json

R1_SEEDS = (41, 42, 43, 44, 45)
METHODS = ("scale", "retrain", "uniform", "grad_ascent")


# --- pipeline drivers --------------------------------------------------------


def build_run(base, seed, alpha=None, methods=METHODS):
    """Train + unlearn + eval one run directory through the CLI entry point."""
    overrides = {"seeds": {"master": seed}}
    if alpha is not None:
        overrides["federation"] = {"dirichlet_alpha": alpha}
    cfg_path = base / "cfg.json"
    cfg_path.write_text(json.dumps(overrides))
    out = base / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    for m in methods:
        code = cli.main(["unlearn", "--run", str(out), "--method", m,
                         "--request", "client:3"])
        assert code == 0, m
    assert cli.main(["eval", "--run", str(out), "--methods", ",".join(methods)]) == 0
    return RunDir(out)


def forget_view(rd):
    """Rebuild the forget split exactly as eval does and return (X_f, y_f)."""
    cfg = rd.read_config()
    ds, _, split = pipeline.rebuild_split(cfg, cli.read_request(rd)[0])
    return data.client_view(ds, split.forget)


@pytest.fixture(scope="session")
def family(tmp_path_factory):
    """Full pipeline on the reference scenario for each seed in R1_SEEDS."""
    runs = {}
    for seed in R1_SEEDS:
        rd = build_run(tmp_path_factory.mktemp(f"ref_{seed}"), seed)
        entry = {"rd": rd}
        for m in METHODS:
            entry[m] = read_json(rd.metrics_path(m))
        cfg = rd.read_config()
        like = pipeline.build_model0(cfg, pipeline.build_dataset(cfg))
        original = nn.load_model(rd.global_model_path, like)
        X_f, y_f = forget_view(rd)
        entry["fa_orig"] = metrics.accuracy(original, X_f, y_f)
        runs[seed] = entry
    return runs


@pytest.fixture(scope="session")
def alpha_means(tmp_path_factory):
    """Mean remaining accuracy across seeds at two heterogeneity levels."""
    means = {}
    for alpha in (0.1, 0.5):
        ras = []
        for seed in R1_SEEDS:
            base = tmp_path_factory.mktemp(f"alpha{int(alpha * 10)}_{seed}")
            rd = build_run(base, seed, alpha=alpha, methods=("scale", "retrain"))
            ras.append(read_json(rd.metrics_path("scale"))["ra"])
        means[alpha] = sum(ras) / len(ras)
    return means


# --- training sanity ----------------------------------------------------------


def test_training_reaches_accuracy_within_budget(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    out = tmp_path / "run"
    t0 = time.perf_counter()
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    _, header, rows = read_csv(RunDir(out).rounds_path)
    final_acc = float(rows[-1][header.index("acc")])
    assert final_acc >= 0.90
    assert elapsed < 60.0


# --- gradient oracle ------------------------------------------------------------


def _fd_grads(model, batch, eps=1e-4):
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


def test_analytic_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for draw in range(50):
        rng = np.random.default_rng(5000 + draw)
        model = nn.make_model("mlp", 4, 3, seed=draw, hidden=(6, 5))
        batch = nn.Batch(rng.normal(size=(5, 4)), rng.integers(0, 3, size=5))
        _, analytic = nn.loss_and_grads(model, batch)
        numeric = _fd_grads(model, batch)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = max(worst, float(np.max(err)))
    assert worst < 1e-5
    assert time.perf_counter() - t0 < 10.0


# --- unlearning effectiveness ---------------------------------------------------


def test_forget_accuracy_drops_on_reference_seed(family):
    e = family[42]
    assert e["scale"]["fa"] <= e["fa_orig"] - 0.15


def test_forget_accuracy_never_exceeds_original(family):
    for seed in R1_SEEDS:
        e = family[seed]
        assert e["scale"]["fa"] <= e["fa_orig"], seed


def test_forgetting_rate_positive_on_every_seed(family):
    for seed in R1_SEEDS:
        assert family[seed]["scale"]["fr"] > 0.0, seed


def test_remaining_accuracy_within_retrain_band(family):
    for seed in R1_SEEDS:
        e = family[seed]
        assert e["scale"]["ra"] >= e["retrain"]["ra"] - 0.15, seed


# --- baseline ordering ----------------------------------------------------------


def test_budget_matched_forget_accuracy_vs_uniform(family):
    # Forgetting is scored as distance to the retrain gold standard, the same
    # quantity as eval's d_fa: the synthetic data generalizes, so retrain's
    # FA is 1.0 on these seeds and a raw "lower FA wins" rule would fail
    # exact unlearning itself. The output head holds 132 parameters, so the
    # uniform split of the matched budget zeroes it whole; every logit is 0,
    # argmax ties go to class 0, and uniform's FA is the forget set's
    # class-0 share.
    def gap(s, method):
        return abs(family[s][method]["fa"] - family[s]["retrain"]["fa"])

    wins = sum(gap(s, "scale") <= gap(s, "uniform") for s in R1_SEEDS)
    assert wins >= 4, [(gap(s, "scale"), gap(s, "uniform")) for s in R1_SEEDS]


def test_deployment_aoi_below_uniform_schedule(family):
    wins = sum(
        family[s]["scale"]["mean_aoi_steps"] < family[s]["uniform"]["mean_aoi_steps"]
        for s in R1_SEEDS
    )
    assert wins >= 4


# --- agent convergence ----------------------------------------------------------


def test_reward_grows_over_training(family):
    rd = family[42]["rd"]
    _, header, rows = read_csv(rd.method_dir("scale") / "ppo_rewards.csv")
    tot = [float(r[header.index("total_reward")]) for r in rows]
    k = max(1, len(tot) // 10)
    first = sum(tot[:k]) / k
    last = sum(tot[-k:]) / k
    assert last >= 1.2 * first, (first, last)


# --- sensitivity targeting ------------------------------------------------------


def test_planted_dominant_layer_ranks_first():
    decomp = theory.SyntheticDecomposition(
        n_layers=4, n_clients=4, dim=32, sizes=(25, 25, 25, 25)
    )
    rep = theory.check_coverage(decomp, m_sel=1, trials=100, seed=3)
    assert rep.status == theory.STATUS_PASS
    assert rep.details["planted_ranked_first"] >= 95
    assert rep.details["coverage_holds"] == rep.details["rank_consistent_instances"]


# --- analytical-claim oracles ----------------------------------------------------


def test_claim_oracles_pass_and_report_known_discrepancies(tmp_path, capsys):
    report_path = tmp_path / "theory_report.json"
    code = cli.cmd_theory(samples=100_000, out_path=str(report_path))
    capsys.readouterr()
    assert code == 0
    payload = json.loads(report_path.read_text())
    by_id = {c["claim_id"]: c for c in payload}

    accel = by_id["theorem-3-acceleration-identity"]
    assert accel["details"]["identity_failures"] == 0
    assert accel["details"]["max_identity_diff"] < 1e-10
    assert accel["instances"] >= 100

    align = by_id["theorem-1-sensitivity-lower-bound"]
    assert align["details"]["true_bound_failures"] == 0
    assert align["instances"] == 100_000

    # both known analytical mismatches surface with concrete counterexamples
    assert align["status"] == "PAPER-DISCREPANCY"
    assert align["counterexample"] is not None
    bound = by_id["theorem-2-freshness-error-bound"]
    assert bound["status"] == "PAPER-DISCREPANCY"
    assert bound["counterexample"] is not None


# --- invariant sweeps -----------------------------------------------------------


def _sweep_fedavg():
    for case in range(100):
        rng = np.random.default_rng(8000 + case)
        sizes = [int(rng.integers(1, 50)) for _ in range(3)]
        base = nn.make_model("mlp", 4, 3, seed=case, hidden=(5, 4))
        clones = [base.copy() for _ in sizes]
        agg = federation.aggregate(clones, sizes)
        for p, q in zip(agg.params, base.params):
            assert np.allclose(p, q, rtol=0, atol=1e-12)      # fixed point

        models = [nn.make_model("mlp", 4, 3, seed=1000 * case + i, hidden=(5, 4))
                  for i in range(3)]
        agg = federation.aggregate(models, sizes)
        perm = [2, 0, 1]
        agg_p = federation.aggregate([models[i] for i in perm], [sizes[i] for i in perm])
        for p, q in zip(agg.params, agg_p.params):
            assert np.allclose(p, q, rtol=1e-12, atol=1e-12)  # order free
        for l, vec in enumerate(agg.params):
            stack = np.stack([m.params[l] for m in models])
            assert np.all(vec >= stack.min(axis=0) - 1e-12)   # convexity
            assert np.all(vec <= stack.max(axis=0) + 1e-12)


def _sweep_sparsify():
    for case in range(100):
        rng = np.random.default_rng(9000 + case)
        model = nn.make_model("mlp", 4, 3, seed=case, hidden=(6, 5))
        idx = aoi.partition_groups(model, [0, 1, 2], 4)
        rank = int(rng.integers(len(idx.layers)))
        layer = idx.layers[rank]
        g = idx.groups_of(layer)
        picked = tuple(sorted(rng.choice(len(g), size=int(rng.integers(1, len(g) + 1)),
                                         replace=False).tolist()))
        s = float(rng.integers(1, 11)) / 10.0
        before = model.copy()
        out = rl.sparsify(model, idx, layer, picked, s)
        for p, q in zip(model.params, before.params):
            assert np.array_equal(p, q)                       # input untouched
        for l in range(model.num_layers):
            if l != layer:
                assert np.array_equal(out.params[l], model.params[l])
        for j in range(len(g)):
            sl = idx.slice_of(layer, j)
            seg_in, seg_out = model.params[layer][sl], out.params[layer][sl]
            if j not in picked:
                assert np.array_equal(seg_in, seg_out)        # frame
                continue
            nnz = int(np.count_nonzero(seg_in))
            want_zeroed = int(s * nnz)
            changed = np.nonzero(seg_in != seg_out)[0]
            assert len(changed) == want_zeroed
            assert np.all(seg_out[changed] == 0.0)
            if want_zeroed and want_zeroed < nnz:
                survivors = np.abs(seg_in[seg_out != 0])
                assert np.max(np.abs(seg_in[changed])) <= np.min(survivors) + 1e-15


def _sweep_aoi_ledger():
    for case in range(100):
        rng = np.random.default_rng(10_000 + case)
        model = nn.make_model("mlp", 4, 3, seed=case, hidden=(5, 4))
        idx = aoi.partition_groups(model, [0, 2], 3)
        ledger = aoi.AoiLedger(idx=idx)
        keys = list(idx.keys())
        for step in range(12):
            prev = {k: ledger.age(*k) for k in keys}
            ledger.advance()
            touched = [keys[i] for i in rng.choice(len(keys),
                                                   size=int(rng.integers(0, 3)),
                                                   replace=False)]
            ledger.touch(touched)
            for k in keys:
                age = ledger.age(*k)
                assert age == 0 if k in touched else age == prev[k] + 1
                assert 0 <= age <= ledger.t
        assert ledger.max_age() == float(ledger.ages().max())


def _sweep_rewards():
    for case in range(100):
        rng = np.random.default_rng(11_000 + case)
        model = nn.make_model("mlp", 4, 3, seed=case, hidden=(5, 4))
        idx = aoi.partition_groups(model, [0, 1, 2], 4)
        scores = rng.uniform(0.1, 5.0, size=model.num_layers)
        report = sensitivity.SensitivityReport(
            client=0, lam=0.5, rho=np.zeros(model.num_layers),
            s_align=scores, s_impact=scores, s_combined=scores,
            selected=list(idx.layers), m_sel=len(idx.layers),
        )
        ledger = aoi.AoiLedger(idx=idx)
        for _ in range(int(rng.integers(1, 8))):
            ledger.advance()
        rank = int(rng.integers(len(idx.layers)))
        n_groups = len(idx.groups_of(idx.layers[rank]))
        k = int(rng.integers(1, n_groups))
        groups = tuple(range(k))
        level = int(rng.integers(1, 10))
        act = rl.Action(rank, groups, level, level / 10.0)
        total, r_f, r_c = rl.reward(act, report, ledger, idx, 0.7, 0.3)
        assert r_f >= 0.0 and 0.0 <= r_c <= act.s
        assert total == pytest.approx(0.7 * r_f + 0.3 * r_c, abs=1e-15)
        # monotone in the ratio and in mask growth
        stronger = rl.Action(rank, groups, level + 1, (level + 1) / 10.0)
        assert rl.reward_forget(stronger, report, idx) >= r_f
        wider = rl.Action(rank, tuple(range(k + 1)), level, level / 10.0)
        assert rl.reward_forget(wider, report, idx) >= r_f


def _sweep_stat_identities():
    for case in range(100):
        rng = np.random.default_rng(12_000 + case)
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        rho = sensitivity.pearson(a, b)
        assert -1.0 - 1e-12 <= rho <= 1.0 + 1e-12
        assert sensitivity.pearson(a, 3.0 * a + 2.0) == pytest.approx(1.0, abs=1e-9)
        assert sensitivity.pearson(a, -0.5 * a + 1.0) == pytest.approx(-1.0, abs=1e-9)
        assert sensitivity.alignment_score(rho) >= 0.0
        assert sensitivity.alignment_score(0.0) == 0.0

        p = sensitivity.to_distribution(rng.normal(size=16))
        q = sensitivity.to_distribution(rng.normal(size=16))
        assert p.sum() == pytest.approx(1.0, abs=1e-12) and np.all(p > 0)
        assert sensitivity.kl(p, p) == pytest.approx(0.0, abs=1e-12)
        assert sensitivity.kl(p, q) >= -1e-12


def test_invariant_sweeps_within_budget():
    t0 = time.perf_counter()
    _sweep_fedavg()
    _sweep_sparsify()
    _sweep_aoi_ledger()
    _sweep_rewards()
    _sweep_stat_identities()
    assert time.perf_counter() - t0 < 60.0


# --- determinism ----------------------------------------------------------------


def test_metrics_bitwise_reproducible(family, tmp_path):
    rd_a = family[42]["rd"]
    rd_b = build_run(tmp_path, 42)
    for m in METHODS:
        assert rd_b.metrics_path(m).read_bytes() == rd_a.metrics_path(m).read_bytes(), m
    assert rd_b.comparison_path.read_bytes() == rd_a.comparison_path.read_bytes()


# --- heterogeneity trend ---------------------------------------------------------


def test_remaining_accuracy_monotone_in_alpha(alpha_means):
    gap = alpha_means[0.5] - alpha_means[0.1]
    if abs(gap) <= 0.03:
        print(f"gap {gap:+.4f} within the noise band; directional claim not scored")
    assert gap > -0.05, alpha_means
