"""Oracle checks: bound arithmetic at fixed points, constructed-influence
selection, effectiveness-form disagreement, and the acceleration identity
against brute-force sums."""

import json
import math

import numpy as np
import pytest

from scale_fu import nn, theory
from scale_fu.sensitivity import alignment_score


def default_decomp(**kw):
    base = dict(n_layers=4, n_clients=4, dim=32, sizes=(25, 25, 25, 25))
    base.update(kw)
    return theory.SyntheticDecomposition(**base)


def test_decomposition_validation():
    default_decomp()
    with pytest.raises(theory.TheoryError):
        default_decomp(sizes=(25, 25, 25))
    with pytest.raises(theory.TheoryError):
        default_decomp(gamma0=0.0)
    with pytest.raises(theory.TheoryError):
        default_decomp(n_layers=1)


# --- alignment bound -----------------------------------------------------------


def test_alignment_true_bound_holds_everywhere():
    rep = theory.check_alignment_bound(samples=100_000, seed=0)
    assert rep.details["true_bound_failures"] == 0
    assert rep.instances == 100_000
    assert rep.status == theory.STATUS_DISCREPANCY


def test_alignment_printed_bound_fails_almost_surely():
    rep = theory.check_alignment_bound(samples=10_000, seed=1)
    # false for every rho != 0; only draws at |rho| ~ 1e-8, where both sides
    # agree to machine precision, can slip under the comparison slack
    assert rep.details["printed_bound_failures"] >= 9_990
    assert rep.counterexample is not None
    c = rep.counterexample
    assert c["printed_bound"] > c["s_align"]


def test_alignment_reference_point():
    # rho^2 = 0.5: score ~0.3466 sits between the true 0.25 and printed 0.5
    rep = theory.check_alignment_bound(samples=10, seed=2)
    ref = rep.details["reference_rho_sq_half"]
    assert ref["s_align"] == pytest.approx(0.5 * math.log(2.0))
    assert ref["true_bound"] < ref["s_align"] < ref["printed_bound"]
    assert alignment_score(0.0) == 0.0


# --- coverage -------------------------------------------------------------------


def test_coverage_dominant_layer_selected():
    rep = theory.check_coverage(default_decomp(), m_sel=1, trials=100, seed=3)
    assert rep.status == theory.STATUS_PASS
    assert rep.details["planted_ranked_first"] >= 95
    assert rep.details["coverage_holds"] == rep.details["rank_consistent_instances"]


def test_coverage_full_selection_is_trivially_tight():
    decomp = default_decomp()
    rep = theory.check_coverage(decomp, m_sel=decomp.n_layers, trials=20, seed=4)
    # delta = 0: selected mass equals total mass exactly
    assert rep.details["delta"] == 0.0
    assert rep.details["coverage_holds"] == rep.details["rank_consistent_instances"]
    assert rep.status == theory.STATUS_PASS


def test_coverage_validation():
    with pytest.raises(theory.TheoryError):
        theory.check_coverage(default_decomp(), m_sel=9)
    with pytest.raises(theory.TheoryError):
        theory.check_coverage(default_decomp(), dominant=0.1, background=0.5)


def test_influence_instance_shapes_and_noise_bound():
    decomp = default_decomp(noise_bound=0.05)
    hist, global_params, target = theory.build_influence_instance(
        decomp, np.array([0.9, 0.1, 0.1, 0.1]), seed=7
    )
    assert target == 0
    assert hist.clients() == [0, 1, 2, 3]
    layers = {c: nn.views(hist.uploads[c], [(d,) for d in hist.dims]) for c in hist.clients()}
    assert len(global_params) == 4
    # reconstruct the noiseless mix and check the residual stays bounded
    others = [1, 2, 3]
    w = np.array([decomp.sizes[c] for c in others], dtype=np.float64)
    w /= w.sum()
    for l, pi in enumerate([0.9, 0.1, 0.1, 0.1]):
        rest = sum(wc * layers[c][l] for wc, c in zip(w, others))
        resid = global_params[l] - pi * layers[0][l] - (1 - pi) * rest
        assert np.linalg.norm(resid) <= 0.05 + 1e-12


def test_kendall_tau_extremes():
    a = np.array([1.0, 2.0, 3.0])
    assert theory._kendall_tau(a, a) == 1.0
    assert theory._kendall_tau(a, -a) == -1.0


# --- freshness error bound -------------------------------------------------------


def test_error_bound_proof_form_passes_stated_form_breaks():
    rep = theory.check_error_bound(default_decomp(), trials=100, seed=5)
    assert rep.details["proof_form_failures"] == 0
    assert rep.details["stated_form_failures"] > 0
    assert rep.details["age_doubling_monotonicity_failures"] == 0
    assert rep.details["zero_budget_both_sides_zero"] is True
    assert rep.status == theory.STATUS_DISCREPANCY
    assert rep.counterexample["lhs_stated_form"] > rep.counterexample["rhs"]


def test_error_bound_single_group_reduction():
    """One layer, one group: the bound collapses to C1 >= 1."""
    decomp = default_decomp(s_max=0.5)   # C1 = 1 exactly
    rep = theory.check_error_bound(decomp, n_sensitive=1, groups=1,
                                   trials=50, seed=6)
    assert rep.details["bound_slack_factor"] == pytest.approx(1.0)
    assert rep.details["proof_form_failures"] == 0


def test_error_bound_stated_form_flag_fails_honestly():
    rep = theory.check_error_bound(default_decomp(), trials=50, seed=7,
                                   form=theory.FORM_ASSUMPTION)
    assert rep.status == theory.STATUS_FAIL
    with pytest.raises(theory.TheoryError):
        theory.check_error_bound(default_decomp(), form="wrong")


# --- acceleration identity --------------------------------------------------------


def test_acceleration_identity_on_random_instances():
    rep = theory.check_acceleration(trials=100, seed=8)
    assert rep.status == theory.STATUS_PASS
    assert rep.details["identity_failures"] == 0
    assert rep.details["max_identity_diff"] <= 1e-10


def test_acceleration_equal_age_counterexample_frozen():
    rep = theory.check_acceleration(trials=5, seed=9)
    eq = rep.details["equal_age_instance"]
    assert eq["ratio_sq"] == pytest.approx(0.5, abs=1e-12)
    assert eq["error_ratio"] == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert eq["claimed_floor"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert eq["final_inequality_holds"] is False


def test_acceleration_hand_instance():
    # L=4, |L_s|=2, equal effectiveness u: ratio^2 = (4/16) * (4u/2u) = 0.5
    u = np.full((4, 2), 0.37)
    sensitive = np.array([True, False, True, False])
    brute, closed = theory.acceleration_ratio_sq(u, sensitive, s=0.8)
    assert brute == pytest.approx(0.5, abs=1e-12)
    assert closed == pytest.approx(0.5, abs=1e-12)


def test_acceleration_age_independent_when_gamma1_zero():
    ages = np.arange(8, dtype=np.float64).reshape(4, 2)
    u_flat = 1.0 / (2.0 + 0.0 * ages)        # gamma1 = 0
    sensitive = np.array([True, True, True, False])
    brute, closed = theory.acceleration_ratio_sq(u_flat, sensitive, s=0.3)
    assert brute == pytest.approx(closed, abs=1e-12)
    assert brute == pytest.approx((9 / 16) * (8 / 6), abs=1e-12)


def test_acceleration_rejects_degenerate_sensitive_set():
    u = np.ones((3, 1))
    with pytest.raises(theory.TheoryError):
        theory.acceleration_ratio_sq(u, np.array([True, True, True]), 0.5)
    with pytest.raises(theory.TheoryError):
        theory.acceleration_ratio_sq(u, np.array([False, False, False]), 0.5)


# --- assembled report --------------------------------------------------------------


def test_run_all_emits_four_claims_and_no_failures(tmp_path):
    reports = theory.run_all(samples=20_000, trials=50, seed=0)
    assert [r.claim_id for r in reports] == [
        theory.CLAIM_ALIGNMENT,
        theory.CLAIM_COVERAGE,
        theory.CLAIM_ERROR_BOUND,
        theory.CLAIM_ACCELERATION,
    ]
    statuses = [r.status for r in reports]
    assert statuses.count(theory.STATUS_DISCREPANCY) == 2
    assert statuses.count(theory.STATUS_PASS) == 2
    assert not theory.has_failures(reports)
    out = tmp_path / "theory_report.json"
    theory.write_theory_report(reports, out)
    loaded = json.loads(out.read_text())
    assert len(loaded) == 4
    for entry in loaded:
        assert {"claim_id", "status", "instances", "details"} <= set(entry)
    # the two discrepancy entries carry concrete counterexamples
    discrepant = [e for e in loaded if e["status"] == theory.STATUS_DISCREPANCY]
    assert all("counterexample" in e for e in discrepant)
