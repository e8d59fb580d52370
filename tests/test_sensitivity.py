"""Sensitivity scoring tests with frozen closed-form values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scale_fu import sensitivity as sen
from scale_fu.federation import FederationHistory


def test_pearson_basic_values():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert sen.pearson(v, v) == pytest.approx(1.0)
    assert sen.pearson(v, -v) == pytest.approx(-1.0)
    assert sen.pearson(v, 2.0 * v + 7.0) == pytest.approx(1.0)
    assert sen.pearson(v, np.full(4, 3.0)) == 0.0  # zero variance -> 0
    assert sen.pearson(np.zeros(4), v) == 0.0
    with pytest.raises(sen.SensitivityError):
        sen.pearson(v, v[:3])
    with pytest.raises(sen.SensitivityError):
        sen.pearson(np.array([1.0]), np.array([2.0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_pearson_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=8), rng.normal(size=8)
    r = sen.pearson(a, b)
    assert -1.0 <= r <= 1.0
    assert r == pytest.approx(sen.pearson(b, a), abs=1e-12)


def test_alignment_score_frozen_values():
    assert sen.alignment_score(0.0) == 0.0
    # rho = 1 hits the clamp: -0.5 * ln(1e-6)
    assert sen.alignment_score(1.0) == pytest.approx(6.907755278982137, abs=1e-9)
    assert sen.alignment_score(-1.0) == pytest.approx(6.907755278982137, abs=1e-9)
    # closed form at rho^2 = 0.5
    assert sen.alignment_score(math.sqrt(0.5)) == pytest.approx(
        -0.5 * math.log(0.5), abs=1e-12
    )
    with pytest.raises(sen.SensitivityError):
        sen.alignment_score(1.5)


def test_alignment_score_monotone_in_abs_rho():
    rhos = np.linspace(0, 0.9999, 200)
    vals = [sen.alignment_score(r) for r in rhos]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert sen.alignment_score(-0.7) == sen.alignment_score(0.7)


def test_kl_frozen_value_and_identities():
    p = np.array([0.5, 0.5])
    q = np.array([0.9, 0.1])
    assert sen.kl(p, q) == pytest.approx(0.5 * math.log(25.0 / 9.0), abs=1e-12)
    assert sen.kl(p, q) == pytest.approx(0.5108256, abs=1e-6)
    assert sen.kl(p, p) == 0.0
    with pytest.raises(sen.SensitivityError):
        sen.kl(p, np.array([0.5, 0.4]))
    with pytest.raises(sen.SensitivityError):
        sen.kl(np.array([1.0, 0.0]), p)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_kl_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(6)) + 1e-9
    q = rng.dirichlet(np.ones(6)) + 1e-9
    p, q = p / p.sum(), q / q.sum()
    assert sen.kl(p, q) >= -1e-12


def test_to_distribution_softmax_properties():
    w = np.array([0.4, -1.2, 3.0, 0.0])
    p = sen.to_distribution(w)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p > 0)
    # softmax is shift invariant
    assert np.allclose(p, sen.to_distribution(w + 123.4), atol=1e-12)
    # large values do not overflow
    assert np.isfinite(sen.to_distribution(np.array([1e4, 0.0]))).all()


def test_to_distribution_abs_scheme():
    w = np.array([3.0, -1.0, 0.0])
    p = sen.to_distribution(w, scheme="abs")
    mag = np.abs(w) + 1e-8
    assert np.allclose(p, mag / mag.sum(), atol=1e-15)
    with pytest.raises(sen.SensitivityError):
        sen.to_distribution(w, scheme="nope")


def test_combined_score_endpoints():
    assert sen.combined_score(2.0, 5.0, 1.0) == 2.0
    assert sen.combined_score(2.0, 5.0, 0.0) == 5.0
    assert sen.combined_score(2.0, 5.0, 0.5) == 3.5
    with pytest.raises(sen.SensitivityError):
        sen.combined_score(1.0, 1.0, 1.5)


def test_select_top_m_ordering_and_ties():
    scores = np.array([1.0, 3.0, 3.0, 0.5])
    assert sen.select_top_m(scores, 1) == [1]          # tie -> lower index
    assert sen.select_top_m(scores, 2) == [1, 2]
    assert sen.select_top_m(scores, 10) == [1, 2, 0, 3]  # m >= L -> all, ordered
    with pytest.raises(sen.SensitivityError):
        sen.select_top_m(scores, 0)


def test_default_m_sel():
    assert sen.default_m_sel(3) == 1
    assert sen.default_m_sel(4) == 2
    assert sen.default_m_sel(9) == 3


def make_history(vectors, sizes):
    h = FederationHistory([v.size for v in next(iter(vectors.values()))])
    for c, params in vectors.items():
        h.record(c, np.concatenate(params), sizes[c], rnd=1)
    return h


def test_loo_aggregate_weighted_mean():
    h = make_history(
        {0: [np.array([1.0, 1.0])], 1: [np.array([2.0, 4.0])], 2: [np.array([5.0, 0.0])]},
        {0: 10, 1: 30, 2: 10},
    )
    out = sen.loo_aggregate(h, 0)
    want = (30 * np.array([2.0, 4.0]) + 10 * np.array([5.0, 0.0])) / 40
    assert np.allclose(out, want, atol=1e-15)


def test_loo_aggregate_single_client_errors():
    h = make_history({3: [np.array([1.0, 2.0])]}, {3: 5})
    with pytest.raises(sen.SensitivityError, match="only one"):
        sen.loo_aggregate(h, 3)


def test_analyze_scaled_layer_dominates_impact():
    """Target's layer 2 upload scaled 10x must top S^d in >=95/100 seeds."""
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        layers0 = [rng.normal(0, 0.1, size=40) for _ in range(3)]
        layers0[2] = layers0[2] * 10.0
        layers1 = [rng.normal(0, 0.1, size=40) for _ in range(3)]
        h = make_history({0: layers0, 1: layers1}, {0: 10, 1: 10})
        global_params = [(a + b) / 2 for a, b in zip(layers0, layers1)]
        rep = sen.analyze(h, global_params, n=0, lam=0.5)
        if int(np.argmax(rep.s_impact)) == 2:
            wins += 1
    assert wins >= 95


def test_analyze_shapes_selection_and_virtual_layers():
    rng = np.random.default_rng(0)
    layers0 = [rng.normal(size=30), np.zeros(0), rng.normal(size=20)]
    layers1 = [rng.normal(size=30), np.zeros(0), rng.normal(size=20)]
    h = make_history({0: layers0, 1: layers1}, {0: 5, 1: 7})
    gp = [(5 * a + 7 * b) / 12 for a, b in zip(layers0, layers1)]
    rep = sen.analyze(h, gp, n=0, lam=0.5, m_sel=2)
    assert rep.n_layers == 3 and rep.m_sel == 2
    # virtual layer scores zero everywhere and cannot outrank real layers
    assert rep.rho[1] == rep.s_align[1] == rep.s_impact[1] == rep.s_combined[1] == 0.0
    assert 1 not in rep.selected
    assert len(rep.selected) == 2
    assert rep.s_combined[rep.selected[0]] >= rep.s_combined[rep.selected[1]]
    # scores are finite and non-negative
    assert np.all(rep.s_combined >= 0) and np.all(np.isfinite(rep.s_combined))


def test_analyze_default_m_sel_and_errors():
    rng = np.random.default_rng(1)
    l0 = [rng.normal(size=10) for _ in range(3)]
    l1 = [rng.normal(size=10) for _ in range(3)]
    h = make_history({0: l0, 1: l1}, {0: 2, 1: 2})
    gp = [(a + b) / 2 for a, b in zip(l0, l1)]
    rep = sen.analyze(h, gp, n=1)
    assert rep.m_sel == 1 and len(rep.selected) == 1
    with pytest.raises(sen.SensitivityError):
        sen.analyze(h, gp, n=9)
    with pytest.raises(sen.SensitivityError):
        sen.analyze(h, gp[:2], n=0)
    with pytest.raises(sen.SensitivityError):
        sen.analyze(h, gp, n=0, m_sel=99)

