"""Layer sensitivity from historical client contributions.

For a target client n, each layer gets an alignment score (from the Pearson
correlation between the client's recorded upload and the global layer) and an
impact score (KL divergence between the global layer's normalized
distribution and the leave-one-out aggregate without n). The combined score
ranks layers; the top M_sel become the sensitive set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .federation import FederationHistory

RHO_SQ_CLAMP = 1.0 - 1e-6
ALIGNMENT_CEILING = -0.5 * math.log(1.0 - RHO_SQ_CLAMP)  # ~6.907755

DIST_SOFTMAX = "softmax"
DIST_ABS = "abs"
ABS_SMOOTHING = 1e-8


class SensitivityError(ValueError):
    pass


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Sample Pearson correlation; zero-variance inputs give 0 by definition."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise SensitivityError("pearson needs two equal-length vectors")
    if a.size < 2:
        raise SensitivityError("pearson needs at least two points")
    da = a - a.mean()
    db = b - b.mean()
    ssa = float(da @ da)
    ssb = float(db @ db)
    if ssa <= 0.0 or ssb <= 0.0:
        return 0.0
    rho = float(da @ db) / math.sqrt(ssa * ssb)
    return min(1.0, max(-1.0, rho))


def alignment_score(rho: float) -> float:
    """-0.5 * log(1 - rho^2) with rho^2 clamped below 1 for finiteness."""
    if not -1.0 <= rho <= 1.0:
        raise SensitivityError(f"correlation {rho} outside [-1, 1]")
    rho_sq = min(rho * rho, RHO_SQ_CLAMP)
    return -0.5 * math.log1p(-rho_sq)


def loo_aggregate(history: FederationHistory, n: int) -> np.ndarray:
    """Size-weighted mean of the recorded uploads excluding client n's, one
    flat vector laid out like the uploads."""
    others = [c for c in history.clients() if c != n]
    if not others:
        raise SensitivityError(
            f"cannot build leave-one-out aggregate: client {n} is the only one recorded"
        )
    total = float(sum(history.sizes[c] for c in others))
    out = np.zeros(sum(history.dims))
    for c in others:
        out += (history.sizes[c] / total) * history.uploads[c]
    return out


def to_distribution(w: np.ndarray, scheme: str = DIST_SOFTMAX) -> np.ndarray:
    """Normalize a layer vector into a probability vector.

    Default is a max-stabilized softmax; the magnitude scheme |w|/sum|w|
    with additive smoothing is available behind scheme="abs".
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise SensitivityError("distribution needs a non-empty vector")
    if scheme == DIST_SOFTMAX:
        shifted = w - w.max()
        e = np.exp(shifted)
        return e / e.sum()
    if scheme == DIST_ABS:
        mag = np.abs(w) + ABS_SMOOTHING
        return mag / mag.sum()
    raise SensitivityError(f"unknown distribution scheme {scheme!r}")


def kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(P || Q) in nats; both arguments must be strictly positive simplexes."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise SensitivityError("kl needs two equal-length vectors")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise SensitivityError("kl arguments must sum to 1")
    if np.any(p <= 0) or np.any(q <= 0):
        raise SensitivityError("kl arguments must be strictly positive")
    return float(np.sum(p * np.log(p / q)))


def combined_score(s_align: float, s_impact: float, lam: float) -> float:
    if not 0.0 <= lam <= 1.0:
        raise SensitivityError("lambda must be in [0, 1]")
    return lam * s_align + (1.0 - lam) * s_impact


def select_top_m(scores: np.ndarray, m_sel: int) -> list[int]:
    """Indices of the m_sel largest scores, descending; ties to lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    if not 1 <= m_sel:
        raise SensitivityError("m_sel must be >= 1")
    m_sel = min(m_sel, scores.size)
    order = sorted(range(scores.size), key=lambda l: (-scores[l], l))
    return order[:m_sel]


def default_m_sel(n_layers: int) -> int:
    return max(1, math.ceil(n_layers / 3))


@dataclass
class SensitivityReport:
    client: int
    lam: float
    rho: np.ndarray
    s_align: np.ndarray
    s_impact: np.ndarray
    s_combined: np.ndarray
    selected: list[int]   # layer ids, descending combined score
    m_sel: int

    @property
    def n_layers(self) -> int:
        return self.rho.size

    def score_of(self, layer: int) -> float:
        return float(self.s_combined[layer])


def analyze(
    history: FederationHistory,
    global_params: list[np.ndarray],
    n: int,
    lam: float = 0.5,
    m_sel: int | None = None,
    scheme: str = DIST_SOFTMAX,
) -> SensitivityReport:
    """Score every layer for target client n and select the top m_sel.

    Layers with fewer than two parameters (virtual layers) score zero on
    every component and can only be selected once real layers run out.
    """
    if n not in history.uploads:
        raise SensitivityError(f"client {n} has no recorded upload")
    dims = list(history.dims)
    if [p.size for p in global_params] != dims:
        raise SensitivityError("global model shape-incongruent with history")
    L = len(dims)
    if m_sel is None:
        m_sel = default_m_sel(L)
    if not 1 <= m_sel <= L:
        raise SensitivityError(f"m_sel must be in [1, {L}]")
    rho = np.zeros(L)
    s_align = np.zeros(L)
    s_impact = np.zeros(L)
    s_comb = np.zeros(L)
    shapes = [(d,) for d in dims]
    upload, loo = (nn.views(v, shapes) for v in (history.uploads[n], loo_aggregate(history, n)))
    for l in range(L):
        if dims[l] < 2:
            continue
        r = pearson(upload[l], global_params[l])
        p = to_distribution(global_params[l], scheme)
        q = to_distribution(loo[l], scheme)
        rho[l] = r
        s_align[l] = alignment_score(r)
        s_impact[l] = kl(p, q)
        s_comb[l] = combined_score(s_align[l], s_impact[l], lam)
    selected = select_top_m(s_comb, m_sel)
    return SensitivityReport(
        client=n,
        lam=lam,
        rho=rho,
        s_align=s_align,
        s_impact=s_impact,
        s_combined=s_comb,
        selected=selected,
        m_sel=m_sel,
    )
