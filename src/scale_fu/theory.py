"""Executable checks of the analytical claims behind the pipeline.

Four oracles over synthetic decompositions: the alignment-score lower bound,
selection coverage on constructed-influence federations, the freshness error
bound (under both readings of the effectiveness model), and the acceleration
algebra comparing targeted against uniform sparsification. Each oracle emits
PASS, FAIL, or SOURCE-DISCREPANCY-style status without reconciling anything
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import write_json
from .federation import FederationHistory
from .sensitivity import ALIGNMENT_CEILING, RHO_SQ_CLAMP, alignment_score, analyze

STATUS_PASS = "PASS"
STATUS_FAIL = "FAIL"
STATUS_DISCREPANCY = "PAPER-DISCREPANCY"

FORM_PROOF = "proof"            # effectiveness U = 1/(g0 + g1*A)
FORM_ASSUMPTION = "assumption"  # stated form U = g0 + g1*A

CLAIM_ALIGNMENT = "theorem-1-sensitivity-lower-bound"
CLAIM_COVERAGE = "corollary-1-selection-coverage"
CLAIM_ERROR_BOUND = "theorem-2-freshness-error-bound"
CLAIM_ACCELERATION = "theorem-3-acceleration-identity"


class TheoryError(ValueError):
    pass


@dataclass(frozen=True)
class SyntheticDecomposition:
    """Closed-form federation stand-in used by the oracles.

    Client weights are size-proportional and sum to one; aggregation noise is
    bounded by beta; the effectiveness model is (gamma0, gamma1); s_max caps
    the per-layer sensitivity score."""

    n_layers: int
    n_clients: int
    dim: int
    sizes: tuple[int, ...]
    gamma0: float = 1.0
    gamma1: float = 1.0
    noise_bound: float = 0.01
    s_max: float = ALIGNMENT_CEILING

    def __post_init__(self):
        if self.n_layers < 2 or self.n_clients < 2 or self.dim < 2:
            raise TheoryError("need at least 2 layers, 2 clients, 2 dims")
        if len(self.sizes) != self.n_clients or any(s <= 0 for s in self.sizes):
            raise TheoryError("sizes must be positive, one per client")
        if self.gamma0 <= 0 or self.gamma1 <= 0:
            raise TheoryError("effectiveness coefficients must be positive")
        if self.noise_bound < 0 or self.s_max <= 0:
            raise TheoryError("noise bound must be >= 0 and s_max > 0")


@dataclass
class ClaimReport:
    claim_id: str
    status: str
    instances: int
    details: dict = field(default_factory=dict)
    counterexample: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "claim_id": self.claim_id,
            "status": self.status,
            "instances": self.instances,
            "details": self.details,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


# --- claim 1: alignment-score lower bound -------------------------------------


def check_alignment_bound(samples: int = 100_000, seed: int = 0) -> ClaimReport:
    """S^a(rho) >= rho^2/2 must hold everywhere (it follows from
    -log(1-x) >= x). The stronger printed bound rho^2/(2(1-rho^2)) is
    evaluated alongside and fails for every rho != 0; the first failure is
    recorded as the counterexample."""
    if samples < 1:
        raise TheoryError("need at least one sample")
    rng = np.random.default_rng(seed)
    rho = rng.uniform(-1.0, 1.0, size=samples)
    rho = np.clip(rho, -1.0 + 1e-12, 1.0 - 1e-12)
    rho_sq = rho * rho
    s_a = -0.5 * np.log1p(-np.minimum(rho_sq, RHO_SQ_CLAMP))
    true_ok = s_a + 1e-15 >= rho_sq / 2.0
    printed = rho_sq / (2.0 * (1.0 - rho_sq))
    printed_ok = s_a + 1e-15 >= printed
    n_true_fail = int(np.count_nonzero(~true_ok))
    n_printed_fail = int(np.count_nonzero(~printed_ok))
    counter = None
    if n_printed_fail:
        i = int(np.argmax(~printed_ok))
        counter = {
            "rho": float(rho[i]),
            "s_align": float(s_a[i]),
            "printed_bound": float(printed[i]),
            "note": "printed intermediate inequality exceeds the score",
        }
    fixed = 0.5**0.5  # rho^2 = 0.5 reference point
    details = {
        "true_bound": "s_align >= rho^2 / 2",
        "true_bound_failures": n_true_fail,
        "printed_bound_failures": n_printed_fail,
        "printed_fail_fraction": n_printed_fail / samples,
        "reference_rho_sq_half": {
            "s_align": float(alignment_score(fixed)),
            "true_bound": 0.25,
            "printed_bound": 0.5,
        },
    }
    if n_true_fail:
        status = STATUS_FAIL
        i = int(np.argmax(~true_ok))
        counter = {"rho": float(rho[i]), "s_align": float(s_a[i]),
                   "true_bound": float(rho_sq[i] / 2)}
    else:
        status = STATUS_DISCREPANCY if n_printed_fail else STATUS_PASS
    return ClaimReport(CLAIM_ALIGNMENT, status, samples, details, counter)


# --- claim 2: selection coverage ----------------------------------------------


def build_influence_instance(
    decomp: SyntheticDecomposition,
    influence: np.ndarray,
    seed: int,
) -> tuple[FederationHistory, list[np.ndarray], int]:
    """Federation where the target client's share of each global layer is the
    given per-layer influence; everything else is filled by the other
    clients' size-weighted mean plus bounded noise."""
    influence = np.asarray(influence, dtype=np.float64)
    if influence.shape != (decomp.n_layers,):
        raise TheoryError("one influence weight per layer required")
    if np.any(influence < 0) or np.any(influence > 1):
        raise TheoryError("influence weights must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    target = 0
    uploads = [
        [rng.normal(size=decomp.dim) for _ in range(decomp.n_layers)]
        for _ in range(decomp.n_clients)
    ]
    history = FederationHistory([decomp.dim] * decomp.n_layers)
    for c in range(decomp.n_clients):
        history.record(c, np.concatenate(uploads[c]), decomp.sizes[c], rnd=1)
    others = [c for c in range(decomp.n_clients) if c != target]
    w = np.array([decomp.sizes[c] for c in others], dtype=np.float64)
    w /= w.sum()
    global_params = []
    for l in range(decomp.n_layers):
        rest = sum(wc * uploads[c][l] for wc, c in zip(w, others))
        noise = rng.uniform(-1.0, 1.0, size=decomp.dim)
        norm = float(np.linalg.norm(noise))
        if norm > 0:
            noise *= decomp.noise_bound / norm
        global_params.append(
            influence[l] * uploads[target][l] + (1.0 - influence[l]) * rest + noise
        )
    return history, global_params, target


def check_coverage(
    decomp: SyntheticDecomposition,
    m_sel: int = 1,
    trials: int = 100,
    seed: int = 0,
    dominant: float = 0.9,
    background: float = 0.1,
) -> ClaimReport:
    """Plant one dominant-influence layer per trial; the selector should rank
    it first, and on rank-consistent instances the selected influence mass
    must reach (1 - delta) of the total with delta = (L - m_sel)/L."""
    if not 1 <= m_sel <= decomp.n_layers:
        raise TheoryError("m_sel out of range")
    if not 0 <= background < dominant <= 1:
        raise TheoryError("need background < dominant in [0, 1]")
    rng = np.random.default_rng(seed)
    L = decomp.n_layers
    delta = (L - m_sel) / L
    ranked_first = 0
    covered = 0
    ordered = 0
    taus = []
    counter = None
    for t in range(trials):
        planted = int(rng.integers(L))
        influence = np.full(L, background)
        influence[planted] = dominant
        history, global_params, target = build_influence_instance(
            decomp, influence, seed=int(rng.integers(2**31))
        )
        report = analyze(history, global_params, target, m_sel=m_sel)
        if report.selected[0] == planted:
            ranked_first += 1
        # rank-consistent = every selected layer's influence is >= every
        # unselected one's (ties allowed)
        sel = set(report.selected)
        lo_sel = min(influence[l] for l in sel)
        hi_rest = max((influence[l] for l in range(L) if l not in sel), default=-1.0)
        if lo_sel >= hi_rest:
            ordered += 1
            if sum(influence[l] for l in sel) >= (1.0 - delta) * influence.sum() - 1e-12:
                covered += 1
            elif counter is None:
                counter = {"trial": t, "influence": influence.tolist(),
                           "selected": report.selected}
        else:
            taus.append(_kendall_tau(influence, report.s_combined))
    details = {
        "m_sel": m_sel,
        "delta": delta,
        "planted_ranked_first": ranked_first,
        "rank_consistent_instances": ordered,
        "coverage_holds": covered,
        "mean_kendall_tau_on_mismatch": float(np.mean(taus)) if taus else None,
    }
    status = STATUS_PASS if covered == ordered and ranked_first >= int(0.95 * trials) else STATUS_FAIL
    return ClaimReport(CLAIM_COVERAGE, status, trials, details, counter)


def _kendall_tau(a: np.ndarray, b: np.ndarray) -> float:
    n = len(a)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            x = (a[i] - a[j]) * (b[i] - b[j])
            if x > 0:
                concordant += 1
            elif x < 0:
                discordant += 1
    pairs = n * (n - 1) / 2
    return (concordant - discordant) / pairs if pairs else 0.0


# --- claim 3: freshness error bound -------------------------------------------


def _effectiveness(decomp: SyntheticDecomposition, ages: np.ndarray, form: str) -> np.ndarray:
    if form == FORM_PROOF:
        return 1.0 / (decomp.gamma0 + decomp.gamma1 * ages)
    if form == FORM_ASSUMPTION:
        return decomp.gamma0 + decomp.gamma1 * ages
    raise TheoryError(f"unknown effectiveness form {form!r}")


def check_error_bound(
    decomp: SyntheticDecomposition,
    n_sensitive: int = 2,
    groups: int = 3,
    trials: int = 100,
    seed: int = 0,
    form: str = FORM_PROOF,
) -> ClaimReport:
    """Group error s^2 * U summed over the sensitive set must stay within
    (C1/|L_s|) * sum of s^2/(g0+g1*A), C1 = 2*s_max, under the proof's
    decreasing effectiveness. The stated increasing form breaks the same
    bound once ages grow; the first break is recorded."""
    if not 1 <= n_sensitive <= decomp.n_layers:
        raise TheoryError("sensitive count out of range")
    if form not in (FORM_PROOF, FORM_ASSUMPTION):
        raise TheoryError(f"unknown effectiveness form {form!r}")
    rng = np.random.default_rng(seed)
    c1 = 2.0 * decomp.s_max
    proof_fail = 0
    assumption_fail = 0
    monotone_fail = 0
    counter = None
    for t in range(trials):
        s = rng.uniform(0.0, 1.0, size=(n_sensitive, groups))
        ages = rng.integers(0, 20, size=(n_sensitive, groups)).astype(np.float64)
        lhs_proof = float(np.sum(s * s * _effectiveness(decomp, ages, FORM_PROOF)))
        rhs = (c1 / n_sensitive) * lhs_proof
        lhs_assumption = float(np.sum(s * s * _effectiveness(decomp, ages, FORM_ASSUMPTION)))
        if lhs_proof > rhs + 1e-12:
            proof_fail += 1
        if lhs_assumption > rhs + 1e-12:
            assumption_fail += 1
            if counter is None:
                counter = {
                    "trial": t,
                    "lhs_stated_form": lhs_assumption,
                    "rhs": rhs,
                    "note": "stated increasing effectiveness violates the "
                            "bound the proof derives with the decreasing form",
                }
        # doubling every age weakly decreases both sides under the proof form
        lhs2 = float(np.sum(s * s * _effectiveness(decomp, 2 * ages, FORM_PROOF)))
        rhs2 = (c1 / n_sensitive) * lhs2
        if lhs2 > lhs_proof + 1e-12 or rhs2 > rhs + 1e-12:
            monotone_fail += 1
    zero = np.zeros((n_sensitive, groups))
    zero_lhs = float(np.sum(zero * _effectiveness(decomp, zero, FORM_PROOF)))
    details = {
        "form": form,
        "c1": c1,
        "proof_form_failures": proof_fail,
        "stated_form_failures": assumption_fail,
        "age_doubling_monotonicity_failures": monotone_fail,
        "zero_budget_both_sides_zero": zero_lhs == 0.0,
        "bound_slack_factor": c1 / n_sensitive,
    }
    primary_fail = proof_fail if form == FORM_PROOF else assumption_fail
    if primary_fail or monotone_fail:
        status = STATUS_FAIL
    elif assumption_fail:
        status = STATUS_DISCREPANCY
    else:
        status = STATUS_PASS
    return ClaimReport(CLAIM_ERROR_BOUND, status, trials, details, counter)


# --- claim 4: acceleration algebra --------------------------------------------


def acceleration_ratio_sq(
    u_all: np.ndarray,
    sensitive: np.ndarray,
    s: float,
) -> tuple[float, float]:
    """(brute-force, closed-form) squared-error ratio uniform/targeted.

    Targeted zeroes fraction s in every sensitive group; uniform spends the
    same budget as s*|L_s|/L over all L layers' groups. Per-group squared
    error is s_group^2 * U_group."""
    L, G = u_all.shape
    n_sen = int(np.count_nonzero(sensitive))
    if not 1 <= n_sen < L:
        raise TheoryError("need at least one sensitive and one other layer")
    if not 0 < s <= 1:
        raise TheoryError("budget fraction must be in (0, 1]")
    s_uni = s * n_sen / L
    err_uni = float(np.sum((s_uni**2) * u_all))
    err_tar = float(np.sum((s**2) * u_all[sensitive]))
    brute = err_uni / err_tar
    closed = (n_sen**2 / L**2) * float(u_all.sum() / u_all[sensitive].sum())
    return brute, closed


def check_acceleration(
    trials: int = 100,
    seed: int = 0,
    gamma0: float = 1.0,
    gamma1: float = 1.0,
) -> ClaimReport:
    """The proof's closed-form identity for the squared-error ratio must match
    brute-force sums to 1e-10; the final speedup inequality (ratio of errors
    >= sqrt(L/|L_s|)) is evaluated and reported, with the equal-age
    counterexample spelled out."""
    rng = np.random.default_rng(seed)
    max_diff = 0.0
    identity_fail = 0
    final_holds = 0
    counter = None
    for t in range(trials):
        L = int(rng.integers(2, 7))
        n_sen = int(rng.integers(1, L))
        G = int(rng.integers(1, 4))
        ages = rng.integers(0, 12, size=(L, G)).astype(np.float64)
        u_all = 1.0 / (gamma0 + gamma1 * ages)
        sensitive = np.zeros(L, dtype=bool)
        sensitive[rng.permutation(L)[:n_sen]] = True
        s = float(rng.uniform(0.05, 1.0))
        brute, closed = acceleration_ratio_sq(u_all, sensitive, s)
        diff = abs(brute - closed)
        max_diff = max(max_diff, diff)
        if diff > 1e-10:
            identity_fail += 1
        if math.sqrt(brute) >= math.sqrt(L / n_sen) - 1e-12:
            final_holds += 1
    # canonical equal-age instance: L=4, |L_s|=2 -> error ratio sqrt(0.5)
    eq_u = np.full((4, 1), 1.0 / (gamma0 + gamma1))
    eq_sen = np.array([True, True, False, False])
    eq_brute, eq_closed = acceleration_ratio_sq(eq_u, eq_sen, 0.5)
    details = {
        "identity_failures": identity_fail,
        "max_identity_diff": max_diff,
        "final_inequality_holds": final_holds,
        "final_inequality_rate": final_holds / trials,
        "equal_age_instance": {
            "ratio_sq": eq_brute,
            "error_ratio": math.sqrt(eq_brute),
            "claimed_floor": math.sqrt(4 / 2),
            "final_inequality_holds": math.sqrt(eq_brute) >= math.sqrt(2.0),
        },
        "note": "identity verified; the final inequality does not follow "
                "from it and fails on equal ages",
    }
    status = STATUS_PASS if identity_fail == 0 else STATUS_FAIL
    return ClaimReport(CLAIM_ACCELERATION, status, trials, details, counter)


# --- report assembly -----------------------------------------------------------


def run_all(
    samples: int = 100_000,
    trials: int = 100,
    seed: int = 0,
    decomp: SyntheticDecomposition | None = None,
    form: str = FORM_PROOF,
) -> list[ClaimReport]:
    if decomp is None:
        decomp = SyntheticDecomposition(
            n_layers=4, n_clients=4, dim=32, sizes=(25, 25, 25, 25)
        )
    return [
        check_alignment_bound(samples, seed),
        check_coverage(decomp, m_sel=1, trials=trials, seed=seed + 1),
        check_error_bound(decomp, trials=trials, seed=seed + 2, form=form),
        check_acceleration(trials=trials, seed=seed + 3,
                           gamma0=decomp.gamma0, gamma1=decomp.gamma1),
    ]


def has_failures(reports: list[ClaimReport]) -> bool:
    return any(r.status == STATUS_FAIL for r in reports)


def write_theory_report(reports: list[ClaimReport], path: str | Path) -> None:
    write_json(path, [r.to_dict() for r in reports])
