"""Unlearning quality and efficiency metrics.

Remaining/forgetting accuracy are exact argmax counts (ties resolve to the
lowest class index). The forgetting rate compares true-label confidence
before and after unlearning. Communication overhead is the transmitted
scalar count and the mean global age over the action trajectory. Every AoI
figure of a run is replayed from its action log by `replay_aoi`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .aoi import AoiLedger, GroupIndex, aoi_summary

CONFIDENCE_FLOOR = 1e-8


class MetricsError(ValueError):
    pass


def _logits(model: nn.Model, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    if X.shape[0] == 0:
        raise MetricsError("metric undefined on an empty sample set")
    return nn.forward(model, nn.Batch(X, y))


def accuracy(model: nn.Model, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of argmax-correct predictions; argmax ties go to the lowest
    class index, so the division is the only non-exact operation."""
    logits = _logits(model, X, y)
    hits = int(np.count_nonzero(logits.argmax(axis=1) == y))
    return hits / len(y)


def true_label_confidence(model: nn.Model, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    probs = nn.softmax(_logits(model, X, y))
    return probs[np.arange(len(y)), y]


def forgetting_rate(
    original: nn.Model,
    unlearned: nn.Model,
    X_u: np.ndarray,
    y_u: np.ndarray,
) -> float:
    """1 - mean confidence-retention ratio on the forget set.

    The original confidence in the denominator is floored at 1e-8; a model
    that grows MORE confident after unlearning yields a negative value,
    reported as-is."""
    p_before = true_label_confidence(original, X_u, y_u)
    p_after = true_label_confidence(unlearned, X_u, y_u)
    ratios = p_after / np.maximum(p_before, CONFIDENCE_FLOOR)
    return float(1.0 - ratios.mean())


# --- communication / freshness ------------------------------------------------


def transmitted_count(action_rows: list[dict], idx: GroupIndex) -> int:
    """Scalar parameters in every touched group, summed over steps (each
    touch retransmits the whole group once)."""
    total = 0
    for row in action_rows:
        layer = row["layer"]
        for j in row["groups"]:
            total += idx.group_size(layer, j)
    return total


def replay_aoi(action_rows: list[dict], idx: GroupIndex,
               horizon: int | None = None) -> list[tuple[int, float, float, float]]:
    """(step, sum, mean, max) of the group ages after each replayed step
    (advance, then touch that step's groups): the `aoi_summary` trajectory of
    the deployment that wrote the action log."""
    by_step: dict[int, list[tuple[int, int]]] = {}
    for row in action_rows:
        by_step.setdefault(int(row["step"]), []).extend(
            (row["layer"], j) for j in row["groups"]
        )
    if horizon is None:
        horizon = max(by_step) if by_step else 0
    if by_step and horizon < max(by_step):
        raise MetricsError("horizon shorter than the action log")
    ledger = AoiLedger(idx)
    rows = []
    for t in range(1, horizon + 1):
        ledger.advance()
        if t in by_step:
            ledger.touch(by_step[t])
        rows.append((t, *aoi_summary(ledger)))
    return rows


def comm_overhead(
    action_rows: list[dict],
    idx: GroupIndex,
    secs_per_step: float,
    horizon: int | None = None,
) -> dict:
    """C_t and the mean global AoI (in steps and in seconds) of a trajectory.

    C_t counts transmitted scalars. The freshness term is the mean of the
    replayed mean-age column, scaled by secs_per_step. C_t is additive over
    trajectory segments; the freshness term composes as a step-weighted
    mean."""
    if secs_per_step < 0:
        raise MetricsError("secs_per_step must be non-negative")
    c_t = transmitted_count(action_rows, idx)
    means = [mean for _, _, mean, _ in replay_aoi(action_rows, idx, horizon)]
    mean_steps = float(np.mean(means)) if means else 0.0
    return {
        "comm_ct": c_t,
        "mean_aoi_steps": mean_steps,
        "mean_aoi_secs": mean_steps * secs_per_step,
    }


# --- report -------------------------------------------------------------------


@dataclass
class EvalReport:
    method: str
    scenario: str
    ra: float
    fa: float
    fr: float
    comm_ct: float
    mean_aoi_steps: float
    mean_aoi_secs: float
    wall_secs: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.ra <= 1.0 or not 0.0 <= self.fa <= 1.0:
            raise MetricsError("accuracies must lie in [0, 1]")
        if self.comm_ct < 0:
            raise MetricsError("transmission count cannot be negative")
