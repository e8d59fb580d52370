"""Non-adaptive unlearning baselines: budget-matched uniform magnitude
pruning across every layer, and a projected full-batch gradient-ascent proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .aoi import partition_groups
from .rl import zero_smallest


class BaselineError(ValueError):
    pass


def newly_zeroed(before: nn.Model, after: nn.Model) -> int:
    """Coordinates nonzero in `before` and zero in `after`."""
    if before.layer_dims() != after.layer_dims():
        raise BaselineError("models are shape-incongruent")
    return int(np.count_nonzero((before.flat != 0.0) & (after.flat == 0.0)))


def _equal_split_with_spill(budget: int, capacities: list[int]) -> list[int]:
    """Whole-number allocation, as equal as capacities allow.

    Starts from floor(budget/n) each (remainder to the lowest indices) and
    waterfills any excess over a bin's capacity into the still-open bins, so
    the full budget is spent whenever total capacity permits."""
    n = len(capacities)
    alloc = [0] * n
    remaining = min(budget, sum(capacities))
    while remaining > 0:
        open_bins = [i for i in range(n) if alloc[i] < capacities[i]]
        share, extra = divmod(remaining, len(open_bins))
        spent = 0
        for rank, i in enumerate(open_bins):
            want = share + (1 if rank < extra else 0)
            take = min(want, capacities[i] - alloc[i])
            alloc[i] += take
            spent += take
        remaining -= spent
    return alloc


def baseline_uniform(model: nn.Model, total_budget: int, groups_per_layer: int) -> nn.Model:
    """Zero `total_budget` coordinates spread equally over all layers and
    their groups; within a group `rl.zero_smallest`, the adaptive
    sparsifier's own rule, picks them."""
    if total_budget < 0:
        raise BaselineError("budget must be non-negative")
    if total_budget > model.num_params:
        raise BaselineError("budget exceeds the parameter count")
    idx = partition_groups(model, range(model.num_layers), groups_per_layer)
    out = model.copy()
    # one (n_groups, size) view per run of equal-size groups, canonical order
    rows = [out.params[layer][span].reshape(-1, size) for layer, span, size, _ in idx.runs]
    group_caps = [c for r in rows for c in np.add.reduce(r != 0.0, axis=1).tolist()]
    layers = [idx.cols(r) for r in range(idx.n_layers)]
    per_layer = _equal_split_with_spill(total_budget, [sum(group_caps[sl]) for sl in layers])
    per_group = [k for sl, budget in zip(layers, per_layer)
                 for k in _equal_split_with_spill(budget, group_caps[sl])]
    for r, (_, _, _, pos) in zip(rows, idx.runs):
        zero_smallest(r, per_group[pos])
    return out


@dataclass
class AscentStep:
    step: int
    loss: float
    norm: float
    projected: bool


@dataclass
class AscentResult:
    model: nn.Model
    steps: list[AscentStep]
    halted: bool = False
    halt_reason: str = ""


def baseline_grad_ascent(
    model: nn.Model,
    X_u: np.ndarray,
    y_u: np.ndarray,
    steps: int,
    eta_u: float,
) -> AscentResult:
    """Full-batch gradient ascent on the forget set with a parameter-norm
    projection to twice the starting norm; a non-finite forward pass halts
    the loop with a diagnostic instead of propagating garbage."""
    if X_u.shape[0] == 0:
        raise BaselineError("forget set is empty")
    if steps < 0 or eta_u <= 0:
        raise BaselineError("steps must be >= 0 and eta_u > 0")
    current = model.copy()
    norm_cap = 2.0 * float(np.linalg.norm(model.flat))
    batch = nn.Batch(X_u, y_u)
    log: list[AscentStep] = []
    for t in range(1, steps + 1):
        try:
            loss, grad = nn.loss_and_grads(current, batch)
        except nn.NumericError as err:
            return AscentResult(current, log, halted=True,
                                halt_reason=f"step {t}: {err}")
        nn.sgd_descend(current.flat, -grad, eta_u)   # ascend
        norm = float(np.linalg.norm(current.flat))
        projected = norm > norm_cap > 0.0
        if projected:
            current.flat *= norm_cap / norm
            norm = norm_cap
        log.append(AscentStep(t, float(loss), norm, projected))
    return AscentResult(current, log)
