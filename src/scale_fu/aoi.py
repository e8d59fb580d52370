"""Age-of-Information ledger over grouped parameter slices.

Sensitive layers are split into balanced contiguous groups; each group keeps
the step at which it was last touched. Age = current step - stamp. The
ledger starts at step 0 with every stamp 0, so ages begin at zero and the
clock belongs to the unlearning phase only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from . import nn


class AoiError(ValueError):
    pass


@dataclass(frozen=True)
class GroupIndex:
    """Contiguous (start, stop) slices per sensitive layer, in rank order."""

    layers: tuple[int, ...]                       # layer ids, sensitivity order
    ranges: tuple[tuple[tuple[int, int], ...], ...]  # per layer: ((s, e), ...)

    def __post_init__(self):
        if len(self.layers) != len(self.ranges):
            raise AoiError("layers/ranges length mismatch")
        for layer_ranges in self.ranges:
            prev = 0
            for s, e in layer_ranges:
                if s != prev or e <= s:
                    raise AoiError("group ranges must be contiguous and non-empty")
                prev = e

    def rank_of(self, layer: int) -> int:
        return self.layers.index(layer)

    def groups_of(self, layer: int) -> tuple[tuple[int, int], ...]:
        return self.ranges[self.rank_of(layer)]

    def n_groups(self, layer: int) -> int:
        return len(self.groups_of(layer))

    def group_size(self, layer: int, j: int) -> int:
        s, e = self.groups_of(layer)[j]
        return e - s

    def keys(self) -> list[tuple[int, int]]:
        """All (layer, group) pairs in canonical (rank, group) order."""
        return [(l, j) for l, rs in zip(self.layers, self.ranges) for j in range(len(rs))]

    @property
    def total_groups(self) -> int:
        return sum(len(rs) for rs in self.ranges)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def slice_of(self, layer: int, j: int) -> slice:
        s, e = self.groups_of(layer)[j]
        return slice(s, e)

    @cached_property
    def positions(self) -> dict[tuple[int, int], int]:
        """(layer, group) -> position in canonical order."""
        return {key: pos for pos, key in enumerate(self.keys())}

    @cached_property
    def runs(self) -> tuple[tuple[int, slice, int, slice], ...]:
        """(layer, parameter slice, group size, canonical positions) per run of
        consecutive equal-size groups. A run's parameters reshape to
        (n_groups, size) rows; balanced_ranges gives at most two runs a layer."""
        out, pos = [], 0
        for layer, rs in zip(self.layers, self.ranges):
            for size, run in groupby(rs, key=lambda r: r[1] - r[0]):
                run = list(run)
                out.append((layer, slice(run[0][0], run[-1][1]), size,
                            slice(pos, pos + len(run))))
                pos += len(run)
        return tuple(out)


def balanced_ranges(d: int, g: int) -> tuple[tuple[int, int], ...]:
    """Split [0, d) into min(g, d) contiguous runs, sizes differing by <= 1,
    larger runs first. d=10, g=4 -> sizes (3, 3, 2, 2)."""
    if d < 1 or g < 1:
        raise AoiError("need positive length and group count")
    g = min(g, d)
    base, rem = divmod(d, g)
    out, start = [], 0
    for j in range(g):
        size = base + (1 if j < rem else 0)
        out.append((start, start + size))
        start += size
    return tuple(out)


def partition_groups(model: nn.Model, sensitive_layers: list[int], groups_per_layer: int) -> GroupIndex:
    """Group each sensitive layer's flat vector; layers with d_l < G fall
    back to singleton groups. Virtual zero-parameter layers are skipped."""
    if groups_per_layer < 1:
        raise AoiError("groups_per_layer must be >= 1")
    if not sensitive_layers:
        raise AoiError("no sensitive layers given")
    layers, ranges = [], []
    for l in sensitive_layers:
        if not 0 <= l < model.num_layers:
            raise AoiError(f"layer {l} out of range")
        d = model.layers[l].d
        if d == 0:
            continue
        layers.append(l)
        ranges.append(balanced_ranges(d, groups_per_layer))
    if not layers:
        raise AoiError("every sensitive layer is parameter-free")
    return GroupIndex(layers=tuple(layers), ranges=tuple(ranges))


@dataclass
class AoiLedger:
    """Last-touch stamps per (layer, group), in canonical order, plus the
    current step counter."""

    idx: GroupIndex
    t: int = 0
    stamps: np.ndarray | None = None

    def __post_init__(self):
        if self.stamps is None:
            self.stamps = np.zeros(self.idx.total_groups, dtype=np.int64)

    def _pos(self, key) -> int:
        try:
            return self.idx.positions[key]
        except KeyError:
            raise AoiError(f"unknown group {key}") from None

    def advance(self) -> None:
        self.t += 1

    def touch(self, keys) -> None:
        self.stamps[[self._pos(key) for key in keys]] = self.t

    def age(self, layer: int, j: int) -> int:
        return self.t - int(self.stamps[self._pos((layer, j))])

    def ages(self) -> np.ndarray:
        return (self.t - self.stamps).astype(np.float64)

    def max_age(self) -> float:
        return float(self.ages().max())

    def copy(self) -> "AoiLedger":
        return AoiLedger(idx=self.idx, t=self.t, stamps=self.stamps.copy())


def group_stats(model: nn.Model, idx: GroupIndex, layer: int, j: int) -> tuple[float, float]:
    """(mean, population std) of the group's current parameter values."""
    vec = model.params[layer][idx.slice_of(layer, j)]
    return float(vec.mean()), float(vec.std())


def state_vector(model: nn.Model, ledger: AoiLedger, idx: GroupIndex) -> np.ndarray:
    """Flattened (A_norm, mean, std) per group in canonical order.

    A_norm divides by max(1, max age) so an all-zero ledger maps to zeros.
    Each run of equal-size groups is one (n_groups, size) reshape whose row
    mean and std equal group_stats bit for bit."""
    ages = ledger.ages()
    denom = max(1.0, float(ages.max()))
    out = np.empty((idx.total_groups, 3), dtype=np.float64)
    out[:, 0] = ages / denom
    for layer, params, size, pos in idx.runs:
        rows = model.params[layer][params].reshape(-1, size)
        out[pos, 1] = rows.mean(axis=1)
        out[pos, 2] = rows.std(axis=1)
    return out.ravel()


def global_aoi(ledger: AoiLedger, paper_literal: bool = False) -> float:
    """Mean age over tracked groups; the literal variant divides again by the
    number of sensitive layers (reproducing the source formula's double count)."""
    ages = ledger.ages()
    mean = float(ages.mean())
    if paper_literal:
        return mean / ledger.idx.n_layers
    return mean


def aoi_summary(ledger: AoiLedger) -> tuple[float, float, float]:
    ages = ledger.ages()
    return float(ages.sum()), float(ages.mean()), float(ages.max())
