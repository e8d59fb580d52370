"""Datasets, Dirichlet client partitioning, and forget/remain splits.

Sources: seeded synthetic Gaussian clusters, or IDX image/label files.
All sample features are float64; labels are int64 class ids.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GRANULARITY_CLIENT = "client"
GRANULARITY_CLASS = "class"
GRANULARITY_SAMPLE = "sample"
GRANULARITIES = (GRANULARITY_CLIENT, GRANULARITY_CLASS, GRANULARITY_SAMPLE)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataError(ValueError):
    """Bad dataset construction arguments or malformed input files."""


class PartitionError(ValueError):
    """Infeasible or inconsistent client partition request."""


class RequestError(ValueError):
    """Degenerate or malformed unlearning request."""


def is_index(value) -> bool:
    """True for a non-negative int (a bool is not one): a valid client,
    class, layer or group id read from JSON."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass
class Dataset:
    inputs: np.ndarray   # (M, dim) float64
    labels: np.ndarray   # (M,) int64
    num_classes: int
    source: str = "synthetic"

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.shape != (self.inputs.shape[0],):
            raise DataError("inputs must be (M, dim) with one label per row")
        if self.num_classes < 2:
            raise DataError("need at least two classes")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataError("label outside [0, num_classes)")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def gen_synthetic(classes: int, dim: int, per_class: int, spread: float, seed: int) -> Dataset:
    """Gaussian clusters: seeded unit-sphere means, isotropic std = spread."""
    if classes < 2:
        raise DataError("classes must be >= 2")
    if dim < 1 or per_class < 1:
        raise DataError("dim and per_class must be positive")
    if spread < 0:
        raise DataError("spread must be non-negative")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((classes, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    noise = rng.standard_normal((classes * per_class, dim))
    inputs = means[labels] + spread * noise
    return Dataset(inputs=inputs, labels=labels, num_classes=classes, source="synthetic")


def _read_idx_header(blob: bytes, path: str, what: str, magic: int, ndim: int) -> tuple:
    head = 4 + 4 * ndim
    if len(blob) < head:
        raise DataError(f"{what} file {path}: truncated header")
    got_magic = struct.unpack(">i", blob[:4])[0]
    if got_magic != magic:
        raise DataError(
            f"{what} file {path}: magic 0x{got_magic:08x}, expected 0x{magic:08x}"
        )
    dims = struct.unpack(f">{ndim}i", blob[4:head])
    if any(d <= 0 for d in dims):
        raise DataError(f"{what} file {path}: non-positive dimension in header")
    return dims


def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Load big-endian IDX image/label files; pixels scaled to [0, 1]."""
    img_blob = Path(images_path).read_bytes()
    lab_blob = Path(labels_path).read_bytes()
    n, rows, cols = _read_idx_header(img_blob, str(images_path), "images", IDX_IMAGES_MAGIC, 3)
    (n_lab,) = _read_idx_header(lab_blob, str(labels_path), "labels", IDX_LABELS_MAGIC, 1)
    if n != n_lab:
        raise DataError(f"images count {n} != labels count {n_lab}")
    body = img_blob[16:]
    if len(body) != n * rows * cols:
        raise DataError(
            f"images file {images_path}: {len(body)} data bytes, expected {n * rows * cols}"
        )
    lab_body = lab_blob[8:]
    if len(lab_body) != n:
        raise DataError(f"labels file {labels_path}: {len(lab_body)} data bytes, expected {n}")
    pixels = np.frombuffer(body, dtype=np.uint8).astype(np.float64) / 255.0
    labels = np.frombuffer(lab_body, dtype=np.uint8).astype(np.int64)
    num_classes = int(labels.max()) + 1 if n else 2
    return Dataset(
        inputs=pixels.reshape(n, rows * cols),
        labels=labels,
        num_classes=max(num_classes, 2),
        source="idx",
    )


@dataclass
class ClientPartition:
    """Disjoint per-client index arrays covering the whole dataset."""

    indices: list[np.ndarray]

    def __post_init__(self):
        self.indices = [np.asarray(ix, dtype=np.int64) for ix in self.indices]

    @property
    def n_clients(self) -> int:
        return len(self.indices)

    def sizes(self) -> list[int]:
        return [int(ix.size) for ix in self.indices]

    def validate_against(self, ds: Dataset) -> None:
        cat = np.concatenate(self.indices) if self.indices else np.zeros(0, dtype=np.int64)
        if cat.size != ds.size or not np.array_equal(np.sort(cat), np.arange(ds.size)):
            raise PartitionError("client indices do not partition the dataset")
        if any(ix.size == 0 for ix in self.indices):
            raise PartitionError("empty client")


def largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer quotas summing to `total`, by floor + largest fractional part.

    Ties on the fractional part go to the lowest index (stable sort)."""
    q = np.asarray(proportions, dtype=np.float64) * total
    base = np.floor(q).astype(np.int64)
    rem = total - int(base.sum())
    if rem > 0:
        frac = q - base
        order = np.argsort(-frac, kind="stable")
        base[order[:rem]] += 1
    return base


def dirichlet_partition(ds: Dataset, n_clients: int, alpha: float, seed: int) -> ClientPartition:
    """Per-class Dirichlet(alpha) proportions, largest-remainder rounding,
    then a repair pass that guarantees every client at least one sample."""
    if n_clients < 1:
        raise PartitionError("need at least one client")
    if alpha <= 0:
        raise PartitionError("alpha must be positive")
    if n_clients > ds.size:
        raise PartitionError(
            f"{n_clients} clients cannot each get a sample from {ds.size} total"
        )
    rng = np.random.default_rng(seed)
    buckets: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for c in range(ds.num_classes):
        idx_c = np.flatnonzero(ds.labels == c)
        if idx_c.size == 0:
            continue
        rng.shuffle(idx_c)
        p = rng.dirichlet(np.full(n_clients, alpha))
        counts = largest_remainder(p, idx_c.size)
        off = 0
        for n, k in enumerate(counts):
            if k:
                buckets[n].append(idx_c[off : off + k])
            off += k
    per_client = [
        np.concatenate(b) if b else np.zeros(0, dtype=np.int64) for b in buckets
    ]
    # repair: move one sample at a time from the currently largest client
    while True:
        empties = [n for n, ix in enumerate(per_client) if ix.size == 0]
        if not empties:
            break
        donor = int(np.argmax([ix.size for ix in per_client]))
        per_client[empties[0]] = per_client[donor][-1:]
        per_client[donor] = per_client[donor][:-1]
    part = ClientPartition(indices=[np.sort(ix) for ix in per_client])
    part.validate_against(ds)
    return part


@dataclass(frozen=True)
class UnlearnRequest:
    """What to forget: a set of clients, at client/class/sample granularity."""

    granularity: str
    clients: tuple[int, ...]
    class_set: tuple[int, ...] = ()
    sample_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise RequestError(f"unknown granularity {self.granularity!r}")
        if not self.clients:
            raise RequestError("request names no clients")
        if not all(map(is_index, self.clients)):
            raise RequestError(f"clients must be non-negative integers: {list(self.clients)}")
        if not all(map(is_index, self.class_set)):
            raise RequestError(f"class_set must be non-negative integers: {list(self.class_set)}")
        if len(set(self.clients)) != len(self.clients):
            raise RequestError("duplicate client in request")
        if self.granularity == GRANULARITY_CLASS and not self.class_set:
            raise RequestError("class request needs a non-empty class set")
        if self.granularity == GRANULARITY_SAMPLE and not 0 < self.sample_fraction <= 1:
            raise RequestError("sample fraction must be in (0, 1]")

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "UnlearnRequest":
        """The request written `client:<n>`, `class:<n>:<c1,c2>` or
        `sample:<n>:<frac>`, sampled with `seed`; `describe` is its inverse.
        Malformed or out-of-range text raises a RequestError naming it."""
        parts = text.split(":") if isinstance(text, str) else [None]
        kind = parts[0]
        try:
            if kind == GRANULARITY_CLIENT and len(parts) == 2:
                return cls(kind, (int(parts[1]),), seed=seed)
            if kind == GRANULARITY_CLASS and len(parts) == 3:
                classes = tuple(int(c) for c in parts[2].split(",") if c)
                return cls(kind, (int(parts[1]),), class_set=classes, seed=seed)
            if kind == GRANULARITY_SAMPLE and len(parts) == 3:
                return cls(kind, (int(parts[1]),), sample_fraction=float(parts[2]), seed=seed)
        except ValueError as err:
            raise RequestError(f"bad request {text!r}: {err}") from err
        raise RequestError(f"bad request {text!r}; expected client:<n>, "
                           "class:<n>:<c1,c2> or sample:<n>:<frac>")

    def describe(self) -> str:
        who = ",".join(str(c) for c in self.clients)
        if self.granularity == GRANULARITY_CLASS:
            return f"class:{who}:{','.join(str(c) for c in self.class_set)}"
        if self.granularity == GRANULARITY_SAMPLE:
            return f"sample:{who}:{self.sample_fraction!r}"
        return f"client:{who}"


@dataclass
class ForgetSplit:
    """Forget/remain index sets plus per-client remainders."""

    forget: np.ndarray
    remain: np.ndarray
    remain_per_client: list[np.ndarray]
    forget_per_client: list[np.ndarray]


def build_split(ds: Dataset, part: ClientPartition, req: UnlearnRequest) -> ForgetSplit:
    """Materialize the forget set D_u and its complement per the request."""
    for n in req.clients:
        if not 0 <= n < part.n_clients:
            raise RequestError(f"client {n} outside partition of {part.n_clients}")
    rng = np.random.default_rng(req.seed)
    forget_per_client = [np.zeros(0, dtype=np.int64) for _ in range(part.n_clients)]
    for n in sorted(req.clients):
        own = part.indices[n]
        if req.granularity == GRANULARITY_CLIENT:
            picked = own.copy()
        elif req.granularity == GRANULARITY_CLASS:
            mask = np.isin(ds.labels[own], np.asarray(req.class_set, dtype=np.int64))
            picked = own[mask]
        else:  # sample
            k = int(np.ceil(req.sample_fraction * own.size))
            picked = np.sort(rng.choice(own, size=k, replace=False))
        forget_per_client[n] = picked
    forget = np.sort(np.concatenate(forget_per_client))
    if forget.size == 0:
        raise RequestError(f"request {req.describe()} selects no samples")
    forget_set = set(forget.tolist())
    remain_per_client = [
        ix[~np.isin(ix, forget)] if n in req.clients else ix.copy()
        for n, ix in enumerate(part.indices)
    ]
    remain = np.sort(np.concatenate(remain_per_client)) if part.n_clients else forget[:0]
    if remain.size + forget.size != ds.size:
        raise RequestError("forget/remain do not partition the dataset")
    assert not (set(remain.tolist()) & forget_set)
    return ForgetSplit(
        forget=forget,
        remain=remain,
        remain_per_client=remain_per_client,
        forget_per_client=forget_per_client,
    )


def client_view(ds: Dataset, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return ds.inputs[indices], ds.labels[indices]
