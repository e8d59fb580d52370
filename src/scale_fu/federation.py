"""FedAvg training loop with recorded client uploads.

Clients run E local epochs of minibatch SGD from the current global model;
the server aggregates size-weighted in ascending client-id order so runs are
bit-identical for a fixed seed. A round's clients step in lockstep
(`local_updates`): each draws its minibatch schedule up front from its own
seed, and at each tick all active clients, largest next minibatch first,
take one stacked forward/backward (`nn.stacked_loss_and_grads`, cut only
where a tick passes the `nn.STACK_FLOATS` cap) and one SGD update of their
rows of an (N, d) parameter block. Every row gets the bits of its
client stepped alone. The history keeps each participant's latest upload,
one flat parameter vector, for the sensitivity analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .data import ClientPartition, Dataset, ForgetSplit


class FederationError(ValueError):
    pass


@dataclass(frozen=True)
class FedConfig:
    """The `federation` config block's FedAvg settings and their range rules."""

    n_clients: int
    rounds: int
    local_epochs: int
    eta: float
    clients_per_round: int
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_clients < 1:
            raise FederationError("need at least one client")
        if self.rounds < 0:
            raise FederationError("rounds must be >= 0")
        if self.local_epochs < 1:
            raise FederationError("local_epochs must be >= 1")
        if self.eta <= 0:
            raise FederationError("eta must be positive")
        if not 1 <= self.clients_per_round <= self.n_clients:
            raise FederationError("clients_per_round must be in [1, n_clients]")
        if self.batch_size < 1:
            raise FederationError("batch_size must be >= 1")


@dataclass
class RoundLog:
    round: int
    participants: list[int]
    loss: float
    accuracy: float


@dataclass
class FederationHistory:
    """Latest upload per participant, with its sample count and last round.

    An upload is one flat float64 vector laid out like `nn.Model.flat` by the
    layer lengths `dims`."""

    dims: list[int]
    uploads: dict[int, np.ndarray] = field(default_factory=dict)
    sizes: dict[int, int] = field(default_factory=dict)
    last_round: dict[int, int] = field(default_factory=dict)

    def record(self, client: int, flat: np.ndarray, size: int, rnd: int) -> None:
        """Keep a copy of `flat` as `client`'s upload."""
        flat = np.array(flat, dtype=np.float64)
        if flat.shape != (sum(self.dims),):
            raise FederationError(f"client {client}: upload of shape {flat.shape} "
                                  f"for {sum(self.dims)} parameters")
        self.uploads[client] = flat
        self.sizes[client] = int(size)
        self.last_round[client] = int(rnd)

    def clients(self) -> list[int]:
        return sorted(self.uploads)


def _local_seed(base_seed: int, rnd: int, client: int) -> int:
    ss = np.random.SeedSequence(base_seed, spawn_key=(2, rnd, client))
    return int(ss.generate_state(1)[0])


def _schedule(rows: np.ndarray, epochs: int, batch_size: int, seed: int) -> list[np.ndarray]:
    """A client's minibatches in step order, each as indices into the data:
    one permutation of its `rows` per epoch from its own generator, cut into
    batch_size pieces."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(epochs):
        order = rows[rng.permutation(rows.size)]
        batches.extend(order[start : start + batch_size]
                       for start in range(0, rows.size, batch_size))
    return batches


def local_updates(
    model: nn.Model,
    inputs: np.ndarray,
    labels: np.ndarray,
    client_rows: list[np.ndarray],
    seeds: list[int],
    epochs: int,
    eta: float,
    batch_size: int,
) -> np.ndarray:
    """E epochs of shuffled minibatch SGD from `model` (untouched) for each
    client, in lockstep; client n owns the rows `client_rows[n]` of
    inputs/labels and shuffles with `seeds[n]`. Returns the (N, num_params)
    block of the clients' final parameters.

    At each tick, the active clients, sorted by the size of their next
    minibatch, largest first, and then by client, take one
    `nn.stacked_loss_and_grads` call over their concatenated minibatches,
    then one SGD update of their rows. Where the tick passes the
    `nn.STACK_FLOATS` cap, the call is cut before the client that would
    pass it; largest first, full-size clients fill whole calls and the
    smaller ones share the last. Clients are independent, so each row has
    the bits of that client stepped alone."""
    if any(rows.size == 0 for rows in client_rows):
        raise FederationError("client has no samples")
    schedules = [_schedule(rows, epochs, batch_size, seed)
                 for rows, seed in zip(client_rows, seeds)]
    flats = np.repeat(model.flat[None], len(schedules), axis=0)
    cap = max(1, nn.STACK_FLOATS // nn.sample_floats(model))
    for tick in range(max(map(len, schedules))):
        active = sorted((n for n, batches in enumerate(schedules) if tick < len(batches)),
                        key=lambda n: -schedules[n][tick].size)
        calls, rows = [[]], 0
        for n in active:
            size = schedules[n][tick].size
            if calls[-1] and rows + size > cap:
                calls.append([])
                rows = 0
            calls[-1].append(n)
            rows += size
        for clients in calls:
            idx = np.concatenate([schedules[n][tick] for n in clients])
            # consecutive rows are stepped in place through a view, so a
            # call holds no copy of them; other rows are gathered
            gathered = clients != list(range(clients[0], clients[-1] + 1))
            block = flats[clients] if gathered else flats[clients[0] : clients[-1] + 1]
            _, grads = nn.stacked_loss_and_grads(model, block, inputs[idx], labels[idx],
                                                 [schedules[n][tick].size for n in clients])
            nn.sgd_descend(block, grads, eta)
            if gathered:
                flats[clients] = block
    return flats


def local_update(
    model: nn.Model,
    X: np.ndarray,
    y: np.ndarray,
    epochs: int,
    eta: float,
    batch_size: int,
    seed: int,
) -> nn.Model:
    """E epochs of shuffled minibatch SGD starting from `model` (untouched):
    the one-client case of `local_updates`."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    if y.shape != X.shape[:1]:
        raise nn.ShapeError("labels must be one int per input row")
    flats = local_updates(model, X, y, [np.arange(X.shape[0])], [seed], epochs, eta,
                          batch_size)
    return model.over(flats[0])


def aggregate(models: list[nn.Model], sizes: list[int]) -> nn.Model:
    """Size-weighted average, reduced in the order given by the caller."""
    if not models:
        raise FederationError("nothing to aggregate")
    if len(models) != len(sizes):
        raise FederationError("models/sizes length mismatch")
    if any(s <= 0 for s in sizes):
        raise FederationError("sizes must be positive")
    base = models[0]
    for m in models[1:]:
        if m.layer_dims() != base.layer_dims():
            raise FederationError("shape-incongruent models")
    total = float(sum(sizes))
    new = np.zeros_like(base.flat)
    for m, s in zip(models, sizes):
        new += (s / total) * m.flat
    return replace(base, flat=new)


def evaluate(model: nn.Model, X: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(mean loss, accuracy) on the given samples."""
    batch = nn.Batch(X, y)
    logits = nn.forward(model, batch)
    logp = nn.log_softmax(logits)
    loss = float(-logp[np.arange(len(y)), y].mean())
    acc = float((logits.argmax(axis=1) == y).mean())
    return loss, acc


def run_rounds(
    cfg: FedConfig,
    part: ClientPartition,
    ds: Dataset,
    model0: nn.Model,
    eligible: list[int] | None = None,
    client_indices: list[np.ndarray] | None = None,
) -> tuple[nn.Model, FederationHistory, list[RoundLog]]:
    """FedAvg for cfg.rounds rounds from model0.

    `eligible` restricts the selection pool (defaults to all clients);
    `client_indices` overrides each client's sample indices (defaults to the
    partition), which is how retraining drops forgotten samples.
    """
    if part.n_clients != cfg.n_clients:
        raise FederationError(
            f"partition has {part.n_clients} clients, config says {cfg.n_clients}"
        )
    indices = part.indices if client_indices is None else client_indices
    pool = sorted(range(cfg.n_clients) if eligible is None else eligible)
    if not pool:
        raise FederationError("no eligible clients")
    if any(indices[n].size == 0 for n in pool):
        raise FederationError("eligible client has no samples")
    k = min(cfg.clients_per_round, len(pool))
    select_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(1,)))
    history = FederationHistory(model0.layer_dims())
    global_model = model0.copy()
    logs: list[RoundLog] = []
    for rnd in range(1, cfg.rounds + 1):
        participants = sorted(select_rng.choice(pool, size=k, replace=False).tolist())
        flats = local_updates(global_model, ds.inputs, ds.labels,
                              [indices[n] for n in participants],
                              [_local_seed(cfg.seed, rnd, n) for n in participants],
                              cfg.local_epochs, cfg.eta, cfg.batch_size)
        weights = [indices[n].size for n in participants]
        for n, flat, size in zip(participants, flats, weights):
            history.record(n, flat, size, rnd)
        global_model = aggregate([global_model.over(flat) for flat in flats], weights)
        loss, acc = evaluate(global_model, ds.inputs, ds.labels)
        logs.append(RoundLog(round=rnd, participants=participants, loss=loss, accuracy=acc))
    return global_model, history, logs


def retrain_baseline(
    cfg: FedConfig,
    part: ClientPartition,
    ds: Dataset,
    split: ForgetSplit,
    model0: nn.Model,
) -> tuple[nn.Model, list[RoundLog]]:
    """Gold standard: fresh model trained only on remaining data.

    Clients left with zero samples are excluded from selection; the
    per-round participant count shrinks if the pool is smaller."""
    eligible = [n for n in range(part.n_clients) if split.remain_per_client[n].size > 0]
    if not eligible:
        raise FederationError("retrain impossible: no client has remaining data")
    model, _, logs = run_rounds(
        cfg,
        part,
        ds,
        model0,
        eligible=eligible,
        client_indices=split.remain_per_client,
    )
    return model, logs
