"""Layered neural net over one flat float64 parameter vector.

A model is its layer specs plus one flat vector holding every layer's weights
and bias in layer order; each layer reads and writes its parameters through a
view of that vector. Forward, loss and gradients are plain deterministic numpy
with analytic backprop, and the gradient is one vector laid out the same way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .atomic import atomic_write

DENSE = "dense"
CONV2D = "conv2d"
FLATTEN = "flatten"
LAYER_KINDS = (DENSE, CONV2D, FLATTEN)

ACT_RELU = "relu"
ACT_NONE = "none"
ACTIVATIONS = (ACT_RELU, ACT_NONE)

ARCH_MLP = "mlp"
ARCH_MINI_CNN = "mini_cnn"


class ShapeError(ValueError):
    """Tensor or parameter shapes disagree with the model's declared dims."""


class NumericError(ArithmeticError):
    """A forward or backward pass produced non-finite values."""


@dataclass(frozen=True)
class LayerSpec:
    """Static description of one layer; `d` is its flat parameter length."""

    kind: str
    in_dim: int = 0
    out_dim: int = 0
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    activation: str = ACT_RELU

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ShapeError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ShapeError(f"unknown activation {self.activation!r}")
        if self.kind == DENSE and (self.in_dim <= 0 or self.out_dim <= 0):
            raise ShapeError("dense layer needs positive in_dim/out_dim")
        if self.kind == CONV2D and (
            self.in_channels <= 0 or self.out_channels <= 0 or self.kernel <= 0
        ):
            raise ShapeError("conv2d layer needs positive channels and kernel")

    @property
    def d(self) -> int:
        if self.kind == DENSE:
            return self.in_dim * self.out_dim + self.out_dim
        if self.kind == CONV2D:
            return self.out_channels * self.in_channels * self.kernel**2 + self.out_channels
        return 0

    @property
    def fans(self) -> tuple[int, int]:
        if self.kind == DENSE:
            return self.in_dim, self.out_dim
        if self.kind == CONV2D:
            k2 = self.kernel**2
            return self.in_channels * k2, self.out_channels * k2
        return 0, 0


@dataclass
class Batch:
    """A classification minibatch: float64 inputs, int labels."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ShapeError(f"batch inputs must be 2-d, got shape {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ShapeError("labels must be one int per input row")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def views(buf: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive blocks of the flat `buf`, one per shape, in order."""
    out, start = [], 0
    for shape in shapes:
        n = math.prod(shape)
        out.append(buf[start : start + n].reshape(shape))
        start += n
    return out


class LayerViews(tuple):
    """Per-layer views whose item assignment accepts only the view already
    held: `params[l] *= s` scales layer l in place, `params[l] = x` raises."""

    def __setitem__(self, l, value) -> None:
        if value is not self[l]:
            raise TypeError("Model.params holds bound views; write through them")


@dataclass
class Model:
    """Ordered layer specs plus one flat float64 vector `flat` holding every
    layer's parameters in layer order. `params` is the tuple of per-layer
    views of `flat`; both are bound once, so writes go through the views (or
    in place on `flat`) and show in both."""

    arch_id: str
    input_shape: tuple[int, ...]
    num_classes: int
    layers: tuple[LayerSpec, ...]
    flat: np.ndarray
    params: LayerViews = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.input_shape = tuple(int(v) for v in self.input_shape)
        self.layers = tuple(self.layers)
        flat = np.ascontiguousarray(self.flat, dtype=np.float64)
        if flat.shape != (self.num_params,):
            raise ShapeError(f"expected one flat vector of {self.num_params} "
                             f"parameters, got {flat.shape}")
        self.flat = flat
        self.params = self.layer_views(flat)

    def __setattr__(self, name: str, value) -> None:
        # an in-place update such as `model.flat -= g` rebinds the same array
        if name in ("flat", "params") and "params" in self.__dict__ \
                and value is not self.__dict__[name]:
            raise AttributeError(f"Model.{name} is bound once; write through its views")
        super().__setattr__(name, value)

    @property
    def input_dim(self) -> int:
        return math.prod(self.input_shape)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_params(self) -> int:
        return int(sum(spec.d for spec in self.layers))

    def layer_dims(self) -> list[int]:
        return [spec.d for spec in self.layers]

    def layer_views(self, vec: np.ndarray) -> LayerViews:
        """Per-layer views of `vec`, a vector laid out like `flat`."""
        return LayerViews(views(vec, [(spec.d,) for spec in self.layers]))

    def copy(self) -> "Model":
        """The same specs over a copy of `flat`."""
        return self.over(self.flat.copy())

    def over(self, flat: np.ndarray) -> "Model":
        """The same specs over `flat`, a contiguous float64 vector laid out
        like `self.flat`, bound without a copy. The source passed
        `__post_init__`'s checks, so this skips them and cuts `flat` where
        the source's views are cut."""
        if flat.shape != self.flat.shape:
            raise ShapeError(f"expected one flat vector of {self.flat.size} "
                             f"parameters, got {flat.shape}")
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, flat=flat,
                            params=LayerViews(views(flat, [p.shape for p in self.params])))
        return out


def make_model(
    arch: str,
    input_dim: int,
    num_classes: int,
    seed: int,
    hidden: tuple[int, int] = (64, 32),
) -> Model:
    """Build and initialize one of the stock architectures.

    mlp: two ReLU hidden dense layers then a linear head.
    mini_cnn: conv(8,3x3)-relu, conv(16,3x3)-relu, flatten, linear head;
    the input must be a square single-channel image (input_dim = side^2).
    """
    if num_classes < 2:
        raise ShapeError("need at least two classes")
    if input_dim < 1:
        raise ShapeError("input_dim must be positive")
    if arch == ARCH_MLP:
        h1, h2 = hidden
        layers = (
            LayerSpec(DENSE, in_dim=input_dim, out_dim=h1, activation=ACT_RELU),
            LayerSpec(DENSE, in_dim=h1, out_dim=h2, activation=ACT_RELU),
            LayerSpec(DENSE, in_dim=h2, out_dim=num_classes, activation=ACT_NONE),
        )
        input_shape: tuple[int, ...] = (input_dim,)
    elif arch == ARCH_MINI_CNN:
        side = math.isqrt(input_dim)
        if side * side != input_dim:
            raise ShapeError(f"mini_cnn input must be square, got input_dim={input_dim}")
        out_side = side - 4  # two valid 3x3 convs
        if out_side < 1:
            raise ShapeError(f"mini_cnn needs at least a 5x5 input, got {side}x{side}")
        layers = (
            LayerSpec(CONV2D, in_channels=1, out_channels=8, kernel=3, activation=ACT_RELU),
            LayerSpec(CONV2D, in_channels=8, out_channels=16, kernel=3, activation=ACT_RELU),
            LayerSpec(FLATTEN, activation=ACT_NONE),
            LayerSpec(
                DENSE,
                in_dim=16 * out_side * out_side,
                out_dim=num_classes,
                activation=ACT_NONE,
            ),
        )
        input_shape = (1, side, side)
    else:
        raise ShapeError(f"unknown arch {arch!r}")
    if any(spec.activation == ACT_NONE for spec in layers[:-1] if spec.kind != FLATTEN):
        raise ShapeError("only the final layer may be linear")
    return Model(
        arch_id=arch,
        input_shape=input_shape,
        num_classes=num_classes,
        layers=layers,
        flat=init_params(layers, seed),
    )


def init_params(layers: tuple[LayerSpec, ...], seed: int) -> np.ndarray:
    """The flat parameter vector, uniform [-a, a] per layer with
    a = sqrt(6 / (fan_in + fan_out)), drawn in layer order."""
    rng = np.random.default_rng(seed)
    flat = np.zeros(sum(spec.d for spec in layers))
    for spec, vec in zip(layers, views(flat, [(spec.d,) for spec in layers])):
        if spec.d:
            fan_in, fan_out = spec.fans
            a = math.sqrt(6.0 / (fan_in + fan_out))
            vec[:] = rng.uniform(-a, a, size=spec.d)
    return flat


class _Run(NamedTuple):
    """Consecutive clients of a stacked call, all of minibatch size B:
    `clients` slices them out of a per-client (N, ...) array, `rows` their
    rows out of a per-row (R, ...) array, and `stack` is (n, B)."""

    clients: slice
    rows: slice
    stack: tuple[int, int]


def _runs(sizes: list[int]) -> list[_Run]:
    """The runs of consecutive equal-size clients, in order, of a stacked
    call in which client n's minibatch is the next sizes[n] rows, after
    those of clients 0..n-1."""
    runs, c0, r0 = [], 0, 0
    for B, group in itertools.groupby(sizes):
        n = len(list(group))
        runs.append(_Run(slice(c0, c0 + n), slice(r0, r0 + n * B), (n, B)))
        c0, r0 = c0 + n, r0 + n * B
    return runs


def _stack(rows: np.ndarray, run: _Run) -> np.ndarray:
    """The run's part of the per-row array `rows`, as an (n, B, ...) view."""
    return rows[run.rows].reshape(run.stack + rows.shape[1:])


def _check_finite(arr: np.ndarray, layer: int, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite {what} at layer {layer}")


def _dense_forward(a: np.ndarray, W: np.ndarray, b: np.ndarray, runs: list[_Run]) -> np.ndarray:
    # a: (R, in) rows, W: (N, out, in), b: (N, out) -> (R, out): one matmul
    # and one bias add per run, on its (n, B, ...) views
    z = np.empty((a.shape[0], W.shape[1]))
    for run in runs:
        zr = _stack(z, run)
        np.matmul(_stack(a, run), W[run.clients].swapaxes(-1, -2), out=zr)
        zr += b[run.clients][:, None, :]
    return z


def _dense_backward(
    a: np.ndarray, W: np.ndarray, dz: np.ndarray, input_grad: bool = True, out=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    # Gradients w.r.t. W, b and, unless input_grad is False, the input a;
    # they are written into `out`, a (dW, db, da) triple of arrays, if given.
    dW, db, da = (None, None, None) if out is None else out
    return (np.matmul(dz.swapaxes(-1, -2), a, out=dW), np.add.reduce(dz, axis=-2, out=db),
            np.matmul(dz, W, out=da) if input_grad else None)


# Samples per patch matrix of one client. A whole 600-sample batch in one
# patch matrix grows peak memory and runs slower (cache-bound). A block holds
# a 32-sample training minibatch, so its patches are cached for backward, and
# no more: mini_cnn's second-layer weight gradient, (16, K) x (K, 72) with
# K = 16 rows a sample, gave different bits at 1 and 2 OpenBLAS threads
# (0.3.31) from 55 samples a block up, and the same bits at 32.
CONV_BLOCK = 32

# Floats of per-sample buffers (`sample_floats`) in one stacked call of
# `stacked_loss_and_grads` from a lockstep FedAvg tick
# (`federation.local_updates`): a tick's clients, largest minibatch first,
# are cut into calls of at most max(1, STACK_FLOATS // sample_floats(model))
# samples, and a call holds at least one client. That is 128 samples of
# mini_cnn on 8x8 inputs (2,344 floats a sample), four 32-sample clients,
# and 2,586 of the default MLP (116), a whole tick of 8 clients. Set by a
# peak-RSS check of the cnn-fed pipeline, masters 41-45 through perfbench's
# harness (CHANGES.md): 128 samples gave 45.42-45.50 MB against the by-size
# grouping's 45.26-45.46, while 160 to 256 gave 46.6-49.5 MB.
STACK_FLOATS = 128 * 2344


def _patch_blocks(xt: np.ndarray, k: int):
    """Yield (lo, hi, P) per block of CONV_BLOCK samples of the stacked
    channels-last input xt (N, B, H, W, C): P is the (N, n*Ho*Wo, k*k*C)
    patch matrices of samples lo:hi of each client, columns in (u, v, c)
    order, copied in one go from a read-only strided window view of xt.
    Blocks share one buffer, so a P is valid only until the next block is
    built."""
    N, B, H, Wd, C = xt.shape
    Ho, Wo = H - k + 1, Wd - k + 1
    sN, sB, sH, sW, sC = xt.strides
    per_sample = Ho * Wo * k * k * C
    buf = np.empty(N * min(B, CONV_BLOCK) * per_sample)
    for lo in range(0, B, CONV_BLOCK):
        hi = min(lo + CONV_BLOCK, B)
        p = buf[: N * (hi - lo) * per_sample].reshape(N, hi - lo, Ho, Wo, k, k, C)
        windows = as_strided(xt[:, lo:hi], shape=p.shape,
                             strides=(sN, sB, sH, sW, sH, sW, sC), writeable=False)
        np.copyto(p, windows)
        yield lo, hi, p.reshape(N, -1, k * k * C)


def _conv_forward(
    x: np.ndarray, W: np.ndarray, b: np.ndarray, out=None
) -> tuple[np.ndarray, np.ndarray | None]:
    # x: (N, B, C, H, W), W: (N, O, C, k, k), b: (N, O) -> (N, B, O, H-k+1,
    # W-k+1), valid padding, client n by its own W[n] and b[n]. One stacked
    # GEMM per block of samples against W as (N, k*k*C, O) matrices; the
    # result is a view of channels-last memory, `out` (N, B*Ho*Wo, O) if
    # given. Also returns the patch matrices when the batch fits in one
    # block, else None.
    N, B, C, H, Wd = x.shape
    O, k = W.shape[1], W.shape[3]
    Ho, Wo = H - k + 1, Wd - k + 1
    Wm = np.ascontiguousarray(W.transpose(0, 3, 4, 2, 1)).reshape(N, k * k * C, O)
    if out is None:
        out = np.empty((N, B * Ho * Wo, O))
    rows, P = Ho * Wo, None
    for lo, hi, P in _patch_blocks(x.transpose(0, 1, 3, 4, 2), k):
        o = out[:, lo * rows : hi * rows]
        np.matmul(P, Wm, out=o)
        o += b[:, None, :]
    return (out.reshape(N, B, Ho, Wo, O).transpose(0, 1, 4, 2, 3),
            (P if B <= CONV_BLOCK else None))


def _conv_backward(
    x: np.ndarray,
    W: np.ndarray,
    dz: np.ndarray,
    P: np.ndarray | None = None,
    input_grad: bool = True,
    out=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    # Gradients w.r.t. W (N, O, C, k, k), b (N, O) and, unless input_grad is
    # False, x (N, B, C, H, W). dW is one stacked GEMM against the forward
    # pass's patch matrices P, rebuilt block by block when none are given; dx
    # is one stacked matmul, a GEMM per client and kernel offset, added in
    # (u, v) order into `out`, a zeroed channels-last (N, B, H, W, C) array,
    # if given.
    N, B, C, H, Wd = x.shape
    O, k = W.shape[1], W.shape[3]
    Ho, Wo = dz.shape[3], dz.shape[4]
    d = dz.transpose(0, 1, 3, 4, 2).reshape(N, -1, O)
    dT = d.transpose(0, 2, 1)
    if P is not None:
        dW = np.matmul(dT, P)
    else:
        dW = np.zeros((N, O, k * k * C))
        rows = Ho * Wo
        for lo, hi, Pb in _patch_blocks(x.transpose(0, 1, 3, 4, 2), k):
            dW += np.matmul(dT[:, :, lo * rows : hi * rows], Pb)
    dW = dW.reshape(N, O, k, k, C).transpose(0, 1, 4, 2, 3)
    db = np.add.reduce(d, axis=1)
    if not input_grad:
        return dW, db, None
    Wt = np.ascontiguousarray(W.transpose(0, 3, 4, 1, 2)).reshape(N, k * k, O, C)
    G = np.matmul(d[:, None], Wt).reshape(N, k, k, B, Ho, Wo, C)
    dxt = np.zeros((N, B, H, Wd, C)) if out is None else out
    for u in range(k):
        for v in range(k):
            dxt[:, :, u : u + Ho, v : v + Wo] += G[:, u, v]
    return dW, db, dxt.transpose(0, 1, 4, 2, 3)


def _split_dense(spec: LayerSpec, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # vec: (..., d) -> W (..., out, in), b (..., out)
    n_w = spec.in_dim * spec.out_dim
    return vec[..., :n_w].reshape(*vec.shape[:-1], spec.out_dim, spec.in_dim), vec[..., n_w:]


def _split_conv(spec: LayerSpec, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # vec: (..., d) -> W (..., O, C, k, k), b (..., O)
    n_w = spec.out_channels * spec.in_channels * spec.kernel**2
    W = vec[..., :n_w].reshape(*vec.shape[:-1], spec.out_channels, spec.in_channels,
                               spec.kernel, spec.kernel)
    return W, vec[..., n_w:]


def _layer_blocks(model: Model, flats: np.ndarray) -> list[np.ndarray]:
    """Per-layer (N, d) column blocks of the (N, num_params) stack `flats`."""
    out, start = [], 0
    for p in model.params:
        out.append(flats[:, start : start + p.size])
        start += p.size
    return out


def sample_floats(model: Model) -> int:
    """Floats one sample holds in a stacked call's forward caches: its input
    row, each layer's output and each conv layer's patch-matrix row."""
    total, shape = model.input_dim, model.input_shape
    for spec in model.layers:
        if spec.kind == CONV2D:
            Ho, Wo = shape[1] - spec.kernel + 1, shape[2] - spec.kernel + 1
            total += Ho * Wo * spec.kernel**2 * spec.in_channels
            shape = (spec.out_channels, Ho, Wo)
        elif spec.kind == DENSE:
            shape = (spec.out_dim,)
        total += math.prod(shape)
    return total


def _forward(
    model: Model, flats: np.ndarray, X: np.ndarray, runs: list[_Run], keep: bool
) -> tuple[np.ndarray, list]:
    """Run the layer chain over the (R, input_dim) rows X, each client's rows
    (laid out by `runs`) by its row of the (N, num_params) stack `flats`;
    returns the (R, classes) logits and, if `keep`, per-layer caches for
    backprop: (input, per-run conv patch matrices or None, weights or None)
    per layer. Each run's GEMMs and bias adds act on (n, B, ...) views; ReLU
    and the finiteness checks run once over all rows."""
    R = X.shape[0]
    if X.shape[1] != model.input_dim:
        raise ShapeError(
            f"batch width {X.shape[1]} does not match model input_dim {model.input_dim}"
        )
    a = X.reshape(R, *model.input_shape) if len(model.input_shape) == 3 else X
    caches = []
    for i, (spec, vec) in enumerate(zip(model.layers, _layer_blocks(model, flats))):
        if spec.kind == DENSE:
            if a.ndim != 2:
                raise ShapeError(f"layer {i}: dense input must be flat (missing flatten?)")
            if a.shape[1] != spec.in_dim:
                raise ShapeError(
                    f"layer {i}: dense expected width {spec.in_dim}, got {a.shape[1]}"
                )
            W, b = _split_dense(spec, vec)
            z, Ps = _dense_forward(a, W, b, runs), None
        elif spec.kind == CONV2D:
            if a.ndim != 4 or a.shape[1] != spec.in_channels:
                raise ShapeError(f"layer {i}: conv2d expected (B,{spec.in_channels},H,W) input")
            if a.shape[2] < spec.kernel or a.shape[3] < spec.kernel:
                raise ShapeError(f"layer {i}: spatial input smaller than kernel")
            W, b = _split_conv(spec, vec)
            Ho, Wo = a.shape[2] - spec.kernel + 1, a.shape[3] - spec.kernel + 1
            zt, Ps = np.empty((R, Ho * Wo, spec.out_channels)), []
            for run in runs:
                s = run.clients
                zr = zt[run.rows].reshape(run.stack[0], -1, spec.out_channels)
                Ps.append(_conv_forward(_stack(a, run), W[s], b[s], out=zr)[1])
            z = zt.reshape(R, Ho, Wo, spec.out_channels).transpose(0, 3, 1, 2)
        else:  # flatten
            z, Ps, W = a.reshape(R, -1), None, None
        if spec.kind != FLATTEN or i == 0:
            # past layer 0, a flatten reshapes an activation already checked
            _check_finite(z, i, "activation")
        out = np.maximum(z, 0.0) if spec.activation == ACT_RELU else z
        if keep:
            caches.append((a, Ps, W))
        a = out
    if a.ndim != 2:
        raise ShapeError("model output is not flat; final flatten/dense missing")
    return a, caches


def forward(model: Model, batch: Batch) -> np.ndarray:
    """Logits for a batch, shape (B, num_classes). Keeps no backprop caches."""
    logits, _ = _forward(model, model.flat[None], batch.inputs, _runs([len(batch)]),
                         keep=False)
    if logits.shape[1] != model.num_classes:
        raise ShapeError(
            f"model produces {logits.shape[1]} outputs for {model.num_classes} classes"
        )
    return logits


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis."""
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def stacked_loss_and_grads(
    model: Model, flats: np.ndarray, inputs: np.ndarray, labels: np.ndarray, sizes
) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy loss and its gradient for N clients at once: client
    n's parameters are row n of `flats` (N, num_params), laid out like
    `model.flat`, and its minibatch is the next sizes[n] rows of `inputs`
    (R, input_dim) and `labels` (R,), after those of clients 0..n-1. Returns
    the (N,) losses and the (N, num_params) gradients. Each client's row has
    the bits of a call on that client alone: every operation acts on each
    client's slice as the one-client call does. Clients of equal size should
    sit next to each other: each run of them (`_runs`) takes its GEMMs as
    one stacked matmul, and its bias adds and 1/B scaling on one (n, B, ...)
    view."""
    sizes = [int(B) for B in sizes]
    N, R = len(sizes), sum(sizes)
    if flats.ndim != 2 or flats.shape[0] != N:
        raise ShapeError(f"parameter stack {flats.shape} for {N} clients")
    if inputs.ndim != 2 or inputs.shape[0] != R or labels.shape != (R,):
        raise ShapeError(f"inputs {inputs.shape} and labels {labels.shape} "
                         f"for minibatches of {sizes} rows")
    if min(sizes, default=0) < 1:
        raise ShapeError("empty batch")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ShapeError("label out of range")
    runs = _runs(sizes)
    logits, caches = _forward(model, flats, inputs, runs, keep=True)
    # flat position of each row's label in the (R, classes) logits
    picks = np.arange(0, R * model.num_classes, model.num_classes) + labels
    logp = log_softmax(logits)
    picked, losses = logp.reshape(-1)[picks], np.empty(N)
    da = np.exp(logp, out=logp)   # the softmax, in logp's memory
    da.reshape(-1)[picks] -= 1.0
    for run in runs:
        B, loss, da_run = run.stack[1], losses[run.clients], _stack(da, run)
        np.add.reduce(_stack(picked, run), axis=1, out=loss)
        loss /= -B
        da_run /= B

    # every coordinate is written: each dense or conv layer fills its dW and
    # db views of its block g, run by run, and a flatten layer has none. Each
    # layer's cache is dropped once used; a ReLU layer's mask is read off its
    # output (the next layer's input), where out > 0 exactly when z > 0, and
    # is multiplied into da, a buffer nothing else reads.
    grads = np.empty(flats.shape)
    grad_blocks = _layer_blocks(model, grads)
    out = logits
    for i in range(model.num_layers - 1, -1, -1):
        spec, g = model.layers[i], grad_blocks[i]
        a_prev, Ps, W = caches.pop()
        if spec.activation == ACT_RELU:
            da *= (out > 0.0).astype(np.float64)
        dz = da
        # layer 0's input is the data: nothing consumes its gradient
        if spec.kind == DENSE:
            gW, gb = _split_dense(spec, g)
            da = np.empty(a_prev.shape) if i > 0 else None
            for run in runs:
                s = run.clients
                _dense_backward(_stack(a_prev, run), W[s], _stack(dz, run), input_grad=i > 0,
                                out=(gW[s], gb[s], None if da is None else _stack(da, run)))
        elif spec.kind == CONV2D:
            gW, gb = _split_conv(spec, g)
            C, H, Wd = a_prev.shape[1:]
            dxt = np.zeros((len(a_prev), H, Wd, C)) if i > 0 else None
            for run, P in zip(runs, Ps):
                s = run.clients
                gW[s], gb[s], _ = _conv_backward(_stack(a_prev, run), W[s], _stack(dz, run), P,
                                                 input_grad=i > 0,
                                                 out=None if dxt is None else _stack(dxt, run))
            da = None if dxt is None else dxt.transpose(0, 3, 1, 2)
        else:  # flatten: reshape gradient back to the cached input shape
            da = dz.reshape(a_prev.shape)
        out = a_prev
    if not np.isfinite(grads).all():
        # name the first layer backprop reached with a non-finite gradient
        for i in range(model.num_layers - 1, -1, -1):
            _check_finite(grad_blocks[i], i, "gradient")
    return losses, grads


def loss_and_grads(model: Model, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient, one vector laid out like
    `model.flat`: the one-client case of `stacked_loss_and_grads`."""
    losses, grads = stacked_loss_and_grads(model, model.flat[None], batch.inputs,
                                           batch.labels, [len(batch)])
    return float(losses[0]), grads[0]


def sgd_descend(params: np.ndarray, grad: np.ndarray, eta: float) -> None:
    """p -= eta * g, written into `params`, a flat vector or a stack of them:
    the one SGD update rule."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if grad.shape != params.shape:
        raise ShapeError(f"gradient shape {grad.shape} vs params {params.shape}")
    params -= eta * grad


def sgd_step(model: Model, grad: np.ndarray, eta: float) -> Model:
    """One descent step; returns a new model, the input is untouched."""
    out = model.copy()
    sgd_descend(out.flat, grad, eta)
    return out


# --- checkpoint format: flat little-endian float64 -------------------------


def model_manifest(model: Model, seed: int | None = None) -> dict:
    """A JSON record of `model`'s architecture; nothing reads it back."""
    layers = []
    for spec in model.layers:
        layers.append(
            {
                "kind": spec.kind,
                "d": spec.d,
                "in_dim": spec.in_dim,
                "out_dim": spec.out_dim,
                "in_channels": spec.in_channels,
                "out_channels": spec.out_channels,
                "kernel": spec.kernel,
                "activation": spec.activation,
            }
        )
    return {
        "arch_id": model.arch_id,
        "input_shape": list(model.input_shape),
        "num_classes": model.num_classes,
        "seed": seed,
        "layers": layers,
    }


def write_blob(vec: np.ndarray, path: str | Path) -> None:
    """Write one flat vector as little-endian float64: the one on-disk format
    of model and history files."""
    with atomic_write(path, "wb") as fh:
        fh.write(vec.astype("<f8").tobytes())


def read_blob(path: str | Path, n: int) -> np.ndarray:
    """Read a `write_blob` file back as a float64 vector of length `n`. A
    file of any other byte length raises ShapeError naming the file."""
    raw = Path(path).read_bytes()
    if len(raw) != 8 * n:
        raise ShapeError(f"{path}: {len(raw)} bytes where {n} float64 values need {8 * n}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def save_model(model: Model, path: str | Path) -> None:
    """`model.flat` as little-endian float64: the layer vectors in layer order."""
    write_blob(model.flat, path)


def load_model(path: str | Path, like: Model) -> Model:
    """The model saved at `path` by `save_model`, with `like`'s architecture."""
    return replace(like, flat=read_blob(path, like.num_params))
