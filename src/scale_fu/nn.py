"""Layered neural net over one flat float64 parameter vector.

A model is its layer specs plus one flat vector holding every layer's weights
and bias in layer order; each layer reads and writes its parameters through a
view of that vector. Forward, loss and gradients are plain deterministic numpy
with analytic backprop, and the gradient is one vector laid out the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

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
        """The same specs over a copy of `flat`. The source passed
        `__post_init__`'s checks, so the copy skips them and cuts the new
        vector where the source's views are cut."""
        out = object.__new__(type(self))
        flat = self.flat.copy()
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


def _check_finite(arr: np.ndarray, layer: int, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite {what} at layer {layer}")


def _dense_forward(a: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a: (B, in), W: (out, in) -> (B, out)
    return a @ W.T + b


def _dense_backward(
    a: np.ndarray, W: np.ndarray, dz: np.ndarray, input_grad: bool = True, out=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    # Gradients w.r.t. W, b and, unless input_grad is False, the input a;
    # dW and db are written into `out`, a (dW, db) pair of arrays, if given.
    dW, db = (None, None) if out is None else out
    return (np.matmul(dz.T, a, out=dW), np.add.reduce(dz, axis=0, out=db),
            dz @ W if input_grad else None)


# Samples per patch matrix. A whole 600-sample batch in one patch matrix
# grows peak memory and runs slower (cache-bound). A block holds a 32-sample
# training minibatch, so its patches are cached for backward, and no more:
# mini_cnn's second-layer weight gradient, (16, K) x (K, 72) with K = 16 rows
# a sample, gave different bits at 1 and 2 OpenBLAS threads (0.3.31) from
# 55 samples a block up, and the same bits at 32.
CONV_BLOCK = 32


def _patch_blocks(xt: np.ndarray, k: int):
    """Yield (lo, hi, P) per block of CONV_BLOCK samples of the channels-last
    input xt (B, H, W, C): P is the (n*Ho*Wo, k*k*C) patch matrix of samples
    lo:hi, columns in (u, v, c) order, copied in one go from a read-only
    strided window view of xt. Blocks share one buffer, so a P is valid only
    until the next block is built."""
    B, H, Wd, C = xt.shape
    Ho, Wo = H - k + 1, Wd - k + 1
    sB, sH, sW, sC = xt.strides
    buf = np.empty((min(B, CONV_BLOCK), Ho, Wo, k, k, C))
    for lo in range(0, B, CONV_BLOCK):
        hi = min(lo + CONV_BLOCK, B)
        p = buf[: hi - lo]
        windows = as_strided(xt[lo:hi], shape=p.shape,
                             strides=(sB, sH, sW, sH, sW, sC), writeable=False)
        np.copyto(p, windows)
        yield lo, hi, p.reshape(-1, k * k * C)


def _conv_forward(
    x: np.ndarray, W: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    # x: (B, C, H, W), W: (O, C, k, k) -> (B, O, H-k+1, W-k+1), valid padding.
    # One GEMM per block of samples against W as a (k*k*C, O) matrix; the
    # result is a (B, O, Ho, Wo) view of channels-last memory. Also returns
    # the patch matrix when the batch fits in one block, else None.
    B, C, H, Wd = x.shape
    O, _, k, _ = W.shape
    Ho, Wo = H - k + 1, Wd - k + 1
    Wm = np.ascontiguousarray(W.transpose(2, 3, 1, 0)).reshape(k * k * C, O)
    out = np.empty((B * Ho * Wo, O))
    rows, P = Ho * Wo, None
    for lo, hi, P in _patch_blocks(x.transpose(0, 2, 3, 1), k):
        o = out[lo * rows : hi * rows]
        np.dot(P, Wm, out=o)
        o += b
    return out.reshape(B, Ho, Wo, O).transpose(0, 3, 1, 2), (P if B <= CONV_BLOCK else None)


def _conv_backward(
    x: np.ndarray,
    W: np.ndarray,
    dz: np.ndarray,
    P: np.ndarray | None = None,
    input_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    # Gradients w.r.t. W (O, C, k, k), b (O,) and, unless input_grad is
    # False, x (B, C, H, W). dW is one GEMM against the forward pass's patch
    # matrix P, rebuilt block by block when none is given; dx is one stacked
    # matmul, a GEMM per kernel offset, added in (u, v) order.
    B, C, H, Wd = x.shape
    O, _, k, _ = W.shape
    Ho, Wo = dz.shape[2], dz.shape[3]
    d = dz.transpose(0, 2, 3, 1).reshape(-1, O)
    if P is not None:
        dW = d.T @ P
    else:
        dW = np.zeros((O, k * k * C))
        rows = Ho * Wo
        for lo, hi, Pb in _patch_blocks(x.transpose(0, 2, 3, 1), k):
            dW += d[lo * rows : hi * rows].T @ Pb
    dW = dW.reshape(O, k, k, C).transpose(0, 3, 1, 2)
    db = np.add.reduce(d, axis=0)
    if not input_grad:
        return dW, db, None
    Wt = np.ascontiguousarray(W.transpose(2, 3, 0, 1)).reshape(k * k, O, C)
    G = np.matmul(d, Wt).reshape(k, k, B, Ho, Wo, C)
    dxt = np.zeros((B, H, Wd, C))
    for u in range(k):
        for v in range(k):
            dxt[:, u : u + Ho, v : v + Wo] += G[u, v]
    return dW, db, dxt.transpose(0, 3, 1, 2)


def _split_dense(spec: LayerSpec, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_w = spec.in_dim * spec.out_dim
    return vec[:n_w].reshape(spec.out_dim, spec.in_dim), vec[n_w:]


def _split_conv(spec: LayerSpec, vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n_w = spec.out_channels * spec.in_channels * spec.kernel**2
    W = vec[:n_w].reshape(spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
    return W, vec[n_w:]


def _forward(model: Model, X: np.ndarray) -> tuple[np.ndarray, list]:
    """Run the layer chain; returns logits and per-layer caches for backprop:
    (input, pre-activation, conv patch matrix or None) per layer."""
    B = X.shape[0]
    if X.shape[1] != model.input_dim:
        raise ShapeError(
            f"batch width {X.shape[1]} does not match model input_dim {model.input_dim}"
        )
    if len(model.input_shape) == 3:
        a = X.reshape(B, *model.input_shape)
    else:
        a = X
    caches = []
    for i, (spec, vec) in enumerate(zip(model.layers, model.params)):
        if spec.kind == DENSE:
            if a.ndim != 2:
                raise ShapeError(f"layer {i}: dense input must be flat (missing flatten?)")
            if a.shape[1] != spec.in_dim:
                raise ShapeError(
                    f"layer {i}: dense expected width {spec.in_dim}, got {a.shape[1]}"
                )
            W, b = _split_dense(spec, vec)
            z, P = _dense_forward(a, W, b), None
        elif spec.kind == CONV2D:
            if a.ndim != 4 or a.shape[1] != spec.in_channels:
                raise ShapeError(f"layer {i}: conv2d expected (B,{spec.in_channels},H,W) input")
            if a.shape[2] < spec.kernel or a.shape[3] < spec.kernel:
                raise ShapeError(f"layer {i}: spatial input smaller than kernel")
            W, b = _split_conv(spec, vec)
            z, P = _conv_forward(a, W, b)
        else:  # flatten
            z, P = a.reshape(B, -1), None
        if spec.kind != FLATTEN or i == 0:
            # past layer 0, a flatten reshapes an activation already checked
            _check_finite(z, i, "activation")
        out = np.maximum(z, 0.0) if spec.activation == ACT_RELU else z
        caches.append((a, z, P))
        a = out
    if a.ndim != 2:
        raise ShapeError("model output is not flat; final flatten/dense missing")
    return a, caches


def forward(model: Model, batch: Batch) -> np.ndarray:
    """Logits for a batch, shape (B, num_classes)."""
    logits, _ = _forward(model, batch.inputs)
    if logits.shape[1] != model.num_classes:
        raise ShapeError(
            f"model produces {logits.shape[1]} outputs for {model.num_classes} classes"
        )
    return logits


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def loss_and_grads(model: Model, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient, one vector laid out like
    `model.flat`."""
    if len(batch) == 0:
        raise ShapeError("empty batch")
    if batch.labels.min() < 0 or batch.labels.max() >= model.num_classes:
        raise ShapeError("label out of range")
    logits, caches = _forward(model, batch.inputs)
    B = len(batch)
    rows = np.arange(B)
    logp = log_softmax(logits)
    loss = float(-(np.add.reduce(logp[rows, batch.labels]) / B))
    dlogits = np.exp(logp)
    dlogits[rows, batch.labels] -= 1.0
    dlogits /= B

    # every coordinate is written: each dense or conv layer fills its dW and
    # db views of its slice g, and a flatten layer has none
    grad = np.empty(model.flat.size)
    end = grad.size
    da = dlogits
    for i in range(model.num_layers - 1, -1, -1):
        spec = model.layers[i]
        g, end = grad[end - spec.d : end], end - spec.d
        a_prev, z, P = caches[i]
        if spec.activation == ACT_RELU:
            dz = da * (z > 0.0).astype(np.float64)
        else:
            dz = da
        # layer 0's input is the data: nothing consumes its gradient
        if spec.kind == DENSE:
            W, _ = _split_dense(spec, model.params[i])
            _, _, da = _dense_backward(a_prev, W, dz, input_grad=i > 0,
                                       out=_split_dense(spec, g))
        elif spec.kind == CONV2D:
            W, _ = _split_conv(spec, model.params[i])
            gW, gb = _split_conv(spec, g)
            gW[...], gb[...], da = _conv_backward(a_prev, W, dz, P, input_grad=i > 0)
        else:  # flatten: reshape gradient back to the cached input shape
            da = dz.reshape(a_prev.shape)
            continue  # its gradient is empty
        _check_finite(g, i, "gradient")
    return loss, grad


def sgd_step_inplace(model: Model, grad: np.ndarray, eta: float) -> None:
    """One descent step, p -= eta * g, written into `model.flat`: the one SGD
    update rule."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if grad.shape != model.flat.shape:
        raise ShapeError(f"gradient shape {grad.shape} vs params {model.flat.shape}")
    model.flat -= eta * grad


def sgd_step(model: Model, grad: np.ndarray, eta: float) -> Model:
    """One descent step; returns a new model, the input is untouched."""
    out = model.copy()
    sgd_step_inplace(out, grad, eta)
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
