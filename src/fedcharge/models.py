"""Predictors behind one flat parameter-vector interface.

Ships the mean dummy, the Gaussian dummy, linear regression, and a tabular
MLP with a station embedding. Trainable models expose analytic gradients of
batch-mean MSE; the flat float64 vector is the unit that federated averaging
aggregates and the checkpoint format serializes.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .seeding import STREAM_GAUSS, STREAM_INIT, rng_from

MODEL_KINDS = ("dummy-mean", "dummy-gauss", "lr", "mlp")


# ---------------------------------------------------------------------------
# Parameter layout and snapshots


@dataclass(frozen=True)
class ParamLayout:
    """Named segments (name, shape) mapped onto one flat vector."""

    segments: tuple[tuple[str, tuple[int, ...]], ...]

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(math.prod(shape) for _, shape in self.segments)

    @cached_property
    def total(self) -> int:
        return sum(self.sizes)

    @cached_property
    def slices(self) -> MappingProxyType:
        """name -> (slice of the flat vector, shape), computed once."""
        out = {}
        offset = 0
        for (name, shape), size in zip(self.segments, self.sizes):
            out[name] = (slice(offset, offset + size), shape)
            offset += size
        return MappingProxyType(out)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each segment of `flat` in its own shape, sharing flat's memory."""
        return {name: flat[sl].reshape(shape) for name, (sl, shape) in self.slices.items()}


@dataclass(frozen=True)
class ModelParameters:
    """Immutable snapshot of a model's flat parameter vector."""

    layout: ParamLayout
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 1 or values.size != self.layout.total:
            raise ValueError("parameter vector does not match layout")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def get_params(model) -> ModelParameters:
    return ModelParameters(layout=model.layout, values=model.values)


def set_params(model, params: ModelParameters) -> None:
    if params.layout != model.layout:
        raise ValueError("layout mismatch")
    model.values = params.values  # a trainable model copies it into its buffer


class _BoundParams:
    """A trainable model's flat float64 parameters: one buffer for the model's
    lifetime, which training updates in place. Assigning `values` copies into
    the buffer, so the model never aliases a caller's array.
    """

    def __init__(self, layout: ParamLayout):
        self.layout = layout
        self._values = np.zeros(layout.total)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @values.setter
    def values(self, new) -> None:
        new = np.asarray(new, dtype=np.float64)
        if new.shape != self._values.shape:
            raise ValueError(f"parameter vector of shape {new.shape}, not {self._values.shape}")
        self._values[...] = new


# ---------------------------------------------------------------------------
# Checkpoint file format: fixed 52-byte header then float64 little-endian
# parameter values. Header: magic (8s), version (u32 LE), sha256 of the
# canonical architecture spec (32s), parameter count (u64 LE).

CHECKPOINT_MAGIC = b"FEDCHKPT"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<8sI32sQ")


def arch_hash(spec_dict: dict) -> bytes:
    return hashlib.sha256(
        json.dumps(spec_dict, sort_keys=True, separators=(",", ":")).encode()
    ).digest()


def checkpoint_bytes(params: ModelParameters, spec_dict: dict) -> bytes:
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, arch_hash(spec_dict), params.values.size
    )
    return header + params.values.astype("<f8").tobytes()


def save_checkpoint(path, params: ModelParameters, spec_dict: dict) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(params, spec_dict))


def load_checkpoint(path, spec_dict: dict, layout: ParamLayout) -> ModelParameters:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: {len(blob)} bytes, shorter than the checkpoint header")
    if (len(blob) - _HEADER.size) % 8:
        raise ValueError(f"{path}: checkpoint body is not a whole number of float64 values")
    magic, version, digest, count = _HEADER.unpack(blob[: _HEADER.size])
    if magic != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if digest != arch_hash(spec_dict):
        raise ValueError("checkpoint was written for a different architecture")
    values = np.frombuffer(blob[_HEADER.size :], dtype="<f8")
    if values.size != count or count != layout.total:
        raise ValueError("checkpoint parameter count mismatch")
    return ModelParameters(layout=layout, values=values.astype(np.float64))


# ---------------------------------------------------------------------------
# Adam


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class AdamState:
    """First/second moment estimates; arrays share the parameter layout."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray             # adam_step's two intermediates, (2, *m.shape)
    lr: float
    step: int = 0


def init_adam(n_params: int, lr: float) -> AdamState:
    return AdamState(m=np.zeros(n_params), v=np.zeros(n_params),
                     scratch=np.empty((2, n_params)), lr=lr)


def adam_step(values: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update of values, m and v in place; returns values.

    The operations and their order are those of the textbook expression
    values - lr * (m / c1) / (sqrt(v / c2) + eps), so the result is bit-exact.
    """
    if values.shape != grads.shape or values.shape != state.m.shape:
        raise ValueError("parameter/gradient/state layout mismatch")
    state.step += 1
    m, v = state.m, state.v
    a, b = state.scratch
    m *= BETA1
    m += np.multiply(grads, 1.0 - BETA1, out=a)
    v *= BETA2
    np.multiply(grads, grads, out=a)
    a *= 1.0 - BETA2
    v += a
    np.divide(m, 1.0 - BETA1**state.step, out=a)
    a *= state.lr
    np.divide(v, 1.0 - BETA2**state.step, out=b)
    np.sqrt(b, out=b)
    b += EPS
    a /= b
    values -= a
    return values


# ---------------------------------------------------------------------------
# Activations


def softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# Dummy baselines


class DummyMeanModel:
    """Predicts the training-target mean for every input."""

    kind = "dummy-mean"

    def __init__(self):
        self.layout = ParamLayout((("mean", (1,)),))
        self.values = np.zeros(1)

    def fit(self, train_targets) -> "DummyMeanModel":
        arr = np.asarray(train_targets, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot fit on an empty training set")
        self.values = np.array([arr.mean()])
        return self

    def predict(self, X, stations=None) -> np.ndarray:
        return np.full(len(X), self.values[0])

    def spec_dict(self) -> dict:
        return {"kind": self.kind}


class DummyGaussianModel:
    """Samples predictions from N(train mean, train population std); unclamped."""

    kind = "dummy-gauss"

    def __init__(self, seed: int = 0):
        self.layout = ParamLayout((("mean", (1,)), ("std", (1,))))
        self.values = np.zeros(2)
        self.seed = seed

    def fit(self, train_targets) -> "DummyGaussianModel":
        arr = np.asarray(train_targets, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot fit on an empty training set")
        self.values = np.array([arr.mean(), arr.std()])
        return self

    def predict(self, X, stations=None) -> np.ndarray:
        rng = rng_from(self.seed, STREAM_GAUSS)
        return rng.normal(self.values[0], self.values[1], size=len(X))

    def spec_dict(self) -> dict:
        return {"kind": self.kind}


# ---------------------------------------------------------------------------
# Linear regression


class LinearRegressor(_BoundParams):
    """y_hat = w.x + b on standardized features; raw (linear) output."""

    kind = "lr"

    def __init__(self, input_dim: int, seed: int = 0):
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        self.input_dim = input_dim
        super().__init__(ParamLayout((("w", (input_dim,)), ("b", (1,)))))
        rng = rng_from(seed, STREAM_INIT)
        bound = np.sqrt(1.0 / input_dim)
        self.values = rng.uniform(-bound, bound, size=self.layout.total)

    def _wb(self, values):
        return values[: self.input_dim], values[self.input_dim]

    def predict(self, X, stations=None) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.input_dim:
            raise ValueError("feature dimension mismatch")
        w, b = self._wb(self.values)
        return X @ w + b

    def loss_and_grad(self, X, stations, y, rng=None) -> tuple[float, np.ndarray]:
        """Batch-mean MSE and its exact gradient."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] == 0:
            raise ValueError("empty batch")
        preds = self.predict(X)
        residual = preds - y
        loss = float(np.mean(residual**2))
        scale = 2.0 / X.shape[0]
        grad = np.concatenate([scale * (X.T @ residual), [scale * residual.sum()]])
        return loss, grad

    def spec_dict(self) -> dict:
        return {"kind": self.kind, "input_dim": self.input_dim}


# ---------------------------------------------------------------------------
# Tabular MLP with station embedding


@dataclass(frozen=True)
class MlpSpec:
    """Architecture knobs; the reserved unknown-station row is cardinality + 1."""

    numeric_input_dim: int
    embedding_cardinality: int
    embedding_dim: int = 16
    hidden: tuple[int, ...] = (128, 128, 64)
    dropout_rate: float = 0.2

    def __post_init__(self):
        if self.numeric_input_dim <= 0 or self.embedding_cardinality <= 0:
            raise ValueError("input dimensions must be positive")
        if self.embedding_dim <= 0 or any(h <= 0 for h in self.hidden):
            raise ValueError("layer sizes must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


def _mlp_layout(spec: MlpSpec) -> ParamLayout:
    segments: list[tuple[str, tuple[int, ...]]] = [
        ("embed", (spec.embedding_cardinality + 1, spec.embedding_dim))
    ]
    dims = [spec.embedding_dim + spec.numeric_input_dim, *spec.hidden, 1]
    for i in range(len(dims) - 1):
        segments.append((f"w{i}", (dims[i], dims[i + 1])))
        segments.append((f"b{i}", (dims[i + 1],)))
    return ParamLayout(tuple(segments))


class MlpRegressor(_BoundParams):
    """Embedding + feed-forward head with ReLU, inverted dropout, Softplus output.

    The layer views of the parameter buffer, and of a second buffer that the
    gradient accumulates in, are bound once.
    """

    kind = "mlp"

    def __init__(self, spec: MlpSpec, seed: int = 0):
        super().__init__(_mlp_layout(spec))
        self.spec = spec
        self.n_layers = len(spec.hidden) + 1
        self.unknown_index = spec.embedding_cardinality
        self._grad = np.empty(self.layout.total)
        params, grads = self.layout.views(self._values), self.layout.views(self._grad)
        self._embed, self._grad_embed = params["embed"], grads["embed"]
        # (weight, bias) per layer, of the parameters and of the gradient.
        self._layers = [(params[f"w{i}"], params[f"b{i}"]) for i in range(self.n_layers)]
        self._grad_layers = [(grads[f"w{i}"], grads[f"b{i}"]) for i in range(self.n_layers)]
        self._init_values(rng_from(seed, STREAM_INIT))

    def _init_values(self, rng) -> None:
        for name, (sl, shape) in self.layout.slices.items():
            if name == "embed":
                self._values[sl] = rng.normal(0.0, 0.1, size=shape).ravel()
            else:
                if len(shape) == 2:
                    fan_in = shape[0]  # each bias b{i} follows w{i} and shares its fan-in
                bound = np.sqrt(1.0 / fan_in)
                self._values[sl] = rng.uniform(-bound, bound, size=math.prod(shape))

    def _check_inputs(self, X, stations):
        X = np.asarray(X, dtype=float)
        stations = np.asarray(stations, dtype=int)
        if X.shape[1] != self.spec.numeric_input_dim:
            raise ValueError("numeric feature dimension mismatch")
        if np.any(stations < 0) or np.any(stations > self.unknown_index):
            raise ValueError("station index out of range")
        return X, stations

    def _forward(self, X, stations, train: bool, rng):
        h = np.concatenate([self._embed[stations], X], axis=1)
        cache = {"stations": stations, "inputs": [], "pre": [], "masks": []}
        p = self.spec.dropout_rate
        for i, (w, b) in enumerate(self._layers):
            cache["inputs"].append(h)
            z = h @ w
            z += b
            cache["pre"].append(z)
            if i < self.n_layers - 1:
                h = np.maximum(z, 0.0)
                if train and p > 0.0:
                    mask = (rng.random(h.shape) >= p) / (1.0 - p)
                    h *= mask
                else:
                    mask = None
                cache["masks"].append(mask)
        preds = softplus(z[:, 0])
        return preds, cache

    def predict(self, X, stations) -> np.ndarray:
        """Eval-mode forward: dropout off, deterministic."""
        X, stations = self._check_inputs(X, stations)
        preds, _ = self._forward(X, stations, train=False, rng=None)
        return preds

    def forward_train(self, X, stations, rng) -> tuple[np.ndarray, dict]:
        X, stations = self._check_inputs(X, stations)
        return self._forward(X, stations, train=True, rng=rng)

    def loss_and_grad(self, X, stations, y, rng) -> tuple[float, np.ndarray]:
        """Batch-mean MSE and its exact reverse-mode gradient (a new array)."""
        y = np.asarray(y, dtype=float)
        preds, cache = self.forward_train(X, stations, rng)
        n = y.size
        residual = preds - y
        loss = float(np.mean(residual**2))

        self._grad.fill(0.0)
        dz = ((2.0 / n) * residual * sigmoid(cache["pre"][-1][:, 0]))[:, None]
        for i in reversed(range(self.n_layers)):
            (w, _), (grad_w, grad_b) = self._layers[i], self._grad_layers[i]
            grad_w += cache["inputs"][i].T @ dz
            grad_b += dz.sum(axis=0)
            if i > 0:
                dz = dz @ w.T
                mask = cache["masks"][i - 1]
                if mask is not None:
                    dz *= mask
                dz *= cache["pre"][i - 1] > 0.0
        # Only the embedding columns of the first layer's input gradient are
        # used; the whole product is kept, as BLAS may round a narrower one apart.
        d_embed = (dz @ self._layers[0][0].T)[:, : self.spec.embedding_dim]
        np.add.at(self._grad_embed, cache["stations"], d_embed)
        return loss, self._grad.copy()

    def spec_dict(self) -> dict:
        return {
            "kind": self.kind,
            "numeric_input_dim": self.spec.numeric_input_dim,
            "embedding_cardinality": self.spec.embedding_cardinality,
            "embedding_dim": self.spec.embedding_dim,
            "hidden": list(self.spec.hidden),
            "dropout_rate": self.spec.dropout_rate,
            "activation": "relu",
            "output": "softplus",
        }
