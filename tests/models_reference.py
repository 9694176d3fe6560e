"""Reference MLP training step: the allocating forward, backward and Adam.

The model's step works in bound buffers and updates in place; these are the
textbook expressions it must reproduce bit for bit. Each call rebuilds the
parameter views, allocates a fresh gradient and returns new Adam arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fedcharge.models import MlpRegressor, sigmoid, softplus


def views(model: MlpRegressor, values: np.ndarray) -> dict[str, np.ndarray]:
    out = {}
    offset = 0
    for name, shape in model.layout.segments:
        size = int(np.prod(shape))
        out[name] = values[offset : offset + size].reshape(shape)
        offset += size
    return out


def forward(model: MlpRegressor, X, stations, train: bool, rng):
    """(predictions, cache) of one forward pass at the model's values."""
    params = views(model, model.values.copy())
    h = np.concatenate([params["embed"][stations], X], axis=1)
    cache = {"stations": stations, "inputs": [], "pre": [], "masks": []}
    p = model.spec.dropout_rate
    for i in range(model.n_layers):
        cache["inputs"].append(h)
        z = h @ params[f"w{i}"] + params[f"b{i}"]
        cache["pre"].append(z)
        if i < model.n_layers - 1:
            h = np.maximum(z, 0.0)
            if train and p > 0.0:
                mask = (rng.random(h.shape) >= p) / (1.0 - p)
            else:
                mask = None
            cache["masks"].append(mask)
            if mask is not None:
                h = h * mask
    preds = softplus(cache["pre"][-1][:, 0])
    return preds, cache


def loss_and_grad(model: MlpRegressor, X, stations, y, rng) -> tuple[float, np.ndarray]:
    """Batch-mean MSE and its reverse-mode gradient at the model's values."""
    X = np.asarray(X, dtype=float)
    stations = np.asarray(stations, dtype=int)
    y = np.asarray(y, dtype=float)
    preds, cache = forward(model, X, stations, True, rng)
    n = y.size
    residual = preds - y
    loss = float(np.mean(residual**2))

    params = views(model, model.values.copy())
    grad = np.zeros(model.layout.total)
    gviews = views(model, grad)

    z_out = cache["pre"][-1]
    dz = ((2.0 / n) * residual * sigmoid(z_out[:, 0]))[:, None]
    for i in reversed(range(model.n_layers)):
        h_in = cache["inputs"][i]
        gviews[f"w{i}"] += h_in.T @ dz
        gviews[f"b{i}"] += dz.sum(axis=0)
        dh = dz @ params[f"w{i}"].T
        if i > 0:
            mask = cache["masks"][i - 1]
            if mask is not None:
                dh = dh * mask
            dz = dh * (cache["pre"][i - 1] > 0.0)
    d_embed = dh[:, : model.spec.embedding_dim]
    np.add.at(gviews["embed"], cache["stations"], d_embed)
    return loss, grad


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(n_params: int, lr: float = 1e-3) -> AdamState:
    return AdamState(m=np.zeros(n_params), v=np.zeros(n_params), lr=lr)


def adam_step(values: np.ndarray, grads: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update; rebinds state.m and state.v, returns new values."""
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads**2
    m_hat = state.m / (1.0 - state.beta1**state.step)
    v_hat = state.v / (1.0 - state.beta2**state.step)
    return values - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
