"""Per-example reference for the batched net core.

This is the one-book-at-a-time forward and backward pass that the batched
``bookpred.net`` replaced: im2col windows per conv window, matrix-vector
dense layers, and one dropout draw per example. The differential tests
compare the batched core against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from bookpred import net


@dataclass
class RefCache:
    windows: list[np.ndarray]  # per window: (T, w*input_dim) im2col rows
    conv_pre: list[np.ndarray]  # per window: (T, filters) pre-ReLU maps
    argmax: list[np.ndarray]  # per window: (filters,) max-over-time index
    pooled: np.ndarray
    keep_mask: np.ndarray | None
    fused: np.ndarray
    z1: np.ndarray
    h: np.ndarray


def forward(params, x, readability_scaled, train_mode, rng):
    """2 logits and the cache for one example."""
    cfg = params.config
    windows, conv_pre, argmax = [], [], []
    keep_mask = None
    if cfg.arch == "book2vec":
        fused = x
        pooled = np.zeros(0)
    else:
        pooled_parts = []
        f = cfg.filters_per_window
        for w, kernel, bias in zip(cfg.window_sizes, params.conv_kernels, params.conv_biases):
            t = cfg.n_chunks - w + 1
            win = sliding_window_view(x, (w, cfg.input_dim)).reshape(t, w * cfg.input_dim)
            pre = win @ kernel.reshape(f, -1).T + bias
            relu_map = np.maximum(pre, 0.0)
            idx = np.argmax(relu_map, axis=0)
            windows.append(win)
            conv_pre.append(pre)
            argmax.append(idx)
            pooled_parts.append(relu_map[idx, np.arange(f)])
        pooled = np.concatenate(pooled_parts)
        dropped = pooled
        if train_mode and cfg.dropout_p > 0.0:
            keep_prob = 1.0 - cfg.dropout_p
            keep_mask = rng.random(pooled.shape) < keep_prob
            dropped = pooled * keep_mask / keep_prob
        fused = np.concatenate([dropped, readability_scaled]) if cfg.use_readability else dropped
    z1 = params.dense1_w @ fused + params.dense1_b
    h = np.maximum(z1, 0.0)
    logits = params.dense2_w @ h + params.dense2_b
    return logits, RefCache(windows, conv_pre, argmax, pooled, keep_mask, fused, z1, h)


def backward_from_dlogits(params, cache, dlogits):
    """Per-tensor gradients and the readability gradient for one example."""
    cfg = params.config
    grads = {}
    grads["dense2_w"] = np.outer(dlogits, cache.h)
    grads["dense2_b"] = dlogits.copy()
    dh = params.dense2_w.T @ dlogits
    dz1 = dh * (cache.z1 > 0.0)
    grads["dense1_w"] = np.outer(dz1, cache.fused)
    grads["dense1_b"] = dz1.copy()
    dfused = params.dense1_w.T @ dz1
    if cfg.arch == "book2vec":
        return grads, None
    if cfg.use_readability:
        d_readability = dfused[-net.N_READABILITY:].copy()
        d_dropped = dfused[: -net.N_READABILITY]
    else:
        d_readability = None
        d_dropped = dfused
    if cache.keep_mask is not None:
        dpooled = d_dropped * cache.keep_mask / (1.0 - cfg.dropout_p)
    else:
        dpooled = d_dropped
    f = cfg.filters_per_window
    offset = 0
    for i, w in enumerate(cfg.window_sizes):
        g = dpooled[offset : offset + f]
        offset += f
        idx = cache.argmax[i]
        gate = cache.conv_pre[i][idx, np.arange(f)] > 0.0
        g_eff = g * gate
        dk_flat = g_eff[:, None] * cache.windows[i][idx]
        grads[f"conv{w}_kernel"] = dk_flat.reshape(f, w, cfg.input_dim)
        grads[f"conv{w}_bias"] = g_eff
    return grads, d_readability


def loss_backward(params, cache, label):
    """Cross-entropy gradients for one example."""
    z = params.dense2_w @ cache.h + params.dense2_b
    e = np.exp(z - z.max())
    dlogits = e / e.sum()
    dlogits[net.label_index(label)] -= 1.0
    return backward_from_dlogits(params, cache, dlogits)


def batch_step(params, x, readability, labels, rows, rng):
    """What the training loop did per mini-batch before batching: one
    forward and backward per example, gradients summed then scaled by
    1/B. Returns (logits, caches, mean grads, per-example readability
    gradients)."""
    logits, caches, grad_sum, d_read = [], [], None, []
    for b, i in enumerate(rows):
        r = None if readability is None else readability[i]
        lg, cache = forward(params, x[i], r, train_mode=True, rng=rng)
        grads, dr = loss_backward(params, cache, labels[b])
        logits.append(lg)
        caches.append(cache)
        d_read.append(dr)
        if grad_sum is None:
            grad_sum = grads
        else:
            for name in grad_sum:
                grad_sum[name] += grads[name]
    scale = 1.0 / len(rows)
    mean = {name: g * scale for name, g in grad_sum.items()}
    return np.array(logits), caches, mean, d_read
