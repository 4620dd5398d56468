"""Finite-difference gradient checking shared by the test modules."""

from __future__ import annotations

import numpy as np

from promptmt.model import forward, loss


def batch_loss(params, config, batch, dropout_seed=None):
    """Loss of one forward pass; with a dropout_seed, dropout draws its
    masks from a generator seeded afresh, so every call drops the same
    units."""
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    logits, _ = forward(params, config, batch, rng)
    return loss(logits, batch)


def central_difference(params, config, batch, name, index, h=1e-4, dropout_seed=None):
    """d loss / d params[name][index] by central differences."""
    tensor = params[name]
    original = tensor[index]
    tensor[index] = original + h
    up = batch_loss(params, config, batch, dropout_seed)
    tensor[index] = original - h
    down = batch_loss(params, config, batch, dropout_seed)
    tensor[index] = original
    return (up - down) / (2.0 * h)


def check_gradients(params, config, batch, grads, rng, samples_per_tensor=20, h=1e-4,
                    dropout_seed=None):
    """Max relative error between analytic and FD gradients.

    Samples up to samples_per_tensor random entries from every tensor.
    Relative error is |analytic - fd| / (|fd| + 1e-8). With a dropout_seed,
    grads must come from a pass whose dropout generator had that seed.
    """
    worst = 0.0
    worst_name = None
    for name in sorted(params):
        size = params[name].size
        n = min(samples_per_tensor, size)
        flat_choices = rng.choice(size, size=n, replace=False)
        for flat in flat_choices:
            index = np.unravel_index(flat, params[name].shape)
            fd = central_difference(params, config, batch, name, index, h, dropout_seed)
            analytic = grads[name][index]
            rel = abs(analytic - fd) / (abs(fd) + 1e-8)
            if rel > worst:
                worst, worst_name = rel, (name, index)
    return worst, worst_name
