"""Shared test oracles: central finite differences for gradient checks.

The numeric side only ever calls the forward pass (outside any tape), so
it stays independent of the backward rules it verifies.
"""
import numpy as np

from mcm.tensor import Tape, apply_op, backward


def numerical_grad(value_fn, tensor, h=1e-5):
    """Central-difference gradient of scalar value_fn() w.r.t. one tensor,
    perturbing its data in place."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = value_fn()
        flat[i] = orig - h
        fm = value_fn()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def gradcheck(build_loss, params, h=1e-5):
    """Worst relative error between reverse-mode and finite-difference
    gradients over ``params``.

    ``build_loss()`` must rerun the full forward pass and return the scalar
    loss tensor; it is called under a tape once for the analytic side and
    tapelessly many times for the numeric side.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = build_loss()
    backward(loss, tape)
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = numerical_grad(lambda: float(build_loss().data), p, h)
        worst = max(worst, max_rel_err(analytic, numeric))
    return worst


def away_from_zero(rng, shape, low=0.2, high=1.5):
    """Random values with |x| >= low, for checking kinked ops (relu, max)
    at points where they are differentiable."""
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def weighted_sum(x, r):
    """Scalar sum(x * r) as one tape node whose gradient is r."""
    return apply_op(np.asarray(float((x.data * r).sum())), (x,), lambda g: (g * r,))
