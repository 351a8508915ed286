"""Reference Adam: the per-tensor loop, one parameter at a time.

This is the direct form of ``convcnp.autodiff.adam_step``: every parameter
keeps its own value, gradient, moments and step count, and each update
builds fresh arrays.  The package's step runs in place over the store's
flat vectors and must match this loop bit for bit.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class Param:
    value: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def reference_params(arrays: dict) -> dict:
    """One :class:`Param` per array, with zero gradient and moments."""
    params = {}
    for name, value in arrays.items():
        value = np.array(value, dtype=np.float64)
        params[name] = Param(
            value=value,
            grad=np.zeros_like(value),
            m=np.zeros_like(value),
            v=np.zeros_like(value),
        )
    return params


def reference_adam_step(
    params: dict,
    lr: float,
    weight_decay: float = 0.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    for p in params.values():
        if weight_decay:
            p.value -= lr * weight_decay * p.value
        p.step += 1
        p.m = beta1 * p.m + (1.0 - beta1) * p.grad
        p.v = beta2 * p.v + (1.0 - beta2) * p.grad**2
        m_hat = p.m / (1.0 - beta1**p.step)
        v_hat = p.v / (1.0 - beta2**p.step)
        p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p.grad[...] = 0.0
