"""Small numerical kernels shared by every learning module.

Everything runs in 64-bit floats: the gradient checks elsewhere in the
package compare analytic and finite-difference derivatives at 1e-4 relative
tolerance, which float32 cannot support.

Randomness goes through :func:`make_rng`, a seeded PCG64 generator, so any
experiment can be replayed exactly from the seed recorded in its checkpoint.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Seeded deterministic random generator (NumPy PCG64).

    Equal seeds produce identical streams on every platform, which is the
    reproducibility contract all training and generation code relies on.
    """
    return np.random.Generator(np.random.PCG64(seed))


def softmax(v: np.ndarray) -> np.ndarray:
    """exp(v_i) / sum_j exp(v_j) along the last axis, so a (T, K) array
    gives one probability row per step.

    Always subtracts the max first: callers feed logits whose spread covers
    many orders of magnitude (e.g. per-model log-likelihoods).
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    e = np.exp(v - v.max(axis=-1, keepdims=True))  # methods: cheaper than np.max per step
    return e / e.sum(axis=-1, keepdims=True)


def finite_diff_grad(
    f: Callable[[np.ndarray], float], p: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient (f(p+eps*e_i) - f(p-eps*e_i)) / (2 eps).

    Used as the independent oracle against hand-written backpropagation.
    ``f`` must be scalar-valued and finite near ``p``.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    p = np.asarray(p, dtype=float)
    grad = np.zeros_like(p)
    work = p.copy()
    for i in range(p.size):
        orig = work.flat[i]
        work.flat[i] = orig + eps
        f_plus = f(work)
        work.flat[i] = orig - eps
        f_minus = f(work)
        work.flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"objective returned a non-finite value near coordinate {i}")
        grad.flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||_2, passing an all-zero vector through unchanged."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return v.copy()
    return v / norm
