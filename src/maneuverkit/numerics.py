"""Small numerical kernels shared by every learning module.

Everything runs in 64-bit floats: the gradient checks elsewhere in the
package compare analytic derivatives with central differences of step
``FD_EPS`` at 1e-4 relative tolerance, which float32 cannot support.

Randomness goes through :func:`make_rng`, a seeded PCG64 generator, so any
experiment can be replayed exactly from the seed recorded in its checkpoint.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

FD_EPS = 1e-5  # central-difference step of the gradient oracle


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


def finite_diff_grad(f: Callable[[np.ndarray], float], p: np.ndarray) -> np.ndarray:
    """Central-difference gradient (f(p+eps*e_i) - f(p-eps*e_i)) / (2 eps)
    with eps = ``FD_EPS``.

    Used as the independent oracle against hand-written backpropagation.
    ``f`` must be scalar-valued and finite near ``p``.
    """
    p = np.asarray(p, dtype=float)
    grad = np.zeros_like(p)
    work = p.copy()
    for i in range(p.size):
        orig = work.flat[i]
        work.flat[i] = orig + FD_EPS
        f_plus = f(work)
        work.flat[i] = orig - FD_EPS
        f_minus = f(work)
        work.flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError(f"objective returned a non-finite value near coordinate {i}")
        grad.flat[i] = (f_plus - f_minus) / (2.0 * FD_EPS)
    return grad


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """v / ||v||_2, passing an all-zero vector through unchanged."""
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return v.copy()
    return v / norm


class Padded(NamedTuple):
    """Sequences stacked along a leading batch axis and zero-padded to the
    longest; whatever lies past a sequence's end is padding."""

    xs: np.ndarray       # (B, T, dx)
    zs: np.ndarray       # (B, T, dz)
    lengths: np.ndarray  # (B,) steps per sequence, 1..T


def pad_sequences(sequences: list[tuple[np.ndarray, np.ndarray]]) -> Padded:
    """Stack (xs, zs) pairs of any lengths into one zero-padded batch."""
    pairs = [(np.asarray(xs, dtype=float), np.asarray(zs, dtype=float)) for xs, zs in sequences]
    for xs, zs in pairs:
        if xs.ndim != 2 or zs.ndim != 2 or xs.shape[0] != zs.shape[0] or xs.shape[0] == 0:
            raise ValueError(f"need equal-length nonempty streams, got {xs.shape} and {zs.shape}")
    lengths = np.array([xs.shape[0] for xs, _ in pairs])
    B, T = len(pairs), int(lengths.max())
    xs_pad = np.zeros((B, T, pairs[0][0].shape[1]))
    zs_pad = np.zeros((B, T, pairs[0][1].shape[1]))
    for k, (xs, zs) in enumerate(pairs):
        xs_pad[k, : xs.shape[0]] = xs
        zs_pad[k, : zs.shape[0]] = zs
    return Padded(xs_pad, zs_pad, lengths)


def as_block(
    xs: np.ndarray, zs: np.ndarray, lengths: np.ndarray | None = None
) -> tuple[Padded, bool]:
    """Paired streams as a checked padded block, and whether they were one
    (T, ·) sequence, which becomes a block of one.  A (B, T, ·) block keeps
    its per-sequence ``lengths``, all T when omitted."""
    xs = np.asarray(xs, dtype=float)
    zs = np.asarray(zs, dtype=float)
    single = xs.ndim == 2
    if single:
        xs, zs = xs[None], zs[None]
    if xs.ndim != 3 or zs.ndim != 3 or xs.shape[:2] != zs.shape[:2] or 0 in xs.shape[:2]:
        raise ValueError(f"need equal-length nonempty streams, got {xs.shape} and {zs.shape}")
    B, T = xs.shape[:2]
    lengths = np.full(B, T) if lengths is None else np.asarray(lengths)
    if lengths.shape != (B,) or lengths.min() < 1 or lengths.max() > T:
        raise ValueError(f"need one length in [1, {T}] per sequence, got {lengths!r}")
    return Padded(xs, zs, lengths), single
