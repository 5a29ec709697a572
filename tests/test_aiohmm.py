import decimal
import itertools
import logging
import math
import warnings
from dataclasses import FrozenInstanceError, asdict, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maneuverkit import aiohmm, synth
from maneuverkit.aiohmm import (
    AioHmmEnsemble,
    AioHmmModel,
    BOUND_STEPS,
    COV_FLOOR,
    MEAN_ROUNDS,
    EmConfig,
    LOG_2PI,
    Padded,
    PosteriorStats,
    _floor_covariance,
    _init_model,
    _min_norm_solver,
    _shifted_logits,
    _update_mean_params,
    _update_transitions,
    block_forward,
    emission_logprobs,
    emission_scales,
    emissions,
    fit_em,
    transition_inputs,
    forward_backward,
    log_forward,
    log_forward_step,
    log_transitions,
    m_step,
    pad_sequences,
    sample_sequence,
    sequence_loglik,
    shifted_observations,
)
from maneuverkit.anticipation import AioHmmPredictor
from maneuverkit.events import EVENTS, SETTINGS
from maneuverkit.numerics import finite_diff_grad, make_rng, softmax


def random_model(rng, S, dz, dx, variant="aio", scale=0.3):
    dt = dx if variant != "hmm" else 1
    sig = []
    for _ in range(S):
        A = rng.standard_normal((dz, dz)) * scale
        sig.append(A @ A.T + np.eye(dz))
    pi = rng.uniform(0.2, 1.0, S)
    pi /= pi.sum()
    m = AioHmmModel(
        variant=variant,
        mu=rng.standard_normal((S, dz)),
        a=rng.standard_normal((S, dx)) * scale if variant != "hmm" else np.zeros((S, dx)),
        b=rng.standard_normal((S, dz)) * scale if variant == "aio" else np.zeros((S, dz)),
        sigma=np.stack(sig),
        w=rng.standard_normal((S, S, dt)) * 0.5,
        pi=pi,
    )
    m.validate()
    return m


def emission_logpdf(m, i, z, x, z_prev):
    """Gaussian log density of one observation under state i."""
    logb = emission_logprobs(emissions([m]), np.asarray(x, float)[None, :], np.asarray(z, float)[None, :],
                             np.asarray(z_prev, float)[None, :])
    return float(logb[0, i])


def per_state_emission_logprobs(m, xs, zs, whiten=None):
    """The batched kernel's math as a loop over states, in state order: one
    factorization per covariance, its log-determinant, and the residuals
    whitened by ``whiten(chol, resid.T)``, which defaults to the kernel's
    own product with the inverse factor."""
    if whiten is None:
        whiten = lambda chol, r: np.linalg.inv(chol) @ r
    scales = emission_scales(m, xs, shifted_observations(zs))
    T, S, dz = zs.shape[0], m.states, m.dim_z
    out = np.empty((T, S))
    for i in range(S):
        chol = np.linalg.cholesky(m.sigma[i])
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        resid = zs - scales[:, i][:, None] * m.mu[i]
        y = whiten(chol, resid.T)
        quad = np.sum(y * y, axis=0)
        out[:, i] = -0.5 * (dz * math.log(2.0 * math.pi) + logdet + quad)
    return out


def flagged_inputs(flag):
    """x_t sampler like the lane flags and speeds: a binary flag constant
    within the sequence next to two nearly collinear columns."""
    def sample(rng):
        v = rng.standard_normal()
        return np.array([flag, v, 2.0 * v + 1e-6 * rng.standard_normal()])
    return sample


def enumeration_loglik(m: AioHmmModel, xs: np.ndarray, zs: np.ndarray) -> float:
    """Brute force over all S^T state paths, written independently of the
    library's transition/emission code (own softmax, own Gaussian density)."""
    T, S, dz = xs.shape[0], m.states, m.dim_z
    z_prev = np.vstack([np.zeros(dz), zs[:-1]])
    x_eff = xs if m.variant != "hmm" else np.ones((T, 1))

    def log_emission(i, t):
        s = 1.0 + float(m.a[i] @ xs[t])
        if m.variant == "aio":
            s += float(m.b[i] @ z_prev[t])
        mean = s * m.mu[i]
        diff = zs[t] - mean
        inv = np.linalg.inv(m.sigma[i])
        sign, logdet = np.linalg.slogdet(m.sigma[i])
        assert sign > 0
        return -0.5 * (dz * math.log(2 * math.pi) + logdet + float(diff @ inv @ diff))

    def log_transition(i, j, t):
        logits = m.w[i] @ x_eff[t]
        return float(logits[j] - (logits.max() + math.log(np.sum(np.exp(logits - logits.max())))))

    path_terms = []
    for path in itertools.product(range(S), repeat=T):
        if m.pi[path[0]] == 0.0:
            continue  # impossible path
        lp = math.log(m.pi[path[0]]) + log_emission(path[0], 0)
        for t in range(1, T):
            lp += log_transition(path[t - 1], path[t], t) + log_emission(path[t], t)
        path_terms.append(lp)
    hi = max(path_terms)
    return hi + math.log(sum(math.exp(v - hi) for v in path_terms))


def transition_objectives(w, Xe, Xi):
    """(S,) expected transition log-likelihood per source state, one state
    at a time with its own log-softmax."""
    out = np.empty(w.shape[0])
    for i in range(w.shape[0]):
        logits = Xe @ w[i].T
        hi = logits.max(axis=1, keepdims=True)
        logp = logits - hi - np.log(np.exp(logits - hi).sum(axis=1, keepdims=True))
        out[i] = np.sum(Xi[:, i, :] * logp)
    return out


def reference_forward_backward(m, xs, zs):
    """The per-sequence scaled recursion that the padded batch replaced,
    with its own softmax transition matrices.  Returns (gamma, xi, loglik);
    raises FloatingPointError where the scaled recursion underflows."""
    T, S = xs.shape[0], m.states
    logb = emission_logprobs(emissions([m]), xs, zs, shifted_observations(zs))
    shift = logb.max(axis=1)
    if not np.all(np.isfinite(shift)):
        raise FloatingPointError("all emission densities vanished")
    b = np.exp(logb - shift[:, None])
    logits = np.einsum("ijk,tk->tij", m.w, xs if m.variant != "hmm" else np.ones((T, 1)))
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    A = e / e.sum(axis=2, keepdims=True)

    alpha = np.empty((T, S))
    scale = np.empty(T)
    for t in range(T):
        alpha[t] = m.pi * b[0] if t == 0 else (alpha[t - 1] @ A[t]) * b[t]
        scale[t] = alpha[t].sum()
        if scale[t] <= 0.0:
            raise FloatingPointError(f"forward pass underflowed at step {t}")
        alpha[t] /= scale[t]

    beta = np.empty((T, S))
    beta[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[t] = (A[t + 1] @ (b[t + 1] * beta[t + 1])) / scale[t + 1]
    xi = np.empty((T - 1, S, S))
    for t in range(1, T):
        xi[t - 1] = (alpha[t - 1][:, None] * A[t]) * (b[t] * beta[t])[None, :] / scale[t]
    return alpha * beta, xi, float(np.sum(np.log(scale)) + np.sum(shift))


def assert_batch_matches_reference(m, seqs, stats, skip=()):
    """Each sequence's gamma and xi within 1e-12, its log-likelihood within
    1e-12 relative, and zeros past its end."""
    for k, (xs, zs) in enumerate(seqs):
        if k in skip:
            continue
        T = xs.shape[0]
        gamma, xi, loglik = reference_forward_backward(m, xs, zs)
        np.testing.assert_allclose(stats.gamma[k, :T], gamma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stats.xi[k, : T - 1], xi, rtol=0, atol=1e-12)
        assert abs(stats.loglik[k] - loglik) <= 1e-12 * (1.0 + abs(loglik))
        assert not np.any(stats.gamma[k, T:]) and not np.any(stats.xi[k, T - 1 :])


def saturated_chain_model():
    """Transitions pinned to state 0, but only state 1 can emit z = 50."""
    m = AioHmmModel(
        variant="aio",
        mu=np.array([[0.0], [50.0]]),
        a=np.zeros((2, 1)),
        b=np.zeros((2, 1)),
        sigma=np.full((2, 1, 1), 1e-4),
        w=np.array([[[900.0], [-900.0]], [[900.0], [-900.0]]]),
        pi=np.array([1.0, 0.0]),
    )
    m.validate()
    return m


def _transition_gradient(
    w: np.ndarray, Xe: np.ndarray, Xi: np.ndarray, n: np.ndarray | None = None
) -> np.ndarray:
    """(S, S, dt) gradient of the expected transition log-likelihood in w.

    Xe: (R, dt) transition inputs for every within-sequence step t >= 2;
    Xi: (R, S, S) matching transition posteriors; n: their visit counts
    Xi.sum(axis=2), when the caller already has them.  The logits are one
    (S*S, dt) @ (dt, R) product and the gradient one (S*S, R) @ (R, dt)
    product.  The arithmetic runs in the (S, S, R) layout, so Xi and n
    that are transposed views of (S, S, R) and (S, R) arrays cost no copy.
    """
    S, R = w.shape[0], Xe.shape[0]
    if n is None:
        n = Xi.sum(axis=2)
    probs = np.exp(_shifted_logits(w, Xe))
    probs /= probs.sum(axis=1, keepdims=True)
    coeff = Xi.transpose(1, 2, 0) - n.T[:, None, :] * probs
    return (coeff.reshape(S * S, R) @ Xe).reshape(w.shape)


def gradient_update_transitions(
    w: np.ndarray, Xe: np.ndarray, Xi: np.ndarray, steps: int
) -> np.ndarray:
    """The bound ascent that forms each step's gradient, as it was before
    the inputs were scaled by the steps once, verbatim."""
    w = w.copy()
    if Xe.shape[0] == 0:
        return w
    xi = np.ascontiguousarray(Xi.transpose(1, 2, 0))                   # (S, S, R)
    n = xi.sum(axis=1)                                                  # (S, R)
    M = np.einsum("ir,rk,rl->ikl", n, Xe, Xe)                           # (S, dt, dt)
    dt = M.shape[1]
    ridge = 1e-10 * (1.0 + np.trace(M, axis1=1, axis2=2) / dt)
    step = 2.0 * np.linalg.inv(M + ridge[:, None, None] * np.eye(dt))
    Xi, n = xi.transpose(2, 0, 1), n.T  # the gradient's (R, S, S) and (R, S) views of that layout
    for _ in range(steps):
        w += _transition_gradient(w, Xe, Xi, n) @ step
    return w


def decimal_inverse(A):
    """The inverse of the square matrix ``A``, a list of rows of Decimals,
    by Gauss-Jordan elimination with partial pivoting in the current
    decimal context."""
    n = len(A)
    aug = [row + [Decimal(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        p = max(range(c, n), key=lambda r: abs(aug[r][c]))
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(n):
            if r != c:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def decimal_update_transitions(w, Xe, Xi, steps, digits=34):
    """The bound ascent of ``_update_transitions`` in ``digits``-digit
    decimal arithmetic, from the exact values of its float inputs, rounded
    to float at the end: each step adds G_i 2 (M_i + ridge_i I)^-1 to w_i,
    with the inverse from :func:`decimal_inverse`.  At 34 digits, a cond(M_i)
    of 1e11 leaves every weight far more digits than a double holds."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        S, dt = w.shape[0], Xe.shape[1]
        W = [[[Decimal(v) for v in row] for row in wi] for wi in w.tolist()]
        rows = [([Decimal(v) for v in x], [[Decimal(v) for v in row] for row in xi])
                for x, xi in zip(Xe.tolist(), Xi.tolist())]
        for i in range(S):
            live = [(x, xi[i], sum(xi[i])) for x, xi in rows if any(xi[i])]  # rows whose n_r > 0
            M = [[sum((n * x[k] * x[l] for x, _, n in live), Decimal(0)) for l in range(dt)] for k in range(dt)]
            ridge = Decimal(1e-10) * (1 + sum(M[k][k] for k in range(dt)) / dt)
            inv = decimal_inverse([[M[k][l] + (ridge if k == l else 0) for l in range(dt)] for k in range(dt)])
            wi = W[i]
            for _ in range(steps):
                G = [[Decimal(0)] * dt for _ in range(S)]
                for x, xi, n in live:
                    logits = [sum(a * b for a, b in zip(wij, x)) for wij in wi]
                    top = max(logits)
                    e = [(v - top).exp() for v in logits]
                    total = sum(e)
                    for j in range(S):
                        c = xi[j] - n * e[j] / total
                        G[j] = [g + c * v for g, v in zip(G[j], x)]
                wi = [[a + 2 * sum(G[j][k] * inv[k][l] for k in range(dt)) for l, a in enumerate(wi[j])]
                      for j in range(S)]
            W[i] = wi
        return np.array([[[float(v) for v in row] for row in wi] for wi in W])


def one_row_update_transitions(w, x, xi, steps):
    """The bound ascent on a single transition input x, in closed form: M_i
    = n_i x x^T has x as an eigenvector, so each step moves w_i by the
    gradient (xi_i - n_i p_i) x^T times 2 / (n_i |x|^2 + ridge_i)."""
    w = w.copy()
    n, xx = xi.sum(axis=1), x @ x
    rate = 2.0 / (n * xx + 1e-10 * (1.0 + n * xx / x.size))
    for _ in range(steps):
        logits = w @ x                                                  # (S, S)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        w += rate[:, None, None] * (xi - n[:, None] * p)[:, :, None] * x
    return w


def einsum_transition_gradient(w, Xe, Xi):
    """The einsum gradient that the two matmul products replaced."""
    logits = np.einsum("ijk,tk->tij", w, Xe)
    shifted = logits - logits.max(axis=2, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=2, keepdims=True))
    coeff = Xi - Xi.sum(axis=2, keepdims=True) * np.exp(logp)
    return np.einsum("rij,rk->ijk", coeff, Xe)


def einsum_update_transitions(w, Xe, Xi, iters):
    """The bound ascent on the einsum gradient, as it was before the
    matmul products."""
    w = w.copy()
    M = np.einsum("ri,rk,rl->ikl", Xi.sum(axis=2), Xe, Xe)
    dt = M.shape[1]
    ridge = 1e-10 * (1.0 + np.trace(M, axis1=1, axis2=2) / dt)
    step = 2.0 * np.linalg.inv(M + ridge[:, None, None] * np.eye(dt))
    for _ in range(iters):
        w += einsum_transition_gradient(w, Xe, Xi) @ step
    return w


def synthetic_transition_problem(data_seed, n, label, states=3, seed=2):
    """(w, Xe, Xi) of a freshly initialized EM fit on one synthetic class,
    whose speed features sit near 40."""
    dataset = synth.generate(synth.ScenarioConfig(seed=data_seed), n)
    seqs = [(s.xs, s.zs) for s in dataset if s.label == EVENTS.index(label)]
    model, _ = fit_em(seqs, EmConfig(states=states, max_iter=1, seed=seed))
    stats = [forward_backward(model, xs, zs) for xs, zs in seqs]
    Xe = np.concatenate([xs[1:] for xs, _ in seqs])
    Xi = np.concatenate([st.xi for st in stats])
    return model.w, Xe, Xi


def backtracking_ascent(w, Xe, Xi, iters, step0=1e-2):
    """The transition update the bound ascent replaced: per source state,
    gradient steps from ``step0``, halved until the objective does not drop."""
    w = w.copy()
    for i in range(w.shape[0]):
        q = transition_objectives(w, Xe, Xi)[i]
        for _ in range(iters):
            grad = _transition_gradient(w, Xe, Xi)[i]
            step, improved = step0, False
            while step > 1e-12:
                cand = w.copy()
                cand[i] = w[i] + step * grad
                q_cand = transition_objectives(cand, Xe, Xi)[i]
                if q_cand >= q:
                    w, q, improved = cand, q_cand, True
                    break
                step *= 0.5
            if not improved:
                break
    return w


@st.composite
def transition_problems(draw):
    """(w, Xe, Xi) with the awkward designs EM meets: constant, binary and
    collinear input columns, and steps whose source state has no mass."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    S, R = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    kinds = draw(st.lists(st.sampled_from(["normal", "const", "binary", "collinear", "large"]),
                          min_size=1, max_size=6))
    cols = []
    for kind in kinds:
        if kind == "const":
            cols.append(np.full(R, float(rng.choice([0.0, 1.0, -3.0]))))
        elif kind == "binary":
            cols.append(rng.integers(0, 2, R).astype(float))
        elif kind == "collinear" and cols:
            cols.append(float(rng.uniform(-2, 2)) * cols[-1] + 1e-9 * rng.standard_normal(R))
        elif kind == "large":
            cols.append(40.0 + rng.standard_normal(R))
        else:
            cols.append(rng.standard_normal(R))
    Xe = np.stack(cols, axis=1)
    Xi = rng.uniform(0.0, 1.0, (R, S, S)) * rng.uniform(0.0, 1.0, (R, S, 1))
    Xi[rng.uniform(size=(R, S)) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    w = rng.standard_normal((S, S, Xe.shape[1])) * draw(st.sampled_from([0.0, 0.1, 1.0]))
    return w, Xe, Xi


def padded_emission_forward_backward(m, xs, zs, lengths):
    """The E-step that scored every padded row's emission and then zeroed
    the rows past each end, verbatim, on a padded (B, T, d) batch."""
    B, T, S = xs.shape[0], xs.shape[1], m.states
    live = np.arange(T) < lengths[:, None]                               # (B, T)

    logb = emission_logprobs(
        emissions([m]), xs.reshape(B * T, -1), zs.reshape(B * T, -1),
        shifted_observations(zs).reshape(B * T, -1),
    ).reshape(B, T, S)
    logb[~live] = 0.0
    xe = transition_inputs(m, xs[:, 1:])
    xe = xe.reshape(B * (T - 1), xe.shape[2])
    log_a = log_transitions(m.w, xe).transpose(2, 0, 1).reshape(B, T - 1, S, S)
    with np.errstate(divide="ignore"):  # log 0 = -inf: off the identity's diagonal, zero pi entries
        log_a[~live[:, 1:]] = np.log(np.eye(S))
        log_pi = np.log(m.pi)

    la = log_forward(log_pi, log_a, logb)
    lb = np.empty((B, T, S))
    lb[:, T - 1] = 0.0
    for t in range(T - 2, -1, -1):  # the same update along reversed transitions
        lb[:, t] = log_forward_step(logb[:, t + 1] + lb[:, t + 1], log_a[:, t].swapaxes(1, 2), 0.0)

    loglik = np.logaddexp.reduce(la[:, T - 1], axis=-1)
    if not np.all(np.isfinite(loglik)):
        raise FloatingPointError("log-space forward pass degenerated")
    gamma = np.exp(la + lb - loglik[:, None, None])
    gamma[~live] = 0.0
    xi = np.exp(la[:, :-1, :, None] + log_a + (logb[:, 1:] + lb[:, 1:])[:, :, None, :]
                - loglik[:, None, None, None])
    xi[~live[:, 1:]] = 0.0
    return PosteriorStats(gamma=gamma, xi=xi, loglik=loglik)


def c_layout_emission_logprobs(e, xs, zs, z_prev):
    """The emission kernel before its time-major layout, verbatim but for
    reading the ``Emissions`` value ``e``: the residual broadcast over
    (S, T, dz) and whitened as a transposed view."""
    scales = emission_scales(e, xs, z_prev)
    resid = zs[None, :, :] - scales.T[:, :, None] * e.mu[:, None, :]    # (S, T, dz)
    y = e.inv_chol @ resid.transpose(0, 2, 1)                           # (S, dz, T)
    quad = np.sum(y * y, axis=1)                                        # (S, T)
    out = np.empty((zs.shape[0], len(e.mu)))
    out[:] = (-0.5 * ((e.mu.shape[1] * LOG_2PI + e.logdet)[:, None] + quad)).T
    return out


def c_layout_block_forward(e, w, log_pi, xs, zs, lengths):
    """``block_forward`` in C layout, (..., B, T, S) memory, verbatim, with
    the forward recursion into a C-ordered ``np.empty``."""
    B, T = xs.shape[:2]
    *lead, S = log_pi.shape
    live = np.arange(T) < lengths[:, None]                               # (B, T)
    logb = np.zeros((B, T, len(e.mu)))
    logb[live] = c_layout_emission_logprobs(e, xs[live], zs[live], shifted_observations(zs)[live])
    logb = np.moveaxis(logb.reshape(B, T, *lead, S), (0, 1), (-3, -2))
    xe = transition_inputs(e, xs[:, 1:].reshape(B * (T - 1), xs.shape[2]))
    log_a = np.moveaxis(log_transitions(w, xe).reshape(*lead, S, S, B, T - 1), (-2, -1), (-4, -3))
    log_a[..., ~live[:, 1:], :, :] = np.where(np.eye(S, dtype=bool), 0.0, -np.inf)
    la = np.empty(logb.shape)
    la[..., 0, :] = log_pi[..., None, :] + logb[..., 0, :]
    for t in range(1, T):
        la[..., t, :] = log_forward_step(la[..., t - 1, :], log_a[..., t - 1, :, :], logb[..., t, :])
    return logb, log_a, la


def c_layout_forward_backward(m, xs, zs, lengths):
    """``forward_backward`` of a padded batch in C layout, verbatim."""
    T = xs.shape[1]
    live = np.arange(T) < lengths[:, None]                               # (B, T)
    with np.errstate(divide="ignore"):  # zero pi entries give log 0 = -inf
        logb, log_a, la = c_layout_block_forward(emissions([m]), m.w, np.log(m.pi), xs, zs, lengths)
    lb = np.empty(la.shape)
    lb[:, T - 1] = 0.0
    for t in range(T - 2, -1, -1):  # the same update along reversed transitions
        lb[:, t] = log_forward_step(logb[:, t + 1] + lb[:, t + 1], log_a[:, t].swapaxes(1, 2), 0.0)
    loglik = np.logaddexp.reduce(la[:, T - 1], axis=-1)
    gamma = np.exp(la + lb - loglik[:, None, None])
    gamma[~live] = 0.0
    xi = np.exp(la[:, :-1, :, None] + log_a + (logb[:, 1:] + lb[:, 1:])[:, :, None, :]
                - loglik[:, None, None, None])
    xi[~live[:, 1:]] = 0.0
    return PosteriorStats(gamma=gamma, xi=xi, loglik=loglik)


def kp_min_norm_solver(R, p, rows):
    """The minimum-norm maps from the SVD of R's whole (K, p) design
    block, verbatim."""
    U, s, Vt = np.linalg.svd(R[:, :, :p], full_matrices=False)
    kept = s > np.finfo(float).eps * max(rows, p) * s[:, :1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    solver = Vt.transpose(0, 2, 1) @ (inv_s[:, :, None] * (U.transpose(0, 2, 1) @ R[:, :, p:]))
    return solver, kept.sum(axis=1) < p


def masked_update_mean_params(m, states, Z, X, Zprev, G, rounds, diag):
    """The mean rounds that updated the live states through boolean
    indexing, verbatim; returns (mu, a, b)."""
    S, dz = len(states), Z.shape[1]
    design = ([X] if m.variant != "hmm" else []) + ([Zprev] if m.variant == "aio" else [])
    A = np.concatenate(design + [Z, np.ones((Z.shape[0], 1))], axis=1)
    p = A.shape[1] - dz - 1
    ab = np.concatenate([m.a, m.b], axis=1)[states]
    fit = m.states > 1 and p > 0
    R = np.linalg.qr(np.sqrt(G.T)[:, :, None] * A, mode="r")          # (S, K, p + dz + 1)
    v = np.zeros((S, A.shape[1]))
    v[:, :p] = ab[:, :p]
    v[:, -1] = 1.0
    mu = m.mu[states].copy()
    active = np.ones(S, dtype=bool)
    if fit:
        solver, deficient = _min_norm_solver(R, p, Z.shape[0])
        sigma_inv = np.linalg.inv(m.sigma[states])

    for _ in range(rounds):
        root_gs = np.einsum("skc,sc->sk", R, v)                        # sqrt(g) s, rotated
        denom = np.einsum("sk,sk->s", root_gs, root_gs)
        moved = active & (denom > 1e-12)
        mu[moved] = np.einsum("sk,skd->sd", root_gs[moved], R[moved, :, p : p + dz]) / denom[moved, None]
        if not fit:
            break
        h = np.einsum("sde,se->sd", sigma_inv, mu)
        alpha = np.einsum("sd,sd->s", mu, h)
        active &= alpha > 1e-12
        if not active.any():
            break
        c = np.concatenate([h[active] / alpha[active, None], -np.ones((int(active.sum()), 1))], axis=1)
        v[active, :p] = np.einsum("spc,sc->sp", solver[active], c)
        diag["ridge"] = diag.get("ridge", 0) + int(np.sum(deficient & active))
    ab[:, :p] = v[:, :p]
    return mu, ab[:, : m.dim_x], ab[:, m.dim_x :]


def weighted_triangle(m, X, Z, Zprev, G):
    """R of every state's weighted [design | z | 1] stack, and p, as the
    mean solve factors it."""
    design = ([X] if m.variant != "hmm" else []) + ([Zprev] if m.variant == "aio" else [])
    A = np.concatenate(design + [Z, np.ones((Z.shape[0], 1))], axis=1)
    return np.linalg.qr(np.sqrt(G.T)[:, :, None] * A, mode="r"), A.shape[1] - Z.shape[1] - 1


def loop_init_model(batch, config):
    """The initialization that drew each sequence's responsibilities in its
    own call, verbatim."""
    rng = make_rng(config.seed)
    S = config.states
    B, T, dx = batch.xs.shape
    dz = batch.zs.shape[2]
    dt = dx if config.variant != "hmm" else 1

    blank = AioHmmModel(
        variant=config.variant,
        mu=np.zeros((S, dz)), a=np.zeros((S, dx)), b=np.zeros((S, dz)),
        sigma=np.stack([np.eye(dz)] * S), w=np.zeros((S, S, dt)),
        pi=np.full(S, 1.0 / S),
    )
    gamma = np.zeros((B, T, S))
    for k, L in enumerate(batch.lengths):
        g = rng.uniform(0.2, 1.0, size=(L, S))
        gamma[k, :L] = g / g.sum(axis=1, keepdims=True)
    xi = gamma[:, :-1, :, None] * gamma[:, 1:, None, :]
    stats = PosteriorStats(gamma=gamma, xi=xi, loglik=np.full(B, np.nan))
    model = m_step(batch, stats, blank, diag={}, rounds=1)
    model.validate()
    return model


def lstsq_update_mean_params(m, i, Z, X, Zprev, g, rounds, diag):
    """The per-state alternating solve that the factored one replaced,
    verbatim: every round rebuilds the weighted design and runs lstsq."""
    mu, a, b = m.mu[i].copy(), m.a[i].copy(), m.b[i].copy()
    # With a single state the scale couplings are redundant with mu itself,
    # so they stay pinned at zero and the update degenerates to a weighted mean.
    fit_a = m.variant != "hmm" and m.states > 1
    fit_b = m.variant == "aio" and m.states > 1
    sigma_inv = np.linalg.inv(m.sigma[i])

    for _ in range(rounds):
        s = 1.0 + X @ a + Zprev @ b
        denom = float(np.sum(g * s * s))
        if denom > 1e-12:
            mu = (g * s) @ Z / denom
        if not (fit_a or fit_b):
            break
        alpha = float(mu @ sigma_inv @ mu)
        if alpha <= 1e-12:
            break
        beta = Z @ (sigma_inv @ mu)
        cols = []
        if fit_a:
            cols.append(X)
        if fit_b:
            cols.append(Zprev)
        R = np.concatenate(cols, axis=1)
        # Lane flags constant within a sequence and near-collinear speeds make
        # the design rank-deficient or nearly so.  Solving its normal
        # equations squares that conditioning and returns a theta that can
        # lower the expected log-likelihood; the minimum-norm least-squares
        # solution of the weighted design does not.
        root_g = np.sqrt(g)
        theta, _, rank, _ = np.linalg.lstsq(
            R * root_g[:, None], root_g * (beta / alpha - 1.0), rcond=None
        )
        if rank < R.shape[1]:
            diag["ridge"] = diag.get("ridge", 0) + 1
        offset = 0
        if fit_a:
            a = theta[offset : offset + X.shape[1]]
            offset += X.shape[1]
        if fit_b:
            b = theta[offset:]
    return mu, a, b


def rational_scatter(mu, a, b, X, Zprev, Z, g):
    """sum_t g_t r_t r_t^T with r_t = z_t - (1 + a.x_t + b.z_{t-1}) mu, in
    exact rational arithmetic from the exact values of the float inputs,
    rounded to float at the end."""
    mu, a, b = ([Fraction(v) for v in arr.tolist()] for arr in (mu, a, b))
    dz = len(mu)
    total = [[Fraction(0)] * dz for _ in range(dz)]
    for x, zp, z, w in zip(X.tolist(), Zprev.tolist(), Z.tolist(), g.tolist()):
        s = 1 + sum(Fraction(u) * v for u, v in zip(x, a)) + sum(Fraction(u) * v for u, v in zip(zp, b))
        r = [Fraction(v) - s * m for v, m in zip(z, mu)]
        for d in range(dz):
            for e in range(dz):
                total[d][e] += Fraction(w) * r[d] * r[e]
    return np.array([[float(v) for v in row] for row in total])


def live_rows(batch, stats):
    """(X, Z, Zprev, G) over every sequence's real steps."""
    xs, zs, lengths = batch
    live = np.arange(xs.shape[1]) < lengths[:, None]
    return xs[live], zs[live], shifted_observations(zs)[live], stats.gamma[live]


def lstsq_mean_step(batch, stats, m, rounds, diag):
    """The model with the mean parameters and covariances of an M-step that
    runs lstsq_update_mean_params state by state."""
    X, Z, Zprev, G = live_rows(batch, stats)
    new = m.copy()
    for i in range(m.states):
        g = G[:, i]
        weight = float(g.sum())
        if weight <= 1e-12:
            continue
        mu, a, b = lstsq_update_mean_params(m, i, Z, X, Zprev, g, rounds, diag)
        s = 1.0 + X @ a + Zprev @ b
        resid = Z - s[:, None] * mu
        cov = (resid * g[:, None]).T @ resid / weight
        new.mu[i], new.a[i], new.b[i] = mu, a, b
        new.sigma[i] = _floor_covariance(cov, diag)
    return new


def expected_emission_loglik(m, batch, stats):
    """The emission part of the expected complete-data log-likelihood,
    sum_t sum_i gamma_ti log N(z_t; s_ti mu_i, Sigma_i)."""
    X, Z, Zprev, G = live_rows(batch, stats)
    return float(np.sum(G * emission_logprobs(emissions([m]), X, Z, Zprev)))


def mean_problem(seed, variant, S, dz, kinds, lengths, data, drop_state, rounds):
    """(batch, stats, model, mean rounds) for one M-step, with the designs the factored
    mean solve must get right: duplicated and constant columns, fewer rows
    than [design | z | 1] columns, length-1 sequences, a state with no
    posterior mass (``drop_state``), and all-zero observations for every
    state or for one state alone, whose solve stops while the others go on."""
    rng = make_rng(seed)
    seqs = []
    for L in lengths:
        cols = []
        for kind in kinds:
            if kind == "const":
                cols.append(np.full(L, float(rng.choice([0.0, 1.0, -3.0]))))
            elif kind == "duplicate" and cols:
                cols.append(cols[-1].copy())
            elif kind == "binary":
                cols.append(np.full(L, float(rng.integers(0, 2))))  # a lane flag
            else:
                cols.append(rng.standard_normal(L))
        zs = rng.standard_normal((L, dz))
        if data == "offset":
            zs = zs * 0.5 + 40.0
        elif data == "duplicate":
            zs[:, -1] = zs[:, 0]
        elif data == "zero" or (data == "zero-state" and not seqs):
            zs[:] = 0.0
        seqs.append((np.stack(cols, axis=1), zs))
    batch = pad_sequences(seqs)
    m = random_model(rng, S, dz, len(kinds), variant=variant)
    gamma = rng.uniform(0.05, 1.0, batch.zs.shape[:2] + (S,))
    if data == "zero-state" and S > 1:
        gamma[1:, :, 0] = 0.0  # state 0 sees only the all-zero first sequence
    elif S > 1 and drop_state:
        gamma[..., int(rng.integers(0, S))] = 0.0
    gamma /= gamma.sum(axis=2, keepdims=True)
    gamma[np.arange(gamma.shape[1]) >= batch.lengths[:, None]] = 0.0
    xi = gamma[:, :-1, :, None] * gamma[:, 1:, None, :]
    stats = PosteriorStats(gamma=gamma, xi=xi, loglik=np.zeros(len(seqs)))
    return batch, stats, m, rounds


@st.composite
def mean_problems(draw):
    """A :func:`mean_problem` over drawn sizes, designs and data."""
    return mean_problem(
        seed=draw(st.integers(0, 2**32 - 1)),
        variant=draw(st.sampled_from(["aio", "io", "hmm"])),
        S=draw(st.integers(1, 4)),
        dz=draw(st.integers(1, 3)),
        kinds=draw(st.lists(st.sampled_from(["normal", "const", "duplicate", "binary"]),
                            min_size=1, max_size=4)),
        lengths=draw(st.lists(st.integers(1, 12), min_size=1, max_size=6)),
        data=draw(st.sampled_from(["normal", "offset", "duplicate", "zero", "zero-state"])),
        drop_state=draw(st.booleans()),
        rounds=draw(st.integers(1, 3)),
    )


def transition_row(m, i, x):
    """Distribution over successor states when leaving state i under x."""
    return np.exp(log_transitions(m.w, transition_inputs(m, np.asarray(x, dtype=float)[None, :]))[i, :, 0])


class TestTransitions:
    def test_zero_weights_give_uniform(self):
        rng = make_rng(0)
        m = random_model(rng, 3, 2, 2)
        m.w[...] = 0.0
        row = transition_row(m, 1, np.array([0.4, -1.0]))
        np.testing.assert_allclose(row, 1 / 3, atol=1e-15)

    def test_two_state_logit_gap(self):
        rng = make_rng(1)
        m = random_model(rng, 2, 2, 1)
        m.w[0] = np.array([[1.0], [0.0]])
        row = transition_row(m, 0, np.array([1.0]))
        e = math.exp(1.0)
        np.testing.assert_allclose(row, [e / (e + 1), 1 / (e + 1)], atol=1e-10)

    def test_rows_normalized(self):
        rng = make_rng(2)
        m = random_model(rng, 4, 2, 3)
        for _ in range(20):
            x = rng.standard_normal(3)
            for i in range(4):
                assert abs(transition_row(m, i, x).sum() - 1.0) <= 1e-12

    def test_stacked_weights_match_per_model_calls(self):
        rng = make_rng(22)
        for K, S, dt, R in ((1, 1, 1, 1), (4, 3, 4, 1), (5, 2, 6, 9), (3, 4, 1, 13)):
            w = rng.standard_normal((K, S, S, dt)) * 2.0
            xe = rng.standard_normal((R, dt))
            stacked = log_transitions(w, xe)
            assert stacked.shape == (K, S, S, R)
            for k in range(K):
                np.testing.assert_array_equal(stacked[k], log_transitions(w[k], xe))

    @settings(max_examples=300, deadline=None)
    @given(transition_problems())
    def test_bound_step_never_lowers_any_state(self, problem):
        w, Xe, Xi = problem
        before = transition_objectives(w, Xe, Xi)
        after = transition_objectives(_update_transitions(w, Xe, Xi, 1), Xe, Xi)
        # each log-probability carries rounding relative to its logits,
        # which are at most |w_i|_1 max|x| in size
        logits = 1.0 + np.abs(w).sum(axis=(1, 2)) * np.abs(Xe).max()
        assert np.all(after >= before - 1e-12 * (1.0 + Xi.sum(axis=(0, 2)) * logits))

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(20)
        for S, dt in ((1, 2), (3, 4), (4, 1)):
            R = 25
            Xe = np.column_stack([rng.standard_normal((R, dt - 1)), np.ones(R)])
            Xi = rng.uniform(0.0, 1.0, (R, S, S))
            w = rng.standard_normal((S, S, dt))
            fd = finite_diff_grad(lambda p: float(transition_objectives(p, Xe, Xi).sum()), w)
            np.testing.assert_allclose(_transition_gradient(w, Xe, Xi), fd, rtol=1e-6, atol=1e-7)

    def test_bound_ascent_reaches_backtracking_objective(self):
        # the fixed-step ascent halved on these speed features near 40
        w, Xe, Xi = synthetic_transition_problem(1, 120, "left_lane")
        bound = transition_objectives(_update_transitions(w, Xe, Xi, BOUND_STEPS), Xe, Xi)
        old_w = backtracking_ascent(w, Xe, Xi, BOUND_STEPS)
        old = transition_objectives(old_w, Xe, Xi)
        assert np.all(bound >= old)
        assert np.all(bound > transition_objectives(w, Xe, Xi))

    @settings(max_examples=300, deadline=None)
    @given(transition_problems())
    def test_matmul_gradient_matches_einsum_reference(self, problem):
        w, Xe, Xi = problem
        ref = einsum_transition_gradient(w, Xe, Xi)
        got = _transition_gradient(w, Xe, Xi)
        assert np.abs(got - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())
        np.testing.assert_array_equal(_transition_gradient(w, Xe, Xi, Xi.sum(axis=2)), got)

    @pytest.mark.parametrize(
        "data_seed, n, label", [(1, 120, "left_lane"), (1, 240, "left_turn"), (42, 600, "straight")]
    )
    def test_matmul_ascent_reaches_einsum_objective(self, data_seed, n, label):
        # The lane-flag columns make M_i singular, so the ridge-limited
        # inverse turns 1e-16 gradient rounding into ~1e-8 weight moves along
        # directions the data barely sees; the objective reached must agree.
        w, Xe, Xi = synthetic_transition_problem(data_seed, n, label)
        ref_grad = einsum_transition_gradient(w, Xe, Xi)
        grad = _transition_gradient(w, Xe, Xi)
        assert np.abs(grad - ref_grad).max() <= 1e-12 * (1.0 + np.abs(ref_grad).max())
        got = transition_objectives(_update_transitions(w, Xe, Xi, BOUND_STEPS), Xe, Xi)
        ref = transition_objectives(einsum_update_transitions(w, Xe, Xi, BOUND_STEPS), Xe, Xi)
        assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    @settings(max_examples=300, deadline=None)
    @given(transition_problems())
    @example(problem=(
        np.array([[[0.5114554968336429, -1.7164883906582418, 1.1931073932362732, -0.6058319091014716,
                    1.8746731341556362, 0.45251503442026925],
                   [0.38143403360037, -0.7981239917913455, -0.3974693377553645, 0.5078954582293679,
                    -1.3094332631095793, 0.04873347689106245]],
                  [[-1.901535973108794, 0.9446785611932761, 1.4588481464049736, 0.11849050275406396,
                    -0.6090386560651737, 0.5626104213877923],
                   [-0.8701499798354211, -1.034640705526724, -1.139541665996349, 0.3411140276241297,
                    0.23850078787784326, -0.3791050489030344]]]),
        np.array([[0.9991067769163884, 38.787178811579224, 13.592309188834486, 18.05417597641557,
                   38.66542633623276, -3.0],
                  [-0.9776266937502783, 39.589978238828714, 13.873636638251352, 18.427853121210426,
                   41.87349806704866, -3.0]]),
        np.array([[[0.05029366203677243, 0.23093270682118935], [0.48122407946280427, 0.3766856669898358]],
                  [[0.34449197301355083, 0.0009086726482877572], [0.36048691599368576, 0.3895099048116736]]]),
    ))
    def test_scaled_ascent_reaches_gradient_ascent_objective(self, problem):
        # Any float ascent rounds each step by about eps cond(M_i), which the
        # ridge lets reach 1e10 and more on the constant, binary and
        # collinear columns, so the reference is the ascent in 34 digits.
        # On the pinned problem (cond(M_i) 6.0e10) the explicit-inverse
        # float ascent was 2.3e-4 off, 1.78 times this bound, and
        # _update_transitions 4.3e-13.
        w, Xe, Xi = problem
        got = transition_objectives(_update_transitions(w, Xe, Xi, BOUND_STEPS), Xe, Xi)
        ref = transition_objectives(decimal_update_transitions(w, Xe, Xi, BOUND_STEPS), Xe, Xi)
        M = np.einsum("ri,rk,rl->ikl", Xi.sum(axis=2), Xe, Xe)
        dt = M.shape[1]
        ridge = 1e-10 * (1.0 + np.trace(M, axis1=1, axis2=2) / dt)
        cond = np.linalg.cond(M + ridge[:, None, None] * np.eye(dt))
        assert np.all(np.abs(got - ref) <= (1e-12 + 4.0 * np.finfo(float).eps * cond) * (1.0 + np.abs(ref)))

    @pytest.mark.parametrize(
        "data_seed, n, label", [(1, 120, "left_lane"), (1, 240, "left_turn"), (42, 600, "straight")]
    )
    def test_scaled_ascent_reaches_gradient_ascent_objective_on_synthetic_classes(self, data_seed, n, label):
        w, Xe, Xi = synthetic_transition_problem(data_seed, n, label)
        got = transition_objectives(_update_transitions(w, Xe, Xi, BOUND_STEPS), Xe, Xi)
        ref = transition_objectives(gradient_update_transitions(w, Xe, Xi, BOUND_STEPS), Xe, Xi)
        assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))


    @pytest.mark.parametrize("seed", range(4))
    def test_ridge_only_step_reaches_one_row_objective(self, seed):
        # One row near 40 makes M_i rank one, invertible only by its ridge:
        # cond(M_i) ~ 1e10, where multiplying by the explicit inverse moved
        # the step along x by ~1e-6 and the objective reached by up to ~1e-4.
        rng = make_rng(seed)
        S = int(rng.integers(2, 4))
        x = np.concatenate([40.0 + rng.standard_normal(3), rng.uniform(0.0, 1.0, 1)])
        Xi = (rng.uniform(0.0, 1.0, (S, S)) * rng.uniform(0.0, 1.0, (S, 1)))[None]
        w = rng.standard_normal((S, S, x.size))
        got = transition_objectives(_update_transitions(w, x[None], Xi, BOUND_STEPS), x[None], Xi)
        ref = transition_objectives(one_row_update_transitions(w, x, Xi[0], BOUND_STEPS), x[None], Xi)
        assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))


class TestEmission:
    @pytest.mark.parametrize("variant", ["aio", "io", "hmm"])
    def test_batched_kernel_equals_per_state_loop(self, variant):
        rng = make_rng(19)
        for trial in range(40):
            S, dz, dx = int(rng.integers(1, 6)), int(rng.integers(1, 10)), int(rng.integers(1, 7))
            m = random_model(rng, S, dz, dx, variant=variant, scale=float(rng.uniform(0.1, 2.0)))
            if trial % 4 == 0:
                m.sigma[-1] = 1e-6 * np.eye(dz)  # a covariance at the EM floor
            T = 1 if trial % 5 == 0 else int(rng.integers(2, 30))
            xs = rng.standard_normal((T, dx))
            zs = rng.standard_normal((T, dz)) * float(rng.uniform(0.1, 5.0))
            expected = per_state_emission_logprobs(m, xs, zs)
            z_prev = shifted_observations(zs)
            np.testing.assert_array_equal(emission_logprobs(emissions([m]), xs, zs, z_prev), expected)
            classes = [replace(m, mu=m.mu[part], a=m.a[part], b=m.b[part], sigma=m.sigma[part])
                       for part in (slice(None, S // 2), slice(S // 2, None))]
            np.testing.assert_array_equal(  # the model's states as two classes, stacked in order
                emission_logprobs(emissions(classes), xs, zs, z_prev), expected
            )

    @pytest.mark.parametrize("variant", ["aio", "io", "hmm"])
    def test_whitened_kernel_is_close_to_per_state_solve(self, variant):
        # The product with L^-1 against triangular solves with L: with one
        # covariance at the EM floor and one of condition number 1e5 to 1e7
        # (a trained 5-class checkpoint reaches 1.8e5), the two agree to
        # about 2e-14 of 1 + |log density|; the bound leaves a 50x margin.
        rng = make_rng(23)
        for trial in range(60):
            S, dz, dx = int(rng.integers(2, 6)), int(rng.integers(2, 10)), int(rng.integers(1, 7))
            m = random_model(rng, S, dz, dx, variant=variant, scale=float(rng.uniform(0.1, 2.0)))
            m.sigma[0] = COV_FLOOR * np.eye(dz)
            q, _ = np.linalg.qr(rng.standard_normal((dz, dz)))
            m.sigma[1] = (q * np.geomspace(1.0, 10.0 ** -rng.uniform(5.0, 7.0), dz)) @ q.T
            assert np.linalg.cond(m.sigma[1]) >= 1e5
            m.validate()
            T = 1 if trial % 3 == 0 else int(rng.integers(2, 30))
            xs = rng.standard_normal((T, dx))
            zs = rng.standard_normal((T, dz)) * float(rng.uniform(0.1, 5.0))
            ref = per_state_emission_logprobs(m, xs, zs, whiten=np.linalg.solve)
            got = emission_logprobs(emissions([m]), xs, zs, shifted_observations(zs))
            assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_zero_couplings_mean_is_mu(self):
        rng = make_rng(3)
        m = random_model(rng, 2, 3, 2)
        m.a[...] = 0.0
        m.b[...] = 0.0
        lp_at_mu = emission_logpdf(m, 0, m.mu[0], np.ones(2), np.ones(3))
        lp_off = emission_logpdf(m, 0, m.mu[0] + 0.5, np.ones(2), np.ones(3))
        assert lp_at_mu > lp_off

    def test_one_dimensional_scaled_mean(self):
        m = AioHmmModel(
            variant="aio",
            mu=np.array([[1.0]]), a=np.array([[1.0]]), b=np.array([[0.0]]),
            sigma=np.array([[[1.0]]]), w=np.zeros((1, 1, 1)), pi=np.array([1.0]),
        )
        # scale = 1 + a.x = 2, so z = 2 sits exactly at the mean
        lp = emission_logpdf(m, 0, np.array([2.0]), np.array([1.0]), np.array([0.0]))
        assert abs(lp - (-0.5 * math.log(2 * math.pi))) <= 1e-12

    def test_unimodal_decay_along_rays(self):
        rng = make_rng(4)
        m = random_model(rng, 1, 3, 2)
        x, zp = rng.standard_normal(2), rng.standard_normal(3)
        scale = 1.0 + float(m.a[0] @ x) + float(m.b[0] @ zp)
        center = scale * m.mu[0]
        direction = rng.standard_normal(3)
        lps = [emission_logpdf(m, 0, center + r * direction, x, zp) for r in (0.0, 0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(lps, lps[1:]))


class TestForwardBackward:
    def test_single_state_degenerates(self):
        rng = make_rng(5)
        m = random_model(rng, 1, 2, 2)
        xs, zs = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        stats = forward_backward(m, xs, zs)
        np.testing.assert_allclose(stats.gamma, 1.0, atol=1e-15)
        direct = sum(
            emission_logpdf(m, 0, zs[t], xs[t], zs[t - 1] if t else np.zeros(2))
            for t in range(6)
        )
        assert abs(stats.loglik - direct) <= 1e-9

    @pytest.mark.parametrize("variant", ["aio", "io", "hmm"])
    def test_matches_enumeration(self, variant):
        rng = make_rng(6)
        for _ in range(8):
            S = int(rng.integers(2, 4))
            T = int(rng.integers(2, 7))
            m = random_model(rng, S, 2, 2, variant=variant)
            xs, zs = rng.standard_normal((T, 2)), rng.standard_normal((T, 2))
            stats = forward_backward(m, xs, zs)
            ref = enumeration_loglik(m, xs, zs)
            assert abs(stats.loglik - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("variant", ["aio", "io", "hmm"])
    def test_sequence_loglik_is_the_forward_half(self, variant):
        rng = make_rng(9)
        for S in (1, 2, 3):
            for T in (1, 2, 5, 12):
                m = random_model(rng, S, 2, 3, variant=variant)
                xs, zs = rng.standard_normal((T, 3)), rng.standard_normal((T, 2))
                assert sequence_loglik(m, xs, zs) == forward_backward(m, xs, zs).loglik
        zs[-1, 0] = np.nan
        with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
            sequence_loglik(m, xs, zs)

    def test_sequence_loglik_rejects_a_block(self):
        m = random_model(make_rng(10), 2, 2, 3)
        rng = make_rng(12)
        with pytest.raises(ValueError, match=r"^sequence_loglik takes one \(T, ·\) sequence, got xs \(2, 4, 3\)$"):
            sequence_loglik(m, rng.standard_normal((2, 4, 3)), rng.standard_normal((2, 4, 2)))

    @pytest.mark.parametrize("xs_len, zs_len", [(0, 0), (5, 4)], ids=["empty", "length-mismatch"])
    def test_sequence_loglik_rejects_unequal_or_empty_streams(self, xs_len, zs_len):
        m = random_model(make_rng(10), 2, 2, 3)
        rng = make_rng(11)
        with pytest.raises(ValueError, match="need equal-length nonempty streams"):
            sequence_loglik(m, rng.standard_normal((xs_len, 3)), rng.standard_normal((zs_len, 2)))

    def test_posteriors_normalized(self):
        rng = make_rng(7)
        m = random_model(rng, 3, 2, 2)
        xs, zs = rng.standard_normal((10, 2)), rng.standard_normal((10, 2))
        stats = forward_backward(m, xs, zs)
        np.testing.assert_allclose(stats.gamma.sum(axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(stats.xi.sum(axis=(1, 2)), 1.0, atol=1e-10)

    def test_length_mismatch_rejected(self):
        rng = make_rng(8)
        m = random_model(rng, 2, 2, 2)
        with pytest.raises(ValueError):
            forward_backward(m, rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))

    def test_saturated_chain_matches_enumeration(self):
        # A scaled recursion hits an exact zero at z_2; the log-space pass
        # must stay finite and agree with path enumeration.
        m = saturated_chain_model()
        xs = np.ones((2, 1))
        zs = np.array([[0.0], [50.0]])
        stats = forward_backward(m, xs, zs)
        ref = enumeration_loglik(m, xs, zs)
        assert np.isfinite(stats.loglik)
        assert abs(stats.loglik - ref) <= 1e-9 * abs(ref)
        np.testing.assert_allclose(stats.gamma.sum(axis=1), 1.0, atol=1e-10)

    def test_saturated_sequence_in_a_padded_batch(self):
        m = saturated_chain_model()
        seqs = [
            (np.ones((3, 1)), np.array([[0.0], [0.01], [-0.01]])),
            (np.ones((2, 1)), np.array([[0.0], [50.0]])),
            (np.ones((1, 1)), np.array([[0.005]])),
        ]
        with pytest.raises(FloatingPointError):
            reference_forward_backward(m, *seqs[1])
        stats = forward_backward(m, *pad_sequences(seqs))
        assert np.all(np.isfinite(stats.loglik))
        ref = enumeration_loglik(m, *seqs[1])
        assert abs(stats.loglik[1] - ref) <= 1e-9 * abs(ref)
        np.testing.assert_allclose(stats.gamma[1, :2].sum(axis=1), 1.0, atol=1e-10)
        assert not np.any(stats.gamma[1, 2:]) and not np.any(stats.xi[1, 1:])
        assert_batch_matches_reference(m, seqs, stats, skip=(1,))

    @pytest.mark.parametrize("variant", ["aio", "io", "hmm"])
    def test_padded_batch_matches_per_sequence_reference(self, variant):
        rng = make_rng(21)
        for _ in range(12):
            S, dz, dx = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
            m = random_model(rng, S, dz, dx, variant=variant, scale=float(rng.uniform(0.1, 1.0)))
            lengths = [1, *rng.integers(1, 15, size=int(rng.integers(1, 8)))]
            seqs = [(rng.standard_normal((T, dx)), rng.standard_normal((T, dz))) for T in lengths]
            assert_batch_matches_reference(m, seqs, forward_backward(m, *pad_sequences(seqs)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(["aio", "io", "hmm"]),
           st.lists(st.integers(1, 12), min_size=1, max_size=8), st.integers(0, 3),
           st.sampled_from([1.0, 1e3, np.nan]))
    def test_padded_batch_matches_reference_on_random_batches(self, seed, S, variant, lengths, extra, fill):
        rng = make_rng(seed)
        dz, dx = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = random_model(rng, S, dz, dx, variant=variant, scale=float(rng.uniform(0.1, 1.0)))
        seqs = [(rng.standard_normal((T, dx)), rng.standard_normal((T, dz)) * 2.0) for T in lengths]
        # whatever sits past a sequence's end, including extra padded steps
        # and NaN, is ignored
        width = max(lengths) + extra
        xs, zs = rng.standard_normal((2, len(seqs), width, max(dx, dz))) * fill
        xs, zs = xs[:, :, :dx], zs[:, :, :dz]
        for k, (x, z) in enumerate(seqs):
            xs[k, : len(x)], zs[k, : len(z)] = x, z
        assert_batch_matches_reference(m, seqs, forward_backward(m, xs, zs, lengths))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from(["aio", "io", "hmm"]),
           st.lists(st.integers(1, 12), min_size=1, max_size=8), st.integers(0, 3),
           st.sampled_from([0.0, 1e3, np.nan]))
    @example(seed=3, S=3, variant="aio", lengths=[1], extra=0, fill=0.0)
    @example(seed=4, S=2, variant="aio", lengths=[1], extra=2, fill=np.nan)
    @example(seed=5, S=3, variant="io", lengths=[7], extra=0, fill=1e3)
    def test_live_row_emissions_match_padded_emissions(self, seed, S, variant, lengths, extra, fill):
        # Not bit for bit: LAPACK's solve and BLAS's gemm round a row
        # differently with the number of rows beside it (one live row in
        # four padded ones differs in the last bit), so each form is one
        # rounding of the per-sequence pass.
        rng = make_rng(seed)
        dz, dx = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = random_model(rng, S, dz, dx, variant=variant, scale=float(rng.uniform(0.1, 1.0)))
        width = max(lengths) + extra
        xs, zs = rng.standard_normal((2, len(lengths), width, max(dx, dz))) * fill
        xs, zs = xs[:, :, :dx].copy(), zs[:, :, :dz].copy()
        for k, T in enumerate(lengths):
            xs[k, :T], zs[k, :T] = rng.standard_normal((T, dx)), rng.standard_normal((T, dz)) * 2.0
        lengths = np.array(lengths)
        got = forward_backward(m, xs, zs, lengths)
        with np.errstate(invalid="ignore"):  # the padded form scores NaN padding too
            ref = padded_emission_forward_backward(m, xs, zs, lengths)
        np.testing.assert_allclose(got.gamma, ref.gamma, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.xi, ref.xi, rtol=0, atol=1e-12)
        assert np.all(np.abs(got.loglik - ref.loglik) <= 1e-12 * (1.0 + np.abs(ref.loglik)))
        live = np.arange(xs.shape[1]) < lengths[:, None]
        assert not np.any(got.gamma[~live]) and not np.any(got.xi[~live[:, 1:]])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 4),
           st.sampled_from(["aio", "io", "hmm"]), st.lists(st.integers(1, 8), min_size=1, max_size=5))
    @example(seed=6, S=2, K=3, variant="hmm", lengths=[1])
    @example(seed=7, S=3, K=2, variant="aio", lengths=[5, 1, 3])
    def test_block_forward_over_stacked_classes_matches_each_class(self, seed, S, K, variant, lengths):
        # The predictor's form: K classes' chains along a leading axis, one
        # model emitting for all K*S states, identity padding past each end.
        rng = make_rng(seed)
        dz, dx = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        models = [random_model(rng, S, dz, dx, variant=variant, scale=float(rng.uniform(0.1, 1.0)))
                  for _ in range(K)]
        seqs = [(rng.standard_normal((T, dx)), rng.standard_normal((T, dz)) * 2.0) for T in lengths]
        emitter = emissions(models)
        w, log_pi = np.stack([m.w for m in models]), np.log(np.stack([m.pi for m in models]))
        _, _, la = block_forward(emitter, w, log_pi, *pad_sequences(seqs))
        assert la.shape == (K, len(seqs), max(lengths), S)
        for k, m in enumerate(models):
            for b, (xs, zs) in enumerate(seqs):
                ref = forward_backward(m, xs, zs).loglik
                T = len(xs)
                assert abs(np.logaddexp.reduce(la[k, b, T - 1]) - ref) <= 1e-12 * (1.0 + abs(ref))
                pad = la[k, b, T:]
                np.testing.assert_array_equal(pad, np.broadcast_to(la[k, b, T - 1], pad.shape))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from(["aio", "io", "hmm"]),
           st.one_of(st.lists(st.integers(1, 8), min_size=1, max_size=6),
                     st.lists(st.just(1), min_size=1, max_size=6)),
           st.integers(0, 3))
    @example(seed=8, S=3, K=2, variant="aio", lengths=[1, 1, 1], zero_pi=1)
    @example(seed=9, S=4, K=3, variant="io", lengths=[8, 1, 5, 2], zero_pi=3)
    @example(seed=10, S=2, K=1, variant="hmm", lengths=[3, 7], zero_pi=1)
    @example(seed=13, S=4, K=3, variant="aio", lengths=[8] * 44, zero_pi=0)
    def test_time_major_pass_equals_c_layout_pass(self, seed, S, K, variant, lengths, zero_pi):
        # The block pass lays logb and log_a out time-major with states
        # before sequences; every value, and every posterior, stays bit for
        # bit the C-layout pass's.  The last example is large enough (308
        # transition rows against 48 weight rows) for BLAS to round the
        # transition logits by their row order, so it catches a pass that
        # feeds log_transitions its rows time-major.
        rng = make_rng(seed)
        dz, dx = int(rng.integers(1, 10)), int(rng.integers(1, 7))
        models = [random_model(rng, S, dz, dx, variant=variant, scale=float(rng.uniform(0.1, 1.0)))
                  for _ in range(K)]
        for m in models:  # up to S - 1 states that no chain starts in
            m.pi[rng.permutation(S)[: min(zero_pi, S - 1)]] = 0.0
            m.pi /= m.pi.sum()
        xs, zs, lengths = pad_sequences(
            [(rng.standard_normal((T, dx)), rng.standard_normal((T, dz)) * 2.0) for T in lengths])

        for m in models:
            got, ref = forward_backward(m, xs, zs, lengths), c_layout_forward_backward(m, xs, zs, lengths)
            for name in ("gamma", "xi", "loglik"):
                np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)

        events = EVENTS[-K:]
        prior = rng.uniform(0.1, 1.0, K)
        ensemble = AioHmmEnsemble(events=events, models=dict(zip(events, models)), prior=prior / prior.sum())
        predictor = AioHmmPredictor(ensemble)
        emitter = emissions(models)
        w = np.stack([m.w for m in models])
        with np.errstate(divide="ignore"):
            log_pi, log_prior = np.log(np.stack([m.pi for m in models])), np.log(ensemble.prior)
        got = block_forward(emitter, w, log_pi, xs, zs, lengths)
        ref = c_layout_block_forward(emitter, w, log_pi, xs, zs, lengths)
        for name, g, r in zip(("logb", "log_a", "la"), got, ref):
            assert g.shape == r.shape, name
            np.testing.assert_array_equal(g, r, err_msg=name)
        ref_logliks = np.logaddexp.reduce(ref[2], axis=-1).transpose(1, 2, 0)  # (B, T, K)
        np.testing.assert_array_equal(predictor.trajectory(xs, zs, lengths),
                                      softmax(ref_logliks + log_prior))

    @pytest.mark.parametrize("variant", ["aio", "io", "hmm"])
    def test_posteriors_are_c_contiguous(self, variant):
        # m_step takes pi from gamma[:, 0].sum(axis=0), and NumPy's sum
        # rounds by memory order: along a contiguous axis it adds pairwise,
        # along a strided one in sequence.  A gamma left in the pass's
        # time-major memory would move pi in the last bit, so the posteriors
        # come back in C order.
        rng = make_rng(31)
        m = random_model(rng, 3, 2, 2, variant=variant)
        seqs = [(rng.standard_normal((T, 2)), rng.standard_normal((T, 2))) for T in (6, 2, 9, 1)]
        stats = forward_backward(m, *pad_sequences(seqs))
        assert stats.gamma.flags.c_contiguous and stats.xi.flags.c_contiguous

    def test_bad_lengths_rejected(self):
        m = random_model(make_rng(8), 2, 2, 2)
        xs = np.zeros((3, 4, 2))
        for lengths in ([4, 4], [0, 4, 4], [4, 5, 4]):
            with pytest.raises(ValueError, match="length"):
                forward_backward(m, xs, xs, lengths)


class TestMStep:
    def test_pinned_scales_reduce_to_weighted_mean(self):
        rng = make_rng(9)
        m = random_model(rng, 2, 2, 2, variant="hmm")
        seqs = [(rng.standard_normal((8, 2)), rng.standard_normal((8, 2))) for _ in range(4)]
        batch = pad_sequences(seqs)
        new = m_step(batch, forward_backward(m, *batch), m)
        Z = np.concatenate([zs for _, zs in seqs])
        G = np.concatenate([forward_backward(m, xs, zs).gamma for xs, zs in seqs])
        for i in range(2):
            expected = (G[:, i] @ Z) / G[:, i].sum()
            np.testing.assert_allclose(new.mu[i], expected, atol=1e-10)
            np.testing.assert_array_equal(new.a[i], 0.0)
            np.testing.assert_array_equal(new.b[i], 0.0)

    def test_entries_past_each_end_are_ignored(self):
        rng = make_rng(22)
        m = random_model(rng, 3, 2, 2)
        seqs = [(rng.standard_normal((T, 2)), rng.standard_normal((T, 2))) for T in (1, 5, 9, 3)]
        batch = pad_sequences(seqs)
        stats = forward_backward(m, *batch)
        expected = m_step(batch, stats, m)

        def with_garbage(a, steps):
            out = rng.uniform(-5.0, 5.0, (a.shape[0], a.shape[1] + 2) + a.shape[2:])
            for k, L in enumerate(steps):
                out[k, :L] = a[k, :L]
            return out

        L = batch.lengths
        noisy = Padded(with_garbage(batch.xs, L), with_garbage(batch.zs, L), L)
        noisy_stats = PosteriorStats(with_garbage(stats.gamma, L), with_garbage(stats.xi, L - 1), stats.loglik)
        got = m_step(noisy, noisy_stats, m)
        for name in ("mu", "a", "b", "sigma", "w", "pi"):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))

    @settings(max_examples=300, deadline=None)
    @given(mean_problems())
    def test_factored_mean_solve_matches_per_state_lstsq(self, problem):
        # Raw (a, b) may differ along the design's null space; mu, the
        # scales, the covariances and the expected log-likelihood may not.
        batch, stats, m, rounds = problem
        diag, ref_diag = {}, {}
        got = m_step(batch, stats, m, diag, rounds)
        ref = lstsq_mean_step(batch, stats, m, rounds, ref_diag)
        assert diag.get("ridge", 0) == ref_diag.get("ridge", 0)
        X, Z, Zprev, _ = live_rows(batch, stats)
        size = 1.0 + np.abs(Z).max()
        np.testing.assert_allclose(got.mu, ref.mu, rtol=1e-9, atol=1e-9 * size)
        scales = [emission_scales(new, X, Zprev) for new in (got, ref)]
        np.testing.assert_allclose(scales[0], scales[1], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got.sigma, ref.sigma, rtol=1e-9, atol=1e-9 * np.abs(ref.sigma).max())
        # The objective the mean solve maximizes: the old covariances.  A new
        # covariance floored at cond ~1e9 carries ~1e-7 relative rounding in
        # its small eigenvalues on either path, which is not the solve's.
        ecll = [expected_emission_loglik(replace(new, sigma=m.sigma), batch, stats) for new in (got, ref)]
        assert abs(ecll[0] - ecll[1]) <= 1e-9 * (1.0 + abs(ecll[1]))

    @settings(max_examples=300, deadline=None)
    @given(mean_problems())
    def test_mean_rounds_match_masked_rounds_bit_for_bit(self, problem):
        # every state, those without posterior mass too
        batch, stats, m, rounds = problem
        X, Z, Zprev, G = live_rows(batch, stats)
        states = np.arange(m.states)
        diag, ref_diag = {}, {}
        got = _update_mean_params(m, states, Z, X, Zprev, G, rounds, diag)
        ref = masked_update_mean_params(m, states, Z, X, Zprev, G, rounds, ref_diag)
        for g, r in zip(got[:3], ref):
            np.testing.assert_array_equal(g, r)
        assert diag == ref_diag

    def test_mean_rounds_match_masked_rounds_on_stopped_states(self):
        # state 0 has no posterior mass, so its mean never moves; state 1
        # sees only zero observations, so its mean goes to 0 and alpha
        # with it, which stops its coupling solve while state 2's goes on
        rng = make_rng(23)
        seqs = [(rng.standard_normal((L, 3)), rng.standard_normal((L, 2))) for L in (6, 1, 9, 4)]
        seqs[0] = (seqs[0][0], np.zeros((6, 2)))
        batch = pad_sequences(seqs)
        m = random_model(rng, 3, 2, 3)
        gamma = np.zeros(batch.zs.shape[:2] + (3,))
        gamma[0, :6, 1] = 1.0
        gamma[1:, :, 2] = 1.0
        gamma[np.arange(gamma.shape[1]) >= batch.lengths[:, None]] = 0.0
        stats = PosteriorStats(gamma=gamma, xi=gamma[:, :-1, :, None] * gamma[:, 1:, None, :],
                               loglik=np.zeros(4))
        X, Z, Zprev, G = live_rows(batch, stats)
        diag, ref_diag = {}, {}
        got = _update_mean_params(m, np.arange(3), Z, X, Zprev, G, 3, diag)
        ref = masked_update_mean_params(m, np.arange(3), Z, X, Zprev, G, 3, ref_diag)
        for g, r in zip(got[:3], ref):
            np.testing.assert_array_equal(g, r)
        assert diag == ref_diag
        np.testing.assert_array_equal(got[0][0], m.mu[0])
        np.testing.assert_array_equal(got[0][1], 0.0)
        assert np.all(got[0][2] != m.mu[2])

    @settings(max_examples=300, deadline=None)
    @given(mean_problems())
    # One sequence of 2 steps, dx = dz = 1, 2 states: the minimum-norm
    # coupling solve returns a and b of 2e5 to 6.5e6, whose design terms
    # cancel in the fitted mean and leave eps |x| |a| |mu| of rounding.
    @example(problem=mean_problem(seed=117, variant="aio", S=2, dz=1, kinds=["normal"], lengths=[2],
                                  data="normal", drop_state=False, rounds=1))
    # One sequence of 3 steps whose b reaches 1.6e4: design terms of 1.5e6
    # cancel to residuals of 0.2, so both forms keep only part of their
    # terms' digits (the R form is off by 1.1e-10 on an entry of 0.044).
    @example(problem=mean_problem(seed=42185128, variant="aio", S=2, dz=2,
                                  kinds=["binary", "normal", "const", "const"], lengths=[3],
                                  data="offset", drop_state=False, rounds=1))
    def test_scatter_from_r_matches_residual_form(self, problem):
        batch, stats, m, rounds = problem
        X, Z, Zprev, G = live_rows(batch, stats)
        states = np.flatnonzero(G.sum(axis=0) > 1e-12)
        mu, a, b, scatter = _update_mean_params(m, states, Z, X, Zprev, G[:, states], rounds, {})
        eps = np.finfo(float).eps
        for k, i in enumerate(states):
            fitted = (1.0 + X @ a[k] + Zprev @ b[k])[:, None] * mu[k]
            resid = Z - fitted
            ref = (resid * G[:, i, None]).T @ resid
            exact = rational_scatter(mu[k], a[k], b[k], X, Zprev, Z, G[:, i])
            # Each form rounds a row's residual by about eps times the size of
            # its terms, the design terms x a mu and z_prev b mu among them,
            # however far they cancel; that rounding enters r r^T once in each
            # factor, so each form's error is eps |r| |terms| in the g-weighted
            # norms over the rows, plus (eps |terms|)^2 where r is all rounding.
            design = (np.abs(X) @ np.abs(a[k]) + np.abs(Zprev) @ np.abs(b[k]))[:, None] * np.abs(mu[k])
            terms = math.sqrt(float(G[:, i] @ np.sum(Z * Z + fitted * fitted + design * design, axis=1)))
            r = math.sqrt(float(np.trace(exact)))
            envelope = 32.0 * eps * terms * (r + eps * terms)
            for name, form in (("R", scatter[k]), ("residual", ref)):
                assert np.abs(form - exact).max() <= envelope, name

    @settings(max_examples=300, deadline=None)
    @given(mean_problems())
    def test_triangle_solver_matches_whole_block_solver(self, problem):
        batch, stats, m, _ = problem
        X, Z, Zprev, G = live_rows(batch, stats)
        R, p = weighted_triangle(m, X, Z, Zprev, G)
        got, flags = _min_norm_solver(R, p, Z.shape[0])
        ref, ref_flags = kp_min_norm_solver(R, p, Z.shape[0])
        np.testing.assert_array_equal(flags, ref_flags)
        for k in range(m.states):
            assert np.abs(got[k] - ref[k]).max(initial=0.0) <= 1e-9 * np.abs(ref[k]).max(initial=0.0)

    def test_stacked_floor_matches_each_matrix_floored_alone(self):
        rng = make_rng(24)
        A = rng.standard_normal((4, 3, 2))
        stack = A @ A.transpose(0, 2, 1)  # rank 2 of 3: eigenvalue 0, floored
        stack[1] += np.eye(3)             # full rank: left alone
        diag, each_diag = {}, {}
        got = _floor_covariance(stack, diag)
        for k in range(4):
            np.testing.assert_allclose(got[k], _floor_covariance(stack[k], each_diag),
                                       rtol=0, atol=1e-14)
        assert diag == each_diag == {"floored": 3}

    @pytest.mark.parametrize("gap, deficient", [(1e-11, False), (0.0, True)])
    def test_rank_cut_is_the_lstsq_cut(self, gap, deficient):
        # A column 1e-11 off its neighbour keeps the design full rank under
        # lstsq's cutoff, eps max(N, p) s_max (about 1e-14 here); an exact
        # duplicate does not.  Counts only: at that conditioning the two
        # solves need not agree to 1e-9.
        rng = make_rng(16)
        seqs = []
        for _ in range(4):
            x = rng.standard_normal(12)
            xs = np.stack([x, x + gap * rng.standard_normal(12), rng.standard_normal(12)], axis=1)
            seqs.append((xs, rng.standard_normal((12, 2))))
        batch = pad_sequences(seqs)
        m = random_model(rng, 2, 2, 3, variant="io")
        stats = forward_backward(m, *batch)
        diag, ref_diag = {}, {}
        m_step(batch, stats, m, diag)
        lstsq_mean_step(batch, stats, m, MEAN_ROUNDS, ref_diag)
        expected = 2 * MEAN_ROUNDS if deficient else 0
        assert diag.get("ridge", 0) == ref_diag.get("ridge", 0) == expected

    def test_covariance_floor_enforced(self):
        rng = make_rng(10)
        m = random_model(rng, 2, 2, 2)
        # identical observations collapse the residuals
        zs = np.tile(np.array([0.5, -0.25]), (12, 1))
        batch = pad_sequences([(rng.standard_normal((12, 2)), zs.copy()) for _ in range(3)])
        new = m_step(batch, forward_backward(m, *batch), m)
        for i in range(2):
            assert np.linalg.eigvalsh(new.sigma[i]).min() >= 1e-6 - 1e-12

    def test_single_em_pass_does_not_decrease_loglik(self):
        rng = make_rng(11)
        gen = random_model(rng, 2, 2, 2)
        seqs = [sample_sequence(gen, 15, rng) for _ in range(30)]
        m0, _ = fit_em(seqs, EmConfig(states=2, variant="aio", max_iter=1, seed=0))
        batch = pad_sequences(seqs)
        stats = forward_backward(m0, *batch)
        before = sum(stats.loglik)
        m1 = m_step(batch, stats, m0)
        after = sum(forward_backward(m1, xs, zs).loglik for xs, zs in seqs)
        assert after >= before - 1e-8


class TestFitEm:
    def test_single_state_recovers_sample_mean(self):
        rng = make_rng(12)
        data = rng.normal(loc=[1.5, -2.0], scale=0.6, size=(40, 2))
        seqs = [(rng.standard_normal((8, 2)), data[i * 8 : (i + 1) * 8]) for i in range(5)]
        model, _ = fit_em(seqs, EmConfig(states=1, variant="aio", max_iter=10, seed=0))
        np.testing.assert_allclose(model.mu[0], data.mean(axis=0), atol=1e-8)
        np.testing.assert_array_equal(model.a, 0.0)
        np.testing.assert_array_equal(model.b, 0.0)

    @pytest.mark.parametrize("variant", ["aio", "io", "hmm"])
    def test_loglik_trace_non_decreasing(self, variant):
        rng = make_rng(13)
        gen = random_model(rng, 2, 2, 2, variant=variant)
        seqs = [sample_sequence(gen, 20, rng) for _ in range(40)]
        _, trace = fit_em(seqs, EmConfig(states=2, variant=variant, max_iter=12, tol=0.0, seed=3))
        diffs = np.diff(trace)
        assert diffs.min() >= -1e-8

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(["aio", "io", "hmm"]),
           st.sampled_from(["normal", "flagged"]))
    # Both dipped with the (a, b) solve on the normal equations by lstsq,
    # the first also with the plain solve before it.
    @example(seed=1162003493, S=2, variant="aio", inputs="flagged")
    @example(seed=13442, S=3, variant="aio", inputs="flagged")
    def test_loglik_trace_non_decreasing_on_random_models(self, seed, S, variant, inputs):
        rng = make_rng(seed)
        dx = int(rng.integers(1, 4)) if inputs == "normal" else 3
        gen = random_model(rng, S, int(rng.integers(1, 4)), dx, variant=variant)
        seqs = []
        for _ in range(int(rng.integers(2, 10))):
            sampler = None if inputs == "normal" else flagged_inputs(float(rng.integers(0, 2)))
            seqs.append(sample_sequence(gen, int(rng.integers(2, 12)), rng, sampler))
        _, trace = fit_em(seqs, EmConfig(states=S, variant=variant, max_iter=8, tol=0.0, seed=seed))
        assert len(trace) == 1 or np.diff(trace).min() >= -1e-8

    # left_turn fits of `xval --arch aiohmm --states 3 --em-iters 10 --seed 2`,
    # whose mean designs are near-singular; a plain solve of them lowered the
    # aiohmm benchmark's trace by 1e2 (first) and ended in LinAlgError (second)
    @pytest.mark.parametrize("data_seed, n, folds, fold", [(1, 240, 3, 0), (42, 600, 5, 3)])
    def test_synthetic_turn_class_trace_non_decreasing(self, data_seed, n, folds, fold):
        dataset = synth.generate(synth.ScenarioConfig(seed=data_seed), n)
        parts = synth.split_folds(dataset, folds, 2)
        train = [s for k, part in enumerate(parts) if k != fold for s in part]
        seqs = [(s.xs, s.zs) for s in train if s.label == EVENTS.index("left_turn")]
        _, trace = fit_em(seqs, EmConfig(states=3, max_iter=10, seed=2 + fold))
        assert np.diff(trace).min() >= -1e-8

    def test_closing_record_carries_the_fits_counts(self, monkeypatch, caplog):
        # The benchmark reads the rank-deficient solves and floored
        # covariances from this record's two arguments (FitSummaries in
        # bench/workloads.py), so its shape is part of fit_em's contract.
        dataset = synth.generate(synth.ScenarioConfig(seed=1), 80)
        seqs = [(s.xs, s.zs) for s in dataset if s.label == EVENTS.index("left_turn")]
        diags = []

        def recording_m_step(batch, stats, m, diag=None, rounds=MEAN_ROUNDS):
            diags.append(diag)
            return m_step(batch, stats, m, diag, rounds)

        monkeypatch.setattr(aiohmm, "m_step", recording_m_step)
        caplog.set_level(logging.INFO, logger=aiohmm.__name__)
        fit_em(seqs, EmConfig(states=3, max_iter=10, seed=2))
        fit_diag = diags[-1]  # the first call is the initialization's own M-step
        assert all(d is fit_diag for d in diags[1:])
        counts = (fit_diag["ridge"], fit_diag["floored"])
        assert min(counts) > 0
        records = [r for r in caplog.records if r.name == aiohmm.__name__ and r.funcName == "fit_em"]
        assert len(records) == 1 and records[0] is caplog.records[-1]
        assert records[0].levelno == logging.INFO
        assert isinstance(records[0].args, tuple) and len(records[0].args) == 2
        assert all(type(v) is int for v in records[0].args)
        assert records[0].args == counts

    def test_padded_fit_raises_no_runtime_warning(self):
        dataset = synth.generate(synth.ScenarioConfig(seed=1), 240)
        seqs = [(s.xs, s.zs) for s in dataset if s.label == EVENTS.index("left_turn")]
        assert len({xs.shape[0] for xs, _ in seqs}) > 1  # the batch is really padded
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = fit_em(seqs, EmConfig(states=3, max_iter=10, seed=2))
        assert np.all(np.isfinite(trace))

    @pytest.mark.parametrize("variant", ["aio", "io", "hmm"])
    def test_one_draw_initialization_matches_per_sequence_draws(self, variant):
        rng = make_rng(25)
        for lengths, S, seed in (([1], 2, 0), ([5, 1, 9], 3, 4), ([12] * 3, 1, 7), ([3, 8, 2, 1, 6, 4], 3, 11)):
            seqs = [(rng.standard_normal((L, 3)), rng.standard_normal((L, 2))) for L in lengths]
            batch = pad_sequences(seqs)
            config = EmConfig(states=S, variant=variant, seed=seed)
            got, ref = _init_model(batch, config), loop_init_model(batch, config)
            for name in ("mu", "a", "b", "sigma", "w", "pi"):
                np.testing.assert_array_equal(getattr(got, name), getattr(ref, name))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_em([], EmConfig())

    # tol=nan used to run silently to max_iter
    @pytest.mark.parametrize("field, value", [
        ("tol", -1e-6), ("tol", float("nan")),
    ])
    def test_bad_setting_rejected_by_name(self, field, value):
        rng = make_rng(14)
        seqs = [(rng.standard_normal((6, 2)), rng.standard_normal((6, 2))) for _ in range(3)]
        with pytest.raises(ValueError, match=f"^{field} "):
            fit_em(seqs, EmConfig(states=2, max_iter=3, **{field: value}))

    def test_smallest_settings_accepted(self):
        rng = make_rng(15)
        seqs = [(rng.standard_normal((6, 2)), rng.standard_normal((6, 2))) for _ in range(3)]
        config = EmConfig(states=2, max_iter=3, tol=0.0)
        model, trace = fit_em(seqs, config)
        assert len(trace) == 3


class TestEmConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("states", 0, "need at least one state"), ("variant", "aiohmm", "unknown variant"),
        ("max_iter", 0, "max_iter must be positive"), ("tol", -1e-6, "tol must be"),
        ("tol", float("nan"), "tol must be"),
    ])
    def test_bad_setting_rejected_when_made(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            EmConfig(**{field: value})
        with pytest.raises(ValueError, match=message):
            replace(EmConfig(), **{field: value})

    # states=2.5 used to fail inside _init_model with a bare TypeError
    @pytest.mark.parametrize("field", ["states", "max_iter", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
    def test_non_integer_count_rejected_by_name(self, field, value):
        message = f"^field '{field}' must be an integer, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            EmConfig(**{field: value})
        with pytest.raises(ValueError, match=message):
            replace(EmConfig(), **{field: value})

    # used to be accepted, then refused by NumPy's generator without the field's name
    @pytest.mark.parametrize("seed", [-1, -(2**64)])
    def test_negative_seed_rejected_by_name(self, seed):
        message = f"^field 'seed' must be a non-negative integer, got {seed}$"
        with pytest.raises(ValueError, match=message):
            EmConfig(seed=seed)
        with pytest.raises(ValueError, match=message):
            replace(EmConfig(), seed=seed)

    def test_numpy_integer_counts_accepted(self):
        assert EmConfig(states=np.int64(2), max_iter=np.int64(3), seed=np.int64(4)).states == 2

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            EmConfig().states = 0

    def test_checkpoint_block_holds_the_fields(self):
        assert asdict(EmConfig()) == {"states": 3, "variant": "aio", "max_iter": 50, "tol": 1e-6, "seed": 0}


class TestVariantNesting:
    def test_io_equals_aio_with_zero_b(self):
        rng = make_rng(14)
        io = random_model(rng, 3, 2, 2, variant="io")
        as_aio = io.copy()
        as_aio.variant = "aio"
        xs, zs = rng.standard_normal((9, 2)), rng.standard_normal((9, 2))
        assert sequence_loglik(io, xs, zs) == sequence_loglik(as_aio, xs, zs)

    def test_hmm_equals_aio_with_uniform_transitions(self):
        rng = make_rng(15)
        hmm = random_model(rng, 2, 2, 2, variant="hmm")
        hmm.w[...] = 0.0  # constant (uniform) transitions
        as_aio = AioHmmModel(
            variant="aio", mu=hmm.mu.copy(), a=hmm.a.copy(), b=hmm.b.copy(),
            sigma=hmm.sigma.copy(), w=np.zeros((2, 2, 2)), pi=hmm.pi.copy(),
        )
        xs, zs = rng.standard_normal((7, 2)), rng.standard_normal((7, 2))
        assert sequence_loglik(hmm, xs, zs) == sequence_loglik(as_aio, xs, zs)


class TestModelValidate:
    # NaN pi used to pass the distribution check, and NaN sigma the Cholesky check.
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["mu", "a", "b", "sigma", "w", "pi"])
    def test_non_finite_field_refused_by_name(self, field, value):
        m = random_model(make_rng(40), 3, 2, 2)
        m.validate()
        getattr(m, field).flat[-1] = value
        with pytest.raises(ValueError, match=f"^{field} contains non-finite values$"):
            m.validate()


class TestInference:
    def test_two_model_posterior(self):
        post = softmax(np.array([-10.0, -12.0]) + np.log([0.5, 0.5]))
        np.testing.assert_allclose(post, [0.88079708, 0.11920292], atol=1e-6)

    def test_identical_models_give_uniform(self):
        rng = make_rng(16)
        m = random_model(rng, 2, 2, 2)
        xs, zs = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        events = SETTINGS["lane"]
        ens = AioHmmEnsemble(events=events, models=dict(zip(events, [m, m.copy(), m.copy()])))
        post = ens.posterior(xs, zs)
        np.testing.assert_allclose(post, 1 / 3, atol=1e-12)

    def test_argmax_shift_invariant(self):
        rng = make_rng(17)
        log_prior = np.log(np.full(4, 0.25))
        for _ in range(25):
            logliks = rng.uniform(-500, 0, size=4)
            c = rng.uniform(-1000, 1000)
            a = softmax(logliks + log_prior)
            b = softmax(logliks + c + log_prior)
            assert int(np.argmax(a)) == int(np.argmax(b))
            np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize(
        "prior",
        [[0.5, 0.5, 0.5, 0.5, -1.0], [2.0, -1.0, 0.0, 0.0, 0.0], [0.2] * 4, [0.2] * 4 + [float("nan")],
         [0.1] * 5],
        ids=["negative-sum-above-one", "negative-sum-one", "too-short", "nan", "sum-below-one"],
    )
    def test_prior_that_is_no_distribution_rejected(self, prior):
        # A negative entry would stream NaN probabilities.
        rng = make_rng(19)
        models = dict(zip(EVENTS, (random_model(rng, 2, 2, 2) for _ in EVENTS)))
        message = r"'prior' must be a distribution over the 5 events"
        with pytest.raises(ValueError, match=message):
            AioHmmEnsemble(events=EVENTS, models=models, prior=prior)

    # Each used to be built, and saved by save_model, and refused only by
    # load_model; a non-positive-definite class failed AioHmmPredictor with
    # a bare LinAlgError.
    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.sigma.__setitem__(1, -np.eye(2)), r"sigma\[1\] is not positive definite"),
        (lambda m: m.pi.__setitem__(slice(None), [1.5, -0.5]), "pi must be a distribution over states"),
        (lambda m: m.mu.__setitem__((0, 0), np.nan), "mu contains non-finite values"),
        (lambda m: setattr(m, "variant", "io"), "variant 'io' requires b = 0"),
        (lambda m: setattr(m, "w", m.w[:, :1]), r"w has shape \(2, 1, 2\), expected \(2, 2, 2\)"),
    ], ids=["sigma", "pi", "nan-mu", "io-variant", "w-shape"])
    def test_invalid_class_rejected_by_name(self, edit, message):
        rng = make_rng(21)
        models = dict(zip(EVENTS, (random_model(rng, 2, 2, 2) for _ in EVENTS)))
        edit(models["left_turn"])
        with pytest.raises(ValueError, match=rf"^model 'left_turn': {message}$"):
            AioHmmEnsemble(events=EVENTS, models=models)

    @pytest.mark.parametrize("events, message", [
        (("straight", "left_lane"), "'straight' must be the last event"),
        (("left_lane", "right_lane"), "'straight' must be the last event"),
        ((), "'straight' must be the last event"),
        (("left_lane", "left_lane", "straight"), "duplicate event labels"),
        (("u_turn", "straight"), "unknown event labels"),
    ], ids=["straight-first", "no-straight", "empty", "duplicate", "unknown"])
    def test_invalid_event_tuple_rejected(self, events, message):
        rng = make_rng(22)
        models = {e: random_model(rng, 2, 2, 2) for e in events}
        with pytest.raises(ValueError, match=message):
            AioHmmEnsemble(events=events, models=models)

    # A checkpoint can no longer name its classes, so these rules guard only
    # ensembles built in code.
    @pytest.mark.parametrize("edit, message", [
        (lambda models: models.pop("right_lane"), r"'models' has no model for events \['right_lane'\]"),
        (lambda models: models.update(bogus=models["straight"]),
         r"'models' has models for keys outside the events \['bogus'\]"),
    ], ids=["model-missing", "stray-model-key"])
    def test_models_not_keyed_by_the_events_rejected(self, edit, message):
        rng = make_rng(20)
        models = dict(zip(EVENTS, (random_model(rng, 2, 2, 2) for _ in EVENTS)))
        edit(models)
        with pytest.raises(ValueError, match=message):
            AioHmmEnsemble(events=EVENTS, models=models)
