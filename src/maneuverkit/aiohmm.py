"""Autoregressive input-output hidden Markov models, trained by EM.

One model is fitted per event class.  The latent chain h_t moves under
log-linear transitions driven by the outside stream,

    P(h_t = j | h_{t-1} = i, x_t) = exp(w_ij . x_t) / sum_l exp(w_il . x_t),

and each state emits the inside observation through a Gaussian whose mean
is scaled by the current input and the previous observation:

    z_t | h_t = i  ~  N((1 + a_i . x_t + b_i . z_{t-1}) mu_i, Sigma_i).

The ``io`` variant pins b_i = 0 (no autoregression); the ``hmm`` variant
additionally pins a_i = 0 and replaces the transition input by a constant
bias coordinate, making transitions input-independent.

The E-step is one log-space forward-backward pass over a zero-padded batch
of a class's sequences, so no step can underflow.  Its forward half is
:func:`block_forward`, the one block forward pass: one emission call over
the real steps and one log-softmax cover every step, and one
:func:`log_forward` recursion runs over any leading axes of chains.  Past
its own end each sequence gets log emission 0 and the log of the identity
transition matrix, which leaves its real steps exactly as a pass over that
sequence alone.  The predictor's batched trajectories run the same pass
over all classes stacked, and the streaming predictor advances its forward
vectors with the one-step update :func:`log_forward_step` and the same
:func:`log_transitions`.

The M-step solves the coupled mean parameters by alternating exact
weighted least squares, updates each covariance from posterior-weighted
residuals (eigenvalues floored at ``COV_FLOOR``), refits the initial
distribution from the t=1 posteriors, and improves the transition weights
by ``BOUND_STEPS`` steps of Boehning's fixed-Hessian lower-bound ascent for
multinomial logistic regression (Boehning 1992).  The alternating solve
is factored once per M-step: one R-only QR of every state's weighted
[design | z | 1] stack and one small SVD of each p x p design triangle
give every round's mean and minimum-norm coupling solve, for all states
in lockstep, without touching the data rows again; the same R gives the
residual scatter of every covariance, which one batched ``eigh`` floors.
The ascent scales its inputs by the bound's fixed steps once, so each
step is one softmax and one product.
Every piece either maximizes or never decreases the expected complete-data
log-likelihood, so the training log-likelihood trace is non-decreasing.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace

import numpy as np

from .numerics import Padded, as_block, make_rng, pad_sequences, softmax

log = logging.getLogger(__name__)

VARIANT_AIO = "aio"
VARIANT_IO = "io"
VARIANT_HMM = "hmm"
VARIANTS = (VARIANT_AIO, VARIANT_IO, VARIANT_HMM)

LOG_2PI = float(np.log(2.0 * np.pi))

COV_FLOOR = 1e-6   # smallest allowed covariance eigenvalue
BOUND_STEPS = 25   # bound-ascent steps on the transition weights per M-step


@dataclass
class AioHmmModel:
    """Per-state parameters: mu (S, dz), a (S, dx), b (S, dz),
    sigma (S, dz, dz), transition weights w (S, S, dt), initial pi (S,).

    ``dt`` is dx for the aio/io variants and 1 (a bias) for the hmm variant.
    """

    variant: str
    mu: np.ndarray
    a: np.ndarray
    b: np.ndarray
    sigma: np.ndarray
    w: np.ndarray
    pi: np.ndarray

    @property
    def states(self) -> int:
        return self.mu.shape[0]

    @property
    def dim_z(self) -> int:
        return self.mu.shape[1]

    @property
    def dim_x(self) -> int:
        return self.a.shape[1]

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.mu.ndim != 2 or self.a.ndim != 2:
            raise ValueError(f"mu and a must be 2-D, got shapes {self.mu.shape} and {self.a.shape}")
        S, dz, dx = self.states, self.dim_z, self.dim_x
        dt = dx if self.variant != VARIANT_HMM else 1
        shapes = {"a": (S, dx), "b": (S, dz), "sigma": (S, dz, dz), "w": (S, S, dt)}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} has shape {getattr(self, name).shape}, expected {shape}")
        if (self.pi.shape != (S,) or (self.pi < 0.0).any()
                or abs(float(self.pi.sum()) - 1.0) > 1e-9):
            raise ValueError("pi must be a distribution over states")
        if self.variant in (VARIANT_IO, VARIANT_HMM) and np.any(self.b):
            raise ValueError(f"variant {self.variant!r} requires b = 0")
        if self.variant == VARIANT_HMM and np.any(self.a):
            raise ValueError("variant 'hmm' requires a = 0")
        for i in range(S):
            try:
                np.linalg.cholesky(self.sigma[i])
            except np.linalg.LinAlgError:
                raise ValueError(f"sigma[{i}] is not positive definite") from None

    def copy(self) -> "AioHmmModel":
        return replace(self, **{k: getattr(self, k).copy() for k in ("mu", "a", "b", "sigma", "w", "pi")})


@dataclass
class PosteriorStats:
    """E-step output: gamma (T, S) state posteriors, xi (T-1, S, S)
    transition posteriors and the data log-likelihood of one sequence, or
    (B, T, S), (B, T-1, S, S) and (B,) for a padded batch, zero past each
    sequence's end."""

    gamma: np.ndarray
    xi: np.ndarray
    loglik: float | np.ndarray


@dataclass
class EmConfig:
    states: int = 3
    variant: str = VARIANT_AIO
    max_iter: int = 50
    tol: float = 1e-6              # relative loglik improvement
    seed: int = 0
    mean_rounds: int = 3           # alternating WLS rounds for (mu, a, b)

    def validate(self) -> None:
        if self.states < 1:
            raise ValueError("need at least one state")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        # written as "not (ok)", so NaN fails it too
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be a non-negative number, got {self.tol!r}")
        if self.mean_rounds < 1:
            raise ValueError(f"mean_rounds must be at least 1, got {self.mean_rounds!r}")

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Model pieces
# ---------------------------------------------------------------------------


def transition_inputs(m: AioHmmModel, xs: np.ndarray) -> np.ndarray:
    """Effective transition features: x_t, or a constant bias for 'hmm'."""
    if m.variant == VARIANT_HMM:
        return np.ones(xs.shape[:-1] + (1,))
    return xs


def log_transition_matrices(m: AioHmmModel, xs: np.ndarray) -> np.ndarray:
    """(T, S, S) log transition probabilities.

    Computed as log-softmax of the finite logits, so entries never reach
    -inf even when the probabilities themselves underflow.
    """
    return log_transitions(m.w, transition_inputs(m, xs)).transpose(2, 0, 1)


def _shifted_logits(w: np.ndarray, xe: np.ndarray) -> np.ndarray:
    """(..., S, S, R) logits w_i . xe_r less their maximum over successors
    (axis -2), for weights (..., S, S, dt) with any leading axes, every
    source state i and input row r of xe (R, dt), from one product of the
    flattened weights with xe.T.  Rows run along the last axis, so the
    reductions over successors take whole contiguous rows instead of
    length-S runs."""
    logits = (w.reshape(-1, w.shape[-1]) @ xe.T).reshape(w.shape[:-1] + (-1,))
    return logits - logits.max(axis=-2, keepdims=True)


def log_transitions(w: np.ndarray, xe: np.ndarray) -> np.ndarray:
    """(..., S, S, R) log-softmax over successors of the logits of
    :func:`_shifted_logits`."""
    shifted = _shifted_logits(w, xe)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-2, keepdims=True))


def log_forward_step(
    log_alpha: np.ndarray, log_a: np.ndarray, logb: np.ndarray | float
) -> np.ndarray:
    """One log-space forward update over any leading axes: log alphas
    (..., S), log transitions (..., S, S) from source (axis -2) to successor
    (axis -1), and the successors' log emissions (..., S)."""
    return np.logaddexp.reduce(log_alpha[..., :, None] + log_a, axis=-2) + logb


def log_forward(log_pi: np.ndarray, log_a: np.ndarray, logb: np.ndarray) -> np.ndarray:
    """Log alphas (..., T, S) of the forward recursion over any leading
    axes, from log initial probabilities that broadcast against (..., S),
    log transitions (..., T-1, S, S) whose entry t - 1 leads into step t,
    and log emissions (..., T, S).  The log-sum-exp of the alphas at step t
    is the log-likelihood of the prefix that ends there."""
    la = np.empty(logb.shape)
    la[..., 0, :] = log_pi + logb[..., 0, :]
    for t in range(1, logb.shape[-2]):
        la[..., t, :] = log_forward_step(la[..., t - 1, :], log_a[..., t - 1, :, :], logb[..., t, :])
    return la


def shifted_observations(zs: np.ndarray) -> np.ndarray:
    """z_{t-1} rows (along the second-to-last axis) with the boundary z_0
    taken as the zero vector."""
    prev = np.zeros_like(zs)
    prev[..., 1:, :] = zs[..., :-1, :]
    return prev


def emission_scales(m: AioHmmModel, xs: np.ndarray, z_prev: np.ndarray) -> np.ndarray:
    """(T, S) mean scale factors 1 + a_i.x_t + b_i.z_{t-1} per state; the
    pinned zeros of the io and hmm variants add exact zeros."""
    return 1.0 + xs @ m.a.T + z_prev @ m.b.T


def emission_factors(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors (S, dz, dz) and log-determinants (S,) of a
    covariance stack, in the form :func:`emission_logprobs` takes them."""
    chol = np.linalg.cholesky(sigma)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    return chol, logdet


def emission_logprobs(
    m: AioHmmModel,
    xs: np.ndarray,
    zs: np.ndarray,
    z_prev: np.ndarray | None = None,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """(T, S) log emission densities for a whole sequence.

    All states go through one batched factorization and one batched solve.
    ``factors`` are ``emission_factors(m.sigma)`` when the caller keeps them
    across calls; every stage matches a per-state loop bit for bit.
    """
    if z_prev is None:
        z_prev = shifted_observations(zs)
    chol, logdet = emission_factors(m.sigma) if factors is None else factors
    scales = emission_scales(m, xs, z_prev)
    resid = zs[None, :, :] - scales.T[:, :, None] * m.mu[:, None, :]    # (S, T, dz)
    y = np.linalg.solve(chol, resid.transpose(0, 2, 1))                 # (S, dz, T)
    quad = np.sum(y * y, axis=1)                                        # (S, T)
    out = np.empty((zs.shape[0], m.states))
    out[:] = (-0.5 * ((m.dim_z * LOG_2PI + logdet)[:, None] + quad)).T
    return out


# ---------------------------------------------------------------------------
# E-step
# ---------------------------------------------------------------------------


def block_forward(
    m: AioHmmModel, w: np.ndarray, log_pi: np.ndarray, xs: np.ndarray, zs: np.ndarray,
    lengths: np.ndarray, factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log forward pass of chains with transition weights ``w`` (..., S, S,
    dt) and log initial probabilities ``log_pi`` (..., S) over a zero-padded
    (B, T, ·) block of sequences ``lengths`` long: the log emissions
    (..., B, T, S), log transitions (..., B, T-1, S, S) and log alphas.

    ``m`` emits for all (...) x S states in one :func:`emission_logprobs`
    call over the real rows (``factors`` as that call takes them) and its
    variant sets the transition inputs.  Past its own end a sequence gets
    log emission 0 and the log of the identity transition matrix, which
    carries its forward and backward vectors through unchanged: every real
    step, and the log-likelihood, is what a pass over that sequence alone
    computes, and each padding row repeats the last real one.
    """
    B, T = xs.shape[:2]
    *lead, S = log_pi.shape
    live = np.arange(T) < lengths[:, None]                               # (B, T)
    logb = np.zeros((B, T, m.states))
    logb[live] = emission_logprobs(m, xs[live], zs[live], z_prev=shifted_observations(zs)[live],
                                   factors=factors)
    logb = np.moveaxis(logb.reshape(B, T, *lead, S), (0, 1), (-3, -2))
    xe = transition_inputs(m, xs[:, 1:].reshape(B * (T - 1), xs.shape[2]))
    log_a = np.moveaxis(log_transitions(w, xe).reshape(*lead, S, S, B, T - 1), (-2, -1), (-4, -3))
    log_a[..., ~live[:, 1:], :, :] = np.where(np.eye(S, dtype=bool), 0.0, -np.inf)
    return logb, log_a, log_forward(log_pi[..., None, :], log_a, logb)


def forward_backward(
    m: AioHmmModel, xs: np.ndarray, zs: np.ndarray, lengths: np.ndarray | None = None
) -> PosteriorStats:
    """Forward-backward over the input-driven chain, for one (T, d)
    sequence or a padded (B, T, d) batch with per-sequence ``lengths``
    (every sequence runs the full T when omitted).

    The pass runs in log space over the whole batch at once: the forward
    half is :func:`block_forward`, and the backward half its mirror, so no
    step can underflow for finite inputs.
    """
    (xs, zs, lengths), single = as_block(xs, zs, lengths)
    T = xs.shape[1]
    live = np.arange(T) < lengths[:, None]                               # (B, T)
    with np.errstate(divide="ignore"):  # zero pi entries give log 0 = -inf
        logb, log_a, la = block_forward(m, m.w, np.log(m.pi), xs, zs, lengths)
    lb = np.empty(la.shape)
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
    if single:
        return PosteriorStats(gamma=gamma[0], xi=xi[0], loglik=float(loglik[0]))
    return PosteriorStats(gamma=gamma, xi=xi, loglik=loglik)


def sequence_loglik(m: AioHmmModel, xs: np.ndarray, zs: np.ndarray) -> float:
    """log P(z_1..z_T | x_1..x_T): the log-sum-exp of the last alphas of
    the forward recursion, the half of :func:`forward_backward` it needs."""
    with np.errstate(divide="ignore"):  # zero pi entries give log 0 = -inf
        log_pi = np.log(m.pi)
    la = log_forward(log_pi, log_transition_matrices(m, xs[1:]), emission_logprobs(m, xs, zs))
    loglik = np.logaddexp.reduce(la[-1])
    if not np.isfinite(loglik):
        raise FloatingPointError("log-space forward pass degenerated")
    return float(loglik)


# ---------------------------------------------------------------------------
# M-step
# ---------------------------------------------------------------------------


def _floor_covariance(sigma: np.ndarray, floor: float, diag: dict) -> np.ndarray:
    """Symmetrize a covariance, or a stack of them along leading axes, and
    clip its eigenvalues from below, all through one batched ``eigh``;
    ``diag["floored"]`` counts the matrices that needed the clip."""
    vals, vecs = np.linalg.eigh(0.5 * (sigma + np.swapaxes(sigma, -1, -2)))
    diag["floored"] = diag.get("floored", 0) + int(np.count_nonzero(vals.min(axis=-1) < floor))
    return (vecs * np.maximum(vals, floor)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _min_norm_solver(R: np.ndarray, p: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares solve of each state's design block.

    R: (S, K, c) triangular factors of the weighted [design | z | 1] stacks
    of ``rows`` rows, whose first p columns are the design.  Returns the
    (S, p, c - p) maps that take the coefficients of a right-hand side
    spanned by the remaining columns to the minimum-norm solution, and (S,)
    flags for rank-deficient designs.  Singular values up to lstsq's own
    cutoff, eps max(rows, p) s_max, count as zero.  R is upper triangular,
    so its design block is zero below row p and the solve needs only the
    top p rows: one SVD of the p x p triangle.
    """
    U, s, Vt = np.linalg.svd(R[:, :p, :p], full_matrices=False)
    kept = s > np.finfo(float).eps * max(rows, p) * s[:, :1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    solver = Vt.transpose(0, 2, 1) @ (inv_s[:, :, None] * (U.transpose(0, 2, 1) @ R[:, :p, p:]))
    return solver, kept.sum(axis=1) < p


def _update_mean_params(
    m: AioHmmModel, states: np.ndarray, Z: np.ndarray, X: np.ndarray, Zprev: np.ndarray,
    G: np.ndarray, config: EmConfig, diag: dict,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Alternating exact WLS for (mu_i, a_i, b_i) on concatenated data,
    for the ``states`` (index array) with posteriors G (N, len(states)),
    all in lockstep.  Returns mu, a, b and each state's weighted residual
    scatter sum(g r r^T), r = z - s mu, under the new parameters.

    Holding (a, b) fixed, the optimal mu has the closed form
    sum(g s z) / sum(g s^2) with s = 1 + a.x + b.z_prev; holding mu fixed,
    (a, b) are a gamma-weighted least-squares fit of beta / alpha - 1 with
    beta = z . Sigma^-1 mu and alpha = mu . Sigma^-1 mu.  Each solve can
    only improve the expected complete-data log-likelihood.

    The weighted design never changes across rounds, and every round's
    right-hand side sqrt(g) (beta / alpha - 1) = sqrt(g) [z | 1] c with
    c = [Sigma^-1 mu / alpha; -1] lies in the span of fixed columns.  So
    one R-only QR of sqrt(g) [design | z | 1] per state carries everything:
    with A = QR, sqrt(g) s = Q R v for v = [a; b; 0; 1], so mu comes from
    R v and the columns of R under z, and the least-squares fit is the
    minimum-norm solve of R's design block against R's [z | 1] block times
    c, formed once per M-step from one small SVD (:func:`_min_norm_solver`).
    Lane flags constant within a sequence and near-collinear speeds make
    the design rank-deficient or nearly so; the minimum-norm solution, not
    the normal equations, keeps every round from lowering the expected
    log-likelihood.  Every round computes every state's update and keeps
    it only where that state's solve is still live, so the rounds index
    no subsets.  The scatter comes from R as well: sqrt(g) r =
    Q (R_z - (R v) mu^T), and Q's columns are orthonormal.
    """
    S, dz = len(states), Z.shape[1]
    # The design's columns are a prefix of [x | z_prev], as its coefficients are of [a | b].
    design = ([X] if m.variant != VARIANT_HMM else []) + ([Zprev] if m.variant == VARIANT_AIO else [])
    A = np.concatenate(design + [Z, np.ones((Z.shape[0], 1))], axis=1)
    p = A.shape[1] - dz - 1
    ab = np.concatenate([m.a, m.b], axis=1)[states]
    # With a single state the scale couplings are redundant with mu itself,
    # so they stay pinned and the update degenerates to a weighted mean.
    fit = m.states > 1 and p > 0
    R = np.linalg.qr(np.sqrt(G.T)[:, :, None] * A, mode="r")          # (S, K, p + dz + 1)
    Rz = np.ascontiguousarray(R[:, :, p : p + dz])
    v = np.zeros((S, A.shape[1]))
    v[:, :p] = ab[:, :p]
    v[:, -1] = 1.0
    mu = m.mu[states].copy()
    active = np.ones(S, dtype=bool)
    if fit:
        solver, deficient = _min_norm_solver(R, p, Z.shape[0])
        sigma_inv = np.linalg.inv(m.sigma[states])
        c = np.full((S, dz + 1), -1.0)                                 # [Sigma^-1 mu / alpha; -1]

    for _ in range(config.mean_rounds):
        root_gs = np.einsum("skc,sc->sk", R, v)                        # sqrt(g) s, rotated
        denom = np.einsum("sk,sk->s", root_gs, root_gs)
        np.divide(np.einsum("sk,skd->sd", np.ascontiguousarray(root_gs), Rz), denom[:, None],
                  out=mu, where=(active & (denom > 1e-12))[:, None])
        if not fit:
            break
        h = np.einsum("sde,se->sd", sigma_inv, mu)
        alpha = np.einsum("sd,sd->s", mu, h)
        active &= alpha > 1e-12
        if not active.any():
            break
        np.divide(h, alpha[:, None], out=c[:, :dz], where=active[:, None])
        v[:, :p] = np.where(active[:, None], np.einsum("spc,sc->sp", solver, c), v[:, :p])
        diag["ridge"] = diag.get("ridge", 0) + int(np.sum(deficient & active))
    ab[:, :p] = v[:, :p]
    resid = Rz - np.einsum("skc,sc->sk", R, v)[:, :, None] * mu[:, None, :]
    return mu, ab[:, : m.dim_x], ab[:, m.dim_x :], resid.transpose(0, 2, 1) @ resid


def _update_transitions(
    w: np.ndarray, Xe: np.ndarray, Xi: np.ndarray, steps: int
) -> np.ndarray:
    """``steps`` steps of Boehning lower-bound ascent on the expected
    transition term.

    Xe: (R, dt) transition inputs for every within-sequence step t >= 2;
    Xi: (R, S, S) matching transition posteriors.  For source state i with
    visit counts n_r = sum_j Xi[r, i, j] and M_i = sum_r n_r x_r x_r^T, the
    Hessian of its term is bounded below by -1/2 (I - 11^T/S) (x) M_i.  The
    gradient G_i = sum_r (Xi[r, i] - n_r p_ir) x_r^T has rows that sum to
    zero, so the bound's maximizer is w_i + G_i step_i with step_i =
    2 M_i^-1, a step that never lowers the term.  A ridge on M_i keeps it
    invertible; a larger M_i is still a valid bound.

    The inputs are scaled by the steps once per call: with X_i = Xe step_i,
    Y_i = n * X_i and D0_i = Xi[:, i]^T X_i, each step's move G_i step_i is
    D0_i - P_i Y_i for the (S, R) successor probabilities P_i, so a step is
    one softmax and one product for all source states together.
    """
    w = w.copy()
    if Xe.shape[0] == 0:
        return w
    xi = Xi.transpose(1, 2, 0)                                          # (S, S, R)
    n = xi.sum(axis=1)                                                  # (S, R)
    M = (n[:, None, :] * Xe.T) @ Xe                                     # (S, dt, dt)
    dt = M.shape[1]
    ridge = 1e-10 * (1.0 + np.trace(M, axis1=1, axis2=2) / dt)
    # M_i is symmetric, so X_i = (step_i Xe^T)^T.  Where the ridge alone keeps
    # M_i invertible, Xe times the explicit inverse rounds the step along Xe's
    # own rows by eps cond(M_i); the solve keeps it to a few eps.
    Mr = M + ridge[:, None, None] * np.eye(dt)
    scaled = np.linalg.solve(Mr, 2.0 * Xe.T[None]).transpose(0, 2, 1)  # (S, R, dt)
    D0 = xi @ scaled                                                    # (S, S, dt)
    Y = n[:, :, None] * scaled                                          # (S, R, dt)
    for _ in range(steps):
        p = np.exp(_shifted_logits(w, Xe))
        p /= p.sum(axis=1, keepdims=True)
        w += D0 - p @ Y
    return w


def m_step(
    batch: Padded,
    stats: PosteriorStats,
    m: AioHmmModel,
    config: EmConfig,
    diag: dict | None = None,
) -> AioHmmModel:
    """Maximization step over a padded batch and its ``forward_backward``
    statistics; only each sequence's real steps count.

    ``diag``, when given, accumulates counts of rank-deficient mean solves
    (key ``"ridge"``) and floored covariances so callers can report them
    once per fit.
    """
    if diag is None:
        diag = {}
    xs, zs, lengths = batch
    live = np.arange(xs.shape[1]) < lengths[:, None]
    X, Z, Zprev = xs[live], zs[live], shifted_observations(zs)[live]
    G = stats.gamma[live]
    Xe = transition_inputs(m, xs[:, 1:][live[:, 1:]])
    Xi = stats.xi[live[:, 1:]]

    new = m.copy()
    weights = G.sum(axis=0)
    for i in np.flatnonzero(weights <= 1e-12):
        log.warning("state %d received no posterior mass; left unchanged", i)
    states = np.flatnonzero(weights > 1e-12)
    new.mu[states], new.a[states], new.b[states], scatter = _update_mean_params(
        m, states, Z, X, Zprev, G[:, states], config, diag
    )
    new.sigma[states] = _floor_covariance(scatter / weights[states, None, None], COV_FLOOR, diag)

    new.w = _update_transitions(m.w, Xe, Xi, BOUND_STEPS)
    pi = stats.gamma[:, 0].sum(axis=0)
    new.pi = pi / pi.sum()
    return new


# ---------------------------------------------------------------------------
# EM driver
# ---------------------------------------------------------------------------


def _init_model(batch: Padded, config: EmConfig) -> AioHmmModel:
    """Randomized-responsibility initialization.

    Each observation receives a random state posterior from the seeded
    generator; a single M-step over those responsibilities produces the
    starting parameters, so initialization needs no side-channel heuristics.
    """
    rng = make_rng(config.seed)
    S = config.states
    B, T, dx = batch.xs.shape
    dz = batch.zs.shape[2]
    dt = dx if config.variant != VARIANT_HMM else 1

    blank = AioHmmModel(
        variant=config.variant,
        mu=np.zeros((S, dz)), a=np.zeros((S, dx)), b=np.zeros((S, dz)),
        sigma=np.stack([np.eye(dz)] * S), w=np.zeros((S, S, dt)),
        pi=np.full(S, 1.0 / S),
    )
    g = rng.uniform(0.2, 1.0, size=(int(batch.lengths.sum()), S))  # sequence by sequence
    gamma = np.zeros((B, T, S))
    gamma[np.arange(T) < batch.lengths[:, None]] = g / g.sum(axis=1, keepdims=True)
    xi = gamma[:, :-1, :, None] * gamma[:, 1:, None, :]
    stats = PosteriorStats(gamma=gamma, xi=xi, loglik=np.full(B, np.nan))
    model = m_step(batch, stats, blank, replace(config, mean_rounds=1), diag={})
    model.validate()
    return model


def fit_em(
    sequences: list[tuple[np.ndarray, np.ndarray]], config: EmConfig
) -> tuple[AioHmmModel, list[float]]:
    """Fit one model to the (xs, zs) sequences of a single event class.

    Returns the model and the per-iteration total log-likelihood trace.
    Stops when the relative improvement drops below ``config.tol`` or after
    ``config.max_iter`` iterations.  The sequences are padded into one
    batch once; each iteration is one ``forward_backward`` and one
    ``m_step`` over it.
    """
    config.validate()
    if not sequences:
        raise ValueError("cannot fit a model to an empty dataset")
    batch = pad_sequences(sequences)
    model = _init_model(batch, config)

    trace: list[float] = []
    diag: dict = {}
    for _ in range(config.max_iter):
        stats = forward_backward(model, *batch)
        total = float(sum(stats.loglik.tolist()))  # left to right: the tol = 0 stop sees the order
        trace.append(total)
        if len(trace) >= 2:
            prev = trace[-2]
            if abs(total - prev) <= config.tol * max(abs(prev), 1.0):
                break
        model = m_step(batch, stats, model, config, diag)
    if diag.get("ridge") or diag.get("floored"):
        log.info(
            "EM fit used %d rank-deficient mean solve(s) and floored %d covariance update(s)",
            diag.get("ridge", 0), diag.get("floored", 0),
        )
    return model, trace


def posterior_from_logliks(logliks: np.ndarray, log_prior: np.ndarray) -> np.ndarray:
    """Normalize per-model log-likelihoods and the log class prior into a
    class posterior; a class of log prior -inf gets exactly 0.

    Max-shifted, so the result (and its argmax in particular) is invariant
    under adding a constant to every log-likelihood.
    """
    return softmax(np.asarray(logliks, dtype=float) + log_prior)


# ---------------------------------------------------------------------------
# Sampling (for recovery experiments and demos)
# ---------------------------------------------------------------------------


def sample_sequence(
    m: AioHmmModel, T: int, rng: np.random.Generator, x_sampler=None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (xs, zs) of length T from the generative process.

    ``x_sampler(rng) -> x_t`` supplies the exogenous inputs; standard normal
    by default.
    """
    if x_sampler is None:
        x_sampler = lambda r: r.standard_normal(m.dim_x)
    chols = [np.linalg.cholesky(m.sigma[i]) for i in range(m.states)]
    xs = np.empty((T, m.dim_x))
    zs = np.empty((T, m.dim_z))
    z_prev = np.zeros(m.dim_z)
    h = int(rng.choice(m.states, p=m.pi))
    for t in range(T):
        xs[t] = x_sampler(rng)
        if t > 0:
            log_row = log_transition_matrices(m, xs[t : t + 1])[0, h]
            h = int(rng.choice(m.states, p=np.exp(log_row)))
        scale = 1.0 + float(m.a[h] @ xs[t]) + float(m.b[h] @ z_prev)
        mean = scale * m.mu[h]
        zs[t] = mean + chols[h] @ rng.standard_normal(m.dim_z)
        z_prev = zs[t]
    return xs, zs


@dataclass
class AioHmmEnsemble:
    """One fitted model per event class plus the class prior.

    The constructor checks what an ensemble is, once, and raises ValueError
    naming the first rule broken:
    - the prior is a finite, non-negative float array over the events that
      sums to 1 (uniform when omitted);
    - ``models`` holds exactly one model per event and none under any
      other key;
    - every class shares one (x, z) size, one variant and one state count,
      so the predictor stacks them as one (K, S) filter.
    """

    events: tuple[str, ...]
    models: dict[str, AioHmmModel]
    prior: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.events)
        prior = np.full(n, 1.0 / n) if self.prior is None else np.array(self.prior, dtype=float)
        if (prior.shape != (n,) or not np.isfinite(prior).all() or (prior < 0.0).any()
                or abs(float(prior.sum()) - 1.0) > 1e-9):
            raise ValueError(f"'prior' must be a distribution over the {n} events")
        self.prior = prior
        missing = [e for e in self.events if e not in self.models]
        if missing:
            raise ValueError(f"'models' has no model for events {missing!r}")
        stray = [key for key in self.models if key not in self.events]
        if stray:
            raise ValueError(f"'models' has models for keys outside the events {stray!r}")
        for what, shape in (("(x, z) sizes", lambda m: (m.dim_x, m.dim_z)),
                            ("variants", lambda m: m.variant), ("state counts", lambda m: m.states)):
            values = {shape(m) for m in self.models.values()}
            if len(values) > 1:
                raise ValueError(f"models disagree on their {what} {sorted(values)}")

    def posterior(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Posterior over the events from each class's :func:`sequence_loglik`."""
        logliks = np.array([sequence_loglik(self.models[e], xs, zs) for e in self.events])
        with np.errstate(divide="ignore"):  # a class of prior 0 gets log 0 = -inf
            return posterior_from_logliks(logliks, np.log(self.prior))
