"""Top-to-bottom 1D continuous HMM face recognizer.

Images are cut into overlapping horizontal blocks; each block becomes a
low-dimensional KLT coefficient vector; one left-to-right HMM per subject is
trained by uniform segmentation, then Viterbi (segmental) re-estimation, then
Baum-Welch. Recognition scores a probe under every subject model with the
scaled forward algorithm.

State emissions are single diagonal-covariance Gaussians with a variance
floor. Transition matrices allow only self loops and single forward steps;
those structural zeros are preserved exactly through every training stage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dataset import GrayImage, check_dims
from .errors import DataError, NumericError
# sym_eigen is not called here; benchmarks/tests still finds it bound in this module.
from .numerics import (affine_coords, gram_pca, require_shape, require_spread, scatter_pca,
                       sym_eigen)

log = logging.getLogger(__name__)

VAR_FLOOR = 1e-6
DEFAULT_STATES = 5  # hair/forehead, eyes, nose, mouth, chin
DEFAULT_BLOCK_HEIGHT = 10
DEFAULT_OVERLAP = 9
DEFAULT_KLT_DIM = 10
DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 20
# probes per recognize forward pass: 320 rows for 40 subjects, so the one emission
# buffer and each forward array hold about 1.3 MB
PROBE_CHUNK = 8

FEATURE_KLT = "klt"
FEATURE_RAW = "raw"

_GAMMA_FLOOR = 1e-12  # state occupancy (expected or counted) at most this counts as empty


@dataclass(frozen=True)
class BlockParams:
    """Overlapping horizontal block extraction geometry."""

    height: int  # L, rows per block
    overlap: int  # P, rows shared by consecutive blocks
    image_dims: tuple[int, int]  # (H, W)

    def __post_init__(self):
        h, w = self.image_dims
        if h < 1 or w < 1:
            raise DataError(f"invalid image dims {self.image_dims}")
        if not 1 <= self.height <= h:
            raise DataError(f"block height {self.height} out of range for image height {h}")
        if not 0 <= self.overlap <= self.height - 1:
            raise DataError(f"overlap {self.overlap} must be in [0, {self.height - 1}]")

    @property
    def stride(self) -> int:
        return self.height - self.overlap

    @property
    def block_dim(self) -> int:
        return self.height * self.image_dims[1]

    @property
    def block_count(self) -> int:
        return (self.image_dims[0] - self.height) // self.stride + 1


@dataclass(frozen=True)
class KltBasis:
    """PCA transform for block vectors: orthonormal rows over centered blocks."""

    mean: np.ndarray  # length L*W
    basis: np.ndarray  # d x (L*W)

    def __post_init__(self):
        require_shape("KLT basis", self.basis, (np.shape(self.basis)[0], np.size(self.mean)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class HmmModel:
    """Left-to-right HMM with diagonal-Gaussian emissions, started in state 0."""

    trans: np.ndarray  # row-stochastic, a[i][j] = 0 unless j in {i, i+1}
    means: np.ndarray  # n_states x d
    variances: np.ndarray  # n_states x d, floored
    warnings: int = 0  # empty-state re-estimation events

    def __post_init__(self):
        n = self.trans.shape[0]
        if self.trans.shape != (n, n) or self.means.shape[0] != n:
            raise DataError("inconsistent HMM parameter shapes")
        require_shape("HMM variances", self.variances, self.means.shape)
        # every check below compares, and any comparison with NaN is false
        if not all(np.isfinite(a).all() for a in (self.trans, self.means, self.variances)):
            raise DataError("HMM parameters must be finite")
        if np.tril(self.trans, -1).any() or np.triu(self.trans, 2).any():
            raise DataError("transition matrix violates left-to-right structure")
        if np.abs(self.trans.sum(axis=1) - 1.0).max() > 1e-12:
            raise DataError("transition rows must sum to 1")
        if self.trans[n - 1, n - 1] != 1.0:
            raise DataError("final state must self-loop with probability 1")
        if np.any(self.variances < VAR_FLOOR * (1 - 1e-12)):
            raise DataError("state variance below the floor")

    @property
    def n_states(self) -> int:
        return self.trans.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


class _Stacked(NamedTuple):
    """The parameters of S same-shape HMMs, stacked on a leading axis."""

    trans: np.ndarray  # S x N x N
    weights: np.ndarray  # S x 2d x N, rows [1 / variances; -2 means / variances]
    const: np.ndarray  # S x N, sum of means^2 / variances plus log det(2*pi*Sigma)

    @property
    def dim(self) -> int:
        return self.weights.shape[1] // 2


def _stack(models: list[HmmModel]) -> _Stacked:
    means = np.stack([m.means for m in models])
    variances = np.stack([m.variances for m in models])
    inv_var = 1.0 / variances
    with np.errstate(over="ignore"):  # a mean too far for its variance gives -inf emissions
        weights = np.concatenate([inv_var, -2.0 * means * inv_var], axis=2).transpose(0, 2, 1)
        const = np.sum(means * means * inv_var + np.log(2.0 * np.pi * variances), axis=2)
    return _Stacked(np.stack([m.trans for m in models]), np.ascontiguousarray(weights), const)


@dataclass(frozen=True)
class SubjectBank:
    """Per-subject HMMs sharing one block geometry and feature transform."""

    params: BlockParams
    klt: KltBasis | None  # None for raw-pixel features
    models: dict[str, HmmModel]
    # every subject's parameters in label order, stacked once for recognize
    stacked: _Stacked | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "models",
                           {lb: self.models[lb] for lb in sorted(self.models)})
        if self.klt is not None:
            require_shape("KLT mean", self.klt.mean, (self.params.block_dim,))
        obs_dim = self.params.block_dim if self.klt is None else self.klt.dim
        for label, model in self.models.items():
            if model.dim != obs_dim:
                raise DataError(f"HMM {label!r} state dimension {model.dim} != "
                                f"observation dimension {obs_dim}")
        if len({m.means.shape for m in self.models.values()}) > 1:
            raise DataError("the subject HMMs of a bank must share state count and dimension")
        object.__setattr__(self, "stacked",
                           _stack(list(self.models.values())) if self.models else None)

    @property
    def feature_mode(self) -> str:
        return FEATURE_RAW if self.klt is None else FEATURE_KLT

    @property
    def labels(self) -> list[str]:
        return list(self.models)

    @property
    def dims(self) -> tuple[int, int]:
        return self.params.image_dims

    def predict(self, images: Sequence[GrayImage]) -> list[tuple[str, float]]:
        """Per image, (maximum-likelihood subject, its forward log-likelihood)."""
        return [(label, scores[label]) for label, scores in recognize(self, images)]


def _windows(pixels: np.ndarray, params: BlockParams) -> np.ndarray:
    """T x (L*W) read-only view of the blocks of an H x W pixel array."""
    windows = np.lib.stride_tricks.sliding_window_view(
        pixels, params.height, axis=0)[::params.stride]  # T x W x L
    return windows.transpose(0, 2, 1).reshape(params.block_count, -1)


def extract_blocks(image: GrayImage, params: BlockParams) -> np.ndarray:
    """T x (L*W) matrix of flattened blocks, top to bottom.

    Block t covers rows [t*stride, t*stride + L); trailing rows that do not
    fill a whole block are discarded. The result is a read-only view of the
    image pixels, so overlapping blocks share their rows in memory.
    """
    return _windows(check_dims(image, params.image_dims).pixels, params)


def fit_klt(images: list[np.ndarray], params: BlockParams, d: int) -> KltBasis:
    """PCA of the blocks of H x W pixel arrays, truncated to min(d, surviving rank).

    With no more blocks than block dimensions the blocks are stacked and
    numerics.gram_pca takes the Gram-matrix route. Otherwise the D x D
    scatter is summed from lagged row products, never forming the n x D
    block matrix: block (r, r+k) of the scatter is the sum over images and
    blocks t of x[t*s + r]^T x[t*s + r + k], for x the image rows and s the
    stride. Rows are first shifted by their per-column mean, which leaves
    the scatter unchanged and keeps the cancellation in removing
    n * mean mean^T small; numerics.scatter_pca then solves for the top d
    eigenpairs only. The caller's arrays are never modified.
    """
    for pixels in images:
        require_shape("training image", pixels, params.image_dims)
    n = len(images) * params.block_count
    if n < 2:
        raise DataError(f"need at least 2 blocks to fit a KLT basis, got {n}")
    if d < 1:
        raise DataError(f"coefficient count must be >= 1, got {d}")
    if n <= params.block_dim:
        centered = np.vstack([_windows(pixels, params) for pixels in images], dtype=np.float64)
        raw_trace = np.einsum("ij,ij->", centered, centered)
        mean = centered.mean(axis=0)
        centered -= mean
        require_spread(np.einsum("ij,ij->", centered, centered), raw_trace)
        return KltBasis(mean, gram_pca(centered.T, d)[0].T.copy())

    height, stride, width = params.height, params.stride, params.image_dims[1]
    span = (params.block_count - 1) * stride + 1  # from row r of the first block to the last's
    last = span + height - 1  # rows from here on are in no block
    rows = np.empty((params.image_dims[0], len(images), width))  # rows[j, i]: row j of image i
    for i, pixels in enumerate(images):
        rows[:, i] = pixels
    column_mean = rows.mean(axis=(0, 1))
    rows -= column_mean
    shifted_mean = _windows(rows.sum(axis=1), params).sum(axis=0) / n
    scatter = np.empty((params.block_dim, params.block_dim))
    first = rows.transpose(0, 2, 1)  # H x W x images
    for lag in range(height):
        products = np.matmul(first[:last - lag], rows[lag:last])  # x[j]^T x[j + lag]
        for r in range(height - lag):
            block = products[r:r + span:stride].sum(axis=0)
            a, b = r * width, (r + lag) * width
            scatter[a:a + width, b:b + width] = block
            scatter[b:b + width, a:a + width] = block.T
    raw_trace = np.trace(scatter)
    scatter -= n * np.outer(shifted_mean, shifted_mean)
    require_spread(np.trace(scatter), raw_trace)
    components = scatter_pca(scatter, d)[0]
    return KltBasis(shifted_mean + np.tile(column_mean, height), components.T.copy())


def observe(blocks: np.ndarray, basis: KltBasis) -> np.ndarray:
    """Project blocks onto the KLT basis: o_t = basis @ (block_t - mean)."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 2 or blocks.shape[1] != basis.mean.size:
        raise DataError(
            f"block dimension {blocks.shape} does not match basis dimension {basis.mean.size}")
    return affine_coords(blocks, basis.mean, basis.basis.T)


def _check_seq(dim: int, seq: np.ndarray) -> np.ndarray:
    seq = np.atleast_2d(np.asarray(seq, dtype=np.float64))
    if seq.shape[0] < 1 or seq.size == 0:
        raise DataError("empty observation sequence")
    if seq.shape[1] != dim:
        raise DataError(f"observation dimension {seq.shape[1]} != model dimension {dim}")
    return seq


def _log_emissions(p: _Stacked, seqs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """B x T x N per-state diagonal-Gaussian log densities, written to out if given.

    seqs is B x T x d; either it or the stack may have a leading axis of 1,
    which is shared across the other's batch. One matmul scores every state:
    -0.5 * ([x^2, x] @ weights + const). Its rounding error grows as
    eps * sum((x^2 + means^2) / variances), at most 5.5e-12 on ORL-scale KLT
    features but 0.024 on random 920-pixel raw blocks at the variance floor.
    """
    out = np.matmul(np.concatenate([seqs * seqs, seqs], axis=2), p.weights, out=out)
    out += p.const[:, None, :]
    out *= -0.5
    return out


def _viterbi(trans: np.ndarray, logb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Viterbi over B sequences: (B x T paths, B joint log-likelihoods).

    trans is B x N x N (or 1 x N x N, shared), logb is B x T x N. The path
    starts in state 0 and moves by at most one state per step; score ties
    prefer the lower predecessor, and the lowest final state wins ties.
    """
    batch, t_len, n = logb.shape
    with np.errstate(divide="ignore"):
        loga = np.log(trans)
    stay = np.diagonal(loga, axis1=1, axis2=2).copy()  # a[j][j]
    move = np.diagonal(loga, offset=1, axis1=1, axis2=2).copy()  # a[j-1][j], j >= 1
    by_step = np.ascontiguousarray(logb.transpose(1, 0, 2))  # T x B x N
    delta = np.full((batch, n), -np.inf)
    delta[:, 0] = by_step[0, :, 0]  # pi = (1, 0, ..., 0)
    moved = np.zeros((t_len, batch, n), dtype=bool)  # best predecessor of j at t is j - 1
    for t in range(1, t_len):
        best = delta + stay
        step = delta[:, :-1] + move
        np.greater_equal(step, best[:, 1:], out=moved[t, :, 1:])
        np.maximum(best[:, 1:], step, out=best[:, 1:])
        delta = best + by_step[t]
    end = np.argmax(delta, axis=1)  # lowest index wins ties
    rows = np.arange(batch)
    scores = delta[rows, end]
    if not np.all(np.isfinite(scores)):
        raise NumericError("no feasible state path: every path has probability zero")
    paths = np.empty((batch, t_len), dtype=np.intp)
    paths[:, -1] = end
    for t in range(t_len - 1, 0, -1):
        paths[:, t - 1] = paths[:, t] - moved[t, rows, paths[:, t]]
    return paths, scores


def viterbi(model: HmmModel, seq: np.ndarray) -> tuple[np.ndarray, float]:
    """Most likely state path and its joint log-likelihood.

    The path starts in state 0 and moves by at most one state per step; score
    ties prefer the lower predecessor, so among equally likely paths the
    pointwise-lowest one is returned.
    """
    seq = _check_seq(model.dim, seq)
    p = _stack([model])
    paths, scores = _viterbi(p.trans, _log_emissions(p, seq[None]))
    return paths[0], float(scores[0])


def _scaled_forward(trans: np.ndarray, logb: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched scaled forward pass over B sequences.

    trans is B x N x N (or 1 x N x N, shared) and left-to-right, logb is
    B x T x N. Returns (alpha_hat, propagated masses, scales, shifts, logL),
    shaped B x T x N, B x T x N, B x T, B x T and B. Each step's emissions are
    shifted by the maximum of the propagated log-mass before exponentiation,
    so the recursion neither underflows on long or surprising sequences nor
    overflows through states the left-to-right support cannot reach yet.
    The per-step state is kept state-major, T x N x B: each step moves mass
    along the stay and move diagonals and reduces over the N states with
    whole-row operations of length B.
    """
    batch, t_len, n = logb.shape
    # N x B (or N x 1) a[j][j], and (N-1) x B a[j-1][j] for j >= 1
    stay, move = (np.ascontiguousarray(np.diagonal(trans, k, 1, 2).T) for k in (0, 1))
    by_step = np.ascontiguousarray(logb.transpose(1, 2, 0))  # T x N x B
    alpha = np.empty((t_len, n, batch))
    masses = np.empty((t_len, n, batch))
    scales = np.zeros((batch, t_len))
    shifts = np.zeros((batch, t_len))
    masses[0] = 0.0
    masses[0, 0] = 1.0  # pi = (1, 0, ..., 0)
    # a vanished step yields NaN from here on; it is reported after the loop
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(t_len):
            if t:
                np.multiply(alpha[t - 1], stay, out=masses[t])
                masses[t, 1:] += alpha[t - 1, :-1] * move
            log_unnorm = np.log(masses[t]) + by_step[t]  # -inf where unreachable
            shift = log_unnorm.max(axis=0)
            unnorm = np.exp(log_unnorm - shift)
            total = unnorm.sum(axis=0)  # >= 1: the max term contributes exactly 1
            scales[:, t] = total
            shifts[:, t] = shift
            np.divide(unnorm, total, out=alpha[t])
    vanished = ~np.isfinite(shifts).all(axis=0)
    if vanished.any():
        raise NumericError(f"forward recursion vanished at step {int(np.argmax(vanished))}")
    total_ll = np.sum(np.log(scales), axis=1) + np.sum(shifts, axis=1)
    return alpha.transpose(2, 0, 1), masses.transpose(2, 0, 1), scales, shifts, total_ll


def loglik(model: HmmModel, seq: np.ndarray) -> float:
    """Total forward log-likelihood (sum over all feasible paths)."""
    seq = _check_seq(model.dim, seq)
    p = _stack([model])
    return float(_scaled_forward(p.trans, _log_emissions(p, seq[None]))[-1][0])


def init_uniform(seqs: list[np.ndarray], n_states: int) -> HmmModel:
    """Initial model from uniform segmentation of every sequence.

    Observation t of a length-T sequence is assigned to state floor(t*N/T),
    and the segmental M-step estimates a blank model from those paths: the
    per-state Gaussians pool the assignments, and a[i][i+1] = 1/len_i,
    a[i][i] = 1 - 1/len_i for the mean segment length len_i.
    """
    if n_states < 1:
        raise DataError(f"state count must be >= 1, got {n_states}")
    if not seqs:
        raise DataError("no training sequences")
    d = np.atleast_2d(seqs[0]).shape[1]
    seqs = [_check_seq(d, s) for s in seqs]
    for s in seqs:
        if s.shape[0] < n_states:
            raise DataError(
                f"sequence length {s.shape[0]} shorter than state count {n_states}")
    blank = HmmModel(np.eye(n_states), np.zeros((n_states, d)), np.ones((n_states, d)))
    paths = [(np.arange(len(s)) * n_states) // len(s) for s in seqs]
    return _reestimate_from_paths(blank, seqs, paths)


def _reestimate(model: HmmModel, stay: np.ndarray, move: np.ndarray, occupancy: np.ndarray,
                means: np.ndarray, variances: np.ndarray) -> HmmModel:
    """The M-step of both trainers, from per-state statistics.

    Row i becomes (stay[i], move[i]) / (stay[i] + move[i]); a state that is
    never left keeps its row, and the last row stays absorbing. A state whose
    occupancy is at most _GAMMA_FLOOR keeps its Gaussian and counts a warning.
    """
    occupied = occupancy > _GAMMA_FLOOR
    trans = model.trans.copy()
    for i in range(model.n_states - 1):
        total = stay[i] + move[i]
        if total <= 0.0:
            continue  # state never left; keep previous row
        trans[i, i] = stay[i] / total
        trans[i, i + 1] = move[i] / total
    for i in np.flatnonzero(~occupied):
        log.warning("state %d is empty; keeping previous parameters", i)
    keep = ~occupied[:, None]
    return replace(model, trans=trans, means=np.where(keep, model.means, means),
                   variances=np.where(keep, model.variances, np.maximum(variances, VAR_FLOOR)),
                   warnings=model.warnings + int(np.count_nonzero(~occupied)))


def _reestimate_from_paths(model: HmmModel, seqs: list[np.ndarray],
                           paths: list[np.ndarray]) -> HmmModel:
    """Segmental M-step: Gaussians from state assignments, rows from counts."""
    n = model.n_states
    obs = np.concatenate(seqs)
    states = np.concatenate(paths)
    src = np.concatenate([path[:-1] for path in paths])
    dst = np.concatenate([path[1:] for path in paths])
    stay = np.bincount(src[src == dst], minlength=n).astype(np.float64)
    move = np.bincount(src[src != dst], minlength=n).astype(np.float64)
    counts = np.bincount(states, minlength=n)
    means = np.zeros_like(model.means)
    variances = np.zeros_like(model.variances)
    for i in np.flatnonzero(counts):
        assigned = obs[states == i]  # rows in sequence order, then time order
        means[i] = assigned.mean(axis=0)
        variances[i] = assigned.var(axis=0)
    return _reestimate(model, stay, move, counts, means, variances)


def _fit(models: list[HmmModel], seqs: list[list[np.ndarray]], tol: float, max_iter: int,
         histories: list[list[float]], e_step: Callable, m_step: Callable) -> list[HmmModel]:
    """The iteration loop of both trainers, over independent same-shape models.

    models[s] is fitted to seqs[s], and histories[s] receives its totals.
    Each iteration stacks the sequences of every model still iterating into
    one batch per sequence length, each row with its own model's parameters.
    e_step(params, B x T x d stack) returns per-row statistics whose first
    entry is the row's log-likelihood; a model's total sums them in input
    order. A model stops at its own convergence test; otherwise
    m_step(model, its seqs, its row statistics in input order) re-estimates it.
    """
    if max_iter < 0:
        raise DataError("max_iter must be >= 0")
    seqs = [[_check_seq(m.dim, s) for s in subject] for m, subject in zip(models, seqs)]
    if not all(seqs):
        raise DataError("no training sequences")
    groups: dict[int, list[tuple[int, int]]] = {}
    for s, subject in enumerate(seqs):
        for k, seq in enumerate(subject):
            groups.setdefault(seq.shape[0], []).append((s, k))
    # per length: (model of each row, (model, sequence) of each row, B x T x d stack)
    batches = [(np.array([s for s, _ in rows]), rows, np.stack([seqs[s][k] for s, k in rows]))
               for rows in groups.values()]
    models = list(models)
    prev: list[float | None] = [None] * len(models)
    active = np.ones(len(models), dtype=bool)
    for iteration in range(max_iter):
        if not active.any():
            break
        p = _stack(models)
        stats = {s: [None] * len(seqs[s]) for s in np.flatnonzero(active).tolist()}
        try:
            for owner, rows, stack in batches:
                live = np.flatnonzero(active[owner])
                if live.size:
                    row_stats = e_step(p._make(a[owner[live]] for a in p), stack[live])
                    for j, one in zip(live.tolist(), row_stats):
                        s, k = rows[j]
                        stats[s][k] = one
        except NumericError as exc:
            raise NumericError(f"iteration {iteration}: {exc}") from exc
        for s, subject_stats in stats.items():
            total = float(sum(row[0] for row in subject_stats))
            histories[s].append(total)
            if prev[s] is not None and abs(total - prev[s]) <= tol * max(1.0, abs(prev[s])):
                active[s] = False
                continue
            models[s] = m_step(models[s], seqs[s], subject_stats)
            prev[s] = total
    return models


def _segment(p: _Stacked, batch: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Segmental k-means E-step: per row, (Viterbi score, state path)."""
    paths, scores = _viterbi(p.trans, _log_emissions(p, batch))
    return list(zip(scores.tolist(), paths))


def _segment_m_step(model: HmmModel, seqs: list[np.ndarray], stats: list) -> HmmModel:
    """Segmental M-step from the state paths of every sequence."""
    return _reestimate_from_paths(model, seqs, [path for _, path in stats])


def viterbi_train(model: HmmModel, seqs: list[np.ndarray], tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER,
                  history: list[float] | None = None) -> HmmModel:
    """Segmental k-means: alternate Viterbi segmentation and ML re-estimation.

    Stops when the relative change of the total Viterbi log-likelihood drops
    below tol or after max_iter re-estimations. max_iter = 0 returns the
    input model unchanged; a negative tol disables the convergence test so
    exactly max_iter updates run.
    """
    history = [] if history is None else history
    return _fit([model], [seqs], tol, max_iter, [history], _segment, _segment_m_step)[0]


def _expect(p: _Stacked, batch: np.ndarray) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Baum-Welch E-step: per row, (logL, gamma T x N, xi (T-1) x N x N)."""
    logb = _log_emissions(p, batch)
    alpha, masses, scales, shifts, ll = _scaled_forward(p.trans, logb)
    beta = np.zeros_like(alpha)
    beta[:, -1] = 1.0
    # an unlikely state with a far better emission can overflow b * beta; checked below
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.where(masses > 0.0, np.exp(np.minimum(logb - shifts[:, :, None], 700.0)), 0.0)
        for t in range(batch.shape[1] - 2, -1, -1):
            ahead = (b[:, t + 1] * beta[:, t + 1])[:, :, None]
            beta[:, t] = np.matmul(p.trans, ahead)[:, :, 0] / scales[:, t + 1, None]
    overflowed = np.flatnonzero(~np.isfinite(beta).all(axis=(0, 2)))
    if overflowed.size:
        raise NumericError(f"backward recursion overflowed at step {overflowed[-1]}")
    gamma = alpha * beta  # rows sum to 1
    xi = (alpha[:, :-1, :, None] * p.trans[:, None]
          * (b[:, 1:] * beta[:, 1:])[:, :, None, :]) / scales[:, 1:, None, None]
    return list(zip(ll.tolist(), gamma, xi))


def _expect_m_step(model: HmmModel, seqs: list[np.ndarray], stats: list) -> HmmModel:
    """Re-estimate from the posteriors of every sequence, accumulated in input order."""
    n = model.n_states
    gamma_sum = np.zeros(n)
    obs_sum = np.zeros((n, model.dim))
    obs_sq_sum = np.zeros((n, model.dim))
    for seq, (_, gamma, _) in zip(seqs, stats):
        gamma_sum += gamma.sum(axis=0)
        obs_sum += gamma.T @ seq
        obs_sq_sum += gamma.T @ (seq * seq)
    # added step by step from zero in input order, so the rounding is a running total's
    trans_num = np.add.reduce(
        np.concatenate([np.zeros((1, n, n))] + [xi for _, _, xi in stats]), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # empty states are not read
        means = obs_sum / gamma_sum[:, None]
        variances = obs_sq_sum / gamma_sum[:, None] - means ** 2
    return _reestimate(model, np.diagonal(trans_num), np.diagonal(trans_num, 1),
                       gamma_sum, means, variances)


def baum_welch(model: HmmModel, seqs: list[np.ndarray], tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               history: list[float] | None = None) -> HmmModel:
    """Expectation-maximization with the scaled forward-backward recursions.

    The total forward log-likelihood is non-decreasing across iterations (up
    to the variance floor); structural zeros of the transition matrix are
    never touched. Stops on relative log-likelihood change below tol or
    after max_iter updates. max_iter = 0 returns the input model unchanged;
    a negative tol disables the convergence test so exactly max_iter updates
    run.
    """
    history = [] if history is None else history
    return _fit([model], [seqs], tol, max_iter, [history], _expect, _expect_m_step)[0]


def _features(blocks: np.ndarray, klt: KltBasis | None) -> np.ndarray:
    """Observation sequence of an image's blocks: raw, or their KLT coefficients."""
    return blocks if klt is None else observe(blocks, klt)


def features_for(bank: SubjectBank, image: GrayImage) -> np.ndarray:
    """Observation sequence for an image under the bank's feature transform."""
    return _features(extract_blocks(image, bank.params), bank.klt)


def train_bank(
    train: list[tuple[str, GrayImage]],
    params: BlockParams | None = None,
    n_states: int = DEFAULT_STATES,
    klt_dim: int = DEFAULT_KLT_DIM,
    feature_mode: str = FEATURE_KLT,
) -> SubjectBank:
    """One left-to-right HMM per subject over a shared KLT feature space.

    Pipeline per subject: uniform segmentation init, Viterbi re-estimation,
    then Baum-Welch. Each stage steps every subject in one batch, and each
    subject stops at its own convergence, so the models are those of
    training each subject alone.
    """
    if feature_mode not in (FEATURE_KLT, FEATURE_RAW):
        raise DataError(f"unknown feature mode {feature_mode!r}")
    if not train:
        raise DataError("no training images")
    dims = (train[0][1].h, train[0][1].w)
    if params is None:
        params = BlockParams(DEFAULT_BLOCK_HEIGHT, DEFAULT_OVERLAP, dims)
    if params.block_count < n_states:
        raise DataError(
            f"images yield {params.block_count} blocks but {n_states} states were "
            f"requested; reduce the state count or the block height")

    by_label: dict[str, list[np.ndarray]] = {}
    for label, image in train:
        by_label.setdefault(label, []).append(extract_blocks(image, params))

    klt = None
    if feature_mode == FEATURE_KLT:
        klt = fit_klt([image.pixels for _, image in train], params, klt_dim)

    labels = sorted(by_label)
    seqs = [[_features(b, klt) for b in by_label[label]] for label in labels]
    models = [init_uniform(subject, n_states) for subject in seqs]
    for e_step, m_step in ((_segment, _segment_m_step), (_expect, _expect_m_step)):
        models = _fit(models, seqs, DEFAULT_TOL, DEFAULT_MAX_ITER, [[] for _ in labels],
                      e_step, m_step)
    return SubjectBank(params, klt, dict(zip(labels, models)))


def recognize(bank: SubjectBank, images: Sequence[GrayImage]
              ) -> list[tuple[str, dict[str, float]]]:
    """Per image, (maximum-forward-likelihood subject, log-likelihood of every
    subject); ties go to the smallest label.

    Probes are scored PROBE_CHUNK at a time: the emissions of each probe under
    every subject are stacked into one batch, and one forward pass scores the
    chunk, each row under its own subject's transitions. One probe is a chunk
    of one, and each score is that of the probe alone.
    """
    p = bank.stacked
    if p is None:
        raise DataError("HMM bank has no subjects")
    labels = bank.labels
    chunk = min(len(images), PROBE_CHUNK)
    trans = np.tile(p.trans, (chunk, 1, 1))
    # one emission buffer, probe by subject by block by state, reused by every chunk
    logb = np.empty((chunk, len(labels), bank.params.block_count, p.trans.shape[1]))
    results = []
    for start in range(0, len(images), PROBE_CHUNK):
        probes = images[start:start + PROBE_CHUNK]
        for k, image in enumerate(probes):
            _log_emissions(p, _check_seq(p.dim, features_for(bank, image))[None], out=logb[k])
        batch = logb[:len(probes)].reshape(-1, *logb.shape[2:])
        scores = _scaled_forward(trans[:len(batch)], batch)[-1].reshape(-1, len(labels))
        # labels are sorted and argmax returns the first maximum: ties keep the lowest label
        results.extend((labels[int(np.argmax(row))], dict(zip(labels, row.tolist())))
                       for row in scores)
    return results
