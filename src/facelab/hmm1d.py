"""Top-to-bottom 1D continuous HMM face recognizer.

Images are cut into overlapping horizontal blocks; each block becomes a
low-dimensional KLT coefficient vector; one left-to-right HMM per subject is
trained by uniform segmentation, then Viterbi (segmental) re-estimation, then
Baum-Welch. Recognition takes the maximum forward log-likelihood over the
subject models: a max-product pass bounds every subject's score, and the
forward algorithm scores only the subjects whose bound reaches the leader.
Viterbi, that bound and the forward pass are one log-domain left-to-right
recursion (Rabiner 1989, section V); they differ only in how a state's stay
and move terms combine: logaddexp for scores, max for the bound, and max plus
a back-pointer for Viterbi, whose ties go to the lower predecessor and then
the lowest final state. The backward pass is log-domain too, so no path is lost
to underflow however far behind it falls, and raw pixels train as KLT
features do.

observe is the one KLT view of a batch of images' blocks: HMM training and
scoring read its coefficients, PROBE_CHUNK images at a time, and the
dispatcher's occlusion profile the distances of a batch of one.

State emissions are single diagonal-covariance Gaussians with a variance
floor. Transition matrices allow only self loops and single forward steps;
those structural zeros are preserved exactly through every training stage.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dataset import GrayImage, check_dims
from .errors import DataError, NumericError
# sym_eigen is not called here; benchmarks/tests still finds it bound in this module.
from .numerics import (PROBE_CHUNK, gram_pca, require_shape, require_spread, scatter_pca,
                       sym_eigen)

log = logging.getLogger(__name__)

VAR_FLOOR = 1e-6
DEFAULT_STATES = 5  # hair/forehead, eyes, nose, mouth, chin
DEFAULT_BLOCK_HEIGHT = 10
DEFAULT_OVERLAP = 9
DEFAULT_KLT_DIM = 10
DEFAULT_TOL = 1e-4
DEFAULT_MAX_ITER = 20

FEATURE_KLT = "klt"
FEATURE_RAW = "raw"

_GAMMA_FLOOR = 1e-12  # state occupancy (expected or counted) at most this counts as empty

# recognize's rounding margin on the bound L <= V + log P, relative to 1 + |V_max|.
# Each of the two passes, max-product and forward, rounds each of its T steps by a
# few ulps of its running sums, at most max|delta| in size: together they are exact
# to within 8 T eps max|delta|. Where every log density is negative (variances
# above 1 / (2 pi)), a path's running sums stay within its final score, so
# max|delta| is a subject's |V|; one far below V_max is far outside the window
# too, and 8 T eps |V_max| is what the margin must cover. 1e-6 does for T up to
# 5e8; at T = 103 that rounding is 2e-13 |V_max|.
BOUND_MARGIN = 1e-6


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
    # observe's frame for the last block width it was built for, and that width
    _frame: tuple[int, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        require_shape("KLT basis", self.basis, (np.shape(self.basis)[0], np.size(self.mean)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def frame(self, width: int) -> np.ndarray:
        """W x L(1+d): the L row slices of [mu | B] side by side for blocks of
        width W, column r(1+d) + c holding row r of mu (c = 0) or of basis row
        c - 1. Built the first time a width is asked for, and kept."""
        if self._frame is None or self._frame[0] != width:
            height = self.mean.size // width
            frame = np.concatenate([self.mean[None], self.basis]).reshape(-1, height, width)
            frame = frame.transpose(2, 1, 0).reshape(width, -1)
            frame.flags.writeable = False
            object.__setattr__(self, "_frame", (width, frame))
        return self._frame[1]

    @cached_property
    def centre(self) -> tuple[np.ndarray, float]:
        """(B mu, mu . mu), which observe takes from every image's sums. Computed the
        first time they are asked for, not at construction, where the products of a
        basis read from an edited archive could overflow with a warning."""
        offset = self.basis @ self.mean
        offset.flags.writeable = False
        return offset, float(self.mean @ self.mean)


@dataclass(frozen=True)
class HmmModel:
    """Left-to-right HMM with diagonal-Gaussian emissions, started in state 0."""

    trans: np.ndarray  # row-stochastic, a[i][j] = 0 unless j in {i, i+1}
    means: np.ndarray  # n_states x d
    variances: np.ndarray  # n_states x d, floored
    warnings: int = 0  # empty-state re-estimation events

    def __post_init__(self):
        n = self.trans.shape[0]
        if n < 1:
            raise DataError("an HMM needs at least one state")
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

    stay: np.ndarray  # S x N, log a[j][j]
    move: np.ndarray  # S x (N-1), log a[j-1][j] for j >= 1
    # S x (2d+1) x N, -1/2 [1 / var; -2 mean / var; sum(mean^2 / var) + log det(2 pi Sigma)]
    weights: np.ndarray

    @property
    def dim(self) -> int:
        return self.weights.shape[1] // 2


def _stack(models: list[HmmModel]) -> _Stacked:
    return _log_params(*(np.stack([getattr(m, name) for m in models])
                         for name in ("trans", "means", "variances")))


def _log_params(trans: np.ndarray, means: np.ndarray, variances: np.ndarray) -> _Stacked:
    """The _Stacked form of S x N x N transitions and S x N x d means and variances."""
    inv_var = 1.0 / variances
    # a mean too far for its variance gives -inf emissions, and structural zeros -inf logs
    with np.errstate(over="ignore", divide="ignore"):
        const = np.sum(means * means * inv_var + np.log(2.0 * np.pi * variances), axis=2)
        weights = np.concatenate([inv_var, -2.0 * means * inv_var, const[..., None]], axis=2)
        stay, move = (np.log(np.diagonal(trans, k, 1, 2)) for k in (0, 1))
    return _Stacked(stay, move, np.ascontiguousarray(-0.5 * weights.transpose(0, 2, 1)))


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
        return recognize(self, images)


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
    scatter is built from windows of image rows, never forming the n x D
    block matrix: block (r, q) of the scatter is X_r^T X_q, for X_r the rows
    x[t*s + r] of every block t of every image and s the stride. For r < s it
    is one product of two windows, which are views of the rows at stride 1.
    For r >= s, window r is window r - s less its first row and plus the row
    after its last, so block (r, q) is block (r - s, q - s) less one W x W
    row product and plus another. Rows are first shifted by their per-column
    mean, which leaves the scatter unchanged and keeps the cancellation in
    removing n * mean mean^T small; numerics.scatter_pca then solves only the
    scatter's top d eigenpairs, by subspace iteration, or its full spectrum
    where that does not converge. The caller's arrays are never modified.
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
    rows = np.empty((params.image_dims[0], len(images), width))  # rows[j, i]: row j of image i
    for i, pixels in enumerate(images):
        rows[:, i] = pixels
    column_mean = rows.mean(axis=(0, 1))
    rows -= column_mean
    shifted_mean = _windows(rows.sum(axis=1), params).sum(axis=0) / n
    scatter = np.empty((params.block_dim, params.block_dim))

    def cell(r: int, q: int) -> np.ndarray:  # block (r, q) of the scatter, a view
        return scatter[r * width:(r + 1) * width, q * width:(q + 1) * width]

    for r in range(height):
        if r < stride:  # window r: row r of every block of every image, a view at stride 1
            window = rows[r:r + span:stride].reshape(-1, width)
        for q in range(r, height):
            if r < stride:
                block = window.T @ rows[q:q + span:stride].reshape(-1, width)
            else:  # window r is window r - stride less its first row, plus the row after its last
                drop, add = r - stride, r + span - 1
                block = cell(r - stride, q - stride) - rows[drop].T @ rows[drop + q - r]
                block += rows[add].T @ rows[add + q - r]
            cell(r, q)[...] = block
            cell(q, r)[...] = block.T
    del rows, window  # the solve below needs only the scatter
    raw_trace = np.trace(scatter)
    scatter -= n * np.outer(shifted_mean, shifted_mean)
    require_spread(np.trace(scatter), raw_trace)
    components = scatter_pca(scatter, d)[0]
    return KltBasis(shifted_mean + np.tile(column_mean, height), components.T.copy())


def observe(images: Sequence[GrayImage], params: BlockParams, klt: KltBasis
            ) -> tuple[np.ndarray, np.ndarray]:
    """(C x T x d KLT coordinates (b_t - mu) B^T, C x T distances from the KLT
    subspace) of the blocks b_t of a batch of C images, from their pixel rows
    without stacking the blocks; a batch of one is read from a view of its pixels.

    One matmul of the C x H x W pixels with KltBasis.frame, the L row slices of
    [mu | B], gives b_t . mu and b_t B^T as sums over r of row t*s + r's
    products with slice r, taken in one strided reduction in the order r = 0, 1,
    ...; a cumulative sum of each image's row norms gives |b_t|^2, and the
    distance is the root of |b_t - mu|^2 - |(b_t - mu) B^T|^2, clamped at 0.
    Each image's product is its own H x W by W x L(1+d) matrix product, and every
    later step is elementwise along the batch, so an image's results are, bit
    for bit, those of observing it alone. The identity cancels where a distance
    is small next to |b_t - mu|: the distances agree with
    numerics.affine_residual of extract_blocks to within 1e-9 relative, and the
    coordinates with affine_coords to within 1e-12 |b_t - mu|.
    """
    pixels = [check_dims(image, params.image_dims).pixels for image in images]
    pixels = pixels[0][None] if len(pixels) == 1 else np.stack(pixels)  # C x H x W
    if klt.mean.size != params.block_dim:
        raise DataError(f"KLT dimension {klt.mean.size} does not match block dimension "
                        f"{params.block_dim}")
    height, stride, width = params.height, params.stride, params.image_dims[1]
    offset, mean_norm = klt.centre
    products = pixels @ klt.frame(width)  # products[i, j, r(1+d) + c] = x_i[j] . [mu_r | B_r]_c
    # a view whose entry [i, t, r] is image i's row t*s + r against slice r
    image, row, item = products.strides
    diagonal = np.ndarray((len(pixels), params.block_count, height, 1 + klt.dim),
                          products.dtype, products,
                          strides=(image, stride * row, row + (1 + klt.dim) * item, item))
    sums = diagonal.sum(axis=2)  # image i, row t: [b_t . mu | b_t B^T]
    span = (params.block_count - 1) * stride + 1  # from row r of the first block to the last's
    cum_norms = np.zeros((len(pixels), params.image_dims[0] + 1))
    np.cumsum(np.einsum("cij,cij->ci", pixels, pixels), axis=1, out=cum_norms[:, 1:])
    block_norms = cum_norms[:, height:height + span:stride] - cum_norms[:, :span:stride]
    coords = sums[..., 1:] - offset
    squared = (block_norms - 2.0 * sums[..., 0] + mean_norm
               - np.einsum("ctj,ctj->ct", coords, coords))
    distances = np.sqrt(np.maximum(squared, 0.0))
    return coords, distances


def _check_seq(dim: int, seq: np.ndarray) -> np.ndarray:
    """seq as float64, one T x d sequence or ... x T x d of them; DataError for an
    empty sequence, steps of another dimension, or a non-finite step, named by its
    index in the first sequence that has one."""
    seq = np.atleast_2d(np.asarray(seq, dtype=np.float64))
    if seq.shape[-2] < 1 or seq.size == 0:
        raise DataError("empty observation sequence")
    if seq.shape[-1] != dim:
        raise DataError(f"observation dimension {seq.shape[-1]} != model dimension {dim}")
    finite = np.isfinite(seq)
    if not finite.all():
        steps = finite.all(axis=-1).reshape(-1, seq.shape[-2])  # sequence by step
        first = steps[np.argmin(steps.all(axis=1))]
        raise DataError(f"non-finite observation at step {int(np.argmin(first))}")
    return seq


def _powers(seqs: np.ndarray) -> np.ndarray:
    """[x^2 | x | 1] of ... x d steps, which _log_emissions scores and the M-step
    sums: the last column's sum is a state's occupancy."""
    with np.errstate(over="ignore"):  # a step too far for the float range squares to inf
        return np.concatenate([seqs * seqs, seqs, np.ones(seqs.shape[:-1] + (1,))], axis=-1)


def _log_emissions(p: _Stacked, powers: np.ndarray, out: np.ndarray | None = None
                   ) -> np.ndarray:
    """B x T x N per-state diagonal-Gaussian log densities of B x T x (2d+1)
    _powers of steps, written to out if given; B is one or more leading axes, along
    which the powers and the stack's S models broadcast: recognize scores C probes
    under every model as C x 1 powers. One matmul scores every state, each
    sequence and model by its own T x (2d+1) by (2d+1) x N product, [x^2, x, 1] @
    weights. The rounding error grows as eps * sum((x^2 + means^2) / variances),
    at most 5.5e-12 on ORL-scale KLT features but 0.024 on random 920-pixel raw
    blocks at the variance floor. A step too far for a state's variance overflows
    x^2, and its emission is -inf, as _stack makes that of a mean too far for its
    variance.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # matmul can flag an inf square as invalid
        return np.matmul(powers, p.weights, out=out)


def _left_to_right(p: _Stacked, logb: np.ndarray, combine: Callable) -> np.ndarray:
    """The one recursion of Viterbi, the forward pass and recognize's bound: T x N x B
    log delta of B x T x N emissions, B being one or more leading axes that p's rows
    broadcast to.

    From pi = (1, 0, ..., 0), step t forms each state's stay term
    delta[t-1][j] + log a[j][j] and move term delta[t-1][j-1] + log a[j-1][j];
    combine(t, stay terms of states 1.., move terms) merges them in place, and
    log b_j(x_t) is added. The state is kept state-major in a copy of the
    emissions, so each step is whole-row operations along the two diagonals.
    Max-product and sum-product leave the same states at -inf, so Viterbi and
    the forward pass name the same step when a row's mass vanishes.
    """
    batch = logb.shape[:-2]
    stay, move = (np.moveaxis(np.broadcast_to(a, batch + a.shape[-1:]), -1, 0).copy()
                  for a in (p.stay, p.move))  # N x B and (N-1) x B
    delta = np.moveaxis(logb, (-2, -1), (0, 1)).copy()  # T x N x B, the emissions until added
    delta[0, 1:] = -np.inf
    reached, moved = np.empty(stay.shape), np.empty(move.shape)
    for t in range(1, len(delta)):
        np.add(delta[t - 1], stay, out=reached)
        np.add(delta[t - 1, :-1], move, out=moved)
        combine(t, reached[1:], moved)
        delta[t] += reached
    if not (delta[-1] > -np.inf).any(axis=0).all():
        dead = ~(delta > -np.inf).any(axis=1).reshape(len(delta), -1)  # T x rows
        raise NumericError(f"recursion vanished at step {int(np.argmax(dead.any(axis=1)))}: "
                           "no state holds any mass")
    return delta


def _viterbi(p: _Stacked, logb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Viterbi over B sequences, (B x T paths, B joint log-likelihoods):
    the left-to-right recursion under max, with a back-pointer per step and
    state. Ties prefer the lower predecessor, then the lowest final state."""
    batch, t_len, n = logb.shape
    moved = np.zeros((t_len, n, batch), dtype=bool)  # best predecessor of j at t is j - 1

    def best(t: int, stayed: np.ndarray, step: np.ndarray) -> None:
        np.greater_equal(step, stayed, out=moved[t, 1:])
        np.maximum(stayed, step, out=stayed)

    delta = _left_to_right(p, logb, best)
    rows = np.arange(batch)
    paths = np.empty((batch, t_len), dtype=np.intp)
    paths[:, -1] = np.argmax(delta[-1], axis=0)  # lowest index wins ties
    for t in range(t_len - 1, 0, -1):
        paths[:, t - 1] = paths[:, t] - moved[t, paths[:, t], rows]
    return paths, delta[-1, paths[:, -1], rows]


def viterbi(model: HmmModel, seq: np.ndarray) -> tuple[np.ndarray, float]:
    """Most likely state path and its joint log-likelihood.

    The path starts in state 0 and moves by at most one state per step; score
    ties prefer the lower predecessor, so among equally likely paths the
    pointwise-lowest one is returned.
    """
    p = _stack([model])
    paths, scores = _viterbi(p, _log_emissions(p, _powers(_check_seq(model.dim, seq)[None])))
    return paths[0], float(scores[0])


def _forward(p: _Stacked, logb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched log-domain forward pass, (T x N x B log alpha, B logL): the
    left-to-right recursion under logaddexp, so no path is ever rounded away."""
    alpha = _left_to_right(p, logb, lambda t, stayed, step: np.logaddexp(stayed, step, out=stayed))
    return alpha, np.logaddexp.reduce(alpha[-1], axis=0)


def loglik(model: HmmModel, seq: np.ndarray) -> float:
    """Total forward log-likelihood (sum over all feasible paths)."""
    p = _stack([model])
    return float(_forward(p, _log_emissions(p, _powers(_check_seq(model.dim, seq)[None])))[1][0])


def _blank(seqs: list[np.ndarray], n_states: int) -> HmmModel:
    """init_uniform's checks, then the model that its one M-step updates."""
    if n_states < 1:
        raise DataError(f"state count must be >= 1, got {n_states}")
    if not seqs:
        raise DataError("no training sequences")
    d = np.atleast_2d(seqs[0]).shape[1]
    for t_len in [_check_seq(d, s).shape[0] for s in seqs]:
        if t_len < n_states:
            raise DataError(f"sequence length {t_len} shorter than state count {n_states}")
    return HmmModel(np.eye(n_states), np.zeros((n_states, d)), np.ones((n_states, d)))


def init_uniform(seqs: list[np.ndarray], n_states: int) -> HmmModel:
    """Initial model from uniform segmentation of every sequence.

    Observation t of a length-T sequence is assigned to state floor(t*N/T)
    (the _uniform E-step), and one M-step estimates a blank model from those
    paths' 0/1 posteriors: the per-state Gaussians pool the assignments, and
    a[i][i+1] = 1/len_i, a[i][i] = 1 - 1/len_i for the mean segment length len_i.
    """
    return _fit([_blank(seqs, n_states)], [seqs], 0.0, 1, [[]], _uniform)[0]


def _uniform(p: _Stacked, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniform-segmentation E-step: scores 0 and the path floor(t*N/T) of every row."""
    t_len, n = batch.shape[1], p.stay.shape[1]
    paths = np.broadcast_to((np.arange(t_len) * n) // t_len, batch.shape[:2])
    return (np.zeros(len(batch)), *_path_posteriors(paths, n))


def _path_posteriors(paths: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(... x T x N bool 0/1 posteriors, ... x N x N transition counts) of ... x T
    state paths; the counts sum gamma_t^T gamma_t+1, exact integers in float64."""
    gamma = paths[..., None] == np.arange(n)
    return gamma, np.matmul(gamma[..., :-1, :].mT, gamma[..., 1:, :], dtype=np.float64)


def _m_step(trans: np.ndarray, means: np.ndarray, variances: np.ndarray, moments: np.ndarray,
            counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The M-step of every training stage, batched over S models: (trans, means,
    variances, S x N mask of empty states) from each model's gamma-weighted sums
    of _powers S x N x (2d+1), whose last column is the state's occupancy, and
    transition counts S x N x N, summed over its sequences. The variance is
    E[x^2] - mean^2. Row i becomes (stay[i], move[i]) / their sum, in place in
    trans; a state never left keeps its row, so the last stays absorbing. An
    empty state (occupancy at most _GAMMA_FLOOR) keeps its Gaussian; a sum past
    the float range is left non-finite."""
    d, i = means.shape[2], np.arange(trans.shape[1] - 1)
    stay, move = counts[:, i, i], counts[:, i, i + 1]
    occupancy = moments[..., -1:]
    left, empty = stay + move, ~(occupancy[..., 0] > _GAMMA_FLOOR)
    # a row never left divides 0 by 0, and an empty state by its occupancy: neither is kept
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        trans[:, i, i] = np.where(left > 0.0, stay / left, trans[:, i, i])
        trans[:, i, i + 1] = np.where(left > 0.0, move / left, trans[:, i, i + 1])
        fitted = moments[..., d:-1] / occupancy
        spread = np.maximum(moments[..., :d] / occupancy - fitted ** 2, VAR_FLOOR)
    return (trans, np.where(empty[..., None], means, fitted),
            np.where(empty[..., None], variances, spread), empty)


def _fit(models: list[HmmModel], seqs: list[list[np.ndarray]], tol: float, max_iter: int,
         histories: list[list[float]], e_step: Callable) -> list[HmmModel]:
    """The iteration loop of every training stage, over independent same-shape models.

    models[s] is fitted to seqs[s], and histories[s] receives its totals. The
    parameters stay stacked, S x N x N and S x N x d. Each iteration batches the
    _powers of every live model's sequences by length, and e_step(params, batch)
    returns the rows' scores B, gamma B x T x N and transition counts B x N x N.
    A row's M-step sums are gamma^T _powers, N x (2d+1): those of x^2 and x, and
    in the last column its state occupancy. A model's total and sums add its
    rows' in input order (Rabiner 1989, section V); it stops at its own
    convergence test, or the iteration's one _m_step updates it. Each model
    updated is built once, at the end.
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
    # per length: (model of each row, its sequence index, B x T x (2d+1) _powers)
    batches = [(*np.array(rows).T, _powers(np.stack([seqs[s][k] for s, k in rows])))
               for rows in groups.values()]
    trans, means, variances, warnings = (np.array([getattr(m, name) for m in models])
                                         for name in ("trans", "means", "variances", "warnings"))
    n, d = means.shape[1:]
    # sequence k of model s at [k, s], zero past its last: score, sums, counts
    scores, moments, counts = (np.zeros((max(map(len, seqs)), len(seqs), *shape))
                               for shape in ((), (n, 2 * d + 1), (n, n)))
    # each model's last total (NaN before its first update), and whether it still iterates
    prev, active = np.full(len(models), np.nan), np.ones(len(models), dtype=bool)
    for iteration in range(max_iter):
        if not active.any():
            break
        p = _log_params(trans, means, variances)
        try:
            for owner, index, powers in batches:
                rows = np.flatnonzero(active[owner])
                if rows.size:
                    s, k = owner[rows], index[rows]
                    x = powers if rows.size == len(powers) else powers[rows]  # no copy if all live
                    scores[k, s], gamma, counts[k, s] = e_step(p._make(a[s] for a in p), x)
                    gamma = np.ascontiguousarray(gamma, dtype=np.float64)
                    # a square or sum past the float range is named once an M-step reads it
                    with np.errstate(invalid="ignore", over="ignore"):
                        moments[k, s] = gamma.mT @ x
        except NumericError as exc:
            raise NumericError(f"iteration {iteration}: {exc}") from exc
        live = np.flatnonzero(active)
        totals = sum(scores)[live]
        for s, total in zip(live.tolist(), totals.tolist()):
            histories[s].append(total)
        done = np.abs(totals - prev[live]) <= tol * np.maximum(1.0, np.abs(prev[live]))
        active[live], prev[live] = ~done, totals
        update = live[~done]
        with np.errstate(over="ignore"):
            stepped = _m_step(trans[update], means[update], variances[update],
                              *(sum(a)[update] for a in (moments, counts)))
        broken = ~np.isfinite(stepped[2]).all(axis=2)
        if broken.any():  # name the first such model's first inf square, else its sequence
            at, state = np.argwhere(broken)[0].tolist()  # whose share overflows the state's sum
            with np.errstate(over="ignore"):
                finite = [np.isfinite(seq * seq).all(axis=1) for seq in seqs[update[at]]]
                held = np.isfinite(np.cumsum(moments[:, update[at], state, :d], axis=0)).all(axis=1)
            for k, steps in enumerate(finite):
                if not steps.all():
                    raise DataError(f"training sequence {k}: the square of step "
                                    f"{int(np.argmin(steps))} passes the float range")
            raise DataError(f"training sequence {int(np.argmin(held))} takes the sum of squared "
                            f"steps of state {state} past the float range")
        trans[update], means[update], variances[update], empty = stepped
        for state in np.nonzero(empty)[1].tolist():
            log.warning("state %d is empty; keeping previous parameters", state)
        warnings[update] += np.count_nonzero(empty, axis=1)
    return [model if np.isnan(prev[s]) else HmmModel(trans[s], means[s], variances[s], w)
            for s, (model, w) in enumerate(zip(models, warnings.tolist()))]


def _segment(p: _Stacked, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segmental k-means E-step: Viterbi scores, best paths' 0/1 posteriors and counts."""
    paths, scores = _viterbi(p, _log_emissions(p, batch))
    return (scores, *_path_posteriors(paths, p.stay.shape[1]))


def viterbi_train(model: HmmModel, seqs: list[np.ndarray], tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER,
                  history: list[float] | None = None) -> HmmModel:
    """Segmental k-means: alternate Viterbi segmentation and ML re-estimation.

    Stops when the relative change of the total Viterbi log-likelihood drops
    below tol or after max_iter re-estimations. max_iter = 0 returns the
    input model unchanged; a negative tol disables the convergence test so
    exactly max_iter updates run.
    """
    return _fit([model], [seqs], tol, max_iter, [[] if history is None else history], _segment)[0]


def _expect(p: _Stacked, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Baum-Welch E-step: the rows' logL, gamma and xi summed over t.

    log beta runs _forward's recursion backwards in the same T x N x B
    layout, and gamma = exp(log alpha + log beta - logL). xi has only the
    stay and move diagonals, each summed over t from a (T-1) x N x B array.
    """
    logb = _log_emissions(p, batch)
    alpha, ll = _forward(p, logb)
    stay, move = (np.ascontiguousarray(a.T) for a in (p.stay, p.move))  # N x B, (N-1) x B
    t_len, n, rows = alpha.shape
    beta = np.empty_like(alpha)
    beta[-1] = 0.0
    ahead = logb.transpose(1, 2, 0)[1:].copy()  # (T-1) x N x B, + log beta[t+1] below
    for t in range(t_len - 2, -1, -1):
        ahead[t] += beta[t + 1]  # log b(x_t+1) + log beta[t+1]
        np.add(ahead[t], stay, out=beta[t])
        np.logaddexp(beta[t, :-1], ahead[t, 1:] + move, out=beta[t, :-1])
    gamma = np.exp(alpha + beta - ll)
    left = alpha[:-1] - ll  # log alpha[t] - logL for t < T-1
    counts = np.zeros((rows, n, n))
    states = np.arange(n)
    counts[:, states, states] = np.exp(left + stay + ahead).sum(axis=0).T
    counts[:, states[:-1], states[1:]] = np.exp(left[:, :-1] + move + ahead[:, 1:]).sum(axis=0).T
    return ll, gamma.transpose(2, 0, 1), counts


def baum_welch(model: HmmModel, seqs: list[np.ndarray], tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER,
               history: list[float] | None = None) -> HmmModel:
    """Expectation-maximization with the log-domain forward-backward recursions.

    Posteriors are exp(log alpha + log beta - logL), and the transition
    counts sum the stay and move terms of xi over t. The total forward
    log-likelihood is non-decreasing across iterations (up to the variance
    floor); structural zeros of the transition matrix are never touched.
    Stops as viterbi_train does, on the total forward log-likelihood.
    """
    return _fit([model], [seqs], tol, max_iter, [[] if history is None else history], _expect)[0]


def features_for(bank: SubjectBank, images: Sequence[GrayImage]) -> np.ndarray:
    """Observation sequences of a batch of images, C x T x dim: observe's KLT
    coordinates, or raw blocks."""
    if bank.klt is not None:
        return observe(images, bank.params, bank.klt)[0]
    return np.stack([extract_blocks(image, bank.params) for image in images])


def train_bank(
    train: list[tuple[str, GrayImage]],
    params: BlockParams | None = None,
    n_states: int = DEFAULT_STATES,
    klt_dim: int = DEFAULT_KLT_DIM,
    feature_mode: str = FEATURE_KLT,
    residuals: list[np.ndarray] | None = None,
) -> SubjectBank:
    """One left-to-right HMM per subject over a shared KLT feature space.

    Pipeline per subject: uniform segmentation init, Viterbi re-estimation,
    then Baum-Welch. Each stage steps every subject in one batch, and each
    subject stops at its own convergence, so the models are those of
    training each subject alone. Each image is observed once; with KLT
    features, residuals, when given, receives the block residuals of that
    observe call for each image of train, in train's order.
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

    klt = None
    if feature_mode == FEATURE_KLT:
        klt = fit_klt([image.pixels for _, image in train], params, klt_dim)
    # (features, block residuals or None) of each image, in train's order, observed
    # PROBE_CHUNK at a time
    observed = []
    for start in range(0, len(train), PROBE_CHUNK):
        images = [image for _, image in train[start:start + PROBE_CHUNK]]
        observed += ([(extract_blocks(image, params), None) for image in images] if klt is None
                     else zip(*observe(images, params, klt)))
    if residuals is not None and klt is not None:
        residuals.extend(resids for _, resids in observed)
    by_label: dict[str, list[np.ndarray]] = {}
    for i in sorted(range(len(train)), key=lambda i: train[i][0]):  # stable
        by_label.setdefault(train[i][0], []).append(observed[i][0])

    seqs = list(by_label.values())
    models = [_blank(subject, n_states) for subject in seqs]
    for e_step, max_iter in ((_uniform, 1), (_segment, DEFAULT_MAX_ITER),
                             (_expect, DEFAULT_MAX_ITER)):
        models = _fit(models, seqs, DEFAULT_TOL, max_iter, [[] for _ in seqs], e_step)
    return SubjectBank(params, klt, dict(zip(by_label, models)))


def _log_path_count(n_states: int, t_len: int) -> float:
    """log P, P = sum over k < min(N, T) of C(T - 1, k): the number of state
    paths of T steps from state 0 through N left-to-right states, each a
    choice of which k of the T - 1 steps move. An exact integer, logged once."""
    return math.log(sum(math.comb(t_len - 1, k) for k in range(min(n_states, t_len))))


def recognize(bank: SubjectBank, images: Sequence[GrayImage],
              features: Sequence[np.ndarray] | None = None, scores: bool = True
              ) -> list[tuple[str, float | None]]:
    """Per image, (maximum-forward-likelihood subject, its forward
    log-likelihood); ties go to the smallest label. features, when the caller
    has them, are the images' observation sequences, as features_for gives
    them. With scores=False only the label is wanted, and every score is None.

    No path is likelier than the best one, so a subject's forward score L lies
    in [V, V + log P] for V its max-product (Viterbi) score and P the count of
    its paths (_log_path_count). A max pass over every subject gives each
    probe's V; the forward pass then scores only the (probe, subject) columns
    whose V + log P + BOUND_MARGIN * (1 + |V_max|) reaches the probe's best V,
    V_max, and the winner is the best of them. A subject left out scores below
    the leader by V, so no tie is lost. With scores=False a probe left with one
    candidate needs no forward pass.

    Probes are taken PROBE_CHUNK at a time: one features_for call, for KLT
    features one observe call, and one _check_seq pass give the chunk's
    observations, one _log_emissions call scores them under every subject, and
    the max pass runs on that probe by subject batch. The kept columns wait,
    emissions and all, until they fill one max pass's width, PROBE_CHUNK by
    subjects; the forward pass scores them then, and once more at the end, so
    beside one score per probe and subject, working memory stays within a few
    such widths however many probes there are. Every step of either pass is
    elementwise along the batch, so each score is, bit for bit, that of the
    probe scored alone against every subject, and loglik's.
    """
    p = bank.stacked
    if p is None:
        raise DataError("HMM bank has no subjects")
    if features is not None and len(features) != len(images):
        raise DataError(f"{len(features)} observation sequences for {len(images)} images")
    labels = bank.labels
    t_len = bank.params.block_count
    n = p.stay.shape[1]
    log_paths = _log_path_count(n, t_len)
    width = PROBE_CHUNK * len(labels)
    # one emission buffer, probe by subject by block by state, reused by every chunk
    logb = np.empty((min(len(images), PROBE_CHUNK), len(labels), t_len, n))
    totals = np.full((len(images), len(labels)), -np.inf)  # forward scores, -inf if not run
    chosen = np.full(len(images), -1)  # with scores=False, a lone candidate's subject
    pending, held = [], 0  # kept columns not yet scored: parts (probes, subjects, emissions)
    for start in range(0, len(images), PROBE_CHUNK):
        probes = images[start:start + PROBE_CHUNK]
        seqs = (features_for(bank, probes) if features is None
                else np.array(features[start:start + PROBE_CHUNK]))
        chunk = _log_emissions(p, _powers(_check_seq(p.dim, seqs))[:, None], out=logb[:len(probes)])
        best = _left_to_right(p, chunk, lambda t, stayed, step: np.maximum(
            stayed, step, out=stayed))[-1].max(axis=0)  # probe by subject V
        lead = best.max(axis=1, keepdims=True)
        # written as "not below" so that a NaN keeps every subject, as the forward pass would
        keep = ~(best + (log_paths + BOUND_MARGIN * (1.0 + np.abs(lead))) < lead)
        if not scores:  # the one candidate left to a probe is the winner
            alone = np.count_nonzero(keep, axis=1) == 1
            chosen[start:start + len(probes)] = np.where(alone, np.argmax(keep, axis=1), -1)
            keep[alone] = False
        rows, cols = np.nonzero(keep)
        if rows.size:
            pending.append((start + rows, cols, chunk[rows, cols]))
            held += rows.size
        while held >= width or (held and start + PROBE_CHUNK >= len(images)):
            pending = _score(p, pending, width, totals)
            held = sum(len(part[0]) for part in pending)
    # labels are sorted and argmax returns the first maximum: ties keep the lowest label
    winners = np.argmax(totals, axis=1)
    if scores:
        return list(zip([labels[w] for w in winners.tolist()],
                        totals[np.arange(len(images)), winners].tolist()))
    return [(labels[w], None) for w in np.where(chosen < 0, winners, chosen).tolist()]


def _score(p: _Stacked, pending: list[tuple[np.ndarray, ...]], width: int,
           totals: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Runs the forward pass on the first width of recognize's pending columns,
    (probes, subjects, emissions) in parts, writes their scores to totals, and
    returns the columns left, as one part or none."""
    probes, subjects, logb = (part[0] if len(part) == 1 else np.concatenate(part)
                              for part in zip(*pending))
    now = subjects[:width]
    totals[probes[:width], now] = _forward(p._make(a[now] for a in p), logb[:width])[1]
    return [(probes[width:], subjects[width:], logb[width:].copy())] if len(probes) > width else []
