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
from dataclasses import dataclass, replace

import numpy as np

from .dataset import GrayImage
from .errors import DataError, NumericError
# sym_eigen is not called here; benchmarks/tests still finds it bound in this module.
from .numerics import gram_pca, require_shape, sym_eigen

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

_GAMMA_FLOOR = 1e-12  # state occupancy below this counts as empty


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
    """Left-to-right HMM with diagonal-Gaussian emissions."""

    start: np.ndarray  # pi = (1, 0, ..., 0)
    trans: np.ndarray  # row-stochastic, a[i][j] = 0 unless j in {i, i+1}
    means: np.ndarray  # n_states x d
    variances: np.ndarray  # n_states x d, floored
    warnings: int = 0  # empty-state re-estimation events

    def __post_init__(self):
        n = self.trans.shape[0]
        if self.trans.shape != (n, n) or self.means.shape[0] != n:
            raise DataError("inconsistent HMM parameter shapes")
        require_shape("HMM variances", self.variances, self.means.shape)
        if self.start.shape != (n,) or self.start[0] != 1.0 or np.any(self.start[1:] != 0.0):
            raise DataError("left-to-right HMM must start deterministically in state 0")
        off = self.trans.copy()
        for i in range(n):
            off[i, i] = 0.0
            if i + 1 < n:
                off[i, i + 1] = 0.0
        if np.any(off != 0.0):
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


@dataclass(frozen=True)
class SubjectBank:
    """Per-subject HMMs sharing one block geometry and feature transform."""

    params: BlockParams
    klt: KltBasis | None  # None when feature_mode == FEATURE_RAW
    models: dict[str, HmmModel]
    feature_mode: str = FEATURE_KLT

    def __post_init__(self):
        object.__setattr__(self, "models",
                           {lb: self.models[lb] for lb in sorted(self.models)})
        if (self.klt is None) != (self.feature_mode == FEATURE_RAW):
            raise DataError(f"feature mode {self.feature_mode!r} does not match the KLT basis")
        if self.klt is not None:
            require_shape("KLT mean", self.klt.mean, (self.params.block_dim,))
            for label, model in self.models.items():
                if model.dim != self.klt.dim:
                    raise DataError(f"HMM {label!r} state dimension {model.dim} != "
                                    f"KLT dimension {self.klt.dim}")

    @property
    def labels(self) -> list[str]:
        return list(self.models)

    @property
    def dims(self) -> tuple[int, int]:
        return self.params.image_dims

    def predict(self, image: GrayImage) -> tuple[str, float]:
        """(maximum-likelihood subject, its forward log-likelihood)."""
        label, scores = recognize(self, image)
        return label, scores[label]


def extract_blocks(image: GrayImage, params: BlockParams) -> np.ndarray:
    """T x (L*W) matrix of flattened blocks, top to bottom.

    Block t covers rows [t*stride, t*stride + L); trailing rows that do not
    fill a whole block are discarded.
    """
    if (image.h, image.w) != params.image_dims:
        raise DataError(f"image dims {(image.h, image.w)} != params dims {params.image_dims}")
    stride = params.stride
    return np.vstack([
        image.pixels[t * stride: t * stride + params.height].reshape(-1)
        for t in range(params.block_count)
    ])


def fit_klt(blocks: np.ndarray, d: int) -> KltBasis:
    """PCA of the block set, truncated to min(d, surviving rank) components.

    numerics.gram_pca picks the Gram-matrix route when there are no more
    blocks than block dimensions, the direct scatter matrix otherwise.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    n, _ = blocks.shape
    if n < 2:
        raise DataError(f"need at least 2 blocks to fit a KLT basis, got {n}")
    if d < 1:
        raise DataError(f"coefficient count must be >= 1, got {d}")
    mean = blocks.mean(axis=0)
    components = gram_pca((blocks - mean).T, d)[0]
    return KltBasis(mean, components.T.copy())


def observe(blocks: np.ndarray, basis: KltBasis) -> np.ndarray:
    """Project blocks onto the KLT basis: o_t = basis @ (block_t - mean)."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 2 or blocks.shape[1] != basis.mean.size:
        raise DataError(
            f"block dimension {blocks.shape} does not match basis dimension {basis.mean.size}")
    return (blocks - basis.mean) @ basis.basis.T


def _check_seq(model: HmmModel, seq: np.ndarray) -> np.ndarray:
    seq = np.atleast_2d(np.asarray(seq, dtype=np.float64))
    if seq.shape[0] < 1 or seq.size == 0:
        raise DataError("empty observation sequence")
    if seq.shape[1] != model.dim:
        raise DataError(f"observation dimension {seq.shape[1]} != model dimension {model.dim}")
    return seq


def _log_emissions(model: HmmModel, seq: np.ndarray) -> np.ndarray:
    """T x N matrix of per-state diagonal-Gaussian log densities."""
    diff = seq[:, None, :] - model.means[None, :, :]
    quad = np.einsum("tnd,nd->tn", diff * diff, 1.0 / model.variances)
    logdet = np.sum(np.log(2.0 * np.pi * model.variances), axis=1)
    return -0.5 * (quad + logdet[None, :])


def _log_trans(model: HmmModel) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(model.trans)


def viterbi(model: HmmModel, seq: np.ndarray) -> tuple[np.ndarray, float]:
    """Most likely state path and its joint log-likelihood.

    The path starts in state 0 and moves by at most one state per step; score
    ties prefer the lower predecessor, so among equally likely paths the
    pointwise-lowest one is returned.
    """
    seq = _check_seq(model, seq)
    t_len, n = seq.shape[0], model.n_states
    logb = _log_emissions(model, seq)
    loga = _log_trans(model)
    delta = np.full((t_len, n), -np.inf)
    pred = np.zeros((t_len, n), dtype=np.intp)
    delta[0, 0] = logb[0, 0]  # pi = (1, 0, ..., 0)
    for t in range(1, t_len):
        for j in range(n):
            best, arg = delta[t - 1, j] + loga[j, j], j
            if j > 0:
                move = delta[t - 1, j - 1] + loga[j - 1, j]
                if move >= best:
                    best, arg = move, j - 1
            delta[t, j] = best + logb[t, j]
            pred[t, j] = arg
    end = int(np.argmax(delta[t_len - 1]))  # lowest index wins ties
    best = float(delta[t_len - 1, end])
    if not np.isfinite(best):
        raise NumericError("no feasible state path: every path has probability zero")
    path = np.empty(t_len, dtype=np.intp)
    path[-1] = end
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = pred[t, path[t]]
    return path, best


def _scaled_forward(model: HmmModel, seq: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Scaled forward pass; returns (alpha_hat, scales, shifted emissions, logL).

    Each step's emissions are shifted by the maximum of the propagated
    log-mass before exponentiation, so the recursion neither underflows on
    long or surprising sequences nor overflows through states the
    left-to-right support cannot reach yet. The shifted emissions and scales
    are mutually consistent, which is what the backward pass relies on.
    """
    t_len, n = seq.shape[0], model.n_states
    logb = _log_emissions(model, seq)
    alpha = np.zeros((t_len, n))
    scales = np.zeros(t_len)
    shifts = np.zeros(t_len)
    b_shifted = np.zeros((t_len, n))
    for t in range(t_len):
        mass = model.start if t == 0 else alpha[t - 1] @ model.trans
        reachable = mass > 0.0
        with np.errstate(divide="ignore"):
            log_unnorm = np.log(mass) + logb[t]  # -inf where unreachable
        shift = log_unnorm.max()
        if not np.isfinite(shift):
            raise NumericError(f"forward recursion vanished at step {t}")
        b_shifted[t, reachable] = np.exp(np.minimum(logb[t, reachable] - shift, 700.0))
        unnorm = np.exp(log_unnorm - shift)
        total = unnorm.sum()  # >= 1: the max term contributes exactly 1
        scales[t] = total
        shifts[t] = shift
        alpha[t] = unnorm / total
    total_ll = float(np.sum(np.log(scales)) + np.sum(shifts))
    return alpha, scales, b_shifted, total_ll


def loglik(model: HmmModel, seq: np.ndarray) -> float:
    """Total forward log-likelihood (sum over all feasible paths)."""
    seq = _check_seq(model, seq)
    return _scaled_forward(model, seq)[3]


def _uniform_states(t_len: int, n_states: int) -> np.ndarray:
    return (np.arange(t_len) * n_states) // t_len


def init_uniform(seqs: list[np.ndarray], n_states: int) -> HmmModel:
    """Initial model from uniform segmentation of every sequence.

    Observation t of a length-T sequence is assigned to state floor(t*N/T);
    per-state Gaussians pool those assignments, and transition rows come from
    the mean segment lengths: a[i][i+1] = 1/len_i, a[i][i] = 1 - 1/len_i.
    """
    if n_states < 1:
        raise DataError(f"state count must be >= 1, got {n_states}")
    if not seqs:
        raise DataError("no training sequences")
    seqs = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in seqs]
    d = seqs[0].shape[1]
    for s in seqs:
        if s.shape[0] < n_states:
            raise DataError(
                f"sequence length {s.shape[0]} shorter than state count {n_states}")
        if s.shape[1] != d:
            raise DataError("observation dimensions differ across sequences")

    per_state: list[list[np.ndarray]] = [[] for _ in range(n_states)]
    seg_lengths = np.zeros((len(seqs), n_states))
    for si, s in enumerate(seqs):
        states = _uniform_states(s.shape[0], n_states)
        for i in range(n_states):
            mask = states == i
            per_state[i].append(s[mask])
            seg_lengths[si, i] = int(mask.sum())
    means = np.zeros((n_states, d))
    variances = np.zeros((n_states, d))
    for i in range(n_states):
        obs = np.vstack(per_state[i])
        means[i] = obs.mean(axis=0)
        variances[i] = np.maximum(obs.var(axis=0), VAR_FLOOR)

    trans = np.zeros((n_states, n_states))
    mean_len = seg_lengths.mean(axis=0)
    for i in range(n_states - 1):
        trans[i, i + 1] = 1.0 / mean_len[i]
        trans[i, i] = 1.0 - trans[i, i + 1]
    trans[n_states - 1, n_states - 1] = 1.0
    start = np.zeros(n_states)
    start[0] = 1.0
    return HmmModel(start, trans, means, variances)


def _reestimate_from_paths(model: HmmModel, seqs: list[np.ndarray],
                           paths: list[np.ndarray]) -> HmmModel:
    """Segmental M-step: Gaussians from state assignments, rows from counts."""
    n = model.n_states
    warnings = model.warnings
    assigned: list[list[np.ndarray]] = [[] for _ in range(n)]
    stay = np.zeros(n)
    move = np.zeros(n)
    for seq, path in zip(seqs, paths):
        for i in range(n):
            chunk = seq[path == i]
            if chunk.size:
                assigned[i].append(chunk)
        for a, b in zip(path[:-1], path[1:]):
            if a == b:
                stay[a] += 1.0
            else:
                move[a] += 1.0

    means = model.means.copy()
    variances = model.variances.copy()
    for i in range(n):
        if not assigned[i]:
            warnings += 1
            log.warning("state %d received no observations; keeping previous parameters", i)
            continue
        obs = np.vstack(assigned[i])
        means[i] = obs.mean(axis=0)
        variances[i] = np.maximum(obs.var(axis=0), VAR_FLOOR)

    trans = model.trans.copy()
    for i in range(n - 1):
        total = stay[i] + move[i]
        if total <= 0.0:
            continue  # state never left by any path; keep previous row
        trans[i, i] = stay[i] / total
        trans[i, i + 1] = move[i] / total
    trans[n - 1] = 0.0
    trans[n - 1, n - 1] = 1.0
    return replace(model, trans=trans, means=means, variances=variances, warnings=warnings)


def viterbi_train(model: HmmModel, seqs: list[np.ndarray], tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER,
                  history: list[float] | None = None) -> HmmModel:
    """Segmental k-means: alternate Viterbi segmentation and ML re-estimation.

    Stops when the relative change of the total Viterbi log-likelihood drops
    below tol or after max_iter re-estimations. max_iter = 0 returns the
    input model unchanged; a negative tol disables the convergence test so
    exactly max_iter updates run.
    """
    if max_iter < 0:
        raise DataError("max_iter must be >= 0")
    seqs = [_check_seq(model, s) for s in seqs]
    if not seqs:
        raise DataError("no training sequences")
    prev = None
    for _ in range(max_iter):
        paths, scores = zip(*(viterbi(model, s) for s in seqs))
        total = float(sum(scores))
        if history is not None:
            history.append(total)
        if prev is not None and abs(total - prev) <= tol * max(1.0, abs(prev)):
            return model
        model = _reestimate_from_paths(model, seqs, list(paths))
        prev = total
    return model


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
    if max_iter < 0:
        raise DataError("max_iter must be >= 0")
    seqs = [_check_seq(model, s) for s in seqs]
    if not seqs:
        raise DataError("no training sequences")
    n = model.n_states
    prev = None
    for iteration in range(max_iter):
        trans_num = np.zeros((n, n))
        gamma_sum = np.zeros(n)
        obs_sum = np.zeros((n, model.dim))
        obs_sq_sum = np.zeros((n, model.dim))
        total = 0.0
        for seq in seqs:
            try:
                alpha, scales, b, ll = _scaled_forward(model, seq)
            except NumericError as exc:
                raise NumericError(f"iteration {iteration}: {exc}") from exc
            total += ll
            t_len = seq.shape[0]
            beta = np.zeros((t_len, n))
            beta[t_len - 1] = 1.0
            for t in range(t_len - 2, -1, -1):
                beta[t] = (model.trans @ (b[t + 1] * beta[t + 1])) / scales[t + 1]
            gamma = alpha * beta  # rows sum to 1
            gamma_sum += gamma.sum(axis=0)
            obs_sum += gamma.T @ seq
            obs_sq_sum += gamma.T @ (seq * seq)
            for t in range(t_len - 1):
                xi = (alpha[t][:, None] * model.trans
                      * (b[t + 1] * beta[t + 1])[None, :]) / scales[t + 1]
                trans_num += xi
        if history is not None:
            history.append(total)
        if prev is not None and abs(total - prev) <= tol * max(1.0, abs(prev)):
            return model

        trans = model.trans.copy()
        for i in range(n - 1):
            denom = trans_num[i, i] + trans_num[i, i + 1]
            if denom <= 0.0:
                continue  # unreachable state; keep previous row
            trans[i, i] = trans_num[i, i] / denom
            trans[i, i + 1] = trans_num[i, i + 1] / denom
        trans[n - 1] = 0.0
        trans[n - 1, n - 1] = 1.0

        means = model.means.copy()
        variances = model.variances.copy()
        warnings = model.warnings
        for i in range(n):
            if gamma_sum[i] <= _GAMMA_FLOOR:
                warnings += 1
                log.warning("state %d has near-zero occupancy; keeping previous parameters", i)
                continue
            means[i] = obs_sum[i] / gamma_sum[i]
            second = obs_sq_sum[i] / gamma_sum[i]
            variances[i] = np.maximum(second - means[i] ** 2, VAR_FLOOR)
        model = replace(model, trans=trans, means=means, variances=variances, warnings=warnings)
        prev = total
    return model


def features_for(bank: SubjectBank, image: GrayImage) -> np.ndarray:
    """Observation sequence for an image under the bank's feature transform."""
    blocks = extract_blocks(image, bank.params)
    if bank.feature_mode == FEATURE_RAW:
        return blocks
    return observe(blocks, bank.klt)


def train_bank(
    train: list[tuple[str, GrayImage]],
    params: BlockParams | None = None,
    n_states: int = DEFAULT_STATES,
    klt_dim: int = DEFAULT_KLT_DIM,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    feature_mode: str = FEATURE_KLT,
) -> SubjectBank:
    """One left-to-right HMM per subject over a shared KLT feature space.

    Pipeline per subject: uniform segmentation init, Viterbi re-estimation,
    then Baum-Welch.
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
    all_blocks = []
    for label, image in train:
        blocks = extract_blocks(image, params)
        by_label.setdefault(label, []).append(blocks)
        all_blocks.append(blocks)

    klt = None
    if feature_mode == FEATURE_KLT:
        klt = fit_klt(np.vstack(all_blocks), klt_dim)

    def to_obs(blocks: np.ndarray) -> np.ndarray:
        return blocks if klt is None else observe(blocks, klt)

    models: dict[str, HmmModel] = {}
    for label in sorted(by_label):
        seqs = [to_obs(b) for b in by_label[label]]
        model = init_uniform(seqs, n_states)
        model = viterbi_train(model, seqs, tol, max_iter)
        models[label] = baum_welch(model, seqs, tol, max_iter)
    return SubjectBank(params, klt, models, feature_mode)


def recognize(bank: SubjectBank, image: GrayImage) -> tuple[str, dict[str, float]]:
    """Maximum-forward-likelihood subject; ties go to the smallest label."""
    obs = features_for(bank, image)
    scores = {label: loglik(model, obs) for label, model in sorted(bank.models.items())}
    best, best_score = None, -np.inf
    for label, score in scores.items():  # sorted order: strict > keeps lowest label on ties
        if score > best_score:
            best, best_score = label, score
    return best, scores
