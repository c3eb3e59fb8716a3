"""PCA-based holistic face recognizer (eigenfaces).

Training eigendecomposes the small M x M Gram matrix A^T A instead of the
D x D covariance A A^T and maps eigenvectors back through A, so cost scales
with the number of images rather than the pixel count. Stored eigenvalues
are those of A A^T without the 1/M covariance normalization; the factor
rescales eigenvalues only and affects no decision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import GrayImage, flatten
from .errors import DataError
# sym_eigen is not called here; benchmarks/tests still finds it bound in this module.
from .numerics import check_face, gram_pca, require_shape, sym_eigen

FACE = "face"
UNKNOWN_FACE = "unknown-face"
NOT_A_FACE = "not-a-face"

UNKNOWN_LABEL = "<unknown-face>"
NOT_A_FACE_LABEL = "<not-a-face>"


@dataclass(frozen=True)
class EigenModel:
    dims: tuple[int, int]
    mean: np.ndarray  # Psi, length D
    basis: np.ndarray  # U, D x K with orthonormal columns
    eigenvalues: np.ndarray  # descending, one per retained column
    gallery: dict[str, tuple[np.ndarray, ...]]  # label -> weight vectors
    theta_face: float  # face-space (residual) distance threshold
    theta_known: float  # weight-space nearest-neighbor threshold

    def __post_init__(self):
        # canonical label order; nearest-neighbor ties then resolve low
        object.__setattr__(self, "gallery",
                           {lb: tuple(self.gallery[lb]) for lb in sorted(self.gallery)})
        d, k = self.dims[0] * self.dims[1], np.shape(self.basis)[-1]
        require_shape("eigen mean", self.mean, (d,))
        require_shape("eigen basis", self.basis, (d, k))
        require_shape("eigen eigenvalues", self.eigenvalues, (k,))
        for label, entries in self.gallery.items():
            for entry in entries:
                require_shape(f"eigen gallery entry {label!r}", entry, (k,))

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    @property
    def labels(self) -> list[str]:
        return list(self.gallery)

    def predict(self, image: GrayImage) -> tuple[str, float]:
        """(label or rejection marker, score); the score is the nearest-neighbor
        distance, or the face-space distance for a probe rejected as not a face."""
        decision = classify(self, flatten(image))
        score = decision.distance if decision.distance is not None else decision.dffs
        return predicted_label(decision), float(score)


@dataclass(frozen=True)
class EigenDecision:
    verdict: str  # FACE, UNKNOWN_FACE or NOT_A_FACE
    label: str | None  # matched (or nearest) gallery label; None for non-faces
    distance: float | None  # weight-space distance to that label's entry
    dffs: float
    weights: np.ndarray


def predicted_label(decision: EigenDecision) -> str:
    """Prediction string for reports: the label, or a rejection marker."""
    if decision.verdict == FACE:
        return decision.label
    return UNKNOWN_LABEL if decision.verdict == UNKNOWN_FACE else NOT_A_FACE_LABEL


def _as_matrix(samples: list[tuple[str, np.ndarray]]) -> tuple[list[str], np.ndarray]:
    labels = [label for label, _ in samples]
    vecs = [np.asarray(v, dtype=np.float64).reshape(-1) for _, v in samples]
    d = vecs[0].size
    for (label, _), v in zip(samples, vecs):
        if v.size != d:
            raise DataError(f"dimension mismatch in class {label!r}: {v.size} != {d}")
    return labels, np.column_stack(vecs)


def train_eigen(
    samples: list[tuple[str, np.ndarray]],
    k: int,
    dims: tuple[int, int] | None = None,
    theta_face: float | None = None,
    theta_known: float | None = None,
) -> EigenModel:
    """Fit mean, eigenface basis and per-class weight gallery.

    k is a request: the retained count is min(k, M-1, surviving rank), the
    rank cut being numerics.gram_pca's. Default thresholds:
    theta_face = 3x the 95th percentile of training face-space residuals,
    theta_known = 3x the largest intra-class gallery distance (both get a
    small scale-relative floor so full-rank self-matching stays stable).
    """
    if len(samples) < 2:
        raise DataError(f"need at least 2 training images, got {len(samples)}")
    if k < 1:
        raise DataError(f"requested component count must be >= 1, got {k}")
    labels, gamma = _as_matrix(samples)
    d, m = gamma.shape
    if dims is None:
        dims = (1, d)
    elif dims[0] * dims[1] != d:
        raise DataError(f"dims {dims} inconsistent with vector length {d}")

    psi = gamma.mean(axis=1)
    phi = gamma - psi[:, None]
    basis, lam = gram_pca(phi, min(k, m - 1))

    weights = basis.T @ phi  # K x M
    residual = phi - basis @ weights
    train_dffs = np.linalg.norm(residual, axis=0)

    scale = float(np.sqrt(np.mean(np.sum(phi * phi, axis=0))))
    if theta_face is None:
        theta_face = max(3.0 * float(np.percentile(train_dffs, 95)), 1e-9 * scale)
    if theta_known is None:
        largest_intra = 0.0
        for label in set(labels):
            cols = [i for i, lb in enumerate(labels) if lb == label]
            for a in range(len(cols)):
                for b in range(a + 1, len(cols)):
                    dist = float(np.linalg.norm(weights[:, cols[a]] - weights[:, cols[b]]))
                    largest_intra = max(largest_intra, dist)
        theta_known = max(3.0 * largest_intra, 1e-9 * scale)

    gallery: dict[str, tuple[np.ndarray, ...]] = {}
    for label in sorted(set(labels)):
        cols = [i for i, lb in enumerate(labels) if lb == label]
        gallery[label] = tuple(weights[:, i].copy() for i in cols)

    return EigenModel(dims, psi, basis, lam, gallery, float(theta_face), float(theta_known))


def project(model: EigenModel, face: np.ndarray) -> np.ndarray:
    """Weights omega = U^T (face - mean)."""
    face = check_face(face, model.mean)
    return model.basis.T @ (face - model.mean)


def reconstruct(model: EigenModel, weights: np.ndarray) -> np.ndarray:
    """Face-space reconstruction mean + U @ weights."""
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if weights.size != model.k:
        raise DataError(f"weight length {weights.size} != retained components {model.k}")
    return model.mean + model.basis @ weights


def dffs(model: EigenModel, face: np.ndarray) -> float:
    """Distance from face space: norm of the component outside span(U)."""
    face = check_face(face, model.mean)
    phi = face - model.mean
    return float(np.linalg.norm(phi - model.basis @ (model.basis.T @ phi)))


def classify(model: EigenModel, face: np.ndarray) -> EigenDecision:
    """Face-space test, then nearest gallery weight vector in L2.

    Ties go to the lexicographically smallest label (gallery iteration order).
    """
    if not model.gallery:
        raise DataError("cannot classify with an empty gallery")
    face = check_face(face, model.mean)
    phi = face - model.mean
    weights = model.basis.T @ phi
    residual = float(np.linalg.norm(phi - model.basis @ weights))
    if residual > model.theta_face:
        return EigenDecision(NOT_A_FACE, None, None, residual, weights)
    best_label, best_dist = None, np.inf
    for label, entries in model.gallery.items():
        for entry in entries:
            dist = float(np.linalg.norm(weights - entry))
            if dist < best_dist:
                best_label, best_dist = label, dist
    if best_dist > model.theta_known:
        return EigenDecision(UNKNOWN_FACE, best_label, best_dist, residual, weights)
    return EigenDecision(FACE, best_label, best_dist, residual, weights)


def enroll(model: EigenModel, face: np.ndarray, label: str) -> EigenModel:
    """Add a face's weight pattern to the gallery; the basis is unchanged."""
    residual = dffs(model, face)
    if residual > model.theta_face:
        raise DataError(
            f"cannot enroll: face-space distance {residual:g} exceeds theta_face "
            f"{model.theta_face:g}")
    weights = project(model, face)
    gallery = dict(model.gallery)
    gallery[label] = gallery.get(label, ()) + (weights,)
    gallery = {lb: gallery[lb] for lb in sorted(gallery)}
    return replace(model, gallery=gallery)
