"""PCA-based holistic face recognizer (eigenfaces).

Training eigendecomposes the small M x M Gram matrix A^T A instead of the
D x D covariance A A^T and maps eigenvectors back through A, so cost scales
with the number of images rather than the pixel count. Stored eigenvalues
are those of A A^T without the 1/M covariance normalization; the factor
rescales eigenvalues only and affects no decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import pdist

from .dataset import GrayImage, check_dims, flatten
from .errors import DataError
# sym_eigen is not called here; benchmarks/tests still finds it bound in this module.
from .numerics import (affine_coords, affine_residual, check_face, gram_pca, nearest,
                       require_shape, require_spread, sort_rows, sym_eigen)

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
    gallery: np.ndarray  # M x K, one weight row per enrolled face
    row_labels: tuple[str, ...]  # label of each gallery row
    theta_face: float  # face-space (residual) distance threshold
    theta_known: float  # weight-space nearest-neighbor threshold

    def __post_init__(self):
        d, k = self.dims[0] * self.dims[1], np.shape(self.basis)[-1]
        require_shape("eigen mean", self.mean, (d,))
        require_shape("eigen basis", self.basis, (d, k))
        require_shape("eigen eigenvalues", self.eigenvalues, (k,))
        require_shape("eigen gallery", self.gallery, (len(self.row_labels), k))
        gallery, row_labels = sort_rows(self.gallery, self.row_labels)
        object.__setattr__(self, "gallery", gallery)
        object.__setattr__(self, "row_labels", row_labels)

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    @property
    def labels(self) -> list[str]:
        return list(dict.fromkeys(self.row_labels))

    def predict(self, images: Sequence[GrayImage]) -> list[tuple[str, float]]:
        """Per image, (label or rejection marker, score); the score is the
        nearest-neighbor distance, or the face-space distance for a probe
        rejected as not a face."""
        decisions = [classify(self, flatten(check_dims(image, self.dims))) for image in images]
        return [(predicted_label(d), float(d.dffs if d.distance is None else d.distance))
                for d in decisions]


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
) -> EigenModel:
    """Fit mean, eigenface basis and a gallery of one weight row per image.

    k is a request: the retained count is min(k, M-1, surviving rank), the
    rank cut being numerics.gram_pca's. Thresholds:
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
    require_spread(np.einsum("ij,ij->", phi, phi), np.einsum("ij,ij->", gamma, gamma))
    basis, lam = gram_pca(phi, min(k, m - 1))

    gallery, train_dffs = affine_residual(gamma.T, psi, basis)  # one row per image

    scale = float(np.sqrt(np.mean(np.sum(phi * phi, axis=0))))
    theta_face = max(3.0 * float(np.percentile(train_dffs, 95)), 1e-9 * scale)
    row_labels = np.array(labels)
    largest_intra = max(float(pdist(gallery[row_labels == label]).max(initial=0.0))
                        for label in set(labels))
    theta_known = max(3.0 * largest_intra, 1e-9 * scale)
    return EigenModel(dims, psi, basis, lam, gallery, tuple(labels), theta_face, theta_known)


def project(model: EigenModel, face: np.ndarray) -> np.ndarray:
    """Weights omega = U^T (face - mean)."""
    return affine_coords(check_face(face, model.mean), model.mean, model.basis)


def reconstruct(model: EigenModel, weights: np.ndarray) -> np.ndarray:
    """Face-space reconstruction mean + U @ weights."""
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if weights.size != model.k:
        raise DataError(f"weight length {weights.size} != retained components {model.k}")
    return model.mean + model.basis @ weights


def classify(model: EigenModel, face: np.ndarray) -> EigenDecision:
    """Face-space test on the distance from face space, then nearest gallery
    weight vector in L2.

    Ties go to the lexicographically smallest label (gallery row order).
    """
    weights, residual = affine_residual(check_face(face, model.mean), model.mean, model.basis)
    residual = float(residual)
    if residual > model.theta_face:
        return EigenDecision(NOT_A_FACE, None, None, residual, weights)
    row, best_dist = nearest(model.gallery, weights)
    best_label = model.row_labels[row]
    if best_dist > model.theta_known:
        return EigenDecision(UNKNOWN_FACE, best_label, best_dist, residual, weights)
    return EigenDecision(FACE, best_label, best_dist, residual, weights)

