"""PCA-based holistic face recognizer (eigenfaces).

Training eigendecomposes the small M x M Gram matrix A^T A instead of the
D x D covariance A A^T and maps eigenvectors back through A, so cost scales
with the number of images rather than the pixel count. Stored eigenvalues
are those of A A^T without the 1/M covariance normalization; the factor
rescales eigenvalues only and affects no decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import GrayImage
from .errors import DataError
# Bound here, not called: sym_eigen for benchmarks/tests, and project (the weights
# omega = U^T (face - mean) of one face under an eigen model) for the tests.
from .numerics import (PROBE_CHUNK, FacePca, FaceSpace, affine_coords, affine_residual, check_face,
                       face_pca, label_slices, nearest, project, sym_eigen)

FACE = "face"
UNKNOWN_FACE = "unknown-face"
NOT_A_FACE = "not-a-face"

# Margin of the face-space test's Pythagorean form, relative to |x - mean|^2: it
# covers K * delta for a basis orthonormal to delta (K <= 199 at delta <= 1e-8)
# and the D * eps rounding of the two squared norms.
FACE_SPACE_MARGIN = 1e-5

UNKNOWN_LABEL = "<unknown-face>"
NOT_A_FACE_LABEL = "<not-a-face>"


@dataclass(frozen=True)
class EigenModel(FaceSpace):
    """Eigenfaces: basis U holds the principal directions, D x K with
    orthonormal columns, and the gallery one weight row per enrolled face.

    Orthonormal means to a delta = max |U^T U - I| that FACE_SPACE_MARGIN
    covers; train_eigen's bases read about 5e-13 at ORL scale (K = 40). It
    is not checked at load."""

    theta_face: float  # face-space (residual) distance threshold
    theta_known: float  # weight-space nearest-neighbor threshold
    # (reference face, its weights) of the last reference_weights call
    _reference: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    def reference_weights(self, face: np.ndarray) -> np.ndarray:
        """The weights U^T (face - mean) of a reference face vector of length D,
        kept for the last reference given: a face of the same bits, the same
        object or another, reads them back instead of projecting again."""
        face = check_face(face, self.mean)
        if self._reference is not None:
            kept, weights = self._reference
            if np.array_equal(kept.view(np.int64), face.view(np.int64)):
                return weights
        weights = affine_coords(face, self.mean, self.basis)
        weights.flags.writeable = False
        object.__setattr__(self, "_reference", (face.copy(), weights))
        return weights

    def predict(self, images: Sequence[GrayImage]) -> list[tuple[str, float]]:
        """Per image, (label or rejection marker, score); the score is the
        nearest-neighbor distance, or the face-space distance for a probe
        rejected as not a face. The probes are classified as row matrices of
        FaceSpace.probe_rows."""
        return [(predicted_label(d), float(d.dffs if d.distance is None else d.distance))
                for rows in self.probe_rows(images) for d in classify_rows(self, rows)]


@dataclass(frozen=True)
class EigenDecision:
    verdict: str  # FACE, UNKNOWN_FACE or NOT_A_FACE
    label: str | None  # matched (or nearest) gallery label; None for non-faces
    distance: float | None  # weight-space distance to that label's entry
    # distance from face space: affine_residual's exact one for a not-a-face row
    # and the rows of its batch; otherwise sqrt(|x - mean|^2 - |w|^2), within
    # about 1e-7 |x - mean| of it at worst (5e-14 on ORL-scale probes)
    dffs: float
    weights: np.ndarray


def predicted_label(decision: EigenDecision) -> str:
    """Prediction string for reports: the label, or a rejection marker."""
    if decision.verdict == FACE:
        return decision.label
    return UNKNOWN_LABEL if decision.verdict == UNKNOWN_FACE else NOT_A_FACE_LABEL


def component_count(samples: list, k: int) -> int:
    """min(k, M - 1): the principal directions train_eigen keeps at most.
    DataError for fewer than 2 samples or a request below 1."""
    if len(samples) < 2:
        raise DataError(f"need at least 2 training images, got {len(samples)}")
    if k < 1:
        raise DataError(f"requested component count must be >= 1, got {k}")
    return min(k, len(samples) - 1)


def train_eigen(
    samples: list[tuple[str, np.ndarray]],
    k: int,
    dims: tuple[int, int] | None = None,
    pca: FacePca | None = None,
) -> EigenModel:
    """Fit mean, eigenface basis and a gallery of one weight row per image.

    k is a request: the retained count is min(k, M-1, surviving rank), the
    rank cut being numerics.gram_pca's. pca, when given, is face_pca of these
    samples for at least that many directions, shared with another trainer;
    otherwise it is solved here for exactly that many. The gallery and the
    training residuals are read from pca's centred rows, the residuals
    PROBE_CHUNK rows at a time, so no M x D copy or reconstruction is formed.
    Thresholds:
    theta_face = 3x the 95th percentile of training face-space residuals,
    theta_known = 3x the largest intra-class gallery distance (both get a
    small scale-relative floor so full-rank self-matching stays stable).
    """
    count = component_count(samples, k)
    if pca is None:
        pca = face_pca(samples, dims, count)
    centred, labels = pca.centred, pca.labels  # M x D
    basis, lam = np.ascontiguousarray(pca.basis[:, :count]), pca.eigenvalues[:count].copy()

    gallery = centred @ basis  # one weight row per image
    # distances from face space of the centred rows (mean 0), PROBE_CHUNK rows at a time;
    # the last chunk is moved back to hold PROBE_CHUNK rows where there are that many,
    # as a one-row product rounds otherwise than the rows of a larger one
    train_dffs = np.empty(len(centred))
    for start in range(0, len(centred), PROBE_CHUNK):
        rows = slice(max(min(start, len(centred) - PROBE_CHUNK), 0), start + PROBE_CHUNK)
        train_dffs[rows] = affine_residual(centred[rows], 0.0, basis, gallery[rows])[1]

    scale = float(np.sqrt(pca.spread / len(centred)))
    theta_face = max(3.0 * float(np.percentile(train_dffs, 95)), 1e-9 * scale)
    largest_intra = max(float(np.linalg.norm(gallery[rows] - row, axis=1).max())
                        for rows in label_slices(labels).values()
                        for row in gallery[rows])  # never an n x n x K array
    theta_known = max(3.0 * largest_intra, 1e-9 * scale)
    return EigenModel(pca.dims, pca.mean, basis, lam, gallery, labels, theta_face, theta_known)


def reconstruct(model: EigenModel, weights: np.ndarray) -> np.ndarray:
    """Face-space reconstruction mean + U @ weights."""
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if weights.size != model.k:
        raise DataError(f"weight length {weights.size} != retained components {model.k}")
    return model.mean + model.basis @ weights


def classify_rows(model: EigenModel, faces: np.ndarray, weights: np.ndarray | None = None
                  ) -> list[EigenDecision]:
    """Per row of an n x D matrix of faces: the face-space test on the distance
    from face space, then the nearest gallery weight vector in L2. weights, when
    the caller has them (n x K), are the rows' and are not projected again.

    The test reads the basis once, for the weights w = U^T (x - mean): for an
    orthonormal U the squared distance is |x - mean|^2 - |w|^2 (Moghaddam &
    Pentland, 1997). A row whose form falls FACE_SPACE_MARGIN * |x - mean|^2
    or more below theta_face^2 is a face-space member whatever the rounding;
    when any row is not, affine_residual's reconstruction gives the exact
    distances of the whole batch, as one product: a product of fewer rows can
    round otherwise.

    Ties go to the lexicographically smallest label (gallery row order).
    """
    centred = faces - model.mean
    if weights is None:
        weights = centred @ model.basis
    norms = np.einsum("ij,ij->i", centred, centred)
    squared = norms - np.einsum("ij,ij->i", weights, weights)
    if (squared < model.theta_face ** 2 - FACE_SPACE_MARGIN * norms).all():
        residuals = np.sqrt(np.maximum(squared, 0.0))
    else:  # a row near theta_face, or not finite
        residuals = affine_residual(faces, model.mean, model.basis, weights)[1]
    decisions = []
    for row_weights, residual in zip(weights, residuals.tolist()):
        if residual > model.theta_face:
            decisions.append(EigenDecision(NOT_A_FACE, None, None, residual, row_weights))
            continue
        row, best_dist = nearest(model.gallery, row_weights)
        verdict = UNKNOWN_FACE if best_dist > model.theta_known else FACE
        decisions.append(EigenDecision(verdict, model.row_labels[row], best_dist, residual,
                                       row_weights))
    return decisions


def classify(model: EigenModel, face: np.ndarray) -> EigenDecision:
    """classify_rows of one face vector, as a one-row matrix."""
    return classify_rows(model, check_face(face, model.mean)[None])[0]
