"""Fisher linear discriminant face recognizer (fisherfaces).

The within-class scatter of raw face vectors is singular whenever the image
dimension exceeds the sample count, so training first projects onto the top
min(N - c, rank) principal components of the total scatter and only then
maximizes the between/within generalized Rayleigh quotient, keeping at most
c - 1 discriminant directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import GrayImage
from .errors import DataError, NumericError, SingularOrIndefinite
# Bound here, not called: sym_eigen for benchmarks/tests, and project (the
# discriminant-space coordinates of one face) for the tests.
from .numerics import (FacePca, FaceSpace, affine_coords, check_face, face_pca, fix_signs,
                       gen_sym_eigen, label_slices, nearest, project, sample_matrix, sym_eigen)

RIDGE_REL = 1e-8  # ridge added to within-class scatter when Cholesky fails
EIGENVALUE_REL_CUT = 1e-10  # generalized eigenvalues kept relative to largest
DEGENERATE_TOL = 1e-8  # largest generalized eigenvalue below this => degenerate
RESIDUAL_RTOL = 1e-6


@dataclass(frozen=True)
class ScatterPair:
    between: np.ndarray  # S_B, symmetric PSD
    within: np.ndarray  # S_W, symmetric PSD


@dataclass(frozen=True)
class FisherModel(FaceSpace):
    """Fisherfaces: basis holds W_opt = W_pca W_fld, D x m with unit-norm
    columns, eigenvalues the generalized ones, and the gallery one centred
    projected class mean (centroid) per subject, each subject once."""

    def __post_init__(self):
        super().__post_init__()
        if len(set(self.row_labels)) != len(self.row_labels):
            raise DataError(f"fisher centroid labels name a subject twice: {self.row_labels}")

    @property
    def m(self) -> int:
        return self.basis.shape[1]

    def predict(self, images: Sequence[GrayImage]) -> list[tuple[str, float]]:
        """Per image, (nearest-centroid label, its discriminant-space distance).
        The probes are classified as row matrices of FaceSpace.probe_rows."""
        return [decision for rows in self.probe_rows(images)
                for decision in classify_rows(self, rows)]


def compute_scatter(samples: list[tuple[str, np.ndarray]]) -> ScatterPair:
    """Between- and within-class scatter matrices of labeled vectors."""
    rows, labels, _ = sample_matrix(samples)
    classes = label_slices(labels)
    if len(classes) < 2:
        raise DataError(f"need at least 2 classes, got {len(classes)}")
    d = rows.shape[1]
    mean = sum(rows[s].sum(axis=0) for s in classes.values()) / len(rows)

    between = np.zeros((d, d))
    within = np.zeros((d, d))
    for s in classes.values():
        mu_i = rows[s].mean(axis=0)
        diff = mu_i - mean
        between += (s.stop - s.start) * np.outer(diff, diff)
        centered = rows[s] - mu_i
        within += centered.T @ centered
    between = 0.5 * (between + between.T)
    within = 0.5 * (within + within.T)
    return ScatterPair(between, within)


def _solve_fld(between: np.ndarray, within: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full generalized spectrum with one ridge retry; returns (vals, vecs, within used)."""
    n = between.shape[0]
    try:
        vals, vecs = gen_sym_eigen(between, within, n)
        return vals, vecs, within
    except SingularOrIndefinite:
        ridge = RIDGE_REL * float(np.trace(within)) / n
        regularized = within + ridge * np.eye(n)
        try:
            vals, vecs = gen_sym_eigen(between, regularized, n)
            return vals, vecs, regularized
        except SingularOrIndefinite as exc:
            raise NumericError(
                "degenerate within-class scatter: Cholesky failed after ridge") from exc


def train_fisher(
    samples: list[tuple[str, np.ndarray]],
    dims: tuple[int, int] | None = None,
    pca: FacePca | None = None,
) -> FisherModel:
    """PCA to min(N - c, rank), then FLD to at most c - 1 discriminants.

    pca, when given, is face_pca of these samples for at least N - c
    directions, shared with another trainer; otherwise it is solved here for
    exactly N - c. The model keeps only the composed projection W_opt =
    W_pca W_fld. Its columns have unit Euclidean norm (the PCA basis is
    orthonormal, so the unit-norm reduced columns carry that norm) and are
    sign-fixed.
    """
    gamma, labels, dims = ((pca.rows, pca.labels, pca.dims) if pca is not None
                           else sample_matrix(samples, dims))  # N x D
    classes = label_slices(labels)
    c, n_total = len(classes), len(labels)
    if c < 2:
        raise DataError(f"need at least 2 classes, got {c}")
    if n_total < c + 1:
        raise DataError(f"need at least c + 1 = {c + 1} images, got {n_total}")
    if pca is None:
        pca = face_pca(gamma, labels, dims, n_total - c)
    mean, basis = pca.mean, pca.basis[:, :n_total - c]

    scatter = compute_scatter(list(zip(labels, pca.coords[:, :n_total - c])))
    vals, vecs, within_used = _solve_fld(scatter.between, scatter.within)

    lam1 = float(vals[0])
    positive = int(np.sum(vals > EIGENVALUE_REL_CUT * max(1.0, lam1)))
    if positive > c - 1:
        raise NumericError(
            f"{positive} positive generalized eigenvalues exceeds class bound {c - 1}")
    if lam1 <= DEGENERATE_TOL:
        raise NumericError(
            f"degenerate between-class separation: largest generalized eigenvalue {lam1:g}")
    m = min(int(np.sum(vals > EIGENVALUE_REL_CUT * lam1)), c - 1)

    fld = vecs[:, :m] / np.linalg.norm(vecs[:, :m], axis=0)
    lam = vals[:m].copy()

    scale = max(1.0, float(np.linalg.norm(scatter.between)))
    residual = scatter.between @ fld - within_used @ fld * lam
    worst = float(np.linalg.norm(residual, axis=0).max()) if m else 0.0
    if worst > RESIDUAL_RTOL * scale:
        raise NumericError(f"generalized eigen residual {worst:g} exceeds bound")

    projection = fix_signs(basis @ fld)
    class_means = np.vstack([gamma[s].mean(axis=0) for s in classes.values()])
    centroids = affine_coords(class_means, mean, projection)
    return FisherModel(dims, mean, projection, lam, centroids, tuple(classes))


def classify_rows(model: FisherModel, faces: np.ndarray) -> list[tuple[str, float]]:
    """Per row of an n x D matrix of faces, the nearest class centroid in
    discriminant space and its distance; one affine_coords projects every row.
    Ties go to the smallest label."""
    coords = affine_coords(faces, model.mean, model.basis)
    return [(model.row_labels[row], dist)
            for row, dist in (nearest(model.gallery, z) for z in coords)]


def classify(model: FisherModel, face: np.ndarray) -> tuple[str, float]:
    """classify_rows of one face vector, as a one-row matrix."""
    return classify_rows(model, check_face(face, model.mean)[None])[0]
