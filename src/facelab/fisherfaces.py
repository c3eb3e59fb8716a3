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

from .dataset import GrayImage, check_dims, flatten
from .errors import DataError, NumericError, SingularOrIndefinite
# sym_eigen is not called here; benchmarks/tests still finds it bound in this module.
from .numerics import (affine_coords, check_face, fix_signs, gen_sym_eigen, gram_pca, nearest,
                       require_shape, require_spread, sort_rows, sym_eigen)

RIDGE_REL = 1e-8  # ridge added to within-class scatter when Cholesky fails
EIGENVALUE_REL_CUT = 1e-10  # generalized eigenvalues kept relative to largest
DEGENERATE_TOL = 1e-8  # largest generalized eigenvalue below this => degenerate
RESIDUAL_RTOL = 1e-6


@dataclass(frozen=True)
class ScatterPair:
    between: np.ndarray  # S_B, symmetric PSD
    within: np.ndarray  # S_W, symmetric PSD


@dataclass(frozen=True)
class FisherModel:
    dims: tuple[int, int]
    mean: np.ndarray  # global mean, length D
    projection: np.ndarray  # W_opt = W_pca W_fld, D x m, unit-norm columns
    centroids: np.ndarray  # c x m, centered projection of each class mean
    row_labels: tuple[str, ...]  # label of each centroid row, unique
    eigenvalues: np.ndarray  # generalized eigenvalues, descending, length m

    def __post_init__(self):
        d, m = self.dims[0] * self.dims[1], np.shape(self.projection)[-1]
        require_shape("fisher mean", self.mean, (d,))
        require_shape("fisher projection", self.projection, (d, m))
        require_shape("fisher eigenvalues", self.eigenvalues, (m,))
        require_shape("fisher centroids", self.centroids, (len(self.row_labels), m))
        if len(set(self.row_labels)) != len(self.row_labels):
            raise DataError(f"fisher centroid labels name a subject twice: {self.row_labels}")
        centroids, row_labels = sort_rows(self.centroids, self.row_labels)
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "row_labels", row_labels)

    @property
    def m(self) -> int:
        return self.projection.shape[1]

    @property
    def labels(self) -> list[str]:
        return list(self.row_labels)

    def predict(self, images: Sequence[GrayImage]) -> list[tuple[str, float]]:
        """Per image, (nearest-centroid label, its discriminant-space distance)."""
        return [classify(self, flatten(check_dims(image, self.dims))) for image in images]


def _group(samples: list[tuple[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Label -> (n_i x d) sample matrix, labels sorted, common dimension."""
    if not samples:
        raise DataError("no samples")
    by_label: dict[str, list[np.ndarray]] = {}
    d = None
    for label, vec in samples:
        vec = np.asarray(vec, dtype=np.float64).reshape(-1)
        if d is None:
            d = vec.size
        elif vec.size != d:
            raise DataError(f"dimension mismatch in class {label!r}: {vec.size} != {d}")
        by_label.setdefault(label, []).append(vec)
    return {label: np.vstack(by_label[label]) for label in sorted(by_label)}


def compute_scatter(samples: list[tuple[str, np.ndarray]]) -> ScatterPair:
    """Between- and within-class scatter matrices of labeled vectors."""
    groups = _group(samples)
    if len(groups) < 2:
        raise DataError(f"need at least 2 classes, got {len(groups)}")
    d = next(iter(groups.values())).shape[1]
    n_total = sum(g.shape[0] for g in groups.values())
    mean = sum(g.sum(axis=0) for g in groups.values()) / n_total

    between = np.zeros((d, d))
    within = np.zeros((d, d))
    for label, g in groups.items():
        mu_i = g.mean(axis=0)
        diff = mu_i - mean
        between += g.shape[0] * np.outer(diff, diff)
        centered = g - mu_i
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
) -> FisherModel:
    """PCA to min(N - c, rank), then FLD to at most c - 1 discriminants.

    The model keeps only the composed projection W_opt = W_pca W_fld. Its
    columns have unit Euclidean norm (the PCA basis is orthonormal, so the
    unit-norm reduced columns carry that norm) and are sign-fixed.
    """
    groups = _group(samples)
    c = len(groups)
    if c < 2:
        raise DataError(f"need at least 2 classes, got {c}")
    n_total = sum(g.shape[0] for g in groups.values())
    if n_total < c + 1:
        raise DataError(f"need at least c + 1 = {c + 1} images, got {n_total}")
    d = next(iter(groups.values())).shape[1]
    if dims is None:
        dims = (1, d)
    elif dims[0] * dims[1] != d:
        raise DataError(f"dims {dims} inconsistent with vector length {d}")

    gamma = np.vstack([groups[label] for label in groups]).T  # D x N
    mean = gamma.mean(axis=1)
    phi = gamma - mean[:, None]
    require_spread(np.einsum("ij,ij->", phi, phi), np.einsum("ij,ij->", gamma, gamma))
    pca = gram_pca(phi, n_total - c)[0]

    reduced = [(label, affine_coords(vec, mean, pca)) for label, g in groups.items() for vec in g]
    scatter = compute_scatter(reduced)
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

    projection = fix_signs(pca @ fld)
    class_means = np.vstack([g.mean(axis=0) for g in groups.values()])
    centroids = affine_coords(class_means, mean, projection)
    return FisherModel(dims, mean, projection, centroids, tuple(groups), lam)


def project(model: FisherModel, face: np.ndarray) -> np.ndarray:
    """Discriminant-space coordinates W_opt^T (face - mean)."""
    return affine_coords(check_face(face, model.mean), model.mean, model.projection)


def classify(model: FisherModel, face: np.ndarray) -> tuple[str, float]:
    """Nearest class centroid in discriminant space; ties to smallest label."""
    row, dist = nearest(model.centroids, project(model, face))
    return model.row_labels[row], dist
