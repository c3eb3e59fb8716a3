"""Fisher linear discriminant face recognizer (fisherfaces).

The within-class scatter of raw face vectors is singular whenever the image
dimension exceeds the sample count, so training first projects onto the top
min(N - c, rank) principal components of the total scatter and only then
maximizes the between/within generalized Rayleigh quotient, keeping at most
c - 1 discriminant directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import GrayImage, flatten
from .errors import DataError, NumericError, SingularOrIndefinite
# sym_eigen is not called here; benchmarks/tests still finds it bound in this module.
from .numerics import check_face, gen_sym_eigen, gram_pca, require_shape, sym_eigen

RIDGE_REL = 1e-8  # ridge added to within-class scatter when Cholesky fails
EIGENVALUE_REL_CUT = 1e-10  # generalized eigenvalues kept relative to largest
DEGENERATE_TOL = 1e-8  # largest generalized eigenvalue below this => degenerate
RESIDUAL_RTOL = 1e-6


@dataclass(frozen=True)
class ScatterPair:
    between: np.ndarray  # S_B, symmetric PSD
    within: np.ndarray  # S_W, symmetric PSD
    dim: int
    class_count: int
    counts: dict[str, int]
    class_means: dict[str, np.ndarray]
    mean: np.ndarray


@dataclass(frozen=True)
class FisherModel:
    dims: tuple[int, int]
    mean: np.ndarray  # global mean, length D
    pca: np.ndarray  # D x p, orthonormal columns
    fld: np.ndarray  # p x m discriminants, unit input-space norm
    centroids: dict[str, np.ndarray]  # label -> length-m centered projection
    eigenvalues: np.ndarray  # generalized eigenvalues, descending, length m

    def __post_init__(self):
        # canonical label order; nearest-centroid ties then resolve low
        object.__setattr__(self, "centroids",
                           {lb: self.centroids[lb] for lb in sorted(self.centroids)})
        d, p, m = self.dims[0] * self.dims[1], np.shape(self.pca)[-1], np.shape(self.fld)[-1]
        require_shape("fisher mean", self.mean, (d,))
        require_shape("fisher pca", self.pca, (d, p))
        require_shape("fisher fld", self.fld, (p, m))
        require_shape("fisher eigenvalues", self.eigenvalues, (m,))
        for label, centroid in self.centroids.items():
            require_shape(f"fisher centroid {label!r}", centroid, (m,))

    @property
    def m(self) -> int:
        return self.fld.shape[1]

    @property
    def labels(self) -> list[str]:
        return list(self.centroids)

    def predict(self, image: GrayImage) -> tuple[str, float]:
        """(nearest-centroid label, its discriminant-space distance)."""
        return classify(self, flatten(image))


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
    counts, class_means = {}, {}
    for label, g in groups.items():
        mu_i = g.mean(axis=0)
        counts[label] = g.shape[0]
        class_means[label] = mu_i
        diff = mu_i - mean
        between += g.shape[0] * np.outer(diff, diff)
        centered = g - mu_i
        within += centered.T @ centered
    between = 0.5 * (between + between.T)
    within = 0.5 * (within + within.T)
    return ScatterPair(between, within, d, len(groups), counts, class_means, mean)


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

    Discriminant columns are rescaled to unit Euclidean norm in input space
    (the PCA basis is orthonormal, so the reduced columns carry that norm)
    and sign-fixed on their back-mapped pixel-space direction.
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
    pca = gram_pca(phi, n_total - c)[0]

    reduced = [(label, pca.T @ (vec - mean))
               for label, g in groups.items() for vec in g]
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
    back = pca @ fld  # unit-norm pixel-space discriminants
    lead = np.argmax(np.abs(back), axis=0)
    signs = np.where(back[lead, np.arange(m)] < 0.0, -1.0, 1.0)
    fld = fld * signs
    lam = vals[:m].copy()

    scale = max(1.0, float(np.linalg.norm(scatter.between)))
    residual = scatter.between @ fld - within_used @ fld * lam
    worst = float(np.linalg.norm(residual, axis=0).max()) if m else 0.0
    if worst > RESIDUAL_RTOL * scale:
        raise NumericError(f"generalized eigen residual {worst:g} exceeds bound")

    centroids = {label: fld.T @ (pca.T @ (g.mean(axis=0) - mean))
                 for label, g in groups.items()}
    return FisherModel(dims, mean, pca, fld, centroids, lam)


def project(model: FisherModel, face: np.ndarray) -> np.ndarray:
    """Discriminant-space coordinates W_fld^T W_pca^T (face - mean)."""
    face = check_face(face, model.mean)
    return model.fld.T @ (model.pca.T @ (face - model.mean))


def classify(model: FisherModel, face: np.ndarray) -> tuple[str, float]:
    """Nearest class centroid in discriminant space; ties to smallest label."""
    if not model.centroids:
        raise DataError("cannot classify with an empty model")
    z = project(model, face)
    best_label, best_dist = None, np.inf
    for label, centroid in model.centroids.items():
        dist = float(np.linalg.norm(z - centroid))
        if dist < best_dist:
            best_label, best_dist = label, dist
    return best_label, best_dist
