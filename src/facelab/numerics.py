"""Dense symmetric eigendecomposition, Cholesky, the whitened generalized
symmetric eigenproblem, PCA (and the one face PCA of eigenfaces and
fisherfaces), the affine-subspace rule, the nearest-row rule,
the shape checks and the probe chunk shared by all recognizers, and the
linear face space that eigenfaces and fisherfaces both fit.

All dense linear algebra goes through numpy.linalg (one LAPACK, one BLAS
thread pool). A PCA solves the full spectrum with sym_eigen, except where it
keeps few pairs of a large matrix: there subspace iteration solves only the
top ones, and falls back to sym_eigen if it does not converge.

Conventions enforced on every spectrum:
  * eigenvalues sorted descending,
  * eigenvector columns orthonormal,
  * per column, the entry of largest magnitude is non-negative
    (ties broken by lowest index) so results serialize reproducibly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .dataset import GrayImage, check_dims, flatten
from .errors import DataError, NumericError, SingularOrIndefinite

SYM_RTOL = 1e-10  # relative entrywise symmetry requirement on inputs
SYM_BLOCK = 64  # rows of a matrix that the symmetry check compares at a time
EPS_CUT_REL = 1e-10  # PCA drops eigenvalues below this fraction of the largest
# probes every recognizer scores at a time: for 112 x 92 faces, an 8 x 10,304 row matrix
# (0.66 MB) in eigenfaces and fisherfaces, and 320 forward rows for 40 HMM subjects, so
# the HMM's one emission buffer and each forward array hold about 1.3 MB
PROBE_CHUNK = 8
# The top-k solve of scatter_pca iterates SUBSPACE_BLOCK * k columns, and only for a
# matrix of at least SUBSPACE_SPAN such blocks. It stops when every kept pair has
# |S x - lambda x| <= SUBSPACE_TOL * lambda_max, about 20 times the rounding floor of
# the KLT scatters; SUBSPACE_STEPS bounds it above the 28 steps that the seed-1 ORL
# scatter of 20-row blocks (D = 1840) takes, and below the cost of sym_eigen at D = 920.
SUBSPACE_BLOCK = 2
SUBSPACE_SPAN = 4
SUBSPACE_TOL = 1e-14
SUBSPACE_STEPS = 40
_IDENTICAL = "zero variance: all training samples are identical"


@dataclass(frozen=True)
class SymEigenResult:
    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # orthonormal columns, one per eigenvalue


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each column's largest-magnitude entry is non-negative."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.size == 0:
        return vectors.copy()
    return vectors * _lead_signs(vectors)


def _lead_signs(vectors: np.ndarray) -> np.ndarray:
    """Per column of a non-empty matrix, -1.0 where its largest-magnitude entry
    (the first on ties) is negative, else 1.0. Column maxima and minima run
    along the rows, where an argmax of |v| per column would transpose the
    matrix; only a column whose two tie in magnitude is searched for its first."""
    top, bottom = vectors.max(axis=0), vectors.min(axis=0)
    negative = -bottom > top
    for j in np.flatnonzero(-bottom == top):
        negative[j] = vectors[np.argmax(np.abs(vectors[:, j])), j] < 0.0
    return np.where(negative, -1.0, 1.0)


def _check_square_symmetric(S: np.ndarray, what: str) -> np.ndarray:
    """S as float64; DataError unless it is square, finite, and max |S - S^T| is
    at most SYM_RTOL * max(1, max |S|). The upper triangle is compared with the
    lower SYM_BLOCK rows at a time, so no D x D temporary is formed; max and min
    propagate NaN, so they find a non-finite entry too."""
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] < 1:
        raise DataError(f"{what} must be a square matrix, got shape {S.shape}")
    top, bottom = float(S.max()), float(S.min())
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise DataError(f"{what} contains non-finite entries")
    bound = SYM_RTOL * max(1.0, top, -bottom)
    for start in range(0, len(S), SYM_BLOCK):
        stop = start + SYM_BLOCK
        if float(np.abs(S[start:stop, start:] - S[start:, start:stop].T).max()) > bound:
            raise DataError(f"{what} is not symmetric to {SYM_RTOL:g} relative")
    return S


def sym_eigen(S: np.ndarray) -> SymEigenResult:
    """Full spectrum of a symmetric matrix, descending, sign-fixed."""
    S = _check_square_symmetric(S, "sym_eigen input")
    try:
        vals, vecs = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"symmetric eigensolver did not converge: {exc}") from exc
    order = np.argsort(-vals, kind="stable")  # descending, ties keep solver order
    return SymEigenResult(vals[order], fix_signs(vecs[:, order]))


def cholesky(S: np.ndarray) -> np.ndarray:
    """Lower-triangular L with S = L L^T; raises SingularOrIndefinite otherwise."""
    S = _check_square_symmetric(S, "cholesky input")
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise SingularOrIndefinite(f"matrix is not positive definite: {exc}") from exc


def gen_sym_eigen(B: np.ndarray, W: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Top m generalized eigenpairs of B w = lambda W w by Cholesky whitening.

    W = L L^T; the symmetric problem L^-1 B L^-T y = lambda y is solved and
    vectors mapped back via w = L^-T y, which leaves them normalized to
    w^T W w = 1. numpy.linalg.solve (LU) solves the systems in L and L^T, as
    numpy has no triangular solver. Returns (values descending, vectors n x m).
    """
    B = _check_square_symmetric(B, "gen_sym_eigen B")
    W = _check_square_symmetric(W, "gen_sym_eigen W")
    n = B.shape[0]
    if W.shape[0] != n:
        raise DataError(f"B and W sizes differ: {B.shape} vs {W.shape}")
    if not 1 <= m <= n:
        raise DataError(f"m={m} out of range for {n}x{n} problem")
    L = cholesky(W)
    # M = L^-1 B L^-T, kept symmetric by construction
    Linv_B = np.linalg.solve(L, B)
    M = np.linalg.solve(L, Linv_B.T).T
    M = 0.5 * (M + M.T)
    res = sym_eigen(M)
    Y = res.eigenvectors[:, :m]
    vectors = np.linalg.solve(L.T, Y)
    return res.eigenvalues[:m].copy(), fix_signs(vectors)


def _keep_count(values: np.ndarray, k: int) -> int:
    """How many leading (descending) eigenvalues a PCA keeps: at most k, and
    only those above EPS_CUT_REL * lambda_max; NumericError when none is."""
    lam_max = float(values[0])
    surviving = int(np.sum(values > EPS_CUT_REL * max(lam_max, 0.0)))
    if lam_max <= 0.0 or surviving == 0:
        raise NumericError(_IDENTICAL)
    return min(k, surviving)


def require_spread(centred_trace: float, raw_trace: float) -> None:
    """NumericError when centring left at most EPS_CUT_REL of the samples' raw
    sum of squares: what is left is rounding, so the samples are identical."""
    if centred_trace <= EPS_CUT_REL * raw_trace:
        raise NumericError(_IDENTICAL)


def _subspace_pca(S: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """scatter_pca's (basis, eigenvalues) from the top k eigenpairs of a symmetric
    S, by blocked subspace iteration (Golub & Van Loan, ch. 8: orthogonal
    iteration with Rayleigh-Ritz); None when the pairs that the rank cut keeps
    have not converged within SUBSPACE_STEPS steps.

    The block of SUBSPACE_BLOCK * k columns starts from a fixed-seed Gaussian
    draw, so reruns give the same bits and no eigenvector is missed for being
    orthogonal to the start. Each step is one QR, one product S Q and an
    eigensolve of the block's Rayleigh quotient Q^T S Q.
    """
    block = np.random.default_rng(0).standard_normal((S.shape[0], SUBSPACE_BLOCK * k))
    for _ in range(SUBSPACE_STEPS):
        frame = np.linalg.qr(block)[0]
        block = S @ frame
        values, rotation = np.linalg.eigh(frame.T @ block)
        values, rotation = values[::-1], rotation[:, ::-1]
        if values[0] <= 0.0:
            return None  # sym_eigen decides what a non-positive spectrum means
        keep = _keep_count(values, k)
        vectors = frame @ rotation[:, :keep]
        residual = block @ rotation[:, :keep] - vectors * values[:keep]
        if np.linalg.norm(residual, axis=0).max() <= SUBSPACE_TOL * values[0]:
            return fix_signs(vectors), values[:keep].copy()
    return None


def scatter_pca(scatter: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top min(k, surviving rank) eigenpairs of a D x D scatter matrix.

    The one PCA eigensolve, cut to the eigenvalues above EPS_CUT_REL *
    lambda_max and to at most k of them. When D is at least SUBSPACE_SPAN
    blocks of SUBSPACE_BLOCK * k, subspace iteration solves only the top k
    pairs (a few products with a D x 2k block against the D^3 of the full
    spectrum); otherwise, or if that does not converge, sym_eigen solves the
    full spectrum. Returns (D x keep orthonormal basis, eigenvalues descending).
    """
    scatter = _check_square_symmetric(scatter, "scatter matrix")
    if SUBSPACE_SPAN * SUBSPACE_BLOCK * k <= len(scatter):
        top = _subspace_pca(scatter, k)
        if top is not None:
            return top
    res = sym_eigen(scatter)
    keep = _keep_count(res.eigenvalues, k)
    return res.eigenvectors[:, :keep], res.eigenvalues[:keep].copy()


def gram_pca(phi: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top min(k, surviving rank) principal directions of D x M centred columns.

    With M <= D, scatter_pca solves the small M x M Gram matrix phi^T phi and
    its eigenvectors are mapped back through phi by 1/sqrt(lambda); otherwise
    scatter_pca solves the D x D scatter phi phi^T. The rank cut drops
    eigenvalues below EPS_CUT_REL * lambda_max, so the map back never divides
    by sqrt(lambda) ~ 0. Returns (D x keep orthonormal basis, eigenvalues
    descending).
    """
    d, m = phi.shape
    if m > d:
        return scatter_pca(phi @ phi.T, k)
    square = phi.T @ phi
    vectors, lam = scatter_pca(0.5 * (square + square.T), k)
    basis = phi @ vectors  # mapped back, scaled and sign-fixed in place
    basis /= np.sqrt(lam)
    basis *= _lead_signs(basis)
    return basis, lam


def affine_coords(points: np.ndarray, mean: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Coordinates (points - mean) @ basis of a vector, or of each row, in the
    affine frame (mean, basis) of a D x K basis."""
    return (points - mean) @ basis


def affine_residual(points: np.ndarray, mean: np.ndarray, basis: np.ndarray,
                    coords: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | float]:
    """(coordinates, distance from the affine subspace) of each row, for a
    D x K basis with orthonormal columns; a vector is one row. coords, when the
    caller has them, are the rows' coordinates, and are not computed again.

    The distance is the norm of what the reconstruction coordinates @ basis^T
    leaves of points - mean: Turk & Pentland's distance from face space, and
    the KLT block residual. The residual, squared in place, keeps the memory
    layout of points - mean, and the norms sum in that order: F-ordered rows
    (the transpose of column samples) sum as the columns would.
    """
    centred = points - mean
    if coords is None:
        coords = centred @ basis
    centred -= coords @ basis.T
    centred *= centred
    return coords, np.sqrt(np.add.reduce(centred, axis=-1))


def check_face(face: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """The face as a flat float64 vector; DataError unless it matches the model mean."""
    face = np.asarray(face, dtype=np.float64).reshape(-1)
    if face.size != mean.size:
        raise DataError(f"face vector length {face.size} != model dimension {mean.size}")
    return face


def require_shape(what: str, array: np.ndarray, shape: tuple[int, ...]) -> None:
    """DataError unless the array has exactly the given shape."""
    if np.shape(array) != shape:
        raise DataError(f"{what} has shape {np.shape(array)}, expected {shape}")


def sort_rows(rows: np.ndarray, labels: tuple[str, ...]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Rows and their labels reordered stably by label, so that the first
    nearest row is the lowest label's, and within it the earliest row."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    return np.asarray(rows, dtype=np.float64)[order], tuple(labels[i] for i in order)


def nearest(rows: np.ndarray, z: np.ndarray) -> tuple[int, float]:
    """(index, L2 distance) of the row nearest to z; the first one wins ties."""
    if len(rows) == 0:
        raise DataError("nearest-row search over an empty set of rows")
    dists = np.linalg.norm(rows - z, axis=1)
    best = int(np.argmin(dists))
    return best, float(dists[best])


@dataclass(frozen=True)
class FaceSpace:
    """A linear face space: faces of dims pixels, the affine frame (mean, basis)
    they are projected into, and a gallery of one K-dim row per entry, stored
    sorted stably by row label. Eigenfaces and fisherfaces are two ways to fit
    the basis; both classify by the nearest gallery row."""

    dims: tuple[int, int]
    mean: np.ndarray  # length D = h * w
    basis: np.ndarray  # D x K
    eigenvalues: np.ndarray  # descending, one per basis column
    gallery: np.ndarray  # one K-dim row per entry
    row_labels: tuple[str, ...]  # label of each gallery row
    # the distinct row labels in order, taken once
    _labels: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        what = type(self).__name__
        d, k = self.dims[0] * self.dims[1], np.shape(self.basis)[-1]
        require_shape(f"{what} mean", self.mean, (d,))
        require_shape(f"{what} basis", self.basis, (d, k))
        require_shape(f"{what} eigenvalues", self.eigenvalues, (k,))
        require_shape(f"{what} gallery", self.gallery, (len(self.row_labels), k))
        gallery, row_labels = sort_rows(self.gallery, self.row_labels)
        object.__setattr__(self, "gallery", gallery)
        object.__setattr__(self, "row_labels", row_labels)
        object.__setattr__(self, "_labels", tuple(dict.fromkeys(row_labels)))

    @property
    def labels(self) -> list[str]:
        return list(self._labels)

    def probe_rows(self, images: Sequence[GrayImage]) -> Iterator[np.ndarray]:
        """The images' face vectors, in order, as row matrices of at most
        PROBE_CHUNK rows; a lone probe is a view of its pixels, not a copy.
        DataError for an image that is not dims."""
        for start in range(0, len(images), PROBE_CHUNK):
            faces = [flatten(check_dims(image, self.dims))
                     for image in images[start:start + PROBE_CHUNK]]
            yield faces[0][None] if len(faces) == 1 else np.stack(faces)


def project(model: FaceSpace, face: np.ndarray) -> np.ndarray:
    """Face-space coordinates basis^T (face - mean)."""
    return affine_coords(check_face(face, model.mean), model.mean, model.basis)


def sample_matrix(samples: list[tuple[str, np.ndarray]], dims: tuple[int, int] | None = None
                  ) -> tuple[np.ndarray, tuple[str, ...], tuple[int, int]]:
    """(M x D float64 matrix of the sample vectors, sorted stably by label and
    written once; its row labels; dims, (1, D) by default). DataError for no
    samples, vectors of differing lengths, or dims that do not hold D pixels."""
    if not samples:
        raise DataError("no samples")
    samples = sorted(samples, key=lambda sample: sample[0])
    d = np.size(samples[0][1])
    rows = np.empty((len(samples), d))
    for row, (label, vec) in zip(rows, samples):
        if np.size(vec) != d:
            raise DataError(f"dimension mismatch in class {label!r}: {np.size(vec)} != {d}")
        row[:] = np.reshape(vec, -1)
    if dims is None:
        dims = (1, d)
    elif dims[0] * dims[1] != d:
        raise DataError(f"dims {dims} inconsistent with vector length {d}")
    return rows, tuple(label for label, _ in samples), dims


@dataclass(frozen=True)
class FacePca:
    """Sample vectors less their mean, and the principal directions of those
    centred vectors: the one PCA that eigenfaces and fisherfaces both start from."""

    # M x D, sample_matrix's rows centred in place; their transpose is the D x M
    # centred columns phi. None once no trainer reads them.
    centred: np.ndarray | None
    labels: tuple[str, ...]  # label of each row
    dims: tuple[int, int]
    mean: np.ndarray  # length D
    spread: float  # sum of squares of the centred rows
    basis: np.ndarray  # D x keep orthonormal directions, gram_pca's
    eigenvalues: np.ndarray  # descending, one per basis column
    coords: np.ndarray  # M x keep, the centred rows in the basis


def face_pca(samples: list[tuple[str, np.ndarray]], dims: tuple[int, int] | None, k: int
             ) -> FacePca:
    """FacePca of labelled sample vectors (sample_matrix's samples and dims)
    with gram_pca's top min(k, surviving rank) directions; NumericError when
    centring leaves only rounding. A trainer that keeps fewer directions takes
    a prefix of the basis, so trainers that share one FacePca share one solve.

    The sample matrix is built here and centred in place, so no caller's array
    is written, and training holds one copy of the samples, centred: no raw
    copy beside it and no D x M one."""
    rows, labels, dims = sample_matrix(samples, dims)
    raw_trace = np.einsum("ij,ij->", rows, rows)
    mean = rows.mean(axis=0)
    rows -= mean
    phi = rows.T  # the D x M centred columns, a view
    spread = float(np.einsum("ij,ij->", phi, phi))
    require_spread(spread, raw_trace)
    basis, lam = gram_pca(phi, k)
    return FacePca(rows, labels, dims, mean, spread, basis, lam, rows @ basis)


def label_slices(labels: tuple[str, ...]) -> dict[str, slice]:
    """Label -> the slice of its rows, for rows sorted by label."""
    return {label: slice(bisect_left(labels, label), bisect_right(labels, label))
            for label in dict.fromkeys(labels)}
