"""Dense symmetric eigendecomposition, Cholesky, the whitened generalized
symmetric eigenproblem, PCA and the shape checks shared by all recognizers.

Conventions enforced on every spectrum:
  * eigenvalues sorted descending,
  * eigenvector columns orthonormal,
  * per column, the entry of largest magnitude is non-negative
    (ties broken by lowest index) so results serialize reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DataError, NumericError, SingularOrIndefinite

SYM_RTOL = 1e-10  # relative entrywise symmetry requirement on inputs
EPS_CUT_REL = 1e-10  # PCA drops eigenvalues below this fraction of the largest


@dataclass(frozen=True)
class SymEigenResult:
    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # orthonormal columns, one per eigenvalue


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip columns so each column's largest-magnitude entry is non-negative."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.size == 0:
        return vectors.copy()
    lead = np.argmax(np.abs(vectors), axis=0)  # first max wins ties
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return vectors * signs


def _check_square_symmetric(S: np.ndarray, what: str) -> np.ndarray:
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] < 1:
        raise DataError(f"{what} must be a square matrix, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise DataError(f"{what} contains non-finite entries")
    scale = max(1.0, float(np.abs(S).max()))
    if float(np.abs(S - S.T).max()) > SYM_RTOL * scale:
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
    w^T W w = 1. Returns (values descending, vectors as columns n x m).
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
    Linv_B = scipy.linalg.solve_triangular(L, B, lower=True)
    M = scipy.linalg.solve_triangular(L, Linv_B.T, lower=True).T
    M = 0.5 * (M + M.T)
    res = sym_eigen(M)
    Y = res.eigenvectors[:, :m]
    vectors = scipy.linalg.solve_triangular(L, Y, lower=True, trans="T")
    return res.eigenvalues[:m].copy(), fix_signs(vectors)


def gram_pca(phi: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top min(k, surviving rank) principal directions of D x M centred columns.

    With M <= D the small M x M Gram matrix phi^T phi is eigendecomposed and
    its eigenvectors mapped back through phi by 1/sqrt(lambda); otherwise the
    D x D scatter phi phi^T is solved directly. Eigenvalues below
    EPS_CUT_REL * lambda_max are dropped, so the map back never divides by
    sqrt(lambda) ~ 0. Returns (D x keep orthonormal basis, eigenvalues
    descending).
    """
    d, m = phi.shape
    gram_route = m <= d
    square = phi.T @ phi if gram_route else phi @ phi.T
    res = sym_eigen(0.5 * (square + square.T))
    lam_max = float(res.eigenvalues[0])
    surviving = int(np.sum(res.eigenvalues > EPS_CUT_REL * max(lam_max, 0.0)))
    if lam_max <= 0.0 or surviving == 0:
        raise NumericError("zero variance: all training samples are identical")
    keep = min(k, surviving)
    lam = res.eigenvalues[:keep].copy()
    if not gram_route:
        return res.eigenvectors[:, :keep], lam
    return fix_signs(phi @ res.eigenvectors[:, :keep] / np.sqrt(lam)), lam


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
