import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import facelab
from facelab import cli, numerics, synth
from facelab.dataset import flatten
from facelab.eigenfaces import EigenModel, train_eigen
from facelab.errors import DataError, NumericError, SingularOrIndefinite
from facelab.fisherfaces import FisherModel, train_fisher
from facelab.numerics import (EPS_CUT_REL, PROBE_CHUNK, SUBSPACE_BLOCK, SUBSPACE_SPAN, SYM_RTOL,
                              affine_coords, affine_residual, cholesky, fix_signs, gen_sym_eigen,
                              sample_matrix, scatter_pca, sym_eigen)

RT2 = np.sqrt(2.0)


class TestSymEigen:
    def test_identity(self):
        res = sym_eigen(np.eye(3))
        assert np.allclose(res.eigenvalues, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        res = sym_eigen(np.diag([3.0, 1.0]))
        assert np.allclose(res.eigenvalues, [3.0, 1.0], atol=1e-12)
        assert np.allclose(res.eigenvectors, np.eye(2), atol=1e-12)

    def test_two_by_two_hand_solved(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 - 1 = 0 -> l = 3, 1
        res = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(res.eigenvalues, [3.0, 1.0], atol=1e-10)
        assert np.allclose(res.eigenvectors[:, 0], [1 / RT2, 1 / RT2], atol=1e-10)
        assert np.allclose(res.eigenvectors[:, 1], [1 / RT2, -1 / RT2], atol=1e-10)

    def test_one_by_one(self):
        res = sym_eigen(np.array([[-4.0]]))
        assert res.eigenvalues[0] == pytest.approx(-4.0)
        assert res.eigenvectors[0, 0] == 1.0

    def test_rejects_asymmetric(self):
        with pytest.raises(DataError):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DataError):
            sym_eigen(np.ones((2, 3)))

    def test_contract_bounds_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 5, 8, 12):
            a = rng.normal(size=(n, n))
            s = a + a.T
            res = sym_eigen(s)
            scale = max(1.0, np.linalg.norm(s))
            for k in range(n):
                resid = s @ res.eigenvectors[:, k] - res.eigenvalues[k] * res.eigenvectors[:, k]
                assert np.linalg.norm(resid) <= 1e-8 * scale
            assert np.abs(res.eigenvectors.T @ res.eigenvectors - np.eye(n)).max() <= 1e-8
            assert np.trace(s) == pytest.approx(res.eigenvalues.sum(), rel=1e-8, abs=1e-8)
            recon = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
            assert np.linalg.norm(recon - s) <= 1e-7 * scale
            assert np.all(np.diff(res.eigenvalues) <= 1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        res = sym_eigen(a + a.T)
        for k in range(6):
            v = res.eigenvectors[:, k]
            assert v[np.argmax(np.abs(v))] >= 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(7, 7))
        s = a + a.T
        r1, r2 = sym_eigen(s), sym_eigen(s)
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


class TestSymmetryCheck:
    """numerics._check_square_symmetric: max |S - S^T| against SYM_RTOL * max(1, max |S|),
    the triangles compared SYM_BLOCK rows at a time."""

    @staticmethod
    def _symmetric(n, peak):
        rng = np.random.default_rng(31)
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        s = a + a.T
        s[0, 0] = peak  # max |S| is exactly |peak|
        return s

    @staticmethod
    def _definition(s):
        """The check spelled out on whole matrices."""
        return np.abs(s - s.T).max() <= SYM_RTOL * max(1.0, np.abs(s).max())

    @pytest.mark.parametrize("peak", [1000.0, -1000.0])
    @pytest.mark.parametrize("i,j", [(1, 2), (2, 1), (150, 3), (3, 150), (149, 148),
                                     (70, 70 - numerics.SYM_BLOCK)])
    def test_asymmetry_just_above_the_bound_raises_and_just_below_passes(self, peak, i, j):
        # 150 rows: two whole row blocks and a ragged one; the pair (i, j) sits in either
        # triangle, within a block or across two. The bound is 1e-10 * 1000 = 1e-7, and
        # 0.5 + delta - 0.5 is delta to within 1e-16.
        assert 2 * numerics.SYM_BLOCK < 151 < 3 * numerics.SYM_BLOCK
        for factor, symmetric in ((1.01, False), (0.99, True)):
            s = self._symmetric(151, peak)
            s[j, i] = 0.5
            s[i, j] = 0.5 + factor * SYM_RTOL * 1000.0
            assert bool(self._definition(s)) == symmetric
            if symmetric:
                assert numerics._check_square_symmetric(s, "S") is s
            else:
                with pytest.raises(DataError, match="^S is not symmetric to 1e-10 relative$"):
                    numerics._check_square_symmetric(s, "S")

    def test_verdict_matches_the_definition(self):
        rng = np.random.default_rng(32)
        for n in (1, 2, 63, 64, 65, 130):
            for _ in range(20):
                s = self._symmetric(n, rng.uniform(-3.0, 3.0))
                i, j = rng.integers(0, n, size=2)
                s[i, j] += rng.choice([0.0, 1e-12, 1e-10, 3e-10, 1e-9]) * rng.choice([-1, 1])
                try:
                    numerics._check_square_symmetric(s, "S")
                    verdict = True
                except DataError:
                    verdict = False
                assert verdict == self._definition(s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (5, 140), (150, 150)])
    def test_non_finite_is_data_error(self, bad, at):
        s = self._symmetric(151, 2.0)
        s[at] = bad
        with pytest.raises(DataError, match="^S contains non-finite entries$"):
            numerics._check_square_symmetric(s, "S")

    def test_no_square_temporary(self):
        # the 920 x 920 KLT scatter's size: differences and magnitudes are taken a
        # row block at a time, where S - S.T and abs(S) were D x D arrays each
        n = 920
        s = self._symmetric(n, 7.0)
        tracemalloc.start()
        try:
            numerics._check_square_symmetric(s, "S")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * s.itemsize


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_expanded(self):
        # [[4,2],[2,2]] = L L^T with L = [[2,0],[1,1]]
        assert np.allclose(cholesky(np.array([[4.0, 2.0], [2.0, 2.0]])),
                           [[2.0, 0.0], [1.0, 1.0]], atol=1e-12)

    def test_zero_pivot_rejected(self):
        with pytest.raises(SingularOrIndefinite):
            cholesky(np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_indefinite_rejected(self):
        with pytest.raises(SingularOrIndefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_factor_bound_random_spd(self):
        rng = np.random.default_rng(21)
        for n in (1, 3, 6, 10):
            a = rng.normal(size=(n, n))
            s = a @ a.T + n * np.eye(n)
            low = cholesky(s)
            assert np.all(np.diag(low) > 0)
            assert np.allclose(np.triu(low, 1), 0.0)
            assert np.linalg.norm(low @ low.T - s) <= 1e-10 * max(1.0, np.linalg.norm(s))


class TestGenSymEigen:
    def test_identity_metric_reduces_to_sym_eigen(self):
        vals, vecs = gen_sym_eigen(np.diag([2.0, 1.0]), np.eye(2), 2)
        assert np.allclose(vals, [2.0, 1.0], atol=1e-12)
        assert np.allclose(np.abs(vecs), np.eye(2), atol=1e-12)

    def test_hand_solved_scatter_pair(self):
        # eigensolve of W^-1 B by hand: lambda = 24, w proportional to (2, 1)
        b = np.array([[24.0, 0.0], [0.0, 0.0]])
        w_mat = np.array([[4 / 3, -2 / 3], [-2 / 3, 4 / 3]])
        vals, vecs = gen_sym_eigen(b, w_mat, 1)
        assert vals[0] == pytest.approx(24.0, abs=1e-8)
        direction = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        assert np.allclose(direction, np.array([2.0, 1.0]) / np.sqrt(5.0), atol=1e-10)
        # vectors come back normalized in the W metric
        assert vecs[:, 0] @ w_mat @ vecs[:, 0] == pytest.approx(1.0, abs=1e-10)

    def test_singular_metric_rejected(self):
        with pytest.raises(SingularOrIndefinite):
            gen_sym_eigen(np.eye(2), np.array([[0.0, 0.0], [0.0, 1.0]]), 1)

    def test_m_out_of_range(self):
        with pytest.raises(DataError):
            gen_sym_eigen(np.eye(2), np.eye(2), 3)

    def test_top_m_matches_full_whitened_spectrum(self):
        # oracle: whiten with scipy's own Cholesky and take the full spectrum
        import scipy.linalg
        rng = np.random.default_rng(13)
        for n in (2, 4, 6, 8):
            a = rng.normal(size=(n, n))
            b = a + a.T
            c = rng.normal(size=(n, n))
            w_mat = c @ c.T + n * np.eye(n)
            low = scipy.linalg.cholesky(w_mat, lower=True)
            inv_low = scipy.linalg.inv(low)
            whitened = inv_low @ b @ inv_low.T
            full_vals = np.sort(scipy.linalg.eigvalsh(whitened))[::-1]
            for m in (1, n // 2 + 1, n):
                vals, vecs = gen_sym_eigen(b, w_mat, m)
                assert np.allclose(vals, full_vals[:m], atol=1e-9)
                scale = max(1.0, np.linalg.norm(b))
                for k in range(m):
                    resid = b @ vecs[:, k] - vals[k] * (w_mat @ vecs[:, k])
                    assert np.linalg.norm(resid) <= 1e-6 * scale


class TestScatterPca:
    """The top-k eigensolve against the full spectrum of sym_eigen."""

    @pytest.mark.parametrize("rank,k,keep", [(12, 5, 5), (4, 7, 4), (12, 30, 12)],
                             ids=["random", "rank_deficient", "k_above_dim"])
    def test_matches_full_spectrum(self, rank, k, keep):
        rng = np.random.default_rng(3)
        phi = rng.normal(size=(12, rank)) @ rng.normal(size=(rank, 40))
        scatter = phi @ phi.T
        vectors, values = scatter_pca(scatter, k)
        full = sym_eigen(scatter)
        lam_max = full.eigenvalues[0]
        assert int(np.sum(full.eigenvalues[:k] > EPS_CUT_REL * lam_max)) == keep
        assert vectors.shape == (12, keep) and values.shape == (keep,)
        assert np.abs(values - full.eigenvalues[:keep]).max() <= 1e-12 * lam_max
        assert np.abs(vectors - full.eigenvectors[:, :keep]).max() <= 1e-9

    def test_identical_samples_rejected(self):
        with pytest.raises(NumericError, match="identical"):
            scatter_pca(np.zeros((5, 5)), 2)
        with pytest.raises(NumericError, match="identical"):
            scatter_pca(np.zeros((40, 40)), 2)  # sized for the subspace route

    @pytest.fixture
    def full_solves(self, monkeypatch):
        """Each matrix that scatter_pca hands to sym_eigen."""
        seen = []

        def spy(S):
            seen.append(S)
            return sym_eigen(S)

        monkeypatch.setattr(numerics, "sym_eigen", spy)
        return seen

    @staticmethod
    def _with_spectrum(values, seed=7):
        """A symmetric matrix with the given eigenvalues and random eigenvectors."""
        q = np.linalg.qr(np.random.default_rng(seed).normal(size=(len(values),) * 2))[0]
        scatter = (q * values) @ q.T
        return 0.5 * (scatter + scatter.T)

    def test_subspace_route_matches_full_spectrum(self, full_solves):
        k = 12
        dim = SUBSPACE_SPAN * SUBSPACE_BLOCK * k  # the smallest matrix that takes the route
        scatter = self._with_spectrum(100.0 * 0.7 ** np.arange(dim))
        vectors, values = scatter_pca(scatter, k)
        assert full_solves == []
        full = sym_eigen(scatter)
        lam_max = full.eigenvalues[0]
        assert vectors.shape == (dim, k) and values.shape == (k,)
        assert np.abs(values - full.eigenvalues[:k]).max() <= 1e-12 * lam_max
        assert np.abs(vectors - full.eigenvectors[:, :k]).max() <= 1e-10
        assert np.abs(vectors.T @ vectors - np.eye(k)).max() <= 1e-12
        assert np.all(vectors[np.argmax(np.abs(vectors), axis=0), np.arange(k)] >= 0.0)

    @pytest.mark.parametrize("rank", [1, 5])
    def test_subspace_route_makes_the_same_rank_cut(self, full_solves, rank):
        rng = np.random.default_rng(rank)
        phi = rng.normal(size=(80, rank)) * 2.0 ** -np.arange(rank)
        scatter = phi @ phi.T
        vectors, values = scatter_pca(scatter, 8)
        assert full_solves == []
        full = sym_eigen(scatter)
        assert int(np.sum(full.eigenvalues > EPS_CUT_REL * full.eigenvalues[0])) == rank
        assert vectors.shape == (80, rank) and values.shape == (rank,)
        assert np.abs(values - full.eigenvalues[:rank]).max() <= 1e-12 * full.eigenvalues[0]
        assert np.abs(vectors - full.eigenvectors[:, :rank]).max() <= 1e-10

    def test_subspace_route_is_deterministic(self, full_solves):
        scatter = self._with_spectrum(0.5 ** np.arange(64))
        first, second = scatter_pca(scatter, 4), scatter_pca(scatter.copy(), 4)
        assert full_solves == []
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_flat_spectrum_falls_back_to_the_full_solve(self, full_solves):
        scatter = self._with_spectrum(np.linspace(1.0, 0.9, 96))
        vectors, values = scatter_pca(scatter, 12)
        assert len(full_solves) == 1
        full = sym_eigen(scatter)
        assert np.array_equal(values, full.eigenvalues[:12])
        assert np.array_equal(vectors, full.eigenvectors[:, :12])

    def test_finds_a_top_pair_that_the_diagonal_hides(self, full_solves):
        # the all-ones block of coordinates 2-9 has eigenvalue 8 but diagonal 1, and
        # coordinates 0 and 1 hold 6 and 1.2: their unit vectors span an invariant
        # subspace, so a start from the largest diagonal entries would return 6
        scatter = np.diag(np.r_[6.0, 1.2, np.zeros(8), np.full(6, 1e-3)])
        scatter[2:10, 2:10] = 1.0
        vectors, values = scatter_pca(scatter, 1)
        assert full_solves == []
        assert values[0] == pytest.approx(8.0, rel=1e-13)
        assert np.abs(vectors[:, 0] - np.r_[0.0, 0.0, np.full(8, 8 ** -0.5), np.zeros(6)]).max() \
            <= 1e-12

    def test_input_checks(self):
        with pytest.raises(DataError):
            scatter_pca(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)
        with pytest.raises(DataError):
            scatter_pca(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1)


def test_fix_signs_tie_breaks_to_lowest_index():
    # all entries tie in magnitude; the first entry decides the flip
    vecs = np.array([[-0.5, 0.5], [0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
    fixed = fix_signs(vecs)
    assert np.array_equal(fixed[:, 0], [0.5, -0.5, 0.5, -0.5])
    assert np.array_equal(fixed[:, 1], [0.5, 0.5, -0.5, -0.5])


class TestAffineSubspace:
    @pytest.fixture()
    def frame(self):
        rng = np.random.default_rng(8)
        basis = np.linalg.qr(rng.normal(size=(12, 3)))[0]  # orthonormal columns
        mean = rng.normal(size=12)
        coords = rng.normal(size=(5, 3))
        off = rng.normal(size=(5, 12))
        off -= (off @ basis) @ basis.T  # orthogonal to the span
        off *= (np.arange(5) + 1.0)[:, None] / np.linalg.norm(off, axis=1)[:, None]
        return basis, mean, coords, mean + coords @ basis.T + off

    def test_splits_points_into_coordinates_and_distance(self, frame):
        basis, mean, coords, points = frame
        got, dist = affine_residual(points, mean, basis)
        assert np.allclose(got, coords, atol=1e-12)
        assert np.allclose(dist, np.arange(5) + 1.0, atol=1e-12)
        assert np.array_equal(affine_coords(points, mean, basis), got)
        kept, kept_dist = affine_residual(points, mean, basis, got)  # coordinates handed in
        assert kept is got and np.array_equal(kept_dist, dist)

    def test_a_vector_is_a_row(self, frame):
        basis, mean, _, points = frame
        rows, dists = affine_residual(points, mean, basis)
        for point, row, dist in zip(points, rows, dists):
            coords, one = affine_residual(point, mean, basis)
            assert np.ndim(one) == 0 and one == pytest.approx(dist, rel=1e-14)
            assert np.allclose(coords, row, rtol=1e-14, atol=1e-14)
            assert np.array_equal(affine_coords(point, mean, basis), coords)

    def test_column_samples_as_rows_sum_as_columns(self, frame):
        # the transpose of D x M column samples gives the column-wise norms bit for bit
        basis, mean, _, points = frame
        columns = np.ascontiguousarray(points.T) - mean[:, None]
        coords = basis.T @ columns
        expected = np.linalg.norm(columns - basis @ coords, axis=0)
        got_coords, got = affine_residual(np.ascontiguousarray(points.T).T, mean, basis)
        assert np.array_equal(got, expected)
        assert np.array_equal(got_coords, coords.T)
        # the residual squared in place sums as np.linalg.norm sums it, in either layout
        rng = np.random.default_rng(9)
        for rows, order in ((1, "C"), (8, "C"), (200, "F")):
            cloud = np.asarray(rng.normal(size=(rows, mean.size)), order=order)
            residual = cloud - mean
            residual -= (residual @ basis) @ basis.T
            assert residual.flags.c_contiguous == (order == "C")
            norms = np.linalg.norm(residual, axis=-1)
            assert np.array_equal(affine_residual(cloud, mean, basis)[1], norms)


def test_facelab_loads_no_scipy():
    # numpy is the one runtime dependency: one LAPACK and one BLAS thread pool
    code = ("import sys, facelab, facelab.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(facelab.__file__).resolve().parent.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert run.stdout == "[]\n"


def _face_space(kind, gallery, row_labels):
    """A hand-built model of either FaceSpace kind: 1 x 2 faces, a 1-column basis."""
    thresholds = (0.5, 1.0) if kind is EigenModel else ()
    return kind((1, 2), np.zeros(2), np.eye(2)[:, :1], np.array([1.0]), np.asarray(gallery),
                row_labels, *thresholds)


@pytest.mark.parametrize("kind", [EigenModel, FisherModel])
@pytest.mark.parametrize("field", ["mean", "basis", "eigenvalues", "gallery"])
def test_face_space_shape_mismatch_is_data_error(kind, field):
    model = _face_space(kind, [[1.0], [2.0]], ("a", "b"))
    wrong = {"mean": np.zeros(3), "basis": np.zeros((3, 1)), "eigenvalues": np.ones(2),
             "gallery": np.zeros((2, 2))}[field]
    with pytest.raises(DataError, match=f"{kind.__name__} {field} has shape"):
        dataclasses.replace(model, **{field: wrong})


@pytest.mark.parametrize("train", [lambda samples: train_eigen(samples, 1), train_fisher],
                         ids=["eigen", "fisher"])
def test_training_vectors_of_two_lengths_are_data_error(train):
    samples = [("a", np.zeros(4)), ("a", np.ones(4)), ("b", np.zeros(5))]
    with pytest.raises(DataError, match="dimension mismatch in class 'b': 5 != 4"):
        train(samples)


def test_sample_matrix_rows_are_sorted_stably_by_label():
    rows, labels, dims = sample_matrix([("b", [1.0, 2.0]), ("a", np.array([3, 4])),
                                        ("b", [5.0, 6.0])])
    assert labels == ("a", "b", "b") and dims == (1, 2)
    assert rows.dtype == np.float64 and rows.tolist() == [[3.0, 4.0], [1.0, 2.0], [5.0, 6.0]]
    with pytest.raises(DataError, match=re.escape("dims (2, 2) inconsistent with vector length 2")):
        sample_matrix([("a", [1.0, 2.0])], (2, 2))


def _traced_peak(train, entries) -> float:
    """The tracemalloc peak of training on the entries' flatten views, in M x D
    float64 sample matrices."""
    samples = [(label, flatten(image)) for label, image in entries]
    matrix_bytes = len(samples) * samples[0][1].size * 8
    tracemalloc.start()
    try:
        train(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / matrix_bytes


@pytest.mark.parametrize("train", [lambda samples: train_eigen(samples, 40, (112, 92)),
                                   lambda samples: train_fisher(samples, (112, 92))],
                         ids=["eigen", "fisher"])
def test_training_holds_the_samples_once(train):
    # flatten's views share the pixels, and each trainer fits from one M x D sample
    # matrix, centred in place: eigen peaks at about 1.6 matrices (the matrix and its
    # 40 directions), fisher at about 1.8 (the matrix and its 80 directions, in
    # face_pca; fisher drops the centred rows before its own transients)
    assert _traced_peak(train, synth.make_banded_dataset(20, 5, 112, 92)) < 3


def test_training_both_face_models_holds_the_samples_once():
    # train --method all fits both from one face_pca: the centred matrix, its 80
    # directions and eigen's 40 peak at about 2.4 matrices. The centred rows are
    # dropped before fisher trains; kept, they would lift the peak to about 3.
    peak = _traced_peak(lambda samples: cli._train_faces(samples, 40, (112, 92)),
                        synth.make_banded_dataset(20, 5, 112, 92))
    assert peak < 2.75


@pytest.mark.parametrize("train", [lambda samples: train_eigen(samples, 40, (16, 12)),
                                   lambda samples: train_fisher(samples, (16, 12)),
                                   lambda samples: cli._train_faces(samples, 40, (16, 12))],
                         ids=["eigen", "fisher", "both"])
def test_training_leaves_the_callers_arrays_alone(train):
    # face_pca centres a sample matrix of its own in place, never a caller's vector
    samples = [(label, image.pixels.copy()) for label, image in
               synth.make_banded_dataset(4, 3, 16, 12)]
    before = [vec.tobytes() for _, vec in samples]
    assert all(vec.flags.writeable for _, vec in samples)
    train(samples)
    assert [vec.tobytes() for _, vec in samples] == before


@pytest.mark.parametrize("kind", [EigenModel, FisherModel])
def test_face_space_rows_come_back_sorted_by_label(kind):
    model = _face_space(kind, [[3.0], [1.0], [2.0]], ("c", "a", "b"))
    assert model.row_labels == ("a", "b", "c")
    assert model.gallery[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert model.labels == ["a", "b", "c"]


@pytest.mark.parametrize("kind", [EigenModel, FisherModel])
def test_face_space_labels_are_taken_once(kind):
    # the distinct labels are kept when the model is built; each call hands out a copy
    model = _face_space(kind, [[3.0], [1.0], [2.0]], ("c", "a", "b"))
    assert model._labels == ("a", "b", "c")
    labels = model.labels
    labels.append("z")
    assert model.labels == ["a", "b", "c"] and model.labels is not labels


@pytest.mark.parametrize("kind", [EigenModel, FisherModel])
def test_only_fisher_rejects_a_repeated_label(kind):
    gallery, row_labels = [[2.0], [1.0], [0.0]], ("b", "a", "b")
    if kind is FisherModel:
        with pytest.raises(DataError, match="twice"):
            _face_space(kind, gallery, row_labels)
        return
    model = _face_space(kind, gallery, row_labels)
    assert model.row_labels == ("a", "b", "b")  # stable: b's rows keep their order
    assert model.gallery[:, 0].tolist() == [1.0, 2.0, 0.0]
    assert model.labels == ["a", "b"]


@pytest.mark.parametrize("train", [lambda samples: train_eigen(samples, 40, (112, 92)),
                                   lambda samples: train_fisher(samples, (112, 92))],
                         ids=["eigen", "fisher"])
def test_prediction_holds_one_chunk_of_probes(train):
    # predict scores PROBE_CHUNK probes at a time: the stacked rows, their centred copy
    # and its reconstruction make at most 3 chunk matrices (2 for fisher, which has no
    # reconstruction), where one stack of all 40 probes would make 3 matrices of 40 rows
    entries = synth.make_banded_dataset(20, 5, 112, 92)
    model = train([(label, flatten(image)) for label, image in entries])
    probes = [image for _, image in entries[:40]]
    chunk_bytes = PROBE_CHUNK * 112 * 92 * 8
    assert len(probes) > 2 * PROBE_CHUNK
    tracemalloc.start()
    try:
        model.predict(probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * chunk_bytes
