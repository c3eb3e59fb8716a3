import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facelab import eigenfaces, synth
from facelab.dataset import flatten
from facelab.eigenfaces import (EigenModel, FACE, FACE_SPACE_MARGIN, NOT_A_FACE, UNKNOWN_FACE,
                                classify, classify_rows, predicted_label, project, reconstruct,
                                train_eigen)
from facelab.errors import DataError, NumericError
from facelab.numerics import affine_coords, affine_residual, nearest, sym_eigen

RT2 = np.sqrt(2.0)


def _random_training(rng, m, d, labels=("a", "b")):
    return [(labels[i % len(labels)], rng.integers(0, 256, size=d).astype(float))
            for i in range(m)]


class TestTrainEigen:
    @pytest.mark.parametrize("m", [9, 17, 24])
    def test_training_residuals_are_rows_of_one_product(self, monkeypatch, m):
        # train_eigen takes its training distances from face space PROBE_CHUNK rows at a
        # time, and each has the bits of one M-row affine_residual, also when the last
        # chunk would hold one row; theta_face reads them through np.percentile
        seen = []
        real_percentile = np.percentile
        monkeypatch.setattr(np, "percentile",
                            lambda a, q: seen.append(np.array(a)) or real_percentile(a, q))
        samples = [(label, flatten(image))
                   for label, image in synth.make_banded_dataset(5, 5, 56, 46)[:m]]
        model = train_eigen(samples, 40)
        rows = np.array([vec for _, vec in sorted(samples, key=lambda sample: sample[0])])
        [train_dffs] = seen
        assert train_dffs.tobytes() == affine_residual(rows, model.mean, model.basis)[1].tobytes()

    def test_two_point_hand_solved(self):
        # Gram matrix of the centered pair has the single nonzero eigenvalue 1
        # with eigenvector (1,-1)/sqrt(2); mapping back gives the same direction
        model = train_eigen([("a", np.array([1.0, 0.0])), ("b", np.array([0.0, 1.0]))], k=2)
        assert np.allclose(model.mean, [0.5, 0.5])
        assert model.k == 1  # truncated to the surviving rank
        assert model.eigenvalues[0] == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(model.basis[:, 0], [1 / RT2, -1 / RT2], atol=1e-10)

    def test_identical_images_rejected(self):
        same = np.full(8, 7.0)
        with pytest.raises(NumericError, match="identical"):
            train_eigen([("a", same), ("b", same.copy()), ("c", same.copy())], k=2)

    def test_identical_non_integer_images_rejected(self):
        # the centred copies hold rounding noise, not zeros, so the Gram
        # matrix has a positive top eigenvalue; the spread check still fires
        for seed in range(20):
            same = np.random.default_rng(seed).uniform(0.0, 255.0, size=30)
            with pytest.raises(NumericError, match="identical"):
                train_eigen([("a", same), ("b", same.copy()), ("c", same.copy())], k=2)

    def test_too_few_images(self):
        with pytest.raises(DataError):
            train_eigen([("a", np.zeros(4))], k=1)

    def test_dimension_mismatch(self):
        with pytest.raises(DataError, match="mismatch"):
            train_eigen([("a", np.zeros(4)), ("b", np.zeros(5))], k=1)

    def test_gram_trick_matches_direct_covariance(self):
        # brute-force oracle: eigendecompose the full D x D scatter directly
        rng = np.random.default_rng(42)
        samples = _random_training(rng, 6, 25)
        model = train_eigen(samples, k=5)
        gamma = np.column_stack([v for _, v in samples])
        phi = gamma - gamma.mean(axis=1)[:, None]
        oracle = sym_eigen(phi @ phi.T)
        k = model.k
        assert np.allclose(model.eigenvalues, oracle.eigenvalues[:k], rtol=1e-8)
        assert np.abs(model.basis - oracle.eigenvectors[:, :k]).max() <= 1e-6

    def test_k_clamped_to_m_minus_one(self):
        rng = np.random.default_rng(0)
        model = train_eigen(_random_training(rng, 4, 30), k=10)
        assert model.k == 3

    def test_orthonormal_basis(self):
        rng = np.random.default_rng(1)
        model = train_eigen(_random_training(rng, 8, 40), k=5)
        gram = model.basis.T @ model.basis
        assert np.abs(gram - np.eye(model.k)).max() <= 1e-8


@pytest.fixture()
def small_model():
    rng = np.random.default_rng(7)
    samples = _random_training(rng, 8, 36, labels=("a", "b", "c", "d"))
    return samples, train_eigen(samples, k=7)


class TestProject:
    def test_mean_projects_to_origin(self, small_model):
        _, model = small_model
        assert np.allclose(project(model, model.mean), 0.0, atol=1e-10)

    def test_basis_column_projects_to_unit(self, small_model):
        _, model = small_model
        for k in range(model.k):
            w = project(model, model.mean + model.basis[:, k])
            assert np.allclose(w, np.eye(model.k)[k], atol=1e-8)

    def test_training_image_matches_gallery(self, small_model):
        samples, model = small_model
        label, vec = samples[0]
        row = model.row_labels.index(label)  # the label's first gallery row
        assert np.allclose(project(model, vec), model.gallery[row], atol=1e-10)

    def test_dimension_check(self, small_model):
        _, model = small_model
        with pytest.raises(DataError):
            project(model, np.zeros(5))


class TestReconstruct:
    def test_zero_weights_give_mean(self, small_model):
        _, model = small_model
        assert np.allclose(reconstruct(model, np.zeros(model.k)), model.mean)

    def test_full_rank_round_trip(self, small_model):
        samples, model = small_model  # k = 7 = M - 1 = full rank here
        for _, vec in samples:
            back = reconstruct(model, project(model, vec))
            assert np.abs(back - vec).max() <= 1e-6

    def test_unit_weight_gives_basis_column(self, small_model):
        _, model = small_model
        e0 = np.eye(model.k)[0]
        assert np.allclose(reconstruct(model, e0), model.mean + model.basis[:, 0])

    def test_length_check(self, small_model):
        _, model = small_model
        with pytest.raises(DataError):
            reconstruct(model, np.zeros(model.k + 1))


class TestDffs:
    def test_in_span_is_zero(self, small_model):
        _, model = small_model
        assert classify(model, model.mean + 3.0 * model.basis[:, 0]).dffs <= 1e-8

    def test_orthogonal_component_measured_exactly(self, small_model):
        _, model = small_model
        rng = np.random.default_rng(3)
        z = rng.normal(size=model.mean.size)
        z -= model.basis @ (model.basis.T @ z)  # now orthogonal to the span
        z *= 5.0 / np.linalg.norm(z)
        assert classify(model, model.mean + z).dffs == pytest.approx(5.0, abs=1e-8)

    def test_training_images_near_zero_at_full_rank(self, small_model):
        samples, model = small_model
        for _, vec in samples:
            assert classify(model, vec).dffs <= 1e-6


class TestClassify:
    def test_training_image_self_match(self, small_model):
        samples, model = small_model
        for label, vec in samples:
            decision = classify(model, vec)
            assert decision.verdict == FACE
            assert decision.label == label
            assert decision.distance <= 1e-6

    def test_far_from_face_space_rejected(self, small_model):
        _, model = small_model
        rng = np.random.default_rng(4)
        z = rng.normal(size=model.mean.size)
        z -= model.basis @ (model.basis.T @ z)
        z /= np.linalg.norm(z)
        probe = model.mean + 10.0 * max(model.theta_face, 1.0) * z
        decision = classify(model, probe)
        assert decision.verdict == NOT_A_FACE
        assert predicted_label(decision) == "<not-a-face>"

    def test_unknown_face_between_clusters(self):
        basis = np.eye(4)[:, :2]
        gallery = np.array([[50.0, 0.0], [-50.0, 0.0]])
        model = EigenModel((1, 4), np.zeros(4), basis, np.array([2.0, 1.0]),
                           gallery, ("a", "b"), theta_face=100.0, theta_known=1.0)
        decision = classify(model, basis @ np.array([0.0, 20.0]))
        assert decision.verdict == UNKNOWN_FACE
        assert predicted_label(decision) == "<unknown-face>"

    def test_tie_breaks_to_smallest_label(self):
        basis = np.eye(4)[:, :2]
        gallery = np.array([[-1.0, 0.0], [1.0, 0.0]])
        model = EigenModel((1, 4), np.zeros(4), basis, np.array([2.0, 1.0]),
                           gallery, ("b", "a"), theta_face=10.0, theta_known=10.0)
        decision = classify(model, np.zeros(4))  # exactly equidistant
        assert decision.label == "a"

    def test_empty_gallery_rejected(self):
        model = EigenModel((1, 4), np.zeros(4), np.eye(4)[:, :1], np.array([1.0]),
                           np.empty((0, 1)), (), 1.0, 1.0)
        with pytest.raises(DataError, match="empty"):
            classify(model, np.zeros(4))


class TestInvariants:
    def test_intensity_offset_invariance_exact(self):
        # 8 images, integer pixels, offset 16: the mean absorbs the shift with
        # no rounding, so weights and verdicts must match bit for bit
        rng = np.random.default_rng(9)
        base = [(lbl, rng.integers(0, 200, size=25).astype(float))
                for lbl in ("a", "a", "b", "b", "c", "c", "d", "d")]
        shifted = [(lbl, v + 16.0) for lbl, v in base]
        m0 = train_eigen(base, k=4)
        m1 = train_eigen(shifted, k=4)
        assert np.array_equal(m0.basis, m1.basis)
        assert np.array_equal(m0.eigenvalues, m1.eigenvalues)
        probe_rng = np.random.default_rng(10)
        for _ in range(6):
            probe = probe_rng.integers(0, 200, size=25).astype(float)
            d0 = classify(m0, probe)
            d1 = classify(m1, probe + 16.0)
            assert d0.verdict == d1.verdict
            assert d0.label == d1.label
            assert np.array_equal(d0.weights, d1.weights)

    def test_positive_scaling_property(self):
        rng = np.random.default_rng(11)
        base = [(lbl, rng.integers(0, 120, size=16).astype(float))
                for lbl in ("a", "a", "b", "b")]
        doubled = [(lbl, 2.0 * v) for lbl, v in base]
        m0 = train_eigen(base, k=3)
        m1 = train_eigen(doubled, k=3)
        assert np.allclose(m1.eigenvalues, 4.0 * m0.eigenvalues, rtol=1e-9)
        probe = rng.integers(0, 120, size=16).astype(float)
        w0 = project(m0, probe)
        w1 = project(m1, 2.0 * probe)
        assert np.allclose(w1, 2.0 * w0, rtol=1e-9, atol=1e-9)
        assert classify(m0, probe).label == classify(m1, 2.0 * probe).label

    def test_reconstruction_error_non_increasing_in_k(self):
        # nested subspaces: the residual of every single image shrinks with k
        rng = np.random.default_rng(12)
        samples = _random_training(rng, 10, 49)
        per_image = []
        for k in range(1, 10):
            model = train_eigen(samples, k=k)
            per_image.append([np.linalg.norm(v - reconstruct(model, project(model, v)))
                              for _, v in samples])
        for prev, nxt in zip(per_image, per_image[1:]):
            assert all(b <= a + 1e-9 for a, b in zip(prev, nxt))

    def test_energy_conservation_at_truncation(self):
        rng = np.random.default_rng(13)
        samples = _random_training(rng, 9, 36)
        gamma = np.column_stack([v for _, v in samples])
        phi = gamma - gamma.mean(axis=1)[:, None]
        mean_energy = np.mean(np.sum(phi * phi, axis=0))
        for k in (1, 3, 5, 8):
            model = train_eigen(samples, k=k)
            mean_dffs_sq = np.mean([classify(model, v).dffs ** 2 for _, v in samples])
            total = model.eigenvalues.sum() / len(samples) + mean_dffs_sq
            assert total == pytest.approx(mean_energy, rel=1e-8)


def _reference_decisions(model, faces, weights=None):
    """(verdict, label, score) per row by the face-space test on affine_residual's
    reconstruction: the score is the distance from face space of a rejected row,
    otherwise the nearest-neighbour distance."""
    weights, residuals = affine_residual(faces, model.mean, model.basis, weights)
    decisions = []
    for row_weights, residual in zip(weights, residuals.tolist()):
        if residual > model.theta_face:
            decisions.append((NOT_A_FACE, None, residual))
            continue
        row, dist = nearest(model.gallery, row_weights)
        decisions.append((UNKNOWN_FACE if dist > model.theta_known else FACE,
                          model.row_labels[row], dist))
    return decisions


def _decisions(model, faces, weights=None):
    return [(d.verdict, d.label, d.dffs if d.distance is None else d.distance)
            for d in classify_rows(model, faces, weights)]


@pytest.fixture
def reconstructions(monkeypatch):
    """The number of rows of each affine_residual call that classify_rows makes."""
    real, rows = eigenfaces.affine_residual, []

    def spy(points, *args):
        rows.append(len(points))
        return real(points, *args)

    monkeypatch.setattr(eigenfaces, "affine_residual", spy)
    return rows


class TestFaceSpaceTestAcrossTheThreshold:
    # theta_face set to a probe's exact distance from face space times each factor
    FACTORS = (1 - 1e-2, 1 - 1e-6, 1 - 1e-12, 1 + 1e-12, 1 + 1e-6, 1 + 1e-2)

    def test_route_probes_decide_as_the_reconstruction(self, banded, banded_models,
                                                       route_probe, reconstructions):
        # every probe kind, alone as the eigen route classifies it (on handed-in weights
        # offset + w_ref, and on its own projection), and the kind's probes as one batch
        # as predict classifies them: verdicts, labels and scores bit for bit those of the
        # reconstruction, which a batch takes over all its rows, not over the rows near
        # theta_face alone. A probe within 1e-6 of theta_face takes the reconstruction;
        # some 1% inside it are decided by the Pythagorean form alone.
        m, rng = banded_models, np.random.default_rng(29)
        reference = m.eigen.reference_weights(m.frontal)
        fast = 0
        for kind in ("clean", "ramp", "occlude", "roll"):
            faces = np.stack([flatten(route_probe(kind, image, rng))
                              for _, _, image in banded.test_entries])
            handed = affine_coords(faces, m.frontal, m.eigen.basis) + reference
            exact = affine_residual(faces, m.eigen.mean, m.eigen.basis)[1]
            for factor in self.FACTORS:
                for i, face in enumerate(faces):
                    model = dataclasses.replace(m.eigen, theta_face=exact[i] * factor)
                    for weights in (None, handed[i:i + 1]):
                        reconstructions.clear()
                        got = _decisions(model, face[None], weights)
                        assert got == _reference_decisions(model, face[None], weights)
                        if abs(factor - 1.0) <= 1e-6:
                            assert reconstructions == [1]
                        fast += not reconstructions
                middle = exact[np.argsort(exact)[len(exact) // 2]]  # one row near theta_face
                model = dataclasses.replace(m.eigen, theta_face=middle * factor)
                assert _decisions(model, faces) == _reference_decisions(model, faces)
        assert fast > 0

    def test_training_basis_is_orthonormal_within_the_margin(self, banded_models):
        # the precondition of the margin: delta = max |U^T U - I| far below
        # FACE_SPACE_MARGIN / K (measured: 4.9e-15 for the 12-direction banded basis)
        basis = banded_models.eigen.basis
        delta = np.abs(basis.T @ basis - np.eye(basis.shape[1])).max()
        assert delta <= 5e-14 < FACE_SPACE_MARGIN / basis.shape[1]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 48), k=st.integers(1, 8),
       n=st.integers(1, 6), factor=st.sampled_from((0.0, 0.5, 1 - 1e-6, 1 - 1e-12, 1.0,
                                                     1 + 1e-12, 1 + 1e-6, 2.0)),
       scale=st.sampled_from((1e-3, 1.0, 1e3)))
def test_random_face_spaces_decide_as_the_reconstruction(seed, d, k, n, factor, scale):
    # random orthonormal bases, rows at distances from face space over six orders of
    # magnitude (some in the span), theta_face near one row's exact distance
    k = min(k, d - 1)
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((d, k)))[0]
    mean = scale * rng.standard_normal(d)
    off = rng.standard_normal((n, d))
    off -= (off @ basis) @ basis.T
    faces = (mean + scale * rng.standard_normal((n, k)) @ basis.T
             + scale * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1)) * (rng.random((n, 1)) < 0.8) * off)
    gallery = scale * rng.standard_normal((5, k))
    exact = affine_residual(faces, mean, basis)[1]
    model = EigenModel((1, d), mean, basis, np.ones(k), gallery, ("a", "b", "c", "d", "e"),
                       theta_face=float(exact[rng.integers(n)]) * factor,
                       theta_known=scale * float(rng.uniform(0.5, 3.0)))
    assert _decisions(model, faces) == _reference_decisions(model, faces)
    for face in faces:
        assert _decisions(model, face[None]) == _reference_decisions(model, face[None])
