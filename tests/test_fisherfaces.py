import numpy as np
import pytest

from facelab.errors import DataError, NumericError
from facelab.fisherfaces import (FisherModel, _solve_fld, classify, compute_scatter,
                                 project, train_fisher)

# two planar classes solvable by hand: the within/between scatter pair below
# yields a single generalized eigenvalue 24 with direction (2, 1)
CLASS1 = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
CLASS2 = [(4.0, 0.0), (5.0, 0.0), (4.0, 1.0)]
SAMPLES = ([("c1", np.array(v)) for v in CLASS1]
           + [("c2", np.array(v)) for v in CLASS2])
RT5 = np.sqrt(5.0)



class TestComputeScatter:
    def test_hand_expanded_sums(self):
        pair = compute_scatter(SAMPLES)
        assert np.allclose(pair.between, [[24.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert np.allclose(pair.within, [[4 / 3, -2 / 3], [-2 / 3, 4 / 3]], atol=1e-12)

    def test_single_sample_classes_have_zero_within(self):
        pair = compute_scatter([("a", np.array([1.0, 2.0])), ("b", np.array([3.0, 4.0]))])
        assert np.all(pair.within == 0.0)

    def test_equal_class_means_have_zero_between(self):
        pair = compute_scatter([
            ("a", np.array([0.0, 0.0])), ("a", np.array([2.0, 2.0])),
            ("b", np.array([1.0, 1.0])),
        ])
        assert np.all(pair.between == 0.0)

    def test_total_scatter_decomposition(self):
        rng = np.random.default_rng(8)
        samples = [(f"c{i % 3}", rng.normal(size=5)) for i in range(12)]
        pair = compute_scatter(samples)
        x = np.vstack([v for _, v in samples])
        centered = x - x.mean(axis=0)
        total = centered.T @ centered
        assert np.linalg.norm(pair.between + pair.within - total) <= \
            1e-8 * max(1.0, np.linalg.norm(total))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            compute_scatter([("a", np.zeros(2)), ("a", np.ones(2))])

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            compute_scatter([("a", np.zeros(2)), ("b", np.zeros(3))])


class TestTrainFisher:
    def test_hand_solved_discriminant(self):
        model = train_fisher(SAMPLES)
        assert model.m == 1
        assert model.eigenvalues[0] == pytest.approx(24.0, abs=1e-8)
        direction = model.basis[:, 0]  # input-space direction, unit norm
        assert np.allclose(direction, np.array([2.0, 1.0]) / RT5, atol=1e-8)
        # centered projections of the class means: -(4)/sqrt(5) and +4/sqrt(5)
        assert model.row_labels == ("c1", "c2")
        assert model.gallery[0, 0] == pytest.approx(-4.0 / RT5, abs=1e-8)
        assert model.gallery[1, 0] == pytest.approx(4.0 / RT5, abs=1e-8)

    def test_label_permutation_symmetry(self):
        relabeled = [("c2" if lb == "c1" else "c1", v) for lb, v in SAMPLES]
        base = train_fisher(SAMPLES)
        swapped = train_fisher(relabeled)
        assert np.allclose(base.basis, swapped.basis, atol=1e-10)
        assert np.allclose(base.gallery, swapped.gallery[::-1], atol=1e-10)

    def test_identical_classes_degenerate(self):
        samples = [("a", np.array([0.0, 1.0])), ("a", np.array([2.0, 3.0])),
                   ("b", np.array([0.0, 1.0])), ("b", np.array([2.0, 3.0]))]
        with pytest.raises(NumericError, match="degenerate"):
            train_fisher(samples)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            train_fisher([("a", np.zeros(3)), ("a", np.ones(3))])

    def test_discriminant_count_bound(self):
        rng = np.random.default_rng(17)
        for c in (2, 3, 4):
            samples = [(f"c{i % c}", rng.normal(loc=3.0 * (i % c), size=10))
                       for i in range(4 * c)]
            model = train_fisher(samples)
            assert model.m <= c - 1
            assert np.all(model.eigenvalues > 0)

    def test_high_dimensional_small_sample(self, train_fisher_keeping_pca):
        # D much larger than N: the direct within-class scatter is singular,
        # so this exercises the PCA pre-projection path
        rng = np.random.default_rng(18)
        samples = [(f"c{i % 2}", rng.normal(loc=2.0 * (i % 2), size=100))
                   for i in range(8)]
        model, pca = train_fisher_keeping_pca(samples)
        assert pca.shape == (100, 6)  # min(N - c, rank) = 8 - 2
        for label, vec in samples:
            assert classify(model, vec)[0] == label


class TestSolveFld:
    def test_ridge_recovers_singular_within(self):
        between = np.array([[2.0, 0.0], [0.0, 1.0]])
        within = np.array([[1.0, 0.0], [0.0, 0.0]])  # singular, ridge fixes it
        vals, vecs, used = _solve_fld(between, within)
        assert vals[0] > 0 and used[1, 1] > 0

    def test_zero_within_fails_after_ridge(self):
        with pytest.raises(NumericError, match="degenerate within-class"):
            _solve_fld(np.eye(2), np.zeros((2, 2)))


class TestProject:
    def test_mean_projects_to_origin(self):
        model = train_fisher(SAMPLES)
        assert np.allclose(project(model, model.mean), 0.0, atol=1e-12)

    def test_hand_computed_projection(self):
        # w = (2,1)/sqrt(5), mu = (7/3, 1/3); w . ((0,0) - mu) = -sqrt(5)
        model = train_fisher(SAMPLES)
        z = project(model, np.array([0.0, 0.0]))
        assert z[0] == pytest.approx(-np.sqrt(5.0), abs=1e-8)

    def test_affine_shift_invariance(self):
        shifted = [(lb, v + 50.0) for lb, v in SAMPLES]
        base = train_fisher(SAMPLES)
        moved = train_fisher(shifted)
        for (_, v0), (_, v1) in zip(SAMPLES, shifted):
            assert np.allclose(project(base, v0), project(moved, v1), atol=1e-8)

    def test_dimension_check(self):
        model = train_fisher(SAMPLES)
        with pytest.raises(DataError):
            project(model, np.zeros(3))


class TestClassify:
    def test_training_samples_recovered(self):
        model = train_fisher(SAMPLES)
        for label, vec in SAMPLES:
            assert classify(model, vec)[0] == label

    def test_centroid_preimage_has_zero_distance(self):
        model = train_fisher(SAMPLES)
        w_input = model.basis  # D x 1, unit norm
        preimage = model.mean + (w_input @ model.gallery[1]).reshape(-1)
        label, dist = classify(model, preimage)
        assert label == "c2" and dist <= 1e-8

    def test_tie_breaks_to_smallest_label(self):
        model = FisherModel((1, 2), np.zeros(2), np.eye(2)[:, :1], np.array([1.0]),
                            np.array([[1.0], [-1.0]]), ("b", "a"))
        label, _ = classify(model, np.zeros(2))  # equidistant from both
        assert label == "a"

    def test_empty_model_rejected(self):
        model = FisherModel((1, 2), np.zeros(2), np.eye(2)[:, :1], np.array([1.0]),
                            np.empty((0, 1)), ())
        with pytest.raises(DataError):
            classify(model, np.zeros(2))


class TestInvariants:
    def test_fisher_criterion_optimality_sampled(self, train_fisher_keeping_pca):
        # the top discriminant's Rayleigh quotient beats 100 random directions
        rng = np.random.default_rng(19)
        samples = [(f"c{i % 3}", rng.normal(loc=(i % 3), size=6)) for i in range(24)]
        model, pca = train_fisher_keeping_pca(samples)
        reduced = [(lb, pca.T @ (v - model.mean)) for lb, v in samples]
        pair = compute_scatter(reduced)
        w1 = (pca.T @ model.basis)[:, 0]
        best = (w1 @ pair.between @ w1) / (w1 @ pair.within @ w1)
        for _ in range(100):
            u = rng.normal(size=w1.size)
            u /= np.linalg.norm(u)
            assert best >= (u @ pair.between @ u) / (u @ pair.within @ u) - 1e-9

    def test_generalized_residual_bound(self, train_fisher_keeping_pca):
        rng = np.random.default_rng(20)
        samples = [(f"c{i % 3}", rng.normal(loc=2.0 * (i % 3), size=12))
                   for i in range(18)]
        model, pca = train_fisher_keeping_pca(samples)
        reduced = [(lb, pca.T @ (v - model.mean)) for lb, v in samples]
        pair = compute_scatter(reduced)
        scale = max(1.0, np.linalg.norm(pair.between))
        fld = pca.T @ model.basis
        for k in range(model.m):
            resid = (pair.between @ fld[:, k]
                     - model.eigenvalues[k] * (pair.within @ fld[:, k]))
            assert np.linalg.norm(resid) <= 1e-6 * scale

    def test_offset_invariant_predictions(self):
        rng = np.random.default_rng(21)
        samples = [(f"c{i % 2}", rng.integers(0, 150, size=9).astype(float))
                   for i in range(10)]
        shifted = [(lb, v + 40.0) for lb, v in samples]
        base = train_fisher(samples)
        moved = train_fisher(shifted)
        probes = [rng.integers(0, 150, size=9).astype(float) for _ in range(5)]
        for p in probes:
            assert classify(base, p)[0] == classify(moved, p + 40.0)[0]
