import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp
from scipy.stats import norm

from facelab import hmm1d, synth
from facelab.dataset import GrayImage
from facelab.errors import DataError, NumericError
from facelab.hmm1d import (BlockParams, FEATURE_RAW, VAR_FLOOR, HmmModel, KltBasis,
                           SubjectBank, baum_welch, extract_blocks, features_for, fit_klt,
                           init_uniform, loglik, observe, recognize, train_bank, viterbi,
                           viterbi_train)
from facelab.numerics import sym_eigen

RT2 = np.sqrt(2.0)


def lr_model(trans_rows, means, variances):
    """Left-to-right model from per-state (stay, move) pairs."""
    n = len(means)
    trans = np.zeros((n, n))
    for i, (stay, move) in enumerate(trans_rows):
        trans[i, i] = stay
        if i + 1 < n:
            trans[i, i + 1] = move
    return HmmModel(trans, np.atleast_2d(np.asarray(means, float)).reshape(n, -1),
                    np.atleast_2d(np.asarray(variances, float)).reshape(n, -1))


def two_state_example():
    # state 0: N(0,1), state 1: N(3,1); a00 = a01 = 0.5
    return lr_model([(0.5, 0.5), (1.0, 0.0)], [[0.0], [3.0]], [[1.0], [1.0]])


def random_lr_model(rng, n_states, d):
    rows = []
    for i in range(n_states - 1):
        stay = rng.uniform(0.2, 0.8)
        rows.append((stay, 1.0 - stay))
    rows.append((1.0, 0.0))
    means = rng.normal(0.0, 3.0, size=(n_states, d))
    variances = rng.uniform(0.5, 2.0, size=(n_states, d))
    return lr_model(rows, means, variances)


def all_feasible_paths(n_states, t_len):
    """Non-decreasing paths from state 0 with steps of at most 1."""
    paths = [[0]]
    for _ in range(t_len - 1):
        nxt = []
        for p in paths:
            nxt.append(p + [p[-1]])
            if p[-1] + 1 < n_states:
                nxt.append(p + [p[-1] + 1])
        paths = nxt
    return paths


def path_logprob(model, seq, path):
    """Independent scoring: scipy normal densities plus transition logs."""
    lp = float(np.sum(norm.logpdf(seq[0], model.means[path[0]],
                                  np.sqrt(model.variances[path[0]]))))
    if path[0] != 0:
        return -np.inf
    for t in range(1, len(path)):
        a = model.trans[path[t - 1], path[t]]
        if a == 0.0:
            return -np.inf
        lp += np.log(a) + float(np.sum(norm.logpdf(
            seq[t], model.means[path[t]], np.sqrt(model.variances[path[t]]))))
    return lp


def brute_force_viterbi(model, seq):
    best_lp, best_path = -np.inf, None
    for path in all_feasible_paths(model.n_states, seq.shape[0]):
        lp = path_logprob(model, seq, path)
        if lp > best_lp or (lp == best_lp and best_path is not None
                            and tuple(path) < tuple(best_path)):
            best_lp, best_path = lp, path
    return np.array(best_path), best_lp


def brute_force_forward(model, seq):
    lps = [path_logprob(model, seq, p)
           for p in all_feasible_paths(model.n_states, seq.shape[0])]
    return float(logsumexp(lps))


def sample_sequences(model, rng, n_seqs, t_len):
    out = []
    for _ in range(n_seqs):
        seq = np.zeros((t_len, model.dim))
        state = 0
        for t in range(t_len):
            if t > 0:
                state = rng.choice(model.n_states, p=model.trans[state])
            seq[t] = rng.normal(model.means[state], np.sqrt(model.variances[state]))
        out.append(seq)
    return out


def direct_log_emissions(model, seq):
    """T x N log densities in the difference form, -0.5 * sum((x - mean)^2 / var + log 2 pi var)."""
    diff = seq[:, None, :] - model.means[None]
    return -0.5 * np.sum(diff * diff / model.variances + np.log(2.0 * np.pi * model.variances),
                         axis=2)


def direct_loglik(model, seq):
    """Forward log-likelihood in log space over the difference-form emissions."""
    logb = direct_log_emissions(model, seq)
    with np.errstate(divide="ignore"):
        loga = np.log(model.trans)
    log_alpha = np.full(model.n_states, -np.inf)
    log_alpha[0] = logb[0, 0]
    for t in range(1, len(seq)):
        log_alpha = logsumexp(log_alpha[:, None] + loga, axis=0) + logb[t]
    return float(logsumexp(log_alpha))


class TestBlockExtraction:
    def test_stride_one_counts(self):
        params = BlockParams(4, 3, (8, 3))
        assert params.block_count == 5
        img = GrayImage(8, 3, np.arange(24, dtype=float).reshape(8, 3))
        blocks = extract_blocks(img, params)
        assert blocks.shape == (5, 12)
        for t in range(5):
            assert np.array_equal(blocks[t], img.pixels[t: t + 4].reshape(-1))

    def test_single_block_when_l_equals_h(self):
        img = GrayImage(4, 2, np.zeros((4, 2)))
        blocks = extract_blocks(img, BlockParams(4, 0, (4, 2)))
        assert blocks.shape == (1, 8)

    def test_stride_two_row_ranges(self):
        img = GrayImage(10, 1, np.arange(10, dtype=float).reshape(10, 1))
        blocks = extract_blocks(img, BlockParams(4, 2, (10, 1)))
        assert blocks.shape == (4, 4)
        assert np.array_equal(blocks[:, 0], [0, 2, 4, 6])  # starts 0,2,4,6

    def test_invalid_geometry(self):
        with pytest.raises(DataError):
            BlockParams(9, 0, (8, 4))  # L > H
        with pytest.raises(DataError):
            BlockParams(4, 4, (8, 4))  # P >= L

    def test_dims_must_match(self):
        img = GrayImage(6, 4, np.zeros((6, 4)))
        with pytest.raises(DataError):
            extract_blocks(img, BlockParams(4, 2, (8, 4)))

    @given(h=st.integers(2, 20), l=st.integers(1, 12), p_frac=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_coverage_and_overlap(self, h, l, p_frac):
        l = min(l, h)
        p = (p_frac * l) // 101  # any overlap in [0, l-1]
        params = BlockParams(l, p, (h, 2))
        t_count = params.block_count
        stride = l - p
        assert t_count >= 1
        # all rows up to the last block's end are covered, and consecutive
        # blocks share exactly p rows
        covered = set()
        for t in range(t_count):
            covered.update(range(t * stride, t * stride + l))
        assert covered == set(range((t_count - 1) * stride + l))
        for t in range(t_count - 1):
            first = set(range(t * stride, t * stride + l))
            second = set(range((t + 1) * stride, (t + 1) * stride + l))
            assert len(first & second) == p


class TestKlt:
    def test_two_point_basis(self):
        blocks = np.array([[1.0, 0.0], [0.0, 1.0]])
        basis = fit_klt([blocks], BlockParams(1, 0, blocks.shape), d=1)
        assert np.allclose(basis.mean, [0.5, 0.5])
        assert basis.basis.shape == (1, 2)
        assert np.allclose(basis.basis[0], [1 / RT2, -1 / RT2], atol=1e-10)

    def test_d_truncated_to_rank(self):
        rng = np.random.default_rng(0)
        two_dim = rng.normal(size=(20, 2)) @ rng.normal(size=(2, 10))
        basis = fit_klt([two_dim], BlockParams(1, 0, two_dim.shape), d=7)
        assert basis.dim == 2

    def test_identical_blocks_rejected(self):
        with pytest.raises(NumericError, match="identical"):
            fit_klt([np.ones((5, 4))], BlockParams(1, 0, (5, 4)), d=2)

    def test_rows_orthonormal_both_routes(self):
        rng = np.random.default_rng(1)
        for n, dim in ((6, 12), (40, 5)):  # gram route and scatter route
            blocks = rng.normal(size=(n, dim))
            basis = fit_klt([blocks], BlockParams(1, 0, blocks.shape), d=4)
            gram = basis.basis @ basis.basis.T
            assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-8

    def test_observe_centered_projection(self):
        rng = np.random.default_rng(2)
        blocks = rng.normal(size=(12, 6))
        basis = fit_klt([blocks], BlockParams(1, 0, blocks.shape), d=3)
        assert np.allclose(observe(basis.mean[None, :], basis), 0.0, atol=1e-10)
        probe = basis.mean + basis.basis[1]
        assert np.allclose(observe(probe[None, :], basis)[0], [0.0, 1.0, 0.0], atol=1e-8)
        assert observe(blocks, basis).shape == (12, 3)

    @pytest.mark.parametrize("count,dims,height,overlap", [
        (20, (24, 6), 10, 9),  # stride 1
        (30, (11, 5), 4, 1),  # stride 3: the last row is in no block
        (30, (13, 5), 4, 0),  # no overlap: the last row is in no block
        (10, (8, 6), 8, 0),  # one block per image, fewer blocks than dimensions: Gram route
        (1, (40, 3), 2, 1),  # a single image
    ], ids=["stride1", "stride3_trailing_row", "no_overlap", "gram_route", "single_image"])
    def test_matches_stacked_block_pca(self, count, dims, height, overlap):
        rng = np.random.default_rng(4)
        images = [rng.uniform(0.0, 255.0, size=dims) for _ in range(count)]
        copies = [img.copy() for img in images]
        klt = fit_klt(images, BlockParams(height, overlap, dims), d=4)
        assert all(np.array_equal(a, b) for a, b in zip(images, copies))
        # the definition: every block stacked, centred, and the full scatter spectrum
        stride = height - overlap
        blocks = np.array([img[t:t + height].reshape(-1) for img in images
                           for t in range(0, dims[0] - height + 1, stride)])
        mean = blocks.mean(axis=0)
        centered = blocks - mean
        full = sym_eigen(centered.T @ centered)
        assert np.abs(klt.mean - mean).max() <= 1e-12 * np.abs(mean).max()
        assert klt.dim == 4
        assert np.abs(klt.basis - full.eigenvectors[:, :4].T).max() <= 1e-10

    def test_identical_blocks_of_unequal_rows_rejected(self):
        # stride 3 over rows repeating every 3: each block is the same, though
        # the rows differ, so only rounding is left once the mean is removed
        rng = np.random.default_rng(5)
        image = np.tile(rng.uniform(0.0, 255.0, size=(3, 5)), (5, 1))[:14]
        with pytest.raises(NumericError, match="identical"):
            fit_klt([image] * 40, BlockParams(6, 3, image.shape), d=2)

    def test_identical_non_integer_images_rejected_on_gram_route(self):
        # one block per image and fewer blocks than dimensions: the Gram route
        for seed in range(20):
            image = np.random.default_rng(seed).uniform(0.0, 255.0, size=(6, 5))
            with pytest.raises(NumericError, match="identical"):
                fit_klt([image, image.copy(), image.copy()], BlockParams(6, 0, (6, 5)), d=2)

    def test_image_dims_checked(self):
        with pytest.raises(DataError):
            fit_klt([np.zeros((6, 4)), np.zeros((5, 4))], BlockParams(2, 1, (6, 4)), d=2)

    def test_scatter_route_never_holds_the_block_matrix(self):
        rng = np.random.default_rng(0)
        images = [rng.integers(0, 256, size=(112, 92)).astype(np.float64) for _ in range(200)]
        tracemalloc.start()
        try:
            klt = fit_klt(images, BlockParams(10, 9, (112, 92)), d=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert klt.dim == 10
        assert peak < 60e6  # the 20,600 x 920 float64 block matrix alone is 152 MB

    def test_observe_dimension_check(self):
        basis = KltBasis(np.zeros(4), np.eye(4)[:2])
        with pytest.raises(DataError):
            observe(np.zeros((3, 5)), basis)


class TestInitUniform:
    def test_single_state_pools_everything(self):
        seqs = [np.array([[0.0], [2.0], [4.0]]), np.array([[6.0], [8.0]])]
        model = init_uniform(seqs, 1)
        assert model.trans.tolist() == [[1.0]]
        assert model.means[0, 0] == pytest.approx(4.0)
        assert model.variances[0, 0] == pytest.approx(np.var([0, 2, 4, 6, 8]))

    def test_t_equals_states_forces_chain(self):
        seqs = [np.arange(3, dtype=float).reshape(3, 1)]
        model = init_uniform(seqs, 3)
        assert model.trans[0, 1] == 1.0 and model.trans[0, 0] == 0.0
        assert model.trans[1, 2] == 1.0
        assert model.trans[2, 2] == 1.0
        assert np.array_equal(model.means.reshape(-1), [0.0, 1.0, 2.0])

    def test_floor_formula_boundaries(self):
        # T=10, N=5: observation t belongs to state t // 2
        seqs = [np.arange(10, dtype=float).reshape(10, 1)]
        model = init_uniform(seqs, 5)
        assert np.array_equal(model.means.reshape(-1), [0.5, 2.5, 4.5, 6.5, 8.5])
        for i in range(4):
            assert model.trans[i, i] == pytest.approx(0.5)  # mean segment length 2
            assert model.trans[i, i + 1] == pytest.approx(0.5)

    def test_short_sequence_rejected(self):
        with pytest.raises(DataError, match="shorter"):
            init_uniform([np.zeros((2, 1))], 3)

    def test_variance_floor_applied(self):
        seqs = [np.zeros((4, 1)), np.zeros((4, 1))]
        model = init_uniform(seqs, 2)
        assert np.all(model.variances >= 1e-6)


class TestViterbi:
    def test_single_state_path_and_score(self):
        model = lr_model([(1.0, 0.0)], [[1.0]], [[2.0]])
        seq = np.array([[0.0], [1.0], [2.0]])
        path, score = viterbi(model, seq)
        assert np.array_equal(path, [0, 0, 0])
        expected = float(np.sum(norm.logpdf(seq.reshape(-1), 1.0, np.sqrt(2.0))))
        assert score == pytest.approx(expected, abs=1e-10)

    def test_two_state_hand_example(self):
        # brute force over the two feasible paths gives (0,1) at -2.5310
        model = two_state_example()
        seq = np.array([[0.0], [3.0]])
        path, score = viterbi(model, seq)
        assert np.array_equal(path, [0, 1])
        assert score == pytest.approx(-2.5310242469692906, abs=1e-9)

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(31)
        for trial in range(25):
            n_states = int(rng.integers(1, 5))
            t_len = int(rng.integers(max(1, n_states - 1), 9))
            model = random_lr_model(rng, n_states, 2)
            seq = rng.normal(0.0, 2.0, size=(t_len, 2))
            path, score = viterbi(model, seq)
            oracle_path, oracle_score = brute_force_viterbi(model, seq)
            assert abs(score - oracle_score) <= 1e-9
            assert np.array_equal(path, oracle_path)

    def test_tie_breaks_toward_lower_states(self):
        # identical emissions and equal stay/move odds over two steps: both
        # feasible paths score the same, so the all-zeros path must win
        model = lr_model([(0.5, 0.5), (1.0, 0.0)], [[0.0], [0.0]], [[1.0], [1.0]])
        seq = np.zeros((2, 1))
        path, score = viterbi(model, seq)
        assert np.array_equal(path, [0, 0])
        oracle_path, oracle_score = brute_force_viterbi(model, seq)
        assert np.array_equal(path, oracle_path)
        assert score == pytest.approx(oracle_score, abs=1e-12)

    def test_forced_moves_then_final_state(self):
        # no self-loops before the last state: the path must climb one state
        # per step and then sit in the absorbing final state
        model = lr_model([(0.0, 1.0), (0.0, 1.0), (1.0, 0.0)],
                         [[0.0], [1.0], [2.0]], [[1.0]] * 3)
        path, _ = viterbi(model, np.zeros((3, 1)))
        assert np.array_equal(path, [0, 1, 2])
        path, _ = viterbi(model, np.zeros((5, 1)))
        assert np.array_equal(path, [0, 1, 2, 2, 2])

    def test_empty_sequence_rejected(self):
        with pytest.raises(DataError):
            viterbi(two_state_example(), np.zeros((0, 1)))


class TestLoglik:
    def test_single_state_equals_viterbi(self):
        model = lr_model([(1.0, 0.0)], [[0.5]], [[1.5]])
        seq = np.array([[0.0], [2.0], [1.0]])
        assert loglik(model, seq) == pytest.approx(viterbi(model, seq)[1], abs=1e-12)

    def test_two_state_hand_example_path_sum(self):
        model = two_state_example()
        seq = np.array([[0.0], [3.0]])
        total = loglik(model, seq)
        assert total == pytest.approx(brute_force_forward(model, seq), abs=1e-9)
        assert total == pytest.approx(-2.5199765, abs=1e-6)

    def test_matches_path_sum_on_random_models(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            n_states = int(rng.integers(1, 5))
            t_len = int(rng.integers(1, 9))
            model = random_lr_model(rng, n_states, 2)
            seq = rng.normal(0.0, 2.0, size=(t_len, 2))
            assert abs(loglik(model, seq) - brute_force_forward(model, seq)) <= 1e-9

    def test_dominates_viterbi(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            model = random_lr_model(rng, 3, 2)
            seq = rng.normal(size=(7, 2))
            assert loglik(model, seq) >= viterbi(model, seq)[1] - 1e-12

    def test_long_sequence_no_underflow(self):
        model = random_lr_model(np.random.default_rng(35), 4, 3)
        seq = np.random.default_rng(36).normal(0.0, 40.0, size=(1000, 3))
        assert np.isfinite(loglik(model, seq))


class TestViterbiTrain:
    def test_max_iter_zero_returns_input(self):
        model = two_state_example()
        seqs = [np.array([[0.0], [3.0]])]
        assert viterbi_train(model, seqs, max_iter=0) is model

    def test_fixed_point_stops_after_one_iteration(self):
        rng = np.random.default_rng(41)
        true = random_lr_model(rng, 3, 1)
        seqs = sample_sequences(true, rng, 4, 20)
        converged = viterbi_train(init_uniform(seqs, 3), seqs, tol=1e-10, max_iter=50)
        history = []
        again = viterbi_train(converged, seqs, tol=1e-10, max_iter=50, history=history)
        assert len(history) <= 2
        assert np.abs(again.trans - converged.trans).max() <= 1e-12
        assert np.abs(again.means - converged.means).max() <= 1e-12

    def test_total_likelihood_non_decreasing(self):
        rng = np.random.default_rng(42)
        true = random_lr_model(rng, 3, 2)
        seqs = sample_sequences(true, rng, 5, 15)
        history = []
        viterbi_train(init_uniform(seqs, 3), seqs, tol=0.0, max_iter=15, history=history)
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))

    def test_structure_preserved(self):
        rng = np.random.default_rng(43)
        true = random_lr_model(rng, 4, 2)
        seqs = sample_sequences(true, rng, 4, 12)
        model = viterbi_train(init_uniform(seqs, 4), seqs)
        off = model.trans.copy()
        for i in range(4):
            off[i, i] = 0.0
            if i < 3:
                off[i, i + 1] = 0.0
        assert np.all(off == 0.0)
        assert model.trans[3, 3] == 1.0


class TestBaumWelch:
    def test_max_iter_zero_returns_input(self):
        model = two_state_example()
        assert baum_welch(model, [np.array([[0.0], [3.0]])], max_iter=0) is model

    def test_single_state_closed_form(self):
        rng = np.random.default_rng(51)
        seqs = [rng.normal(2.0, 1.0, size=(30, 2)) for _ in range(3)]
        start = init_uniform(seqs, 1)
        trained = baum_welch(start, seqs, max_iter=1)
        pooled = np.vstack(seqs)
        assert np.abs(trained.means[0] - pooled.mean(axis=0)).max() <= 1e-8
        assert np.abs(trained.variances[0] - pooled.var(axis=0)).max() <= 1e-8

    def test_loglik_non_decreasing_20_iterations(self):
        rng = np.random.default_rng(52)
        true = random_lr_model(rng, 3, 2)
        seqs = sample_sequences(true, rng, 5, 20)
        history = []
        baum_welch(init_uniform(seqs, 3), seqs, tol=0.0, max_iter=20, history=history)
        assert len(history) == 20
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))

    def test_structural_zeros_and_row_sums(self):
        rng = np.random.default_rng(53)
        true = random_lr_model(rng, 4, 2)
        seqs = sample_sequences(true, rng, 5, 16)
        model = baum_welch(init_uniform(seqs, 4), seqs, tol=0.0, max_iter=10)
        for i in range(4):
            for j in range(4):
                if j not in (i, i + 1):
                    assert model.trans[i, j] == 0.0
        assert np.abs(model.trans.sum(axis=1) - 1.0).max() <= 1e-12
        assert model.trans[3, 3] == 1.0

    def test_stationary_point_on_model_generated_data(self):
        # once fitted to a large generated sample, one more iteration barely
        # moves any parameter
        rng = np.random.default_rng(54)
        true = random_lr_model(rng, 2, 1)
        seqs = sample_sequences(true, rng, 10, 200)
        fitted = baum_welch(true, seqs, tol=1e-10, max_iter=50)
        one_more = baum_welch(fitted, seqs, tol=0.0, max_iter=1)
        assert np.abs(one_more.means - fitted.means).max() <= 1e-3
        assert np.abs(one_more.variances - fitted.variances).max() <= 1e-3
        assert np.abs(one_more.trans - fitted.trans).max() <= 1e-3

    def test_backward_overflow_is_numeric_error(self):
        # at x = -2 state 1 sits 720 nats below state 0, so it keeps a mass near
        # exp(-720); at v state 0, which holds the mass, sits 700 nats below
        # state 2, which only that tiny mass reaches, and b * beta overflows
        model = lr_model([(0.5, 0.5), (0.5, 0.5), (1.0, 0.0)],
                         [[0.0], [-40.0], [38.0]], [[1.0], [1.0], [1.0]])
        v = (700.0 + 0.5 * 38.0 ** 2) / 38.0
        seq = np.array([[0.0], [-2.0], [v], [v], [v]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match="iteration 0: backward recursion overflowed at step"):
                baum_welch(model, [seq], max_iter=1)

    def test_unreachable_state_with_a_far_better_emission_is_masked(self):
        # state 0 is never left, so state 1 is never reached; at x = 0 its
        # emission beats state 0's by 450 nats a step, so the backward pass
        # must not carry it, or b * beta overflows within two steps
        model = lr_model([(1.0, 0.0), (1.0, 0.0)], [[30.0], [0.0]], [[1.0], [1.0]])
        seq = np.zeros((6, 1))
        history = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trained = baum_welch(model, [seq], tol=0.0, max_iter=1, history=history)
        assert history == [loglik(model, seq)]
        assert trained.means[0, 0] == 0.0 and trained.variances[0, 0] == VAR_FLOOR
        assert np.array_equal(trained.means[1], model.means[1])
        assert trained.warnings == model.warnings + 1  # state 1 is empty


@pytest.mark.parametrize("train", [viterbi_train, baum_welch])
def test_empty_states_keep_their_parameters(train, caplog):
    # states 2 and 3 sit far from every observation, so no path reaches them
    model = lr_model([(0.5, 0.5), (0.5, 0.5), (0.3, 0.7), (1.0, 0.0)],
                     [[0.0], [5.0], [1e3], [1e3]], [[1.0], [1.0], [2.0], [3.0]])
    rng = np.random.default_rng(55)
    seqs = [np.concatenate([rng.normal(0.0, 1.0, (6, 1)), rng.normal(5.0, 1.0, (6, 1))])
            for _ in range(3)]
    with caplog.at_level("WARNING", logger="facelab.hmm1d"):
        trained = train(model, seqs, tol=0.0, max_iter=1)
    assert np.array_equal(trained.means[2:], model.means[2:])
    assert np.array_equal(trained.variances[2:], model.variances[2:])
    assert np.array_equal(trained.trans[2], model.trans[2])  # state 2 is never left
    assert not np.array_equal(trained.means[:2], model.means[:2])
    assert trained.warnings == model.warnings + 2
    assert [r.getMessage() for r in caplog.records] == [
        f"state {i} is empty; keeping previous parameters" for i in (2, 3)]


class TestBank:
    def _image(self, rows, width=6, noise=None, seed=0):
        """Stack per-row levels into an image, optionally with noise."""
        raw = np.repeat(np.asarray(rows, float)[:, None], width, axis=1)
        if noise:
            raw = raw + np.random.default_rng(seed).normal(0.0, noise, raw.shape)
        return GrayImage(raw.shape[0], width, np.clip(raw, 0.0, 255.0))

    def _banded_pair(self):
        # subject a: dark top, bright bottom; subject b: the reverse
        entries = []
        for i in range(3):
            top = [20.0 + i] * 8 + [200.0 - i] * 8
            bottom = [200.0 - i] * 8 + [20.0 + i] * 8
            entries.append(("a", self._image(top, noise=2.0, seed=10 + i)))
            entries.append(("b", self._image(bottom, noise=2.0, seed=20 + i)))
        return entries

    def test_single_subject_self_match(self):
        img = self._image(list(range(40, 140, 10)), noise=1.0)
        bank = train_bank([("only", img)], BlockParams(3, 2, (10, 6)),
                          n_states=3, klt_dim=4)
        assert recognize(bank, [img])[0][0] == "only"

    def test_block_count_incompatible_with_states(self):
        # H=12, L=10, P=9 gives T=3 blocks, below the 5 requested states
        img = self._image([0.0] * 12)
        with pytest.raises(DataError, match="blocks"):
            train_bank([("a", img)], BlockParams(10, 9, (12, 6)), n_states=5, klt_dim=3)

    def test_separable_subjects(self):
        entries = self._banded_pair()
        bank = train_bank(entries, BlockParams(4, 3, (16, 6)), n_states=4, klt_dim=4)
        for label, img in entries:
            [(best, scores)] = recognize(bank, [img])
            assert best == label
            other = "b" if label == "a" else "a"
            assert scores[label] > scores[other]
        assert set(scores) == {"a", "b"}

    def test_raw_feature_mode(self):
        entries = self._banded_pair()
        bank = train_bank(entries, BlockParams(4, 3, (16, 6)), n_states=4,
                          klt_dim=4, feature_mode=FEATURE_RAW)
        assert bank.klt is None
        for label, img in entries:
            assert recognize(bank, [img])[0][0] == label

    def test_recognize_dims_check(self):
        entries = self._banded_pair()
        bank = train_bank(entries, BlockParams(4, 3, (16, 6)), n_states=4, klt_dim=4)
        with pytest.raises(DataError):
            recognize(bank, [GrayImage(8, 6, np.zeros((8, 6)))])


class TestModelValidation:
    def test_structure_violation_rejected(self):
        trans = np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        with pytest.raises(DataError, match="structure"):
            HmmModel(trans, np.zeros((3, 1)), np.full((3, 1), 1.0))

    def test_subject_bank_labels_sorted(self):
        model = lr_model([(1.0, 0.0)], [[0.0]], [[1.0]])
        bank = SubjectBank(BlockParams(1, 0, (4, 1)), None,
                           {"z": model, "a": model})
        assert bank.labels == ["a", "z"]

    def test_subject_bank_models_share_shape(self):
        one = lr_model([(1.0, 0.0)], [[0.0]], [[1.0]])
        two = lr_model([(0.5, 0.5), (1.0, 0.0)], [[0.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(DataError, match="share state count"):
            SubjectBank(BlockParams(1, 0, (4, 1)), None, {"a": one, "b": two})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["trans", "means", "variances"])
    def test_non_finite_parameters_rejected(self, name, value):
        model = two_state_example()
        bad = getattr(model, name).copy()
        bad[0] = value
        with pytest.raises(DataError, match="finite"):
            replace(model, **{name: bad})

    def test_raw_bank_state_dimension_must_match_blocks(self):
        model = lr_model([(1.0, 0.0)], [[0.0]], [[1.0]])
        with pytest.raises(DataError, match="state dimension 1 != observation dimension 4"):
            SubjectBank(BlockParams(2, 1, (4, 2)), None, {"a": model})


def assert_left_to_right(model):
    n = model.n_states
    for i in range(n):
        for j in range(n):
            if j not in (i, i + 1):
                assert model.trans[i, j] == 0.0
    assert model.trans[n - 1, n - 1] == 1.0


class TestBatchedKernels:
    """The batched forward and Viterbi kernels give the single-sequence results."""

    def test_bank_scores_equal_single_model_loglik(self, banded, banded_models):
        bank = banded_models.bank
        for _, _, image in banded.test_entries:
            obs = features_for(bank, image)
            scores = recognize(bank, [image])[0][1]
            assert list(scores) == bank.labels
            for label, score in scores.items():
                assert score == loglik(bank.models[label], obs)

    def test_chunked_scores_equal_each_probe_alone(self, banded, banded_models):
        bank = banded_models.bank
        probes = [image for _, _, image in banded.test_entries]
        count = 2 * hmm1d.PROBE_CHUNK + 3  # three chunks, the last one short
        assert count <= len(probes)
        probes = probes[:count]
        batched = recognize(bank, probes)
        predicted = bank.predict(probes)
        assert len(batched) == len(predicted) == count
        for image, (best, scores), (label, score) in zip(probes, batched, predicted):
            [(alone_label, alone_score)] = bank.predict([image])
            assert (label, best) == (alone_label, alone_label)
            assert np.float64(score).view(np.int64) == np.float64(alone_score).view(np.int64)
            obs = features_for(bank, image)
            single = np.array([loglik(bank.models[lb], obs) for lb in bank.labels])
            assert np.array_equal(np.array(list(scores.values())).view(np.int64),
                                  single.view(np.int64))
            assert score == scores[label] == single.max()

    def test_wrong_size_probe_anywhere_in_a_batch_is_data_error(self, banded, banded_models):
        probes = [image for _, _, image in banded.test_entries][:2 * hmm1d.PROBE_CHUNK + 1]
        odd = GrayImage(8, 6, np.zeros((8, 6)))
        for model in (banded_models.eigen, banded_models.fisher, banded_models.bank):
            for at in (0, hmm1d.PROBE_CHUNK - 1, hmm1d.PROBE_CHUNK + 2, len(probes)):
                with pytest.raises(DataError):
                    model.predict(probes[:at] + [odd] + probes[at:])

    def test_empty_batch_scores_nothing(self, banded_models):
        assert recognize(banded_models.bank, []) == []

    @pytest.fixture
    def mixed_lengths(self):
        rng = np.random.default_rng(61)
        true = random_lr_model(rng, 4, 2)
        seqs = [sample_sequences(true, rng, 1, t_len)[0] for t_len in (12, 15, 12)]
        return init_uniform(seqs, 4), seqs

    def test_viterbi_train_mixed_lengths(self, mixed_lengths, monkeypatch):
        start, seqs = mixed_lengths
        used = []
        reestimate = hmm1d._reestimate_from_paths

        def spy(model, seqs, paths):
            used.append((model, seqs, paths))
            return reestimate(model, seqs, paths)

        monkeypatch.setattr(hmm1d, "_reestimate_from_paths", spy)
        history = []
        model = viterbi_train(start, seqs, tol=0.0, max_iter=6, history=history)
        assert_left_to_right(model)
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
        assert history[0] == sum(viterbi(start, s)[1] for s in seqs)
        assert used
        for fitted, batch_seqs, paths in used:
            assert [s.shape[0] for s in batch_seqs] == [12, 15, 12]
            for seq, path in zip(batch_seqs, paths):
                assert np.array_equal(path, viterbi(fitted, seq)[0])

    def test_baum_welch_mixed_lengths(self, mixed_lengths):
        start, seqs = mixed_lengths
        history = []
        model = baum_welch(start, seqs, tol=0.0, max_iter=8, history=history)
        assert len(history) == 8
        assert_left_to_right(model)
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
        assert history[0] == sum(loglik(start, s) for s in seqs)

    def test_bank_training_equals_training_each_subject_alone(self):
        entries = synth.make_banded_dataset(4, 3, 24, 8, seed=0)
        bank = train_bank(entries, BlockParams(4, 3, (24, 8)), n_states=4, klt_dim=3)
        iterations, empty_states = [], 0
        for label, batched in bank.models.items():
            seqs = [features_for(bank, image) for lb, image in entries if lb == label]
            segmental, em = [], []
            alone = baum_welch(viterbi_train(init_uniform(seqs, 4), seqs, history=segmental),
                               seqs, history=em)
            for name in ("trans", "means", "variances"):
                assert np.array_equal(getattr(batched, name), getattr(alone, name))
            assert batched.warnings == alone.warnings
            iterations.append((len(segmental), len(em)))
            empty_states += alone.warnings
        # subjects stop after different numbers of iterations in both stages
        assert all(len(set(stage)) > 1 for stage in zip(*iterations))
        assert empty_states > 0

    def test_vanished_subject_fails_recognition(self, banded, banded_models):
        bank = banded_models.bank
        label = bank.labels[-1]
        far = replace(bank.models[label], means=np.full_like(bank.models[label].means, 1e200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # means^2 / variances overflows inside the stack
            broken = replace(bank, models={**bank.models, label: far})
            with np.errstate(over="ignore"), pytest.raises(NumericError, match="vanished"):
                recognize(broken, [banded.test_entries[0][2]])


@st.composite
def emission_cases(draw):
    """(seq T x d, means N x d, variances N x d) at KLT-like or raw-pixel magnitudes."""
    n, d, t_len = draw(st.integers(1, 5)), draw(st.integers(1, 12)), draw(st.integers(1, 6))
    if draw(st.booleans()):  # raw pixel blocks with every variance at the floor
        values = st.floats(0.0, 255.0)
        variances = np.full((n, d), VAR_FLOOR)
    else:  # KLT coefficients as the ORL-scale banks see them
        values = st.floats(-3e3, 3e3)
        variances = draw(arrays(np.float64, (n, d), elements=st.floats(10.0, 7e6)))
    return (draw(arrays(np.float64, (t_len, d), elements=values)),
            draw(arrays(np.float64, (n, d), elements=values)), variances)


def random_bank(rng, subjects, n_states, params, d):
    """A bank of random valid models over a random orthonormal KLT basis, untrained."""
    basis = np.linalg.qr(rng.normal(size=(params.block_dim, d)))[0].T
    klt = KltBasis(rng.uniform(0.0, 255.0, params.block_dim), basis)
    models = {f"s{i:02d}": replace(random_lr_model(rng, n_states, d),
                                   means=rng.normal(0.0, 300.0, (n_states, d)),
                                   variances=rng.uniform(10.0, 1e4, (n_states, d)))
              for i in range(subjects)}
    return SubjectBank(params, klt, models)


class TestExpandedEmissions:
    """The one-matmul emissions against the difference form, and the forward's edge cases."""

    @settings(max_examples=200, deadline=None)
    @given(emission_cases())
    def test_log_emissions_within_rounding_of_the_difference_form(self, case):
        seq, means, variances = case
        n, d = means.shape
        model = lr_model([(0.5, 0.5)] * (n - 1) + [(1.0, 0.0)], means, variances)
        got = hmm1d._log_emissions(hmm1d._stack([model]), seq[None])[0]
        logdet = np.sum(np.log(2.0 * np.pi * variances), axis=1)
        size = np.sum((seq[:, None, :] ** 2 + means[None] ** 2) / variances, axis=2) + abs(logdet)
        # recursive summation of the 2d + 2 terms of each form, each term at most 2 * size
        bound = 4 * (d + 1) * np.finfo(float).eps * size
        assert np.all(np.abs(got - direct_log_emissions(model, seq)) <= bound)

    def test_recognize_scores_match_the_difference_form(self, banded, banded_models):
        bank = banded_models.bank
        probes = [image for _, _, image in banded.test_entries]
        for image, (_, scores) in zip(probes, recognize(bank, probes)):
            obs = features_for(bank, image)
            for label, score in scores.items():
                direct = direct_loglik(bank.models[label], obs)
                assert abs(score - direct) <= 1e-12 * abs(direct)

    def test_recognize_working_memory(self):
        # 40 subjects x 16 probes at ORL scale: scoring each probe through its
        # 1.6 MB of state-by-block differences peaked at 8.8 MB; the one emission
        # buffer and the forward pass's state peak at 6.2 MB
        params = BlockParams(10, 9, (112, 92))
        rng = np.random.default_rng(71)
        bank = random_bank(rng, 40, 5, params, 10)
        probes = [GrayImage(112, 92, rng.uniform(0.0, 255.0, (112, 92))) for _ in range(16)]
        tracemalloc.start()
        try:
            results = recognize(bank, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == 16
        assert peak < 7.5e6

    @pytest.mark.parametrize("n_states, height", [(1, 8), (3, 3), (1, 3)])
    def test_one_state_and_one_block_banks(self, n_states, height):
        # one state leaves the move diagonal empty; an image one block high gives T = 1
        rng = np.random.default_rng(72)
        params = BlockParams(3, 2, (height, 4))
        bank = random_bank(rng, 3, n_states, params, 2)
        probes = [GrayImage(height, 4, rng.uniform(0.0, 255.0, (height, 4))) for _ in range(3)]
        for image, (best, scores) in zip(probes, recognize(bank, probes)):
            obs = features_for(bank, image)
            assert obs.shape[0] == height - 2
            for label, score in scores.items():
                assert score == loglik(bank.models[label], obs)
                direct = direct_loglik(bank.models[label], obs)
                assert abs(score - direct) <= 1e-12 * abs(direct)
            assert scores[best] == max(scores.values())
