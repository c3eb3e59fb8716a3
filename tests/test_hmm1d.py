import math
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

from facelab import hmm1d, numerics, synth
from facelab.dataset import GrayImage
from facelab.dispatcher import METHOD_HMM, DispatchPolicy, recognize_multi
from facelab.errors import DataError, NumericError
from facelab.hmm1d import (BlockParams, FEATURE_RAW, VAR_FLOOR, HmmModel, KltBasis,
                           SubjectBank, baum_welch, extract_blocks, features_for, fit_klt,
                           init_uniform, loglik, observe, recognize, train_bank, viterbi,
                           viterbi_train)
from facelab.numerics import PROBE_CHUNK, sym_eigen

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


def oracle_scores(bank, image):
    """(observations, every subject's loglik in label order): the exhaustive recognizer."""
    obs = features_for(bank, [image])[0]
    return obs, np.array([loglik(bank.models[lb], obs) for lb in bank.labels])


def assert_oracle_winner(bank, result, single):
    """recognize's (label, score) is the oracle's argmax, the lowest label on ties,
    and its score bit for bit."""
    best = int(np.argmax(single))  # the first maximum
    assert result[0] == bank.labels[best]
    assert np.float64(result[1]).view(np.int64) == single[best].view(np.int64)


@pytest.fixture
def forward_widths(monkeypatch):
    """The batch width of every hmm1d._forward call made in the test, in call order."""
    real, widths = hmm1d._forward, []

    def spy(p, logb):
        widths.append(int(np.prod(logb.shape[:-2])))
        return real(p, logb)

    monkeypatch.setattr(hmm1d, "_forward", spy)
    return widths


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
        pixels = rng.uniform(50.0, 200.0, size=(12, 6))  # twelve one-row blocks
        params = BlockParams(1, 0, pixels.shape)
        klt = fit_klt([pixels], params, d=3)
        pixels[0] = klt.mean
        pixels[1] = klt.mean + klt.basis[1]
        assert 0.0 <= pixels.min() and pixels.max() <= 255.0
        [coords], [residuals] = observe([GrayImage(12, 6, pixels)], params, klt)
        assert coords.shape == (12, 3) and residuals.shape == (12,)
        assert np.allclose(coords[0], 0.0, atol=1e-10)
        assert np.allclose(coords[1], [0.0, 1.0, 0.0], atol=1e-8)
        assert np.all(residuals[:2] <= 1e-6 * np.linalg.norm(klt.mean))

    @pytest.mark.parametrize("count,dims,height,overlap", [
        (20, (24, 6), 10, 9),  # stride 1
        (30, (11, 5), 4, 1),  # stride 3: the last row is in no block
        (30, (13, 5), 4, 0),  # no overlap: the last row is in no block
        (10, (8, 6), 8, 0),  # one block per image, fewer blocks than dimensions: Gram route
        (1, (40, 3), 2, 1),  # a single image
        (20, (20, 5), 6, 4),  # stride 2: windows 2-5 slide from windows 0-3
        (30, (17, 4), 5, 2),  # stride 3: lags 3 and 4 have fewer windows than the stride
    ], ids=["stride1", "stride3_trailing_row", "no_overlap", "gram_route", "single_image",
            "stride2_slides", "stride3_short_lags"])
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

    def test_scatter_route_holds_the_rows_and_few_scatters(self):
        # the windowed scatter keeps no per-row product stack, and the centred rows are
        # freed before the solve: the peak is the rows (16.5 MB) and at most three
        # scatter-sized arrays (6.8 MB each) where lag-product stacks peaked at 50.7 MB
        rng = np.random.default_rng(0)
        images = [rng.integers(0, 256, size=(112, 92)).astype(np.float64) for _ in range(200)]
        params = BlockParams(10, 9, (112, 92))
        tracemalloc.start()
        try:
            fit_klt(images, params, d=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows_bytes, scatter_bytes = 112 * 200 * 92 * 8, params.block_dim ** 2 * 8
        assert peak < rows_bytes + 3 * scatter_bytes

    def test_orl_height_scatter_takes_the_top_d_route(self, monkeypatch):
        # 40 banded faces at 112 x 92: the D = 920 block scatter of the default
        # geometry converges without the full spectrum, and gives its basis
        images = [img.pixels for _, img in synth.make_banded_dataset(4, 10, 112, 92)]
        params = BlockParams(10, 9, (112, 92))
        full_solves = []

        def spy(S):
            full_solves.append(S.shape)
            return sym_eigen(S)

        monkeypatch.setattr(numerics, "sym_eigen", spy)
        klt = fit_klt(images, params, d=10)
        assert full_solves == []
        monkeypatch.setattr(numerics, "SUBSPACE_STEPS", 0)  # every solve falls back
        full = fit_klt(images, params, d=10)
        assert full_solves == [(920, 920)]
        assert np.array_equal(klt.mean, full.mean)
        assert np.abs(klt.basis - full.basis).max() <= 1e-10

    @staticmethod
    def _observe_by_slices(pixels, params, klt):
        """observe as the L-slice loop wrote it: the frame built on every call, and
        the L row slices of the products summed one numpy call each, r = 0, 1, ..."""
        height, stride, width = params.height, params.stride, params.image_dims[1]
        mean, basis = klt.mean, klt.basis
        frame = np.concatenate([mean[None], basis]).reshape(-1, height, width)
        products = (pixels @ frame.transpose(2, 1, 0).reshape(width, -1)).reshape(
            -1, height, len(frame))
        span = (params.block_count - 1) * stride + 1
        sums = products[:span:stride, 0].copy()
        for r in range(1, height):
            sums += products[r:r + span:stride, r]
        cum_norms = np.concatenate([[0.0], np.cumsum(np.einsum("ij,ij->i", pixels, pixels))])
        block_norms = cum_norms[height:height + span:stride] - cum_norms[:span:stride]
        coords = sums[:, 1:] - basis @ mean
        squared = (block_norms - 2.0 * sums[:, 0] + mean @ mean
                   - np.einsum("ij,ij->i", coords, coords))
        return coords, np.sqrt(np.maximum(squared, 0.0))

    @pytest.mark.parametrize("params", [
        BlockParams(3, 1, (9, 4)),  # stride 2
        BlockParams(4, 1, (11, 5)),  # stride 3: the last row is in no block
        BlockParams(4, 0, (13, 5)),  # no overlap
        BlockParams(6, 4, (9, 3)),  # stride 2, and the last row is in no block
        BlockParams(5, 0, (5, 4)),  # one block
        BlockParams(10, 9, (112, 92)),  # ORL: stride 1
    ], ids=str)
    def test_observe_sums_as_the_slice_loop_with_one_frame_per_basis(self, params):
        rng = np.random.default_rng(6)
        images = [rng.integers(0, 256, size=params.image_dims).astype(np.float64)
                  for _ in range(6)]
        klt = fit_klt(images, params, d=min(3, params.block_dim - 1))
        assert klt._frame is None
        frame = klt.frame(params.image_dims[1])
        assert not frame.flags.writeable
        for pixels in images + [rng.uniform(0.0, 255.0, size=params.image_dims)]:
            [coords], [residuals] = observe([GrayImage(*params.image_dims, pixels)], params, klt)
            want_coords, want_residuals = self._observe_by_slices(pixels, params, klt)
            assert coords.tobytes() == want_coords.tobytes()
            assert residuals.tobytes() == want_residuals.tobytes()
            assert klt.frame(params.image_dims[1]) is frame  # built once for the basis
        twin = replace(klt)  # another basis over the same arrays builds its own
        assert twin._frame is None
        twin_frame = twin.frame(params.image_dims[1])
        assert twin_frame is not frame and np.array_equal(twin_frame, frame)

    def test_observe_dimension_check(self):
        params = BlockParams(2, 1, (4, 3))
        klt = KltBasis(np.zeros(6), np.eye(6)[:2])
        with pytest.raises(DataError, match="dims"):
            observe([GrayImage(3, 4, np.zeros((3, 4)))], params, klt)  # transposed
        with pytest.raises(DataError, match="KLT dimension 4 does not match block dimension 6"):
            observe([GrayImage(4, 3, np.zeros((4, 3)))], params,
                    KltBasis(np.zeros(4), np.eye(4)[:2]))


def two_pass_reestimate(model, seqs, paths):
    """The segmental M-step spelled out: each state's two-pass mean and variance
    over the observations the paths assign it, rows from stay and move counts;
    an empty state and a never-left row keep the model's."""
    obs, states = np.concatenate(seqs), np.concatenate(paths)
    trans, means, variances = model.trans.copy(), model.means.copy(), model.variances.copy()
    for i in range(model.n_states):
        assigned = obs[states == i]
        if len(assigned):
            means[i] = assigned.mean(axis=0)
            variances[i] = np.maximum(assigned.var(axis=0), VAR_FLOOR)
        if i + 1 < model.n_states:
            stay = sum(np.count_nonzero((p[:-1] == i) & (p[1:] == i)) for p in paths)
            move = sum(np.count_nonzero((p[:-1] == i) & (p[1:] == i + 1)) for p in paths)
            if stay + move:
                trans[i, i], trans[i, i + 1] = stay / (stay + move), move / (stay + move)
    return trans, means, variances


def assert_matches_two_pass(model, reference):
    trans, means, variances = reference
    assert np.array_equal(model.trans, trans)
    for got, want in ((model.means, means), (model.variances, variances)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_hard_path_m_step_equals_the_two_pass_reference():
    # the uniform start and the Viterbi stage read 0/1 path posteriors through the
    # M-step Baum-Welch uses: one-pass moments, within rounding of the two-pass ones
    rng = np.random.default_rng(7)
    true = random_lr_model(rng, 4, 3)
    seqs = [sample_sequences(true, rng, 1, t_len)[0] for t_len in (20, 27, 20, 33)]
    blank = HmmModel(np.eye(4), np.zeros((4, 3)), np.ones((4, 3)))
    uniform = [(np.arange(len(s)) * 4) // len(s) for s in seqs]
    start = init_uniform(seqs, 4)
    assert_matches_two_pass(start, two_pass_reestimate(blank, seqs, uniform))
    stepped = viterbi_train(start, seqs, tol=-1.0, max_iter=1)
    paths = [viterbi(start, s)[0] for s in seqs]
    assert_matches_two_pass(stepped, two_pass_reestimate(start, seqs, paths))


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

    def test_batched_rows_match_lone_calls(self):
        # eight rows, each under its own model: random ones, and ones whose states
        # 0 and 1 share a Gaussian under stay = move = 0.5, so 0,0,1,2 and 0,1,1,2
        # score exactly the same and the lower predecessor at step 2 must win
        rng = np.random.default_rng(37)
        models, seqs = [], []
        for row in range(8):
            if row % 2:
                models.append(random_lr_model(rng, 3, 2))
                seqs.append(rng.normal(0.0, 2.0, size=(4, 2)))
            else:
                mean, far = rng.normal(0.0, 3.0, 2), rng.normal(0.0, 3.0, 2) + 20.0
                variances = np.tile(rng.uniform(0.5, 2.0, 2), (3, 1))
                models.append(lr_model([(0.5, 0.5), (0.5, 0.5), (1.0, 0.0)],
                                       [mean, mean, far], variances))
                seqs.append(np.vstack([np.tile(mean, (3, 1)), far]))
                tied = [path_logprob(models[-1], seqs[-1], path)
                        for path in ([0, 0, 1, 2], [0, 1, 1, 2])]
                assert tied[0] == tied[1]
        p = hmm1d._stack(models)
        paths, scores = hmm1d._viterbi(p, hmm1d._log_emissions(p, hmm1d._powers(np.stack(seqs))))
        for row, (model, seq) in enumerate(zip(models, seqs)):
            path, score = viterbi(model, seq)
            assert np.array_equal(paths[row], path)
            assert scores[row] == score
            assert np.array_equal(path, brute_force_viterbi(model, seq)[0])
            if row % 2 == 0:
                assert np.array_equal(path, [0, 0, 1, 2])

    def test_infeasible_sequence_names_the_forward_pass_step(self):
        # a mean of 1e200 overflows means^2 / variances, so its state emits -inf: the
        # mass dies at step 0, or at step 1, where the forced move enters such a state
        far = lr_model([(0.5, 0.5), (1.0, 0.0)], [[1e200], [1e200]], [[1.0]] * 2)
        forced = lr_model([(0.0, 1.0), (0.0, 1.0), (1.0, 0.0)], [[0.0], [1e200], [1e200]],
                          [[1.0]] * 3)
        for model, step in ((far, 0), (forced, 1)):
            seq = np.zeros((4, 1))
            with np.errstate(over="ignore"):
                with pytest.raises(NumericError, match=f"vanished at step {step}:") as by_path:
                    viterbi(model, seq)
                with pytest.raises(NumericError) as by_sum:
                    loglik(model, seq)
            assert str(by_path.value) == str(by_sum.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_is_data_error(self, bad):
        seq = np.array([[0.0], [1.0], [bad], [0.5]])
        for call in (lambda: viterbi(two_state_example(), seq),
                     lambda: loglik(two_state_example(), seq),
                     lambda: init_uniform([np.zeros((4, 1)), seq], 2)):
            with pytest.raises(DataError, match="^non-finite observation at step 2$"):
                call()

    @pytest.mark.parametrize("far", [1e300, -1e300])
    def test_observation_past_every_state_vanishes_without_warning(self, far):
        # x^2 overflows, so the step emits -inf in every state; warnings are errors here
        seq = np.array([[0.0], [far], [1.0]])
        with pytest.raises(NumericError, match="^recursion vanished at step 1: ") as by_path:
            viterbi(two_state_example(), seq)
        with pytest.raises(NumericError) as by_sum:
            loglik(two_state_example(), seq)
        assert str(by_path.value) == str(by_sum.value)

    @pytest.mark.parametrize("far", [1e160, -1e300])
    def test_training_step_past_the_float_range_is_data_error(self, far):
        # scoring emits -inf for such a step (above); training refuses it, and
        # warnings are errors here
        seq = np.array([[0.0], [1.0], [0.5], [2.0], [far], [1.5]])
        with pytest.raises(DataError, match="^training sequence 1: the square of step 4 "
                                            "passes the float range$"):
            init_uniform([np.zeros((6, 1)), seq, np.ones((6, 1))], 2)
        with pytest.raises(DataError, match="^training sequence 1 takes the sum of squared "
                                            "steps of state 0 past the float range$"):
            init_uniform([np.zeros((6, 1)), np.full((6, 1), 1.2e154)], 2)  # a sum overflows

    def test_state_sum_past_the_float_range_names_state_and_sequence(self):
        # each square is finite, but state 1 sums nine of them; warnings are errors here
        seqs = [np.vstack([np.full((3, 2), float(k)), np.full((3, 2), 1.2e154)])
                for k in range(3)]
        assert np.isfinite(np.concatenate(seqs) ** 2).all()
        with pytest.raises(DataError, match="^training sequence 0 takes the sum of squared "
                                            "steps of state 1 past the float range$"):
            init_uniform(seqs, 2)
        # one such step in each of the last two sequences: their running sum passes the range
        seqs[0][3:] = 1.0
        seqs[1][3:5] = seqs[2][3:5] = 1.0
        with pytest.raises(DataError, match="^training sequence 2 takes the sum of squared "
                                            "steps of state 1 past the float range$"):
            init_uniform(seqs, 2)

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

    def test_path_far_behind_at_first_is_kept(self):
        # after x = -2, state 1 trails state 0 by about 800 nats, yet every path
        # that reaches state 2's x = 60 runs through it; linear-domain masses
        # normalised per step round it to 0 and gave -5409.37
        model = lr_model([(0.5, 0.5), (0.5, 0.5), (1.0, 0.0)],
                         [[0.0], [-42.0], [60.0]], [[1.0], [1.0], [1.0]])
        seq = np.array([[0.0], [-2.0], [60.0], [60.0], [60.0]])
        exact = brute_force_forward(model, seq)
        assert exact == pytest.approx(-805.98, abs=0.01)
        assert abs(loglik(model, seq) - exact) <= 1e-12 * abs(exact)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.integers(2, 7), st.data())
    def test_matches_path_sum_far_from_the_means(self, n_states, t_len, data):
        values = st.floats(-60.0, 60.0)
        stays = data.draw(st.lists(st.floats(0.05, 0.95), min_size=n_states - 1,
                                   max_size=n_states - 1))
        model = lr_model([(a, 1.0 - a) for a in stays] + [(1.0, 0.0)],
                         data.draw(arrays(np.float64, (n_states, 1), elements=values)),
                         np.ones((n_states, 1)))
        seq = data.draw(arrays(np.float64, (t_len, 1), elements=values))
        exact = brute_force_forward(model, seq)
        assert abs(loglik(model, seq) - exact) <= 1e-12 * abs(exact) + 1e-9

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

    def test_backward_far_behind_state_trains(self):
        # at x = -2 state 1 sits 720 nats below state 0; at v state 0 sits 700
        # nats below state 2, which only paths through state 1 reach. A scaled
        # backward pass overflowed here; log beta has no bound to break
        model = lr_model([(0.5, 0.5), (0.5, 0.5), (1.0, 0.0)],
                         [[0.0], [-40.0], [38.0]], [[1.0], [1.0], [1.0]])
        v = (700.0 + 0.5 * 38.0 ** 2) / 38.0
        seq = np.array([[0.0], [-2.0], [v], [v], [v]])
        history = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            baum_welch(model, [seq], max_iter=1, history=history)
            [score], [gamma], [counts] = hmm1d._expect(hmm1d._stack([model]),
                                                       hmm1d._powers(seq[None]))
        exact = brute_force_forward(model, seq)
        assert abs(history[0] - exact) <= 1e-12 * abs(exact)
        assert score == history[0]
        assert np.isfinite(gamma).all() and np.isfinite(counts).all()
        assert np.abs(gamma.sum(axis=1) - 1.0).max() <= 1e-12

    def test_unreachable_state_with_a_far_better_emission_is_masked(self):
        # state 0 is never left, so state 1 is never reached; at x = 0 its
        # emission beats state 0's by 450 nats a step, so its log beta is large,
        # yet it must get no posterior mass and raise no overflow
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
        assert bank.labels == ["a", "b"]
        for label, img in entries:
            [result] = recognize(bank, [img])
            single = oracle_scores(bank, img)[1]
            assert_oracle_winner(bank, result, single)
            assert result[0] == label
            assert single[bank.labels.index(label)] > single[1 - bank.labels.index(label)]

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
            assert_oracle_winner(bank, recognize(bank, [image])[0], oracle_scores(bank, image)[1])

    def test_chunked_scores_equal_each_probe_alone(self, banded, banded_models):
        bank = banded_models.bank
        probes = [image for _, _, image in banded.test_entries]
        count = 2 * PROBE_CHUNK + 3  # three chunks, the last one short
        assert count <= len(probes)
        probes = probes[:count]
        batched = recognize(bank, probes)
        predicted = bank.predict(probes)
        assert len(batched) == len(predicted) == count
        for image, result, (label, score) in zip(probes, batched, predicted):
            [(alone_label, alone_score)] = bank.predict([image])
            assert (label, result[0]) == (alone_label, alone_label)
            assert (np.float64(score).view(np.int64) == np.float64(result[1]).view(np.int64)
                    == np.float64(alone_score).view(np.int64))
            assert_oracle_winner(bank, result, oracle_scores(bank, image)[1])

    def test_wrong_size_probe_anywhere_in_a_batch_is_data_error(self, banded, banded_models):
        probes = [image for _, _, image in banded.test_entries][:2 * PROBE_CHUNK + 1]
        odd = GrayImage(8, 6, np.zeros((8, 6)))
        for model in (banded_models.eigen, banded_models.fisher, banded_models.bank):
            for at in (0, PROBE_CHUNK - 1, PROBE_CHUNK + 2, len(probes)):
                with pytest.raises(DataError):
                    model.predict(probes[:at] + [odd] + probes[at:])

    def test_empty_batch_scores_nothing(self, banded_models):
        assert recognize(banded_models.bank, []) == []

    def test_observe_of_a_batch_is_each_image_observed_alone(self, banded, banded_models):
        # train_bank observes PROBE_CHUNK images at a time (20 images: 8, 8 and 4), and
        # a batch of three chunks' worth of training and test images, the last short
        entries = [(label, image) for label, _, image in banded.train_entries]
        residuals = []
        bank = train_bank(entries, banded_models.bank.params, n_states=5, klt_dim=10,
                          residuals=residuals)
        params, klt = bank.params, bank.klt
        assert [resids.tobytes() for resids in residuals] == [
            observe([image], params, klt)[1][0].tobytes() for _, image in entries]
        images = [image for _, _, image in banded.train_entries + banded.test_entries][::2]
        count = 2 * PROBE_CHUNK + 3
        assert count <= len(images)
        coords, distances = observe(images[:count], params, klt)
        assert coords.shape == (count, params.block_count, klt.dim)
        assert distances.shape == (count, params.block_count)
        for image, got_coords, got_distances in zip(images, coords, distances):
            [want_coords], [want_distances] = observe([image], params, klt)
            assert got_coords.tobytes() == want_coords.tobytes()
            assert got_distances.tobytes() == want_distances.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_step_in_a_chunk_is_named_as_for_the_probe_alone(self, banded,
                                                                        banded_models, bad):
        # the chunk's one check names the first probe with a non-finite step, and its
        # step, in the words of that probe scored alone; a later probe's earlier step
        # is not named
        bank = banded_models.bank
        probes = [image for _, _, image in banded.test_entries][:PROBE_CHUNK]
        features = [features_for(bank, [image])[0] for image in probes]
        at = PROBE_CHUNK // 2
        features[at][7, 3] = bad
        features[at + 2][1, 0] = bad
        with pytest.raises(DataError) as alone:
            recognize(bank, [probes[at]], [features[at]])
        with pytest.raises(DataError) as chunk:
            recognize(bank, probes, features)
        assert str(chunk.value) == str(alone.value) == "non-finite observation at step 7"

    def test_one_observation_sequence_per_image(self, banded, banded_models):
        bank = banded_models.bank
        probes = [image for _, _, image in banded.test_entries][:2]
        with pytest.raises(DataError, match="2 observation sequences for 1 images"):
            recognize(bank, probes[:1], features_for(bank, probes))

    @pytest.fixture
    def mixed_lengths(self):
        rng = np.random.default_rng(61)
        true = random_lr_model(rng, 4, 2)
        seqs = [sample_sequences(true, rng, 1, t_len)[0] for t_len in (12, 15, 12)]
        return init_uniform(seqs, 4), seqs

    def test_viterbi_train_mixed_lengths(self, mixed_lengths):
        start, seqs = mixed_lengths
        assert [s.shape[0] for s in seqs] == [12, 15, 12]
        history = []
        model = viterbi_train(start, seqs, tol=0.0, max_iter=6, history=history)
        assert_left_to_right(model)
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))
        assert history[0] == sum(viterbi(start, s)[1] for s in seqs)
        # sequences are batched by length, yet each update reads every sequence's own
        # Viterbi path under the model it updates, in input order
        fitted = start
        for _ in range(6):
            paths = [viterbi(fitted, seq)[0] for seq in seqs]
            stepped = viterbi_train(fitted, seqs, tol=-1.0, max_iter=1)
            assert_matches_two_pass(stepped, two_pass_reestimate(fitted, seqs, paths))
            fitted = stepped
        six = viterbi_train(start, seqs, tol=-1.0, max_iter=6)
        for name in ("trans", "means", "variances"):
            assert np.array_equal(getattr(fitted, name), getattr(six, name))

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
            seqs = [features_for(bank, [image])[0] for lb, image in entries if lb == label]
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

    @pytest.mark.parametrize("e_step, train", [("_segment", viterbi_train),
                                               ("_expect", baum_welch)])
    def test_fit_of_ragged_models_equals_each_model_alone(self, e_step, train):
        # 2, 4 and 1 sequences of mixed lengths, so each length batch mixes models and
        # every model's rows are split across batches: a row summed into the wrong model shows
        rng = np.random.default_rng(71)
        true = random_lr_model(rng, 3, 2)
        seqs = [[sample_sequences(true, rng, 1, t_len)[0] for t_len in lengths]
                for lengths in ((9, 13), (13, 9, 16, 9))]
        seqs.append([np.concatenate([rng.normal(0.0, 1.0, (8, 2)), rng.normal(5.0, 1.0, (8, 2))])])
        settled = train(init_uniform(seqs[0], 3), seqs[0], tol=1e-13, max_iter=500)
        # no path or posterior reaches the last state of the third model
        far = lr_model([(0.5, 0.5), (0.5, 0.5), (1.0, 0.0)], [[0.0, 0.0], [5.0, 5.0], [1e3, 1e3]],
                       [[1.0, 1.0], [1.0, 1.0], [2.0, 3.0]])
        models = [settled, init_uniform(seqs[1], 3), far]
        histories = [[], [], []]
        fitted = hmm1d._fit(models, seqs, hmm1d.DEFAULT_TOL, hmm1d.DEFAULT_MAX_ITER, histories,
                            getattr(hmm1d, e_step))
        for model, subject, history, batched in zip(models, seqs, histories, fitted):
            alone_history = []
            alone = train(model, subject, history=alone_history)
            assert history == alone_history
            for name in ("trans", "means", "variances"):
                assert np.array_equal(getattr(batched, name), getattr(alone, name))
            assert batched.warnings == alone.warnings
        assert len(histories[0]) == 2 < min(len(histories[1]), len(histories[2]))  # stops first
        assert fitted[2].warnings > far.warnings  # its last state was empty
        # the uniform start of the same models, batched, is init_uniform of each
        blanks = [hmm1d._blank(subject, 3) for subject in seqs]
        for batched, subject in zip(hmm1d._fit(blanks, seqs, 0.0, 1, [[], [], []],
                                               hmm1d._uniform), seqs):
            alone = init_uniform(subject, 3)
            for name in ("trans", "means", "variances"):
                assert np.array_equal(getattr(batched, name), getattr(alone, name))

    def test_overflow_in_a_later_model_names_its_own_sequence(self):
        # the first model has three sequences, so the second's rows are rows 3 and 4
        # of the batch; warnings are errors here
        clean = [np.arange(6.0)[:, None] + k for k in range(3)]
        square = np.array([[0.0], [1.0], [0.5], [2.0], [1e160], [1.5]])
        total = np.vstack([np.ones((3, 1)), np.full((3, 1), 1.2e154)])  # state 1 sums three

        def start(*seqs):
            return hmm1d._fit([hmm1d._blank(s, 2) for s in seqs], list(seqs), 0.0, 1,
                              [[] for _ in seqs], hmm1d._uniform)

        with pytest.raises(DataError, match="^training sequence 1: the square of step 4 "
                                            "passes the float range$"):
            start(clean, [np.zeros((6, 1)), square])
        with pytest.raises(DataError, match="^training sequence 1 takes the sum of squared "
                                            "steps of state 1 past the float range$"):
            start(clean, [np.zeros((6, 1)), total])
        # a model before it that passes the range is named first
        with pytest.raises(DataError, match="^training sequence 2 takes the sum of squared "
                                            "steps of state 1 past the float range$"):
            start(clean[:2] + [total], [np.zeros((6, 1)), square])

    def test_training_builds_each_model_once_per_stage(self, monkeypatch):
        # the blank starts, then one model per subject as each of the three stages
        # returns: a stage that rebuilt its models every iteration would build more
        built, m_steps = [], []
        check, m_step = HmmModel.__post_init__, hmm1d._m_step
        monkeypatch.setattr(HmmModel, "__post_init__", lambda model: (built.append(model),
                                                                      check(model))[1])
        monkeypatch.setattr(hmm1d, "_m_step", lambda *a: (m_steps.append(a), m_step(*a))[1])
        entries = synth.make_banded_dataset(4, 3, 24, 8, seed=0)
        bank = train_bank(entries, BlockParams(4, 3, (24, 8)), n_states=4, klt_dim=3)
        assert len(built) <= (1 + 3) * len(bank.labels)
        assert len(m_steps) <= 1 + 2 * hmm1d.DEFAULT_MAX_ITER  # one per iteration

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
        got = hmm1d._log_emissions(hmm1d._stack([model]), hmm1d._powers(seq[None]))[0]
        logdet = np.sum(np.log(2.0 * np.pi * variances), axis=1)
        size = np.sum((seq[:, None, :] ** 2 + means[None] ** 2) / variances, axis=2) + abs(logdet)
        # recursive summation of the 2d + 2 terms of each form, each term at most 2 * size
        bound = 4 * (d + 1) * np.finfo(float).eps * size
        assert np.all(np.abs(got - direct_log_emissions(model, seq)) <= bound)

    def test_recognize_scores_match_the_difference_form(self, banded, banded_models):
        bank = banded_models.bank
        probes = [image for _, _, image in banded.test_entries]
        for image, result in zip(probes, recognize(bank, probes)):
            obs, single = oracle_scores(bank, image)
            for label, score in zip(bank.labels, single):
                direct = direct_loglik(bank.models[label], obs)
                assert abs(score - direct) <= 1e-12 * abs(direct)
            assert_oracle_winner(bank, result, single)

    def test_recognize_working_memory(self):
        # 40 subjects x 16 probes at ORL scale, 8 to a chunk: the one emission
        # buffer and the forward pass's log alpha, 1.3 MB each, peak at 2.8 MB
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
        assert peak < 4e6

    def test_pooled_forward_passes_keep_working_memory_bounded(self, forward_widths):
        # identical subjects tie, so the bound keeps every (probe, subject) column and
        # each chunk fills one max pass's width: four chunks take four passes, and
        # their peak is that of one chunk to within less than one emission buffer
        params = BlockParams(10, 9, (112, 92))
        rng = np.random.default_rng(73)
        one = random_bank(rng, 1, 5, params, 10)
        subjects = 8
        bank = SubjectBank(params, one.klt, {f"s{i:02d}": one.models["s00"]
                                             for i in range(subjects)})
        probes = [GrayImage(112, 92, rng.uniform(0.0, 255.0, (112, 92)))
                  for _ in range(4 * PROBE_CHUNK)]
        recognize(bank, probes[:1])  # builds the KLT frame and centre it keeps
        peaks = []
        for count in (PROBE_CHUNK, 4 * PROBE_CHUNK):
            forward_widths.clear()
            tracemalloc.start()
            try:
                results = recognize(bank, probes[:count])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert [label for label, _ in results] == ["s00"] * count
            assert forward_widths == [PROBE_CHUNK * subjects] * (count // PROBE_CHUNK)
        buffer = PROBE_CHUNK * subjects * params.block_count * 5 * 8
        assert peaks[1] - peaks[0] < buffer

    @pytest.mark.parametrize("n_states, height", [(1, 8), (3, 3), (1, 3)])
    def test_one_state_and_one_block_banks(self, n_states, height):
        # one state leaves the move diagonal empty; an image one block high gives T = 1
        rng = np.random.default_rng(72)
        params = BlockParams(3, 2, (height, 4))
        bank = random_bank(rng, 3, n_states, params, 2)
        probes = [GrayImage(height, 4, rng.uniform(0.0, 255.0, (height, 4))) for _ in range(3)]
        for image, result in zip(probes, recognize(bank, probes)):
            obs, single = oracle_scores(bank, image)
            assert obs.shape[0] == height - 2
            for label, score in zip(bank.labels, single):
                direct = direct_loglik(bank.models[label], obs)
                assert abs(score - direct) <= 1e-12 * abs(direct)
            assert_oracle_winner(bank, result, single)


class TestBoundedRecognition:
    """recognize scores only the subjects whose max-product bound reaches the leader."""

    def test_bound_holds_against_path_enumeration(self):
        rng = np.random.default_rng(81)
        for n_states in range(1, 5):
            for t_len in range(1, 7):
                paths = all_feasible_paths(n_states, t_len)
                log_paths = hmm1d._log_path_count(n_states, t_len)
                assert log_paths == math.log(len(paths))
                for _ in range(3):
                    model = random_lr_model(rng, n_states, 2)
                    seq = rng.normal(0.0, 2.0, size=(t_len, 2))
                    lps = [path_logprob(model, seq, path) for path in paths]
                    best, total = viterbi(model, seq)[1], loglik(model, seq)
                    assert abs(best - max(lps)) <= 1e-9
                    assert abs(total - logsumexp(lps)) <= 1e-9
                    assert best <= total <= best + log_paths

    def test_bound_is_reached_when_every_path_is_equally_likely(self):
        # fewer than N - 1 moves never reach the absorbing state: under stay = move =
        # 1/2 and one Gaussian, each of the 2^(T-1) paths is as likely as the best
        model = lr_model([(0.5, 0.5)] * 4 + [(1.0, 0.0)], [[1.0]] * 5, [[2.0]] * 5)
        for t_len in range(1, 5):
            seq = np.linspace(-1.0, 1.0, t_len)[:, None]
            log_paths = hmm1d._log_path_count(5, t_len)
            assert log_paths == math.log(2 ** (t_len - 1))
            total = loglik(model, seq)
            assert abs(total - (viterbi(model, seq)[1] + log_paths)) <= 1e-12 * (1.0 + abs(total))

    def test_forward_scores_fewer_columns_than_probes_by_subjects(self, banded, banded_models,
                                                                  forward_widths):
        bank = banded_models.bank
        probes = [image for _, _, image in banded.test_entries]
        scored = recognize(bank, probes)
        # the kept columns of every chunk wait for one pass, none wider than a max pass
        assert len(forward_widths) == 1
        assert max(forward_widths) <= PROBE_CHUNK * len(bank.labels)
        assert len(probes) <= sum(forward_widths) < len(probes) * len(bank.labels)
        forward_widths.clear()
        labelled = recognize(bank, probes, scores=False)
        assert [label for label, _ in labelled] == [label for label, _ in scored]
        assert all(score is None for _, score in labelled)
        assert sum(forward_widths) < len(probes)  # a lone candidate needs no forward pass

    def test_one_candidate_route_runs_no_forward_pass(self, banded, banded_models,
                                                      forward_widths):
        m = banded_models
        _, _, img = banded.test_entries[2]
        probe = GrayImage(img.h, img.w, np.roll(img.pixels, 1, axis=0))
        [(label, _)] = recognize(m.bank, [probe])
        assert forward_widths == [1]  # the bound leaves one candidate
        forward_widths.clear()
        pose_only = DispatchPolicy(tau_illum=1e9, tau_pose=0.0, tau_occl=1.0)
        method, routed, _ = recognize_multi(m.eigen, m.fisher, m.bank, m.frontal, pose_only,
                                            m.context, probe)
        assert (method, routed) == (METHOD_HMM, label)
        assert forward_widths == []

    @pytest.mark.parametrize("twin", ["s00", "s01a"])  # sorts before and after s01
    def test_identical_subjects_both_reach_the_forward_and_the_lower_label_wins(
            self, banded, banded_models, forward_widths, twin):
        bank = banded_models.bank
        truth, _, image = banded.test_entries[0]
        assert truth == "s01" and recognize(bank, [image])[0][0] == truth
        twins = replace(bank, models={**bank.models, twin: bank.models[truth]})
        forward_widths.clear()
        [result] = recognize(twins, [image])
        assert forward_widths == [2]
        assert result[0] == min(truth, twin)
        assert_oracle_winner(twins, result, oracle_scores(twins, image)[1])

    @pytest.mark.parametrize("inside", [True, False])
    def test_runner_up_at_the_edge_of_the_window(self, banded, banded_models, forward_widths,
                                                 monkeypatch, inside):
        # the margin puts the window's edge a millionth of the runner-up's gap beyond it or
        # short of it: it is scored or skipped, and the winner and its score do not move
        bank = banded_models.bank
        log_paths = hmm1d._log_path_count(5, bank.params.block_count)
        cases = []
        for _, _, image in banded.test_entries:
            obs = features_for(bank, [image])[0]
            best = np.sort([viterbi(bank.models[lb], obs)[1] for lb in bank.labels])
            cases.append((best[-1] - best[-2] - log_paths, best[-1], image))
        gap, lead, image = min((case for case in cases if case[0] > 0.0), key=lambda c: c[0])
        assert gap > hmm1d.BOUND_MARGIN * (1.0 + abs(lead))  # skipped at the default margin
        monkeypatch.setattr(hmm1d, "BOUND_MARGIN",
                            gap * (1.0 + (1e-6 if inside else -1e-6)) / (1.0 + abs(lead)))
        [result] = recognize(bank, [image])
        assert forward_widths == [2 if inside else 1]
        assert_oracle_winner(bank, result, oracle_scores(bank, image)[1])

    def test_winner_is_the_forward_leader_not_the_max_product_leader(self):
        # "a" has one likely path, "b" eight paths each half as likely per step: "a" leads
        # by V, yet "b"'s eight paths sum past "a"'s one, and the forward pass decides
        stay = lr_model([(0.999, 0.001)] + [(0.5, 0.5)] * 3 + [(1.0, 0.0)],
                        [[0.0]] + [[50.0]] * 4, [[1.0]] * 5)
        spread = lr_model([(0.5, 0.5)] * 4 + [(1.0, 0.0)], [[0.0]] * 5, [[1.0]] * 5)
        bank = SubjectBank(BlockParams(1, 0, (4, 1)), None, {"a": stay, "b": spread})
        image = GrayImage(4, 1, np.zeros((4, 1)))
        obs = features_for(bank, [image])[0]
        assert viterbi(stay, obs)[1] > viterbi(spread, obs)[1]
        for scores in (True, False):
            [(label, _)] = recognize(bank, [image], scores=scores)
            assert label == "b"
        assert_oracle_winner(bank, recognize(bank, [image])[0], oracle_scores(bank, image)[1])
